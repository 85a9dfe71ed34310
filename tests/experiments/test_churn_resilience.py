"""Tests for the churn-resilience experiment."""

from __future__ import annotations

import math

import pytest

from repro.experiments.churn_resilience import (
    ChurnResilienceConfig,
    ChurnResilienceResult,
    run_churn_resilience,
)
from repro.experiments.protocol_comparison import (
    ProtocolComparisonConfig,
    run_protocol_comparison,
)
from repro.experiments.registry import get_experiment


def small_config(**overrides) -> ChurnResilienceConfig:
    defaults = dict(
        n=250,
        qs=(0.9,),
        churn_rates=(0.0, 0.05, 0.15),
        repetitions=12,
        seed=42,
    )
    defaults.update(overrides)
    return ChurnResilienceConfig(**defaults)


class TestConfig:
    def test_roster_is_zoo_plus_peer_sampling_and_anchor(self):
        ids = [pid for pid, _ in ChurnResilienceConfig().protocols()]
        assert ids == [
            "flooding",
            "pbcast",
            "lpbcast",
            "rdg",
            "fixed-fanout",
            "random-fanout",
            "hyparview",
            "lpbcast-frozen",
        ]

    def test_frozen_anchor_matches_peer_view_budget(self):
        # The comparison isolates view *repair*: the frozen lpbcast anchor
        # must gossip over views of exactly the hyparview active-view size.
        protocols = dict(ChurnResilienceConfig().protocols())
        assert protocols["lpbcast-frozen"].view_size == protocols["hyparview"].active_size

    def test_churn_model_grid(self):
        config = ChurnResilienceConfig(churn_rates=(0.0, 0.1), initially_absent=0.2)
        zero, churned = config.cells()[:2]
        assert zero.churn_model() is None
        model = churned.churn_model()
        assert model.leave_rate == 0.1
        assert model.join_rate == 0.1
        assert model.initially_absent == 0.2

    def test_with_scale_shrinks(self):
        config = ChurnResilienceConfig().with_scale(0.1)
        assert config.n == 200
        assert config.repetitions == 8
        assert config.churn_rates == ChurnResilienceConfig().churn_rates

    def test_with_scale_identity_at_full(self):
        config = ChurnResilienceConfig()
        assert config.with_scale(1.0) is config

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ChurnResilienceConfig(n=1)
        with pytest.raises(ValueError):
            ChurnResilienceConfig(qs=())
        with pytest.raises(ValueError):
            ChurnResilienceConfig(churn_rates=())
        with pytest.raises(ValueError):
            ChurnResilienceConfig(churn_rates=(1.0,))
        with pytest.raises(ValueError):
            ChurnResilienceConfig(initially_absent=-0.1)
        with pytest.raises(ValueError):
            ChurnResilienceConfig().with_scale(0.0)


class TestRun:
    @pytest.fixture(scope="class")
    def result(self) -> ChurnResilienceResult:
        return run_churn_resilience(small_config())

    def test_grid_is_complete(self, result):
        assert len(result.cells) == 8 * 1 * 3
        assert len(result.protocols()) == 8
        for protocol in result.protocols():
            series = result.series(protocol, "churn_rate", q=0.9)
            assert [p.churn_rate for p in series] == [0.0, 0.05, 0.15]

    def test_measurements_are_sane(self, result):
        for point in result.cells:
            assert 0.0 <= point.reliability <= 1.0
            assert 0.0 <= point.survivor_fraction <= 1.0
            assert 0.0 <= point.atomic_rate <= 1.0
            assert point.messages_per_member > 0.0
            assert point.repetitions == 12

    def test_zero_churn_keeps_everyone(self, result):
        for protocol in result.protocols():
            point = result.point(protocol, 0.9, 0.0)
            assert point.survivor_fraction == 1.0

    def test_churn_erodes_survivors(self, result):
        for protocol in result.protocols():
            series = result.series(protocol, "churn_rate", q=0.9)
            assert series[-1].survivor_fraction < series[0].survivor_fraction

    def test_peer_sampling_stats_only_for_hyparview(self, result):
        for point in result.cells:
            if point.protocol == "hyparview" and point.churn_rate > 0.0:
                assert point.view_staleness > 0.0
                assert point.repairs > 0
                assert point.repair_latency > 0.0
            elif point.protocol != "hyparview":
                assert math.isnan(point.view_staleness)
                assert point.repairs == 0

    def test_to_table_renders(self, result):
        table = result.to_table()
        for protocol in result.protocols():
            assert protocol in table
        assert "churn" in table and "staleness" in table

    def test_check_shape_clean_on_small_run(self, result):
        assert result.check_shape() == []

    def test_point_lookup_raises_for_unknown(self, result):
        with pytest.raises(KeyError):
            result.point("hyparview", 0.9, 0.123)
        with pytest.raises(KeyError):
            result.point("unknown", 0.9, 0.05)

    def test_deterministic_for_seed(self):
        a = run_churn_resilience(small_config(churn_rates=(0.05,), repetitions=6))
        b = run_churn_resilience(small_config(churn_rates=(0.05,), repetitions=6))
        for pa, pb in zip(a.cells, b.cells, strict=True):
            for field, va in vars(pa).items():
                vb = getattr(pb, field)
                if isinstance(va, float) and math.isnan(va):
                    assert math.isnan(vb), f"{pa.protocol}.{field}"
                else:
                    assert va == vb, f"{pa.protocol}.{field}"

    def test_zero_churn_column_matches_protocol_comparison(self):
        # At churn rate 0 the sweep runs the exact static engines, so the
        # zoo's numbers must reproduce the static experiment's up to
        # Monte-Carlo error (different seed streams).
        churn = run_churn_resilience(small_config(churn_rates=(0.0,), repetitions=16))
        comparison = run_protocol_comparison(
            ProtocolComparisonConfig(n=250, qs=(0.9,), repetitions=16, seed=42)
        )
        for protocol, _ in ProtocolComparisonConfig().protocols():
            a = churn.point(protocol, 0.9, 0.0)
            b = comparison.point(protocol, 0.9)
            se = (a.reliability_std**2 / 16 + b.reliability_std**2 / 16) ** 0.5
            tolerance = max(4.0 * se, 0.02)
            gap = abs(a.reliability - b.reliability)
            assert gap < tolerance, (
                f"{protocol}: zero-churn gap {gap:.4f} exceeds {tolerance:.4f}"
            )


class TestRegistry:
    def test_registered(self):
        spec = get_experiment("churn_resilience")
        assert spec.analytical_only is False
        assert spec.config_factory is ChurnResilienceConfig
        config = spec.config_factory()
        assert hasattr(config, "with_scale")
