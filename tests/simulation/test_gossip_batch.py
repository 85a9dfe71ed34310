"""Equivalence and edge-case tests for the batched gossip engine.

The batched engine (:func:`simulate_gossip_batch`) must agree with the scalar
reference (:func:`simulate_gossip_once`) **in distribution**: the two consume
randomness in different orders, so the tests compare statistics over matched
replica counts through the shared harness in ``tests/helpers/statistical.py``
(tolerance-banded mean reliability, KS and chi-square checks on the
delivered-count samples) rather than per-seed outputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import FixedFanout, PoissonFanout
from repro.core.poisson_case import poisson_reliability
from repro.simulation.gossip import simulate_gossip_batch, simulate_gossip_once
from repro.simulation.churn import (
    ChurnScheduleBatch,
    PoissonChurnModel,
    trivial_schedule_batch,
)
from repro.simulation.membership import FullView, MembershipView, UniformPartialView
from repro.simulation.metrics import BatchResult
from repro.simulation.network import NetworkModel
from repro.simulation.transport import Transport
from tests.helpers.statistical import (
    assert_reliability_within_band,
    assert_same_counts_chisquare,
    assert_same_distribution,
)


def _scalar_samples(n, dist, q, repetitions, seed, **kwargs):
    rng = np.random.default_rng(seed)
    return [
        simulate_gossip_once(n, dist, q, seed=rng, **kwargs)
        for _ in range(repetitions)
    ]


class TestBatchBasics:
    def test_shapes_and_invariants(self):
        result = simulate_gossip_batch(400, PoissonFanout(4.0), 0.8, repetitions=12, seed=1)
        assert isinstance(result, BatchResult)
        assert result.alive.shape == result.delivered.shape == (12, 400)
        assert result.rounds.shape == (12,)
        assert result.repetitions == 12
        # Delivered members are always alive; the source is always delivered.
        assert not np.any(result.delivered & ~result.alive)
        assert np.all(result.delivered[:, result.source])
        assert np.all(result.alive[:, result.source])
        assert np.all((result.reliability() >= 0.0) & (result.reliability() <= 1.0))
        assert np.all(result.duplicates >= 0)
        assert np.all(result.messages_sent >= result.duplicates)

    def test_deterministic_for_seed(self):
        a = simulate_gossip_batch(300, PoissonFanout(3.0), 0.7, repetitions=6, seed=42)
        b = simulate_gossip_batch(300, PoissonFanout(3.0), 0.7, repetitions=6, seed=42)
        np.testing.assert_array_equal(a.delivered, b.delivered)
        np.testing.assert_array_equal(a.rounds, b.rounds)
        np.testing.assert_array_equal(a.messages_sent, b.messages_sent)
        np.testing.assert_array_equal(a.duplicates, b.duplicates)

    def test_replicas_are_independent(self):
        result = simulate_gossip_batch(200, PoissonFanout(3.0), 0.6, repetitions=8, seed=2)
        masks = {tuple(row.tolist()) for row in result.alive}
        assert len(masks) > 1

    def test_alive_override(self):
        n, reps = 30, 4
        alive = np.zeros((reps, n), dtype=bool)
        alive[:, :5] = True  # only members 0-4 are alive
        result = simulate_gossip_batch(
            n, FixedFanout(n - 1), 1.0, repetitions=reps, seed=4, alive=alive
        )
        assert np.all(result.n_alive() == 5)
        assert np.all(result.reliability() == 1.0)
        assert not np.any(result.delivered[:, 5:])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simulate_gossip_batch(100, PoissonFanout(3.0), 0.5, repetitions=0)
        with pytest.raises(ValueError):
            simulate_gossip_batch(
                100, PoissonFanout(3.0), 0.5, repetitions=3, alive=np.ones((2, 100), bool)
            )
        with pytest.raises(ValueError):
            simulate_gossip_batch(
                100, PoissonFanout(3.0), 0.5, repetitions=3, membership=FullView(50)
            )
        with pytest.raises(ValueError):
            simulate_gossip_batch(100, PoissonFanout(3.0), 1.5, repetitions=3)
        with pytest.raises(ValueError, match="either through transport"):
            simulate_gossip_batch(
                100,
                PoissonFanout(3.0),
                0.5,
                repetitions=3,
                transport=Transport(np.random.default_rng(0), 3, 100, 0),
                network=NetworkModel(),
            )


class TestEdgeCases:
    def test_single_member_group(self):
        result = simulate_gossip_batch(1, PoissonFanout(3.0), 1.0, repetitions=6, seed=5)
        assert np.all(result.n_delivered() == 1)
        assert np.all(result.reliability() == 1.0)
        assert np.all(result.messages_sent == 0)
        assert np.all(result.rounds == 1)

    def test_zero_fanout_dies_immediately(self):
        result = simulate_gossip_batch(50, FixedFanout(0), 1.0, repetitions=5, seed=6)
        assert np.all(result.n_delivered() == 1)
        assert np.all(result.rounds == 1)
        assert np.all(result.messages_sent == 0)
        scalar = simulate_gossip_once(50, FixedFanout(0), 1.0, seed=6)
        assert scalar.rounds == result.rounds[0]

    def test_q_zero_only_source_alive(self):
        result = simulate_gossip_batch(40, FixedFanout(5), 0.0, repetitions=5, seed=7)
        assert np.all(result.n_alive() == 1)
        assert np.all(result.reliability() == 1.0)

    def test_huge_fanout_reaches_everyone_in_two_hops(self):
        result = simulate_gossip_batch(120, FixedFanout(119), 1.0, repetitions=4, seed=8)
        assert np.all(result.reliability() == 1.0)
        assert np.all(result.rounds == 2)

    def test_partial_view_supported(self):
        view = UniformPartialView(250, 8, seed=9)
        result = simulate_gossip_batch(
            250, PoissonFanout(4.0), 0.9, repetitions=8, seed=10, membership=view
        )
        assert np.all((result.reliability() >= 0.0) & (result.reliability() <= 1.0))

    def test_partial_view_degrades_reliability(self):
        # A tiny view cannot beat the full-view dissemination on average.
        full = simulate_gossip_batch(300, PoissonFanout(5.0), 1.0, repetitions=30, seed=11)
        tiny = simulate_gossip_batch(
            300,
            PoissonFanout(5.0),
            1.0,
            repetitions=30,
            seed=11,
            membership=UniformPartialView(300, 2, seed=12),
        )
        assert tiny.reliability().mean() <= full.reliability().mean() + 0.05


class _FallbackPartialView(UniformPartialView):
    """Partial view that draws its batches through the base-class loop."""

    def sample_targets_batch(self, members, fanouts, rng):
        return MembershipView.sample_targets_batch(self, members, fanouts, rng)


class TestChurn:
    """Churn acts in the transport, below whichever view picks the targets."""

    N, R = 50, 6
    ABSENT = [4, 9, 17, 30]

    def _schedule(self) -> ChurnScheduleBatch:
        schedule = trivial_schedule_batch(self.N, self.R)
        leave_round = schedule.leave_round.copy()
        leave_round[:, self.ABSENT] = 0  # gone before round 1, never back
        return ChurnScheduleBatch(join_round=schedule.join_round, leave_round=leave_round)

    @pytest.mark.parametrize(
        "make_view",
        [
            lambda: FullView(50),
            lambda: UniformPartialView(50, 8, seed=4),
            lambda: _FallbackPartialView(50, 8, seed=4),
        ],
        ids=["full", "partial", "fallback"],
    )
    def test_absent_members_never_receive_and_sends_to_them_are_wasted(self, make_view):
        rng = np.random.default_rng(21)
        transport = Transport(rng, self.R, self.N, 0, churn=self._schedule())
        result = simulate_gossip_batch(
            self.N,
            FixedFanout(6),
            1.0,
            repetitions=self.R,
            seed=rng,
            membership=make_view(),
            transport=transport,
        )
        assert not result.delivered[:, self.ABSENT].any()
        assert np.all(result.n_delivered() > 1)
        # Views still pick absent targets; those sends count as sent and
        # wasted, never as network drops.
        assert transport.wasted.all()
        assert not result.messages_dropped.any()
        assert np.all(result.duplicates >= 0)
        np.testing.assert_array_equal(
            result.messages_sent,
            transport.wasted + result.duplicates + result.n_delivered() - 1,
        )

    def test_trivial_schedule_is_bit_identical_to_no_churn(self):
        network = NetworkModel(loss_probability=0.1)
        runs = [
            simulate_gossip_batch(
                self.N,
                PoissonFanout(3.0),
                0.9,
                repetitions=self.R,
                seed=22,
                network=network,
                churn=churn,
            )
            for churn in (None, trivial_schedule_batch(self.N, self.R))
        ]
        fields = ("alive", "delivered", "rounds", "messages_sent", "duplicates")
        for field in (*fields, "messages_dropped", "delivery_times"):
            np.testing.assert_array_equal(getattr(runs[0], field), getattr(runs[1], field))
        assert runs[0].messages_dropped.any()


    def test_owned_churn_schedule_reports_survivors(self):
        rng = np.random.default_rng(23)
        churn = PoissonChurnModel(0.05, 0.05, initially_absent=0.1)
        schedule = churn.draw_batch(500, 8, rng)
        result = simulate_gossip_batch(
            500, PoissonFanout(6.0), 0.9, repetitions=8, seed=rng, churn=schedule
        )
        np.testing.assert_array_equal(result.present, schedule.present_at_rounds(result.rounds))
        survivors = result.alive & result.present
        np.testing.assert_array_equal(
            result.reliability_among_survivors(),
            (result.delivered & survivors).sum(axis=1) / survivors.sum(axis=1),
        )
        # Members absent at the end cannot hold the message, so counting
        # them (plain reliability) reads lower than counting survivors.
        assert result.reliability_among_survivors().mean() > result.reliability().mean()

    def test_borrowed_transport_leaves_survivors_to_its_owner(self):
        rng = np.random.default_rng(24)
        transport = Transport(rng, self.R, self.N, 0, churn=self._schedule())
        result = simulate_gossip_batch(
            self.N, FixedFanout(6), 1.0, repetitions=self.R, seed=rng, transport=transport
        )
        assert result.present is None


class TestDistributionEquivalence:
    """The batched and scalar engines agree in distribution."""

    N = 600
    REPS = 150

    @pytest.fixture(scope="class")
    def matched_runs(self):
        dist = PoissonFanout(4.0)
        scalar = _scalar_samples(self.N, dist, 0.9, self.REPS, seed=100)
        batch = simulate_gossip_batch(
            self.N, dist, 0.9, repetitions=self.REPS, seed=200
        )
        return scalar, batch

    def test_mean_reliability_within_confidence_bounds(self, matched_runs):
        scalar, batch = matched_runs
        assert_reliability_within_band(
            [e.reliability() for e in scalar], batch.reliability()
        )

    def test_conditional_mean_matches_analysis(self, matched_runs):
        _, batch = matched_runs
        spread = batch.spread_occurred()
        conditional = batch.reliability()[spread].mean()
        assert conditional == pytest.approx(poisson_reliability(4.0, 0.9), abs=0.01)

    def test_delivered_counts_distribution(self, matched_runs):
        scalar, batch = matched_runs
        s = [e.n_delivered() for e in scalar]
        assert_same_distribution(s, batch.n_delivered(), label="delivered counts")
        assert_same_counts_chisquare(s, batch.n_delivered(), label="delivered counts")

    def test_messages_and_duplicates_distribution(self, matched_runs):
        scalar, batch = matched_runs
        assert_same_distribution(
            [e.messages_sent for e in scalar], batch.messages_sent, label="messages"
        )
        assert_same_distribution(
            [e.duplicates for e in scalar], batch.duplicates, label="duplicates"
        )

    def test_rounds_distribution_close(self, matched_runs):
        scalar, batch = matched_runs
        s = np.array([e.rounds for e in scalar], dtype=float)
        assert abs(s.mean() - batch.rounds.mean()) < 1.0

    def test_fixed_fanout_equivalence(self):
        dist = FixedFanout(4)
        scalar = _scalar_samples(500, dist, 0.8, 100, seed=300)
        batch = simulate_gossip_batch(500, dist, 0.8, repetitions=100, seed=400)
        assert_same_distribution(
            [e.n_delivered() for e in scalar], batch.n_delivered(), label="delivered counts"
        )

    def test_partial_view_equivalence(self):
        view = UniformPartialView(300, 10, seed=13)
        dist = PoissonFanout(4.0)
        scalar = _scalar_samples(300, dist, 0.9, 80, seed=500, membership=view)
        batch = simulate_gossip_batch(
            300, dist, 0.9, repetitions=80, seed=600, membership=view
        )
        assert_same_distribution(
            [e.n_delivered() for e in scalar], batch.n_delivered(), label="delivered counts"
        )

    def test_subcritical_equivalence(self):
        # Below the percolation threshold both engines die out fast.
        dist = PoissonFanout(0.5)
        scalar = _scalar_samples(800, dist, 1.0, 60, seed=700)
        batch = simulate_gossip_batch(800, dist, 1.0, repetitions=60, seed=800)
        s = np.array([e.n_delivered() for e in scalar])
        assert s.mean() < 20 and batch.n_delivered().mean() < 20
        assert_same_distribution(s, batch.n_delivered(), label="delivered counts")
