"""Tests for the two-phase recovery protocols (lazy-push and anti-entropy).

The recovery plane must (1) keep the scalar reference and the batched array
program statistically equivalent at small and large group sizes, (2) be
bit-identical between plane-enabled runs at zero loss / zero churn and
plane-free runs at the same seed, (3) guarantee recovery in the loss-free
single-missing-member pin (a digest that reaches the one gap always pulls
the payload back), (4) degrade gracefully when the retry budget is
exhausted, and (5) keep the control/payload accounting split consistent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocols import AntiEntropyProtocol, LazyPushProtocol
from repro.simulation.churn import PoissonChurnModel
from repro.simulation.network import GilbertElliottNetworkModel, NetworkModel
from repro.simulation.protocol_batch import simulate_protocol_batch
from tests.helpers.statistical import (
    assert_reliability_within_band,
    assert_same_distribution,
)


def recovery_protocols():
    return [
        LazyPushProtocol(fanout=3, rounds=8, eager_threshold=0.4, retry_budget=5),
        AntiEntropyProtocol(fanout=2, rounds=6),
    ]


@pytest.fixture(params=recovery_protocols(), ids=lambda p: p.name)
def protocol(request):
    return request.param


class TestZeroPlanesAreExact:
    """Zero-loss / zero-churn planes must not perturb either engine."""

    def test_batched_identical_to_plane_free(self, protocol):
        base = simulate_protocol_batch(protocol, 150, 0.85, repetitions=8, seed=11)
        zero = simulate_protocol_batch(
            protocol, 150, 0.85, repetitions=8, seed=11,
            network=NetworkModel(loss_probability=0.0),
            churn=PoissonChurnModel(),
        )
        np.testing.assert_array_equal(base.alive, zero.alive)
        np.testing.assert_array_equal(base.delivered, zero.delivered)
        np.testing.assert_array_equal(base.messages_sent, zero.messages_sent)
        np.testing.assert_array_equal(
            base.control_messages(), zero.control_messages()
        )
        np.testing.assert_array_equal(base.rounds, zero.rounds)
        assert zero.messages_dropped.sum() == 0

    def test_batched_identical_under_zero_gilbert_elliott(self, protocol):
        # A bursty channel whose states never drop must also be invisible.
        base = simulate_protocol_batch(protocol, 150, 0.85, repetitions=8, seed=17)
        zero = simulate_protocol_batch(
            protocol, 150, 0.85, repetitions=8, seed=17,
            network=GilbertElliottNetworkModel(
                loss_probability=0.0, bad_loss_probability=0.0,
                p_good_to_bad=0.2, p_bad_to_good=0.4,
            ),
        )
        np.testing.assert_array_equal(base.delivered, zero.delivered)
        np.testing.assert_array_equal(base.messages_sent, zero.messages_sent)
        np.testing.assert_array_equal(base.rounds, zero.rounds)

    def test_scalar_identical_to_plane_free(self, protocol):
        base = protocol.run(150, 0.85, seed=13)
        zero = protocol.run(
            150, 0.85, seed=13, network=NetworkModel(loss_probability=0.0)
        )
        np.testing.assert_array_equal(base.delivered, zero.delivered)
        assert base.messages_sent == zero.messages_sent
        assert base.control_messages_sent == zero.control_messages_sent
        assert base.rounds == zero.rounds
        assert zero.messages_dropped == 0


class TestScalarBatchedEquivalence:
    """The two engines must agree in distribution, with and without loss."""

    Q = 0.9
    LOSS = 0.25
    REPS = 60

    @pytest.mark.parametrize("n", [50, 500])
    def test_delivery_and_costs_match_under_loss(self, protocol, n):
        rng = np.random.default_rng(71)
        network = NetworkModel(loss_probability=self.LOSS)
        scalar = [
            protocol.run(n, self.Q, seed=rng, network=network)
            for _ in range(self.REPS)
        ]
        batch = simulate_protocol_batch(
            protocol, n, self.Q, repetitions=self.REPS, seed=72,
            network=NetworkModel(loss_probability=self.LOSS),
        )
        label = f"{protocol.name} n={n} loss={self.LOSS}"
        assert_same_distribution(
            [r.delivered.sum() for r in scalar],
            batch.n_delivered(),
            label=f"{label} delivered",
        )
        assert_reliability_within_band(
            [r.reliability() for r in scalar],
            batch.reliability(),
            band=0.03,
            label=f"{label} reliability",
        )
        assert_same_distribution(
            [r.messages_sent for r in scalar],
            batch.messages_sent,
            label=f"{label} messages",
        )
        assert_same_distribution(
            [r.control_messages_sent for r in scalar],
            batch.control_messages(),
            label=f"{label} control messages",
        )

    @pytest.mark.parametrize("n", [50, 500])
    def test_loss_free_engines_match(self, protocol, n):
        rng = np.random.default_rng(73)
        scalar = [protocol.run(n, self.Q, seed=rng) for _ in range(self.REPS)]
        batch = simulate_protocol_batch(
            protocol, n, self.Q, repetitions=self.REPS, seed=74
        )
        assert_same_distribution(
            [r.delivered.sum() for r in scalar],
            batch.n_delivered(),
            label=f"{protocol.name} n={n} loss-free delivered",
        )


class TestGuaranteedRecovery:
    """Loss-free single-gap pins: a digest that reaches the gap repairs it."""

    def test_lazy_push_exact_two_member_recovery(self):
        # n=2, pure-lazy (threshold 0): round 1 is one IHAVE digest that arms
        # the missing member; round 2 is IWANT -> payload answer, then both
        # holders send one final (useless) digest each.  Every message is
        # control except the single payload answer.
        protocol = LazyPushProtocol(
            fanout=1, rounds=2, eager_threshold=0.0, retry_budget=1
        )
        result = protocol.run(2, 1.0, seed=5)
        assert result.delivered.all()
        assert result.rounds == 2
        assert result.messages_sent == 5
        assert result.control_messages_sent == 4
        assert result.payload_messages_sent() == 1

        batch = simulate_protocol_batch(protocol, 2, 1.0, repetitions=6, seed=6)
        assert batch.delivered.all()
        np.testing.assert_array_equal(batch.messages_sent, np.full(6, 5))
        np.testing.assert_array_equal(batch.control_messages(), np.full(6, 4))
        np.testing.assert_array_equal(batch.payload_messages_sent(), np.full(6, 1))

    def test_anti_entropy_exact_two_member_recovery(self):
        # n=2, one round: two digests (one per member) and two transfers —
        # member 0 pushes, member 1 pulls, both repairing the same gap.
        protocol = AntiEntropyProtocol(fanout=1, rounds=1)
        result = protocol.run(2, 1.0, seed=7)
        assert result.delivered.all()
        assert result.rounds == 1
        assert result.messages_sent == 4
        assert result.control_messages_sent == 2
        assert result.payload_messages_sent() == 2

        batch = simulate_protocol_batch(protocol, 2, 1.0, repetitions=6, seed=8)
        assert batch.delivered.all()
        np.testing.assert_array_equal(batch.messages_sent, np.full(6, 4))
        np.testing.assert_array_equal(batch.control_messages(), np.full(6, 2))

    def test_anti_entropy_always_converges_loss_free(self):
        # With enough rounds and no loss, pull-based reconciliation reaches
        # every nonfailed member from a single source copy.
        protocol = AntiEntropyProtocol(fanout=2, rounds=30)
        batch = simulate_protocol_batch(protocol, 100, 0.8, repetitions=10, seed=9)
        assert np.all(batch.reliability() == 1.0)


class TestRetryBudget:
    """Budget exhaustion stops recovery gracefully, never wedges it."""

    def test_zero_budget_disables_recovery_entirely(self):
        # Pure-lazy with no budget: nobody may send an IWANT, so nothing but
        # the source ever holds the payload and all traffic is digests.
        protocol = LazyPushProtocol(
            fanout=2, rounds=5, eager_threshold=0.0, retry_budget=0
        )
        result = protocol.run(60, 0.9, seed=21)
        assert result.delivered.sum() == 1 and result.delivered[0]
        assert result.control_messages_sent == result.messages_sent > 0

        batch = simulate_protocol_batch(protocol, 60, 0.9, repetitions=8, seed=22)
        assert np.all(batch.n_delivered() == 1)
        np.testing.assert_array_equal(
            batch.control_messages(), batch.messages_sent
        )
        assert batch.stats["iwants_sent"] == 0
        assert batch.stats["recoveries"] == 0

    def test_batch_stats_invariants_under_heavy_loss(self):
        protocol = LazyPushProtocol(
            fanout=2, rounds=12, eager_threshold=0.1, retry_budget=1
        )
        stats = simulate_protocol_batch(
            protocol, 200, 0.9, repetitions=10, seed=23,
            network=NetworkModel(loss_probability=0.8),
        ).stats
        assert stats is not None
        assert stats["iwants_sent"] >= stats["recoveries"] >= 0
        # At 80% loss with a single-IWANT budget most repair attempts fail,
        # so some members must end the run missing with no budget left.
        assert stats["budget_exhausted"] > 0

    def test_larger_budget_never_hurts_reliability(self):
        small = LazyPushProtocol(
            fanout=2, rounds=10, eager_threshold=0.3, retry_budget=1
        )
        large = LazyPushProtocol(
            fanout=2, rounds=10, eager_threshold=0.3, retry_budget=10
        )
        kwargs = dict(repetitions=30, seed=24)
        lo = simulate_protocol_batch(
            small, 200, 0.9, network=NetworkModel(loss_probability=0.4), **kwargs
        )
        hi = simulate_protocol_batch(
            large, 200, 0.9, network=NetworkModel(loss_probability=0.4), **kwargs
        )
        assert hi.reliability().mean() >= lo.reliability().mean() - 0.02


class TestAccountingSplit:
    """control <= messages everywhere; the split survives the loss plane."""

    def test_control_bounded_by_messages(self, protocol):
        batch = simulate_protocol_batch(
            protocol, 150, 0.9, repetitions=10, seed=31,
            network=NetworkModel(loss_probability=0.3),
        )
        assert np.all(batch.control_messages() <= batch.messages_sent)
        np.testing.assert_array_equal(
            batch.payload_messages_sent() + batch.control_messages(),
            batch.messages_sent,
        )
        scalar = protocol.run(150, 0.9, seed=32, network=NetworkModel(loss_probability=0.3))
        assert 0 <= scalar.control_messages_sent <= scalar.messages_sent
        assert (
            scalar.payload_messages_sent() + scalar.control_messages_sent
            == scalar.messages_sent
        )


class TestChurnComposition:
    """The recovery protocols accept the churn plane and stay consistent."""

    def test_batched_invariants_under_loss_and_churn(self, protocol):
        churn = PoissonChurnModel(
            leave_rate=0.05, join_rate=0.05, initially_absent=0.1
        )
        result = simulate_protocol_batch(
            protocol, 200, 0.9, repetitions=10, seed=41,
            network=NetworkModel(loss_probability=0.3), churn=churn,
        )
        assert not np.any(result.delivered & ~result.alive)
        assert np.all(result.delivered[:, 0])
        rel = result.reliability_among_survivors()
        assert np.all((rel >= 0.0) & (rel <= 1.0))
        assert np.all(result.messages_dropped <= result.messages_sent)
        assert np.all(result.control_messages() <= result.messages_sent)
