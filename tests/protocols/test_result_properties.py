"""Property test of the one batch result type over both batched engines.

For each engine (the gossip engine and the nine ``protocol_zoo`` rows) one
Hypothesis search draws a small group, a nonfailed ratio, a channel (none,
i.i.d. loss or a Gilbert–Elliott burst channel), an optional exponential
latency, a churn rate and a round period, and checks the invariants every
:class:`~repro.simulation.metrics.BatchResult` must hold whatever produced
it.  The engine is a test parameter rather than a draw so that every engine
gets its own examples.  The search is derandomized, so the suite draws the
same examples on every run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import PoissonFanout
from repro.experiments.protocol_comparison import protocol_zoo
from repro.simulation.churn import PoissonChurnModel
from repro.simulation.gossip import simulate_gossip_batch
from repro.simulation.metrics import BatchResult
from repro.simulation.network import (
    GilbertElliottNetworkModel,
    NetworkModel,
    latency_exponential,
)
from repro.simulation.protocol_batch import simulate_protocol_batch

ZOO = dict(protocol_zoo(3, 4, include_peer_sampling=True, include_recovery=True))
ENGINES = ("gossip", *ZOO)


def _network(channel: str, loss: float, latency: float | None) -> NetworkModel | None:
    kwargs = {} if latency is None else {"latency": latency_exponential(latency)}
    if channel == "iid":
        return NetworkModel(loss_probability=loss, **kwargs)
    if channel == "gilbert-elliott":
        return GilbertElliottNetworkModel(
            loss_probability=loss,
            bad_loss_probability=0.6,
            p_good_to_bad=0.2,
            p_bad_to_good=0.4,
            **kwargs,
        )
    return NetworkModel(**kwargs) if kwargs else None


def _run(engine, n, q, network, churn, round_period, seed) -> BatchResult:
    planes = {"network": network, "round_period": round_period}
    if engine != "gossip":
        return simulate_protocol_batch(
            ZOO[engine], n, q, repetitions=3, seed=seed, churn=churn, **planes
        )
    rng = np.random.default_rng(seed)
    schedule = churn.draw_batch(n, 3, rng)
    return simulate_gossip_batch(
        n, PoissonFanout(3.0), q, repetitions=3, seed=rng, churn=schedule, **planes
    )


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=40),
    q=st.floats(min_value=0.0, max_value=1.0),
    channel=st.sampled_from(("none", "iid", "gilbert-elliott")),
    loss=st.floats(min_value=0.0, max_value=0.5),
    latency=st.none() | st.floats(min_value=0.1, max_value=3.0),
    churn_rate=st.sampled_from((0.0, 0.02, 0.2)),
    round_period=st.sampled_from((0.5, 1.0, 2.0)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_batch_result_invariants(
    engine, n, q, channel, loss, latency, churn_rate, round_period, seed
):
    churn = PoissonChurnModel(churn_rate, churn_rate, initially_absent=churn_rate)
    network = _network(channel, loss, latency)
    result = _run(engine, n, q, network, churn, round_period, seed)
    assert isinstance(result, BatchResult)
    assert not np.any(result.delivered & ~result.alive)
    assert np.all(result.delivered[:, result.source])
    assert np.all(result.messages_dropped + result.wasted <= result.messages_sent)
    assert np.all(result.control_messages() <= result.messages_sent)
    if result.delivery_times is not None:
        np.testing.assert_array_equal(np.isfinite(result.delivery_times), result.delivered)
        assert np.all(result.delivery_times[:, result.source] == 0.0)
    assert not np.any(result.survivors() & ~result.alive)
