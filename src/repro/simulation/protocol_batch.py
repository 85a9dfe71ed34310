"""Batched Monte-Carlo engine for the whole baseline-protocol zoo.

PR 1 proved that propagating all replicas of a Monte-Carlo experiment as
``(R, n)`` boolean masks removes the Python-interpreter round trips that
dominate per-replica simulation (10-50× on the paper's gossip process).
This module extends that treatment from the paper's algorithm to **every**
:class:`~repro.protocols.base.Protocol`:

* :func:`simulate_protocol_batch` is the dispatch entry point: it draws the
  failure patterns for all replicas in one vectorised pass (any
  :class:`~repro.simulation.failures.FailureModel` — uniform or targeted
  crashes, pre- or mid-execution :class:`~repro.simulation.failures.CrashTiming`)
  and hands the ``(R, n)`` alive masks to the protocol's
  ``_disseminate_batch`` hook;
* every bundled protocol implements that hook as an array program over the
  shared :mod:`repro.utils.sampling` kernels (flooding = one overlay build +
  frontier waves in chunk-global node ids, pbcast/lpbcast = buffered rounds
  with batched view sampling, RDG = batched push masks + pull masks per
  round);
* the loss, churn and latency planes reach every hook through one
  :class:`~repro.simulation.transport.Transport` built here, and every hook
  returns a :class:`~repro.simulation.transport.BatchOutcome`; an optional
  :class:`~repro.simulation.network.NetworkModel` thins each round's flat
  send list with one independent Bernoulli draw
  (:meth:`~repro.simulation.network.NetworkModel.draw_loss_batch`) and the
  per-replica ``messages_sent`` / ``messages_dropped`` accounting surfaces on
  the :class:`~repro.simulation.metrics.BatchResult` both batched engines
  return;
* the scalar :meth:`~repro.protocols.base.Protocol.run` stays the exact
  behavioural reference — ``tests/protocols/test_protocol_batch.py`` pins
  each batched protocol to its scalar pin through the shared statistical
  harness (``tests/helpers/statistical.py``).

Per-round helpers for the round-based protocols live here
(:func:`sample_group_targets_batch`) so the protocol modules stay readable
and every protocol consumes the same target-drawing law.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.simulation.churn import ChurnModel, ChurnScheduleBatch
from repro.simulation.failures import FailureModel, UniformCrashModel
from repro.simulation.metrics import BatchResult
from repro.simulation.network import NetworkModel
from repro.simulation.transport import Transport
from repro.utils.rng import SeedLike, as_generator
from repro.utils.sampling import sample_distinct_rows_excluding
from repro.utils.validation import check_integer, check_probability

if TYPE_CHECKING:
    from repro.protocols.base import Protocol

__all__ = [
    "simulate_protocol_batch",
    "sample_group_targets_batch",
]


def sample_group_targets_batch(
    n: int,
    rep_idx: np.ndarray,
    mem_idx: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``fanout`` distinct group-wide targets for every (replica, member) sender.

    The whole-group analogue of
    :meth:`~repro.simulation.membership.FullView.sample_targets_batch`,
    specialised for the round-based protocols: every sender row draws the
    same (clipped) fanout, senders never target themselves, and the result
    comes back as flat ``(R·n)``-cell identifiers ready for mask indexing.

    Returns
    -------
    (cells, target_replica):
        ``cells[i] = target_replica[i] · n + target`` for each drawn
        message; ``target_replica`` maps every message back to its replica
        for per-replica message accounting.
    """
    k = min(int(fanout), n - 1)
    if k <= 0 or mem_idx.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ks = np.full(mem_idx.size, k, dtype=np.int64)
    matrix, valid = sample_distinct_rows_excluding(rng, n, ks, mem_idx)
    targets = matrix[valid].astype(np.int64, copy=False)
    target_replica = np.repeat(rep_idx, k)
    return target_replica * n + targets, target_replica


def simulate_protocol_batch(
    protocol: Protocol,
    n: int,
    q: float,
    *,
    repetitions: int = 20,
    source: int = 0,
    seed: SeedLike = None,
    failure_model: FailureModel | None = None,
    network: NetworkModel | None = None,
    churn: ChurnModel | ChurnScheduleBatch | None = None,
    round_period: float = 1.0,
) -> BatchResult:
    """Run ``repetitions`` independent executions of ``protocol`` as one array program.

    Semantically each replica is an independent
    :meth:`~repro.protocols.base.Protocol.run` (fresh failure pattern, fresh
    protocol randomness); the engine merely advances all replicas in
    lock-step so every protocol round costs a constant number of numpy
    operations instead of ``O(members)`` Python calls.

    Parameters
    ----------
    protocol:
        Any :class:`~repro.protocols.base.Protocol`; its
        ``_disseminate_batch`` hook runs all replicas at once.
    n, q, source:
        As for :meth:`~repro.protocols.base.Protocol.run`.
    repetitions:
        Number of replicas ``R`` propagated simultaneously.
    seed:
        Seed or generator for all randomness of the whole batch.
    failure_model:
        Failure-pattern generator; defaults to the paper's
        :class:`~repro.simulation.failures.UniformCrashModel` at ratio ``q``.
        Pass a :class:`~repro.simulation.failures.TargetedCrashModel` (or any
        custom model) to run the whole batch under engineered failures.
    network:
        Optional lossy :class:`~repro.simulation.network.NetworkModel`: every
        point-to-point message of every replica is independently dropped with
        ``network.loss_probability`` (the same loss law the event-driven
        reference engine applies per :meth:`~repro.simulation.network.NetworkModel.transmit`
        call).  The model is reset first so its counters describe this batch
        only.  With ``loss_probability == 0`` the batch is bit-for-bit
        identical to the ``network=None`` path.
    churn:
        Optional dynamic-membership plane: either a
        :class:`~repro.simulation.churn.ChurnModel` (a fresh
        :class:`~repro.simulation.churn.ChurnScheduleBatch` is drawn for this
        batch, after the failure draw) or a pre-drawn schedule batch.
        Members follow their join/leave schedules during dissemination;
        sends to absent peers are wasted, and the result's ``present`` masks
        record who was still in the group when each replica finished.  A
        zero-rate model draws no randomness and a trivial schedule is
        skipped, so churn rate 0 is bit-for-bit identical to the
        ``churn=None`` path.
    round_period:
        Round duration ``T`` of the latency plane's discretised clock.
        When a network is present, every message additionally draws a
        delivery latency from ``network.latency`` and the result carries
        ``delivery_times``; with the default constant unit latency the
        plane consumes no randomness and the batch stays bit-for-bit
        identical to earlier engines.
    """
    n = check_integer("n", n, minimum=2)
    q = check_probability("q", q)
    repetitions = check_integer("repetitions", repetitions, minimum=1)
    source = check_integer("source", source, minimum=0, maximum=n - 1)
    rng = as_generator(seed)
    model = failure_model if failure_model is not None else UniformCrashModel(q)
    failure = model.draw_batch(n, repetitions, rng, source=source)
    alive = failure.alive.copy()
    alive[:, source] = True

    schedule: ChurnScheduleBatch | None
    if isinstance(churn, ChurnModel):
        # Drawn after the failure plane so adding churn never perturbs the
        # failure draw of an otherwise-identical seeded run.
        schedule = churn.draw_batch(n, repetitions, rng, source=source)
    else:
        schedule = churn
    if network is not None:
        network.reset()
    transport = Transport(
        rng, repetitions, n, source, network=network, churn=schedule, round_period=round_period
    )
    outcome = protocol._disseminate_batch(n, alive, source, rng, transport=transport)
    rounds = np.asarray(outcome.rounds, dtype=np.int64)
    delivered = np.asarray(outcome.delivered, dtype=bool)
    delivered &= alive  # failed members never count as delivered
    delivered[:, source] = True
    schedule = transport.churn
    plane = transport.latency
    control = None if outcome.control is None else np.asarray(outcome.control, dtype=np.int64)
    return BatchResult(
        n=n,
        source=source,
        alive=alive,
        delivered=delivered,
        rounds=rounds,
        messages_sent=np.asarray(outcome.messages, dtype=np.int64),
        messages_dropped=np.asarray(outcome.dropped, dtype=np.int64),
        protocol=protocol.name,
        present=schedule.present_at_rounds(rounds) if schedule is not None else None,
        wasted=transport.wasted.copy(),
        control_messages_sent=control,
        delivery_times=plane.finalize(delivered) if plane is not None else None,
        failure=failure,
        stats=outcome.stats,
    )
