"""Result records and aggregation for simulation experiments.

Four levels of results exist:

* :class:`ExecutionMetrics` — what one execution of the gossip algorithm
  produced (reached members, message counts, rounds).
* :class:`BatchResult` — what ``R`` replica executions produced, one column
  per quantity with a leading replica axis; both batched engines return it.
* :class:`ReliabilityEstimate` — aggregation of many independent executions
  of the same configuration (the paper's "run 20 times and average").
* :class:`SuccessCountResult` — the Figs. 6-7 object: the empirical
  distribution of the number of successful executions out of ``t``, together
  with the Binomial reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.success import success_count_pmf
from repro.simulation.latency import delivery_percentiles
from repro.utils.validation import check_probability

if TYPE_CHECKING:
    from repro.simulation.failures import FailurePatternBatch

__all__ = [
    "BatchResult",
    "ExecutionMetrics",
    "ReliabilityEstimate",
    "SuccessCountResult",
    "summarize_executions",
    "summarize_replicas",
]


@dataclass(frozen=True)
class ExecutionMetrics:
    """Metrics of a single execution of the gossip algorithm.

    Attributes
    ----------
    n:
        Group size.
    n_alive:
        Number of nonfailed members in this execution.
    n_reached_alive:
        Number of nonfailed members that received the message (including the
        source).
    reliability:
        ``n_reached_alive / n_alive`` — the paper's reliability of gossiping.
    rounds:
        Number of BFS levels (gossip hops) until dissemination died out.
    messages_sent:
        Total gossip messages sent by nonfailed members.
    duplicates:
        Messages received by members that already had the message.
    success:
        ``True`` iff every nonfailed member received the message.
    spread:
        ``True`` iff the dissemination "took off" (delivered more than
        ``max(10, sqrt(n))`` members) rather than dying out immediately —
        the epidemic-occurred indicator used for conditional averages.
    """

    n: int
    n_alive: int
    n_reached_alive: int
    reliability: float
    rounds: int
    messages_sent: int
    duplicates: int
    success: bool
    spread: bool = True


@dataclass(frozen=True)
class BatchResult:
    """Outcome of ``R`` replica executions of one batched run.

    Both batched engines return it:
    :func:`~repro.simulation.gossip.simulate_gossip_batch` for the paper's
    algorithm and :func:`~repro.simulation.protocol_batch.simulate_protocol_batch`
    for any protocol.  Every column has a leading replica axis.

    Attributes
    ----------
    n:
        Group size.
    source:
        Source member identifier (shared by all replicas).
    alive:
        ``(R, n)`` boolean masks of nonfailed members.
    delivered:
        ``(R, n)`` boolean masks of nonfailed members holding the message
        (the source always among them).
    rounds:
        ``(R,)`` rounds / gossip hops until each replica's dissemination ended.
    messages_sent:
        ``(R,)`` point-to-point messages per replica, payload and control.
    messages_dropped:
        ``(R,)`` messages lost in transit per replica (all zero without a
        lossy network).
    protocol:
        Protocol name on dispatcher results; ``None`` from the gossip engine.
    present:
        Optional ``(R, n)`` masks of members still in the group when each
        replica's dissemination ended (``None`` for churn-free runs, where
        everyone is present throughout).  Together with ``alive`` this
        defines the **survivors**, the denominator of the churn metrics.
    wasted:
        Optional ``(R,)`` messages sent to, or landing on, absent members:
        sent, but neither dropped by the network nor delivered.
    control_messages_sent:
        Optional ``(R,)`` counts of control messages (digests, IHAVE/IWANT,
        pull requests), the subset of ``messages_sent`` that carried no
        payload.  ``None`` for engines that only ever push payload.
    delivery_times:
        Optional ``(R, n)`` float array of first-receipt times on the round
        clock (``inf`` where undelivered).  Present when the run had a
        network model (the latency plane comes with it), else ``None``; a
        gossip run inside a protocol hook leaves it to the dispatcher.
    failure:
        The failure pattern the dispatcher's replicas ran under (crash timing
        included); ``None`` from the gossip engine, which draws alive masks.
    stats:
        Optional engine-specific measurements: the gossip engine's
        ``duplicates``, HyParView's view repairs, lazy-push's IWANT
        bookkeeping; ``None`` when there are none.
    """

    n: int
    source: int
    alive: np.ndarray
    delivered: np.ndarray
    rounds: np.ndarray
    messages_sent: np.ndarray
    messages_dropped: np.ndarray
    protocol: str | None = None
    present: np.ndarray | None = None
    wasted: np.ndarray | None = None
    control_messages_sent: np.ndarray | None = None
    delivery_times: np.ndarray | None = None
    failure: FailurePatternBatch | None = None
    stats: dict[str, Any] | None = None

    @property
    def repetitions(self) -> int:
        """Return the number of replicas ``R``."""
        return int(self.alive.shape[0])

    @property
    def duplicates(self) -> np.ndarray:
        """Return ``(R,)`` messages that reached a member already holding the message.

        Only the gossip engine counts them; on other results the attribute
        is missing (``AttributeError``), so ``getattr`` with a default works.
        """
        if self.stats is None or "duplicates" not in self.stats:
            raise AttributeError("this run did not count duplicate deliveries")
        duplicates: np.ndarray = self.stats["duplicates"]
        return duplicates

    def n_alive(self) -> np.ndarray:
        """Return the per-replica number of nonfailed members, shape ``(R,)``."""
        return self.alive.sum(axis=1)

    def n_delivered(self) -> np.ndarray:
        """Return the per-replica number of reached nonfailed members, shape ``(R,)``."""
        return self.delivered.sum(axis=1)

    def reliability(self) -> np.ndarray:
        """Return the per-replica delivered/alive ratio, shape ``(R,)``."""
        return self.n_delivered() / self.n_alive()

    def success(self, threshold: float = 1.0) -> np.ndarray:
        """Return per-replica success flags (reliability >= ``threshold``)."""
        threshold = check_probability("threshold", threshold)
        return self.reliability() >= threshold - 1e-12

    def spread_occurred(self, min_delivered: int | None = None) -> np.ndarray:
        """Return per-replica epidemic-took-off flags.

        A replica took off when it delivered more than ``min_delivered``
        members, by default ``max(10, sqrt(n))``; see
        :meth:`repro.simulation.gossip.GossipExecution.spread_occurred`.
        """
        if min_delivered is None:
            min_delivered = max(10, int(np.sqrt(self.n)))
        return self.n_delivered() > min_delivered

    def is_atomic(self) -> np.ndarray:
        """Return per-replica flags: every nonfailed member got the message."""
        return ~np.any(self.alive & ~self.delivered, axis=1)

    def messages_per_member(self) -> np.ndarray:
        """Return the per-replica message cost normalised by group size."""
        return self.messages_sent / self.n

    def drop_rate(self) -> np.ndarray:
        """Return the per-replica fraction of sent messages lost in transit."""
        return self.messages_dropped / np.maximum(self.messages_sent, 1)

    def control_messages(self) -> np.ndarray:
        """Return ``(R,)`` control-message counts (zeros for all-payload engines)."""
        if self.control_messages_sent is None:
            return np.zeros_like(self.messages_sent)
        return self.control_messages_sent

    def payload_messages_sent(self) -> np.ndarray:
        """Return ``(R,)`` payload-carrying message counts (total minus control)."""
        return self.messages_sent - self.control_messages()

    def payload_messages_per_member(self) -> np.ndarray:
        """Return the per-replica payload-only message cost normalised by group size."""
        return self.payload_messages_sent() / self.n

    def control_messages_per_member(self) -> np.ndarray:
        """Return the per-replica control-message cost normalised by group size."""
        return self.control_messages() / self.n

    def survivors(self) -> np.ndarray:
        """Return ``(R, n)`` masks of nonfailed members still present at the end.

        Without churn this is exactly ``alive``; under churn a member counts
        only if it neither crashed nor left before its replica's
        dissemination finished.
        """
        if self.present is None:
            return self.alive
        return self.alive & self.present

    def n_survivors(self) -> np.ndarray:
        """Return the per-replica number of survivors, shape ``(R,)``."""
        return self.survivors().sum(axis=1)

    def survivor_fraction(self) -> np.ndarray:
        """Return the per-replica fraction of nonfailed members that survived churn."""
        return self.n_survivors() / np.maximum(self.n_alive(), 1)

    def reliability_among_survivors(self) -> np.ndarray:
        """Return the per-replica delivered/survivor ratio, shape ``(R,)``.

        The churn-resilience headline metric: of the members that were still
        nonfailed *and present* when dissemination ended, how many hold the
        message?  Members that received and then left neither help nor hurt.
        Identical to :meth:`reliability` for churn-free runs.
        """
        survivors = self.survivors()
        return (self.delivered & survivors).sum(axis=1) / np.maximum(
            survivors.sum(axis=1), 1
        )

    def delivery_percentiles(
        self, percentiles: tuple[float, ...] = (50.0, 99.0, 99.9)
    ) -> dict[str, float]:
        """Pooled delivery-time percentiles across all replicas (p50/p99/p999)."""
        if self.delivery_times is None:
            raise ValueError(
                "no delivery times recorded: run the batch with a network model "
                "to enable the latency plane"
            )
        return delivery_percentiles(self.delivery_times, percentiles)


@dataclass(frozen=True)
class ReliabilityEstimate:
    """Monte-Carlo estimate of ``R(q, P)`` from repeated executions.

    ``samples`` keeps the per-execution reliabilities so downstream analysis
    (confidence intervals, comparison plots) does not need to re-simulate.
    """

    n: int
    q: float
    mean_fanout: float
    repetitions: int
    mean_reliability: float
    std_reliability: float
    mean_rounds: float
    mean_messages: float
    success_rate: float
    spread_rate: float
    conditional_on_spread: bool
    samples: np.ndarray = field(repr=False)

    def stderr(self) -> float:
        """Return the standard error of the mean reliability."""
        if self.repetitions <= 1:
            return 0.0
        return float(self.std_reliability / np.sqrt(self.repetitions))

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Return a normal-approximation confidence interval for the mean."""
        half = z * self.stderr()
        return (max(0.0, self.mean_reliability - half), min(1.0, self.mean_reliability + half))


def summarize_executions(
    executions: list[ExecutionMetrics],
    *,
    n: int,
    q: float,
    mean_fanout: float,
    conditional_on_spread: bool = False,
) -> ReliabilityEstimate:
    """Aggregate per-execution metrics into a :class:`ReliabilityEstimate`.

    The record-list spelling of :func:`summarize_replicas`, for executions
    run one at a time.
    """
    return summarize_replicas(
        np.array([e.reliability for e in executions], dtype=float),
        np.array([e.rounds for e in executions]),
        np.array([e.messages_sent for e in executions]),
        np.array([e.success for e in executions], dtype=bool),
        np.array([e.spread for e in executions], dtype=bool),
        n=n,
        q=q,
        mean_fanout=mean_fanout,
        conditional_on_spread=conditional_on_spread,
    )


def summarize_replicas(
    reliability: np.ndarray,
    rounds: np.ndarray,
    messages_sent: np.ndarray,
    success: np.ndarray,
    spread: np.ndarray,
    *,
    n: int,
    q: float,
    mean_fanout: float,
    conditional_on_spread: bool = False,
) -> ReliabilityEstimate:
    """Aggregate per-replica columns into a :class:`ReliabilityEstimate`.

    The columns are ``(R,)`` arrays, as a :class:`BatchResult` reports them:
    ``reliability()``, ``rounds``, ``messages_sent``, ``success()`` and
    ``spread_occurred()``.  When ``conditional_on_spread`` is True the
    reliability, rounds and message statistics are computed only over
    replicas whose dissemination took off (the epidemic-occurred convention
    that matches the analytical giant-component size); if none spread, the
    unconditional statistics are reported.  The ``success_rate`` and
    ``spread_rate`` are always computed over all replicas.
    """
    if len(reliability) == 0:
        raise ValueError("cannot summarize an empty set of executions")
    selected = spread if conditional_on_spread and spread.any() else np.ones_like(spread)
    samples = np.asarray(reliability, dtype=float)[selected]
    return ReliabilityEstimate(
        n=n,
        q=q,
        mean_fanout=mean_fanout,
        repetitions=len(samples),
        mean_reliability=float(samples.mean()),
        std_reliability=float(samples.std(ddof=1)) if len(samples) > 1 else 0.0,
        mean_rounds=float(np.asarray(rounds, dtype=float)[selected].mean()),
        mean_messages=float(np.asarray(messages_sent, dtype=float)[selected].mean()),
        success_rate=float(np.asarray(success, dtype=float).mean()),
        spread_rate=float(spread.mean()),
        conditional_on_spread=bool(conditional_on_spread),
        samples=samples,
    )


@dataclass(frozen=True)
class SuccessCountResult:
    """Empirical distribution of the success count ``X`` (Figs. 6-7).

    Attributes
    ----------
    executions:
        ``t`` — executions per simulation (the paper uses 20).
    simulations:
        Number of independent simulations (the paper uses 100).
    counts:
        ``X`` for each simulation (length ``simulations``).
    empirical_pmf:
        ``P(X = k)`` estimated from ``counts`` for ``k = 0..executions``.
    analytical_reliability:
        The ``p_r`` used for the Binomial reference.
    analytical_pmf:
        The ``B(t, p_r)`` PMF (Eq. 5's underlying distribution).
    """

    executions: int
    simulations: int
    counts: np.ndarray
    empirical_pmf: np.ndarray
    analytical_reliability: float
    analytical_pmf: np.ndarray

    def mean_count(self) -> float:
        """Return the empirical mean of ``X``."""
        return float(self.counts.mean())

    def total_variation_distance(self) -> float:
        """Return the TV distance between the empirical and Binomial PMFs."""
        return 0.5 * float(np.abs(self.empirical_pmf - self.analytical_pmf).sum())


def build_success_count_result(
    counts: np.ndarray, executions: int, analytical_reliability: float
) -> SuccessCountResult:
    """Construct a :class:`SuccessCountResult` from raw success counts."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        raise ValueError("counts must be non-empty")
    if np.any((counts < 0) | (counts > executions)):
        raise ValueError("counts must lie in [0, executions]")
    hist = np.bincount(counts, minlength=executions + 1).astype(float)
    empirical_pmf = hist / counts.size
    analytical_pmf = success_count_pmf(executions, analytical_reliability)
    return SuccessCountResult(
        executions=executions,
        simulations=int(counts.size),
        counts=counts,
        empirical_pmf=empirical_pmf,
        analytical_reliability=analytical_reliability,
        analytical_pmf=analytical_pmf,
    )
