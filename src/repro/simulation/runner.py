"""Monte-Carlo runner and parameter sweeps.

This is the driver behind the paper's Figs. 4-5 protocol: "For each pair of
{f, q}, we run our gossiping algorithm 20 times and report the average
results of the reliability of gossiping."  :func:`estimate_reliability`
handles one ``(distribution, q)`` pair; :func:`reliability_sweep` handles the
full grid and returns a tidy result object the experiment drivers and
benchmarks render into tables.

The default engine is the **batched** simulator
(:func:`repro.simulation.gossip.simulate_gossip_batch`): all repetitions of a
parameter pair advance together as ``(R, n)`` masks, so a whole estimate
costs a handful of numpy passes.  ``engine="scalar"`` falls back to the
per-replica reference simulator.  When fanned out over a process pool the
repetitions are split into *chunked replica batches* (one batch per worker
task, not one task per replica); worker inputs are plain picklable tuples of
integers/floats so the pool never has to ship generator state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.distributions import FanoutDistribution, PoissonFanout
from repro.core.reliability import reliability as analytical_reliability
from repro.simulation.gossip import simulate_gossip_batch, simulate_gossip_once
from repro.simulation.membership import MembershipView
from repro.simulation.metrics import (
    BatchResult,
    ExecutionMetrics,
    ReliabilityEstimate,
    summarize_executions,
    summarize_replicas,
)
from repro.utils.parallel import parallel_map
from repro.utils.rng import SeedLike, as_generator, spawn_seeds
from repro.utils.validation import check_choice, check_integer, check_probability

__all__ = ["estimate_reliability", "reliability_sweep", "SweepResult", "SweepPoint"]

#: Replicas per worker task in the parallel path.  The chunk layout is a
#: function of ``repetitions`` alone — never of the worker or host core
#: count — so a fixed seed reproduces the same numbers on any machine.
_CHUNK_REPETITIONS = 8


def _run_replica_batch(
    args: tuple[int, FanoutDistribution, float, int, int, int],
) -> tuple[np.ndarray, ...]:
    """Process-pool worker: run one chunk of replicas through the batched engine.

    Returns the chunk's per-replica columns in :func:`summarize_replicas`
    order: reliability, rounds, messages, success and spread.
    """
    n, distribution, q, source, seed, repetitions = args
    result = simulate_gossip_batch(
        n, distribution, q, repetitions=repetitions, source=source, seed=seed
    )
    return _columns(result)


def _columns(result: BatchResult) -> tuple[np.ndarray, ...]:
    """The per-replica columns of ``result`` in :func:`summarize_replicas` order."""
    return (
        result.reliability(),
        result.rounds,
        result.messages_sent,
        result.success(),
        result.spread_occurred(),
    )


def _run_one_replica(args: tuple[int, FanoutDistribution, float, int, int]) -> ExecutionMetrics:
    """Process-pool worker for ``engine="scalar"``: one reference execution's metrics."""
    n, distribution, q, source, seed = args
    return simulate_gossip_once(n, distribution, q, source=source, seed=seed).metrics()


def estimate_reliability(
    n: int,
    distribution: FanoutDistribution,
    q: float,
    *,
    repetitions: int = 20,
    source: int = 0,
    seed: SeedLike = None,
    membership: MembershipView | None = None,
    processes: int | None = 1,
    conditional_on_spread: bool = False,
    engine: str = "batch",
) -> ReliabilityEstimate:
    """Estimate ``R(q, P)`` by averaging ``repetitions`` independent executions.

    Parameters
    ----------
    repetitions:
        Number of independent executions (paper: 20 per parameter pair).
    processes:
        Worker processes.  The default of 1 runs in the calling process;
        values > 1 (or ``None`` for auto) fan the work out over a pool.
        With the default full membership view the repetitions are *always*
        split into the same chunked replica batches (a function of
        ``repetitions`` alone) and seeded by spawning one child seed per
        chunk, so at a fixed seed every ``processes`` setting — ``1``,
        ``None``, or any worker count — produces bit-identical numbers.
        Partial membership views are not shipped to workers and therefore
        force serial execution.
    conditional_on_spread:
        When True, average only over executions whose dissemination took off
        (delivered more than ``max(10, sqrt(n))`` members).  Single
        executions are bimodal — either the gossip dies out within a few hops
        or it reaches ~R(q, P) of the group — and the paper's analytical
        reliability (the giant-component size) corresponds to the conditional
        branch; the Figs. 4-5 reproduction therefore enables this flag.  The
        unconditional default reports the plain average, and ``spread_rate``
        records how often the gossip took off either way.
    engine:
        ``"batch"`` (default) propagates all replicas simultaneously through
        :func:`simulate_gossip_batch`; ``"scalar"`` runs the per-replica
        reference simulator (slower, kept for equivalence checks).
    """
    n = check_integer("n", n, minimum=2)
    q = check_probability("q", q)
    repetitions = check_integer("repetitions", repetitions, minimum=1)
    engine = check_choice("engine", engine, ("batch", "scalar"))

    summary: dict[str, Any] = {
        "n": n,
        "q": q,
        "mean_fanout": distribution.mean(),
        "conditional_on_spread": conditional_on_spread,
    }
    if membership is not None:
        # Partial views are not shipped to workers: run serially.  There is
        # no parallel twin of this path, so no seed-layout split to guard.
        if engine == "scalar":
            rng = as_generator(seed)
            executions = [
                simulate_gossip_once(
                    n, distribution, q, source=source, seed=rng, membership=membership
                ).metrics()
                for _ in range(repetitions)
            ]
            return summarize_executions(executions, **summary)
        result = simulate_gossip_batch(
            n,
            distribution,
            q,
            repetitions=repetitions,
            source=source,
            seed=seed,
            membership=membership,
        )
        return summarize_replicas(*_columns(result), **summary)

    if engine == "scalar":
        # One spawned seed per replica regardless of `processes`; the pool
        # only changes *where* a replica runs, never which stream it reads,
        # so processes=None / 1 / k are bit-identical at a fixed seed.
        seeds = spawn_seeds(repetitions, seed)
        work = [(n, distribution, q, source, s) for s in seeds]
        executions = parallel_map(_run_one_replica, work, processes=processes)
        return summarize_executions(executions, **summary)

    # Chunked replica batches: one task per chunk, not per replica.  Chunk
    # count and per-chunk seeds depend only on `repetitions` and `seed` —
    # never on `processes` or the host core count — so the serial spelling
    # (processes=1), the auto spelling (processes=None), and any explicit
    # pool size reproduce exactly the same numbers at a fixed seed.
    n_chunks = max(1, -(-repetitions // _CHUNK_REPETITIONS))
    chunk_sizes = [len(c) for c in np.array_split(np.arange(repetitions), n_chunks)]
    seeds = spawn_seeds(n_chunks, seed)
    work = [
        (n, distribution, q, source, s, size)
        for s, size in zip(seeds, chunk_sizes, strict=True)
        if size > 0
    ]
    chunks = parallel_map(_run_replica_batch, work, processes=processes, serial_threshold=1)
    return summarize_replicas(*map(np.concatenate, zip(*chunks, strict=True)), **summary)


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a reliability sweep: a ``(mean fanout, q)`` pair with results."""

    mean_fanout: float
    q: float
    simulated: float
    simulated_std: float
    analytical: float
    repetitions: int

    def absolute_error(self) -> float:
        """Return ``|simulated − analytical|``."""
        return abs(self.simulated - self.analytical)


@dataclass
class SweepResult:
    """Results of a full (fanout × q) reliability sweep.

    The points are stored in row-major order (q varies slowest); accessors
    return the per-``q`` series used to draw the paper's Figs. 4-5.
    """

    n: int
    fanouts: tuple
    qs: tuple
    points: list = field(default_factory=list)

    def series_for_q(self, q: float) -> list[SweepPoint]:
        """Return the sweep points of one ``q`` series, ordered by fanout."""
        matches = [p for p in self.points if abs(p.q - q) < 1e-12]
        return sorted(matches, key=lambda p: p.mean_fanout)

    def max_absolute_error(self) -> float:
        """Return the worst analysis-vs-simulation gap across the sweep."""
        return max((p.absolute_error() for p in self.points), default=0.0)

    def mean_absolute_error(self) -> float:
        """Return the average analysis-vs-simulation gap across the sweep."""
        if not self.points:
            return 0.0
        return float(np.mean([p.absolute_error() for p in self.points]))

    def to_rows(self) -> list[tuple]:
        """Return ``(fanout, q, simulated, analytical, |error|)`` rows for tables."""
        return [
            (p.mean_fanout, p.q, p.simulated, p.analytical, p.absolute_error())
            for p in self.points
        ]


def reliability_sweep(
    n: int,
    fanouts: Sequence[float],
    qs: Sequence[float],
    *,
    repetitions: int = 20,
    distribution_factory: Callable[[float], FanoutDistribution] = PoissonFanout,
    seed: SeedLike = None,
    processes: int | None = 1,
    conditional_on_spread: bool = False,
    engine: str = "batch",
) -> SweepResult:
    """Sweep reliability over a (mean fanout × nonfailed ratio) grid.

    This reproduces the Figs. 4-5 protocol.  ``distribution_factory`` maps a
    mean fanout to a distribution instance (default Poisson); the analytical
    column uses the same distribution so the comparison is apples-to-apples.
    ``conditional_on_spread`` and ``engine`` are forwarded to
    :func:`estimate_reliability`.
    """
    n = check_integer("n", n, minimum=2)
    fanouts = tuple(float(f) for f in fanouts)
    qs = tuple(float(check_probability("q", q)) for q in qs)
    rng = as_generator(seed)

    result = SweepResult(n=n, fanouts=fanouts, qs=qs)
    for q in qs:
        for fanout in fanouts:
            dist = distribution_factory(fanout)
            # One spawned child seed per grid cell, whatever the `processes`
            # spelling: serial (1), auto (None), and explicit pool sizes all
            # hand the same integer to the same chunk layout downstream, so
            # a fixed-seed sweep is bit-identical across all of them.
            estimate = estimate_reliability(
                n,
                dist,
                q,
                repetitions=repetitions,
                seed=spawn_seeds(1, rng)[0],
                processes=processes,
                conditional_on_spread=conditional_on_spread,
                engine=engine,
            )
            result.points.append(
                SweepPoint(
                    mean_fanout=fanout,
                    q=q,
                    simulated=estimate.mean_reliability,
                    simulated_std=estimate.std_reliability,
                    analytical=analytical_reliability(dist, q),
                    repetitions=repetitions,
                )
            )
    return result
