"""One scenario-grid driver for the protocol-zoo experiments.

The paper's evaluation is a grid: reliability per cell, averaged over
replicas.  Five experiments extend that grid to the protocol zoo and to the
lifted model assumptions (``protocol_comparison``, ``loss_resilience``,
``churn_resilience``, ``recovery_resilience``, ``latency_profile``).  Each
one only *declares* its grid: its config returns an ordered tuple of
:class:`CellSpec` — plain frozen values naming a protocol row, the
nonfailed ratio ``q`` and the planes (loss channel, latency law, churn
rate, targeted crashes).  This module runs any such declaration:

* **seeds and chunks** — cell ``i`` takes the ``i``-th of
  ``spawn_seeds(n_cells, seed)`` in declaration order, and its replicas
  run in chunks of at most ``_CHUNK_REPETITIONS``, each chunk with its own
  child seed, whatever the number of processes;
* **one worker** (:func:`_run_chunk`) builds the network, churn, failure
  and latency planes inside the process from the spec and calls the
  batched dispatcher, returning per-replica arrays;
* **one reducer** (:func:`_pool`) pools a cell's chunks into one
  :class:`Cell` record with a single rule: reliability is always
  reliability among survivors (identical to plain reliability without
  churn), a replica is atomic when that reaches 1.

:class:`ScenarioResult` is the long-format table of cells; each experiment
subclasses it only to name its axes and add its ``check_shape``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Generic, TypeVar

import numpy as np

from repro.simulation import protocol_batch
from repro.simulation.churn import PoissonChurnModel
from repro.simulation.failures import TargetedCrashModel
from repro.simulation.latency import delivery_percentiles, percentile_label
from repro.simulation.network import (
    GilbertElliottNetworkModel,
    NetworkModel,
    latency_constant,
    latency_exponential,
    latency_uniform,
)
from repro.utils.parallel import parallel_map
from repro.utils.rng import SeedLike, spawn_seeds
from repro.utils.tables import format_table
from repro.utils.validation import check_integer, check_probability

if TYPE_CHECKING:
    from repro.protocols.base import Protocol

__all__ = [
    "Cell",
    "CellSpec",
    "ScenarioConfig",
    "ScenarioResult",
    "build_latency",
    "build_network",
    "check_probability_axis",
    "latency_label",
    "nominal_loss",
    "run_cells",
]

#: Replicas per chunk.  The layout depends on ``repetitions`` alone, so a
#: fixed seed gives the same numbers serially and under any pool size.
_CHUNK_REPETITIONS = 8

ConfigT = TypeVar("ConfigT", bound="ScenarioConfig")


def build_latency(spec: tuple) -> Callable[[np.random.Generator], float]:
    """Return the latency sampler of a ``(kind, *params)`` spec."""
    kind = spec[0]
    if kind == "constant":
        return latency_constant(spec[1])
    if kind == "uniform":
        return latency_uniform(spec[1], spec[2])
    if kind == "exponential":
        return latency_exponential(spec[1])
    raise ValueError(f"unknown latency kind {kind!r}")


def latency_label(spec: tuple | None) -> str:
    """Return a latency spec's column label, e.g. ``"exponential(1)"``."""
    if spec is None:
        return "none"
    return f"{spec[0]}({', '.join('%g' % v for v in spec[1:])})"


def build_network(channel: tuple, latency: tuple | None = None) -> NetworkModel | None:
    """Return the network model of a loss-channel spec, timed by ``latency``.

    ``channel`` is ``("iid", p)`` or ``("burst", good, bad, good_to_bad,
    bad_to_good)`` (a Gilbert–Elliott channel); ``latency`` is ``None``
    (untimed) or a :func:`build_latency` spec.  A loss-free untimed channel
    is ``None``: the dispatcher's plane-free path, with identical results.
    """
    if latency is None and channel == ("iid", 0.0):
        return None
    sampler = latency_constant() if latency is None else build_latency(latency)
    if channel[0] == "iid":
        return NetworkModel(latency=sampler, loss_probability=channel[1])
    _, good, bad, good_to_bad, bad_to_good = channel
    return GilbertElliottNetworkModel(
        latency=sampler,
        loss_probability=good,
        bad_loss_probability=bad,
        p_good_to_bad=good_to_bad,
        p_bad_to_good=bad_to_good,
    )


def nominal_loss(channel: tuple) -> float:
    """Return a channel spec's mean drop rate (stationary for a bursty channel)."""
    network = build_network(channel)
    if isinstance(network, GilbertElliottNetworkModel):
        return network.mean_loss_probability()
    return float(channel[1])


def check_probability_axis(name: str, values: tuple, *, allow_one: bool = True) -> None:
    """Refuse an empty grid axis or a value outside ``[0, 1]``."""
    if not values:
        raise ValueError(f"{name} must be non-empty")
    for value in values:
        check_probability(name, value, allow_one=allow_one)


@dataclass(frozen=True)
class CellSpec:
    """One grid cell as plain values; the worker builds its planes from them.

    ``channel`` and ``latency`` are :func:`build_network` specs.  A nonzero
    ``churn_rate`` is a Poisson churn plane with ``leave = join = rate`` and
    an ``initially_absent`` join pool.  A nonzero ``targeted`` crashes the
    members ``1..round(targeted·n)`` as one block instead of uniform crashes
    at ``q``.  ``percentiles`` are reported when the cell is timed.
    """

    protocol_id: str
    protocol: Protocol
    q: float
    channel: tuple = ("iid", 0.0)
    latency: tuple | None = None
    churn_rate: float = 0.0
    initially_absent: float = 0.0
    targeted: float = 0.0
    round_period: float = 1.0
    percentiles: tuple = (50.0, 99.0, 99.9)

    def churn_model(self) -> PoissonChurnModel | None:
        """Return the cell's churn model (``None``, no churn plane, at rate 0)."""
        if self.churn_rate == 0.0:
            return None
        return PoissonChurnModel(
            leave_rate=self.churn_rate,
            join_rate=self.churn_rate,
            initially_absent=self.initially_absent,
        )


@dataclass(frozen=True)
class Cell:
    """One row of the long-format table: a cell's axes and pooled metrics.

    ``reliability`` is among survivors (members nonfailed and present at
    the end), equal to plain reliability without churn.  Percentiles are
    over delivered members' delivery times and empty for untimed cells;
    ``round_aligned`` is set only for a constant law equal to the round
    period.  The view statistics are ``NaN``/0 unless the protocol reports
    HyParView-style ``stats``.
    """

    protocol: str
    q: float
    channel: str
    loss: float
    churn_rate: float
    failure: str
    latency: str
    repetitions: int
    reliability: float
    reliability_std: float
    atomic_rate: float
    survivor_fraction: float
    messages_per_member: float
    payload_per_member: float
    control_per_member: float
    drop_rate: float
    mean_rounds: float
    delivery_percentiles: tuple = ()
    round_aligned: bool | None = None
    view_staleness: float = math.nan
    repairs: int = 0
    repair_latency: float = math.nan

    def percentile(self, p: float) -> float:
        """Return one reported delivery percentile by value (e.g. ``99.9``)."""
        label = percentile_label(p)
        for key, value in self.delivery_percentiles:
            if key == label:
                return float(value)
        raise KeyError(f"percentile {p!r} ({label}) not reported for this cell")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fields and validation every scenario grid shares.

    Attributes
    ----------
    n:
        Group size.
    mean_fanout:
        Per-member effort budget: the push fanout of every gossip protocol,
        the overlay degree of flooding.
    rounds:
        Round horizon of the periodic protocols.
    repetitions:
        Independent executions per grid cell.
    seed:
        Base seed; every cell derives an independent stream.
    processes:
        Worker processes; 1 runs serially.
    """

    n: int = 1000
    mean_fanout: int = 4
    rounds: int = 8
    repetitions: int = 40
    seed: int = 0
    processes: int | None = 1

    #: Replica floor of :meth:`with_scale`.
    min_scaled_repetitions: ClassVar[int] = 8

    def __post_init__(self) -> None:
        check_integer("n", self.n, minimum=2)
        check_integer("mean_fanout", self.mean_fanout, minimum=1)
        check_integer("rounds", self.rounds, minimum=1)
        check_integer("repetitions", self.repetitions, minimum=1)

    def cells(self) -> tuple[CellSpec, ...]:
        """Return the ordered grid; the order fixes every cell's seed."""
        raise NotImplementedError

    def with_scale(self: ConfigT, factor: float) -> ConfigT:
        """Return a shrunken copy for quick runs (CLI ``--scale``)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"scale factor must be in (0, 1], got {factor}")
        if factor >= 0.999:
            return self
        return replace(
            self,
            n=max(200, int(self.n * factor)),
            repetitions=max(self.min_scaled_repetitions, int(self.repetitions * factor)),
        )


def _run_chunk(work: tuple[CellSpec, int, SeedLike, int]) -> tuple:
    """Process-pool worker: one chunk of one cell's replicas through the dispatcher."""
    spec, n, seed, repetitions = work
    failure_model = None
    if spec.targeted > 0.0:
        # An engineered block crash: members 1..k fail (the source never does).
        failure_model = TargetedCrashModel(failed=tuple(range(1, 1 + round(spec.targeted * n))))
    result = protocol_batch.simulate_protocol_batch(
        spec.protocol,
        n,
        spec.q,
        repetitions=repetitions,
        seed=seed,
        failure_model=failure_model,
        network=build_network(spec.channel, spec.latency),
        churn=spec.churn_model(),
        round_period=spec.round_period,
    )
    times = None
    if spec.latency is not None:
        if result.delivery_times is None:
            raise RuntimeError(f"protocol {spec.protocol_id!r} reported no delivery times")
        times = result.delivery_times[np.isfinite(result.delivery_times)]
    return (
        result.reliability_among_survivors(),
        result.survivor_fraction(),
        result.messages_per_member(),
        result.payload_messages_per_member(),
        result.control_messages_per_member(),
        result.messages_sent,
        result.messages_dropped,
        result.rounds,
        times,
        result.stats,
    )


def _pool(spec: CellSpec, chunks: list[tuple], repetitions: int) -> Cell:
    """Reduce one cell's chunks to its :class:`Cell` record."""
    columns = list(zip(*chunks, strict=True))
    reliability, survivors, messages, payload, control, sent, dropped, rounds = (
        np.concatenate([np.asarray(part, dtype=float) for part in column])
        for column in columns[:8]
    )
    percentiles: tuple = ()
    round_aligned = None
    if spec.latency is not None:
        times = np.concatenate(columns[8])
        percentiles = tuple(delivery_percentiles(times, spec.percentiles).items())
        if spec.latency[0] == "constant" and abs(spec.latency[1] - spec.round_period) < 1e-12:
            grid = times / spec.round_period
            round_aligned = bool(times.size == 0 or np.allclose(grid, np.round(grid), atol=1e-9))
    view = [s for s in columns[9] if s is not None and "view_staleness" in s]
    staleness = float(np.mean([s["view_staleness"] for s in view])) if view else math.nan
    repairs = int(sum(s["repairs"] for s in view))
    # Repair latencies are weighted by how many repairs each chunk performed.
    repair_latency = (
        float(sum(s["repair_latency"] * s["repairs"] for s in view) / repairs)
        if repairs
        else math.nan
    )
    return Cell(
        protocol=spec.protocol_id,
        q=float(spec.q),
        channel=spec.channel[0],
        loss=nominal_loss(spec.channel),
        churn_rate=float(spec.churn_rate),
        failure="targeted" if spec.targeted > 0.0 else "uniform",
        latency=latency_label(spec.latency),
        repetitions=repetitions,
        reliability=float(reliability.mean()),
        reliability_std=float(reliability.std(ddof=1)) if reliability.size > 1 else 0.0,
        atomic_rate=float((reliability >= 1.0 - 1e-12).mean()),
        survivor_fraction=float(survivors.mean()),
        messages_per_member=float(messages.mean()),
        payload_per_member=float(payload.mean()),
        control_per_member=float(control.mean()),
        drop_rate=float(dropped.sum() / max(sent.sum(), 1.0)),
        mean_rounds=float(rounds.mean()),
        delivery_percentiles=percentiles,
        round_aligned=round_aligned,
        view_staleness=staleness,
        repairs=repairs,
        repair_latency=repair_latency,
    )


def run_cells(config: ScenarioConfig) -> tuple[Cell, ...]:
    """Run every declared cell of ``config`` and return the pooled records in order."""
    specs = config.cells()
    n_chunks = -(-config.repetitions // _CHUNK_REPETITIONS)
    sizes = [len(c) for c in np.array_split(np.arange(config.repetitions), n_chunks)]
    work = [
        (spec, config.n, seed, size)
        for spec, cell_seed in zip(specs, spawn_seeds(len(specs), config.seed), strict=True)
        for seed, size in zip(spawn_seeds(n_chunks, cell_seed), sizes, strict=True)
    ]
    chunks = parallel_map(_run_chunk, work, processes=config.processes, serial_threshold=1)
    return tuple(
        _pool(spec, chunks[i * n_chunks : (i + 1) * n_chunks], config.repetitions)
        for i, spec in enumerate(specs)
    )


#: Table headers of the :class:`Cell` fields not printed under their own name.
_HEADERS = {
    "churn_rate": "churn",
    "repetitions": "reps",
    "reliability_std": "std",
    "atomic_rate": "atomic",
    "survivor_fraction": "survivors",
    "messages_per_member": "msgs/member",
    "payload_per_member": "payload/member",
    "control_per_member": "control/member",
    "drop_rate": "drop rate",
    "mean_rounds": "rounds",
    "view_staleness": "staleness",
    "repair_latency": "repair lat",
}


def _matches(cell: Cell, axes: dict[str, Any]) -> bool:
    return all(
        getattr(cell, name) == value
        if isinstance(value, str)
        else abs(getattr(cell, name) - value) < 1e-9
        for name, value in axes.items()
    )


@dataclass(frozen=True)
class ScenarioResult(Generic[ConfigT]):
    """The long-format cell table of one scenario run."""

    config: ConfigT
    cells: tuple[Cell, ...]

    #: The grid's axis columns, in the order :meth:`point` takes them.
    axes: ClassVar[tuple[str, ...]] = ()
    #: The :class:`Cell` metrics :meth:`to_table` prints after the axes and
    #: ``repetitions``, ``reliability``, ``reliability_std``;
    #: ``"delivery_percentiles"`` expands to one column per percentile.
    columns: ClassVar[tuple[str, ...]] = ()

    def protocols(self) -> list[str]:
        """Return the protocol ids in run order (deduplicated)."""
        return list(dict.fromkeys(c.protocol for c in self.cells))

    def point(self, protocol: str, *values: Any) -> Cell:
        """Return the one cell of ``protocol`` at one value per :attr:`axes`, in order.

        Raises ``KeyError`` when no cell, or more than one, matches.
        """
        if len(values) != len(self.axes):
            raise TypeError(f"point() takes one value per axis {self.axes!r}, got {values!r}")
        axes = dict(zip(self.axes, values, strict=True))
        found = [c for c in self.cells if c.protocol == protocol and _matches(c, axes)]
        if len(found) != 1:
            raise KeyError(f"{len(found)} cells for protocol={protocol!r}, {axes!r}")
        return found[0]

    def series(self, protocol: str, along: str, **axes: Any) -> list[Cell]:
        """Return ``protocol``'s cells at the given axis values, ordered by ``along``."""
        return sorted(
            (c for c in self.cells if c.protocol == protocol and _matches(c, axes)),
            key=lambda c: getattr(c, along),
        )

    def trend_problems(
        self, protocol: str, metric: str, along: str, slack: float, falls: bool = True, **axes: Any
    ) -> list[str]:
        """Return a problem per step of a series where ``metric`` moves the wrong way.

        The series is ``protocol``'s cells at ``axes``, ordered by ``along``.
        With ``falls`` the metric may not rise by more than ``slack`` from one
        step to the next; without, it may not drop by more than ``slack``.
        """
        series = self.series(protocol, along, **axes)
        at = "".join(f" {name}={value}" for name, value in axes.items())
        sign = 1.0 if falls else -1.0
        return [
            f"{protocol}{at}: {metric} {'rises' if falls else 'drops'} from "
            f"{getattr(lo, metric):.4f} ({along}={getattr(lo, along)}) to "
            f"{getattr(hi, metric):.4f} ({along}={getattr(hi, along)})"
            for lo, hi in zip(series, series[1:], strict=False)
            if sign * (getattr(hi, metric) - getattr(lo, metric)) > slack
        ]

    def loss_calibration(self) -> list[str]:
        """Return a problem per i.i.d.-loss cell whose realised drop rate is off its loss.

        A loss-free cell may drop nothing; any other may miss its loss by
        ``max(0.03, 0.25 * loss)`` (the Bernoulli thinning is calibrated).
        """
        problems: list[str] = []
        for c in self.cells:
            slack = max(0.03, 0.25 * c.loss) if c.loss > 0.0 else 0.0
            if c.channel == "iid" and abs(c.drop_rate - c.loss) > slack:
                problems.append(
                    f"{c.protocol} q={c.q} loss={c.loss} churn={c.churn_rate} "
                    f"failure={c.failure}: realised drop rate {c.drop_rate:.4f} is off"
                )
        return problems

    def to_table(self, *, precision: int = 4) -> str:
        """Render the grid: the protocol, the axes, the reliability, then :attr:`columns`."""
        names = ["protocol", *self.axes, "repetitions", "reliability", "reliability_std"]
        names += self.columns
        headers: list[str] = []
        rows: list[list[Any]] = [[] for _ in self.cells]
        for name in names:
            if name == "delivery_percentiles":
                headers += [label for label, _ in self.cells[0].delivery_percentiles]
                for row, c in zip(rows, self.cells, strict=True):
                    row += [value for _, value in c.delivery_percentiles]
            else:
                headers.append(_HEADERS.get(name, name))
                for row, c in zip(rows, self.cells, strict=True):
                    row.append(getattr(c, name))
        return format_table(headers, rows, precision=precision)
