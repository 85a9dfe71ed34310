"""Protocol comparison — the related-work zoo as a first-class workload.

The paper positions its general gossip algorithm against the protocols of
its related-work section (flooding, Bimodal Multicast / pbcast, lpbcast,
Route Driven Gossip, traditional fixed-fanout gossip) but never evaluates
them head-to-head.  This experiment runs all six protocol families through
the **batched multi-protocol engine**
(:func:`repro.simulation.protocol_batch.simulate_protocol_batch`) over a
grid of nonfailed ratios ``q`` and reports, per ``(protocol, q)`` cell:

* mean/std reliability (delivered nonfailed members / nonfailed members),
* mean rounds to delivery (how many protocol rounds the dissemination ran),
* mean message cost per member, and
* the atomicity rate (fraction of replicas that reached *every* nonfailed
  member).

All protocols are dimensioned at **equal effort** (the same per-member
fanout budget), so the comparison isolates the dissemination *strategy*:
flooding is the reliability upper bound, the paper's push gossip is the
cheap baseline, and the buffered/pull protocols (pbcast, lpbcast, RDG)
trade control traffic for the last few percent of reliability.  The grid
runs through the shared scenario driver
(:func:`repro.experiments.scenario.run_cells`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.core.distributions import PoissonFanout
from repro.experiments.scenario import (
    CellSpec,
    ScenarioConfig,
    ScenarioResult,
    check_probability_axis,
    run_cells,
)

# Bound by value for the perfbench tracer's protocol_batch.dispatch site.
from repro.simulation.protocol_batch import simulate_protocol_batch as simulate_protocol_batch

__all__ = [
    "ProtocolComparisonConfig",
    "ProtocolComparisonResult",
    "protocol_zoo",
    "run_protocol_comparison",
]

EXPERIMENT_ID = "protocol_comparison"
PAPER_REFERENCE = (
    "Sec. 2 related work — reliability/cost comparison of the protocol zoo "
    "(flooding, pbcast, lpbcast, RDG, fixed/random fanout) under fail-stop crashes"
)


def protocol_zoo(
    mean_fanout: int,
    rounds: int,
    *,
    include_peer_sampling: bool = False,
    include_recovery: bool = False,
) -> tuple:
    """Return the ``(protocol_id, Protocol)`` rows at equal per-member effort.

    The single place the protocol-level experiments (``protocol_comparison``,
    ``loss_resilience``, ``churn_resilience``, ``recovery_resilience``) and
    benchmarks instantiate the
    zoo, so every workload compares exactly the same dimensioning:
    ``mean_fanout`` is the push fanout of every gossip protocol and the
    overlay degree of flooding; ``rounds`` bounds the periodic protocols
    (pbcast, lpbcast, RDG).  ``include_peer_sampling`` appends the
    HyParView-style peer-sampling protocol (a small self-repairing active
    view backed by a passive reservoir) — off by default so the static
    experiments keep their historical six-row grid.  ``include_recovery``
    appends the two-phase recovery protocols (lazy-push with IHAVE/IWANT
    repair, anti-entropy reconciliation) at the same fanout budget; their
    recovery knobs (retry budget, eager threshold, reconciliation fanout)
    are fixed here so every workload measures one dimensioning.
    """
    from repro.protocols import (
        AntiEntropyProtocol,
        FixedFanoutGossip,
        FloodingProtocol,
        HyParViewProtocol,
        LazyPushProtocol,
        LpbcastProtocol,
        PbcastProtocol,
        RandomFanoutGossip,
        RouteDrivenGossip,
    )

    f = int(mean_fanout)
    rows = (
        ("flooding", FloodingProtocol(degree=f)),
        ("pbcast", PbcastProtocol(fanout=f, rounds=rounds, broadcast_reach=0.8)),
        ("lpbcast", LpbcastProtocol(fanout=f, rounds=rounds, view_size=30)),
        ("rdg", RouteDrivenGossip(fanout=f, rounds=rounds, pull_fanout=1)),
        ("fixed-fanout", FixedFanoutGossip(f)),
        ("random-fanout", RandomFanoutGossip(PoissonFanout(float(f)))),
    )
    if include_peer_sampling:
        rows += (
            (
                "hyparview",
                HyParViewProtocol(
                    fanout=f,
                    rounds=rounds,
                    active_size=8,
                    passive_size=30,
                    shuffle_interval=1,
                ),
            ),
        )
    if include_recovery:
        rows += (
            (
                "lazy-push",
                LazyPushProtocol(
                    fanout=f,
                    rounds=rounds,
                    eager_threshold=0.4,
                    retry_budget=10,
                ),
            ),
            ("anti-entropy", AntiEntropyProtocol(fanout=max(1, f // 2), rounds=rounds)),
        )
    return rows


@dataclass(frozen=True)
class ProtocolComparisonConfig(ScenarioConfig):
    """Configuration of the cross-protocol comparison.

    Shared fields are described on
    :class:`~repro.experiments.scenario.ScenarioConfig`; ``qs`` is the
    nonfailed-ratio grid (brackets the regimes of the paper's Figs. 4-5).
    """

    seed: int = 20082008
    qs: tuple = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_probability_axis("qs", self.qs)

    def protocols(self) -> tuple:
        """Return the six ``(protocol_id, Protocol)`` rows at equal effort."""
        return protocol_zoo(self.mean_fanout, self.rounds)

    def cells(self) -> tuple[CellSpec, ...]:
        """Return the ``(protocol, q)`` grid, protocol-major."""
        return tuple(
            CellSpec(pid, protocol, q) for pid, protocol in self.protocols() for q in self.qs
        )


@dataclass(frozen=True)
class ProtocolComparisonResult(ScenarioResult[ProtocolComparisonConfig]):
    """Result of the cross-protocol comparison."""

    axes: ClassVar[tuple[str, ...]] = ("q",)
    columns: ClassVar[tuple[str, ...]] = ("mean_rounds", "messages_per_member", "atomic_rate")

    def check_shape(self, *, tolerance: float = 0.05) -> list[str]:
        """Check the qualitative cross-protocol claims.

        1. Per protocol, reliability does not *decrease* with ``q`` (beyond
           Monte-Carlo slack).
        2. At every supercritical ``q`` (>= 0.8): flooding >= pbcast >=
           fixed-fanout reliability — the strategy ordering at equal effort.
        3. Flooding at ``q = 1`` is essentially atomic.
        4. Every buffered/pull protocol pays more messages per member than
           plain push gossip at ``q = max(qs)`` (control traffic is not free).
        """
        problems: list[str] = []
        for protocol in self.protocols():
            problems += self.trend_problems(
                protocol, "reliability", "q", 2 * tolerance, falls=False
            )
        for q in self.config.qs:
            if q < 0.8:
                continue
            try:
                flood = self.point("flooding", q)
                pb = self.point("pbcast", q)
                fixed = self.point("fixed-fanout", q)
            except KeyError:
                continue
            if flood.reliability < pb.reliability - tolerance:
                problems.append(
                    f"q={q}: flooding {flood.reliability:.4f} below pbcast {pb.reliability:.4f}"
                )
            if pb.reliability < fixed.reliability - tolerance:
                problems.append(
                    f"q={q}: pbcast {pb.reliability:.4f} below fixed-fanout {fixed.reliability:.4f}"
                )
        if 1.0 in self.config.qs:
            flood = self.point("flooding", 1.0)
            if flood.reliability < 1.0 - tolerance:
                problems.append(
                    f"flooding at q=1 is not atomic: reliability {flood.reliability:.4f}"
                )
        q_top = max(self.config.qs)
        push_cost = self.point("fixed-fanout", q_top).messages_per_member
        for protocol in ("pbcast", "lpbcast", "rdg"):
            if self.point(protocol, q_top).messages_per_member < push_cost:
                problems.append(
                    f"{protocol} at q={q_top} is cheaper than plain push gossip"
                )
        return problems


def run_protocol_comparison(
    config: ProtocolComparisonConfig | None = None,
) -> ProtocolComparisonResult:
    """Run the comparison over the full ``(protocol, q)`` grid."""
    config = config or ProtocolComparisonConfig()
    return ProtocolComparisonResult(config, run_cells(config))
