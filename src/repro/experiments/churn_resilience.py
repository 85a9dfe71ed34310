"""Churn resilience — the protocol zoo under dynamic membership.

The paper's reliability analysis (and every static experiment in this
repository) fixes the group before dissemination starts: members may crash,
but nobody joins and nobody leaves.  Production gossip systems run under
**churn** — nodes enter and depart *while* a message is disseminating — and
gossip over bounded partial views maintained by a peer-sampling service.
This experiment sweeps the whole protocol zoo (plus the HyParView-style
peer-sampling protocol) over a grid of per-round churn rates crossed with
the nonfailed ratio ``q``, through the **batched churn plane**
(:func:`repro.simulation.protocol_batch.simulate_protocol_batch` with a
:class:`~repro.simulation.churn.PoissonChurnModel`), and reports per
``(protocol, q, churn_rate)`` cell:

* mean/std **reliability among survivors** — of the members still nonfailed
  *and present* when dissemination ended, the fraction holding the message
  (the only meaningful denominator once members leave mid-run),
* the mean survivor fraction (how much of the nonfailed group the churn
  schedule kept),
* mean message cost per member and the atomic-among-survivors rate,
* for the peer-sampling protocol: mean **view staleness** (fraction of
  active-view slots pointing at departed peers, per round before repair),
  total link **repairs**, and the mean **repair latency** in rounds.

Two rows anchor the comparison: ``lpbcast-frozen`` is fixed-fanout gossip
over a *static* partial view of exactly the peer-sampling protocol's
active-view size, so the ``hyparview`` vs ``lpbcast-frozen`` gap isolates
what view repair buys at equal view budget.  The expected shape — checked by
:meth:`ChurnResilienceResult.check_shape` — is graceful degradation:
reliability falls monotonically in the churn rate for every protocol, and
the self-repairing view degrades no faster than the frozen one.

At ``churn_rate = 0`` a cell runs without a churn plane; the all-zero churn
model is bit-identical to that static path (the same discipline the loss
plane established), and the test suite pins exactly that for all protocols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from repro.experiments.protocol_comparison import protocol_zoo
from repro.experiments.scenario import (
    CellSpec,
    ScenarioConfig,
    ScenarioResult,
    check_probability_axis,
    run_cells,
)

# Bound by value for the perfbench tracer's protocol_batch.dispatch site.
from repro.simulation.protocol_batch import simulate_protocol_batch as simulate_protocol_batch
from repro.utils.validation import check_probability

__all__ = [
    "ChurnResilienceConfig",
    "ChurnResilienceResult",
    "run_churn_resilience",
]

EXPERIMENT_ID = "churn_resilience"
PAPER_REFERENCE = (
    "Sec. 3 model assumption lifted — protocol-zoo reliability among survivors "
    "under dynamic membership (churn_rate x q grid, batched churn plane, "
    "HyParView-style peer sampling vs frozen partial views)"
)

#: Active-view size of the peer-sampling row and view size of its frozen
#: static anchor (``lpbcast-frozen``) — matched so the comparison isolates
#: view *repair*, not view budget.
_PEER_VIEW_SIZE = 8


@dataclass(frozen=True)
class ChurnResilienceConfig(ScenarioConfig):
    """Configuration of the churn-resilience sweep.

    Shared fields are described on
    :class:`~repro.experiments.scenario.ScenarioConfig`.

    Attributes
    ----------
    qs:
        Nonfailed-ratio grid (supercritical regimes — churn is the axis under
        study, crashes are the nuisance dimension).
    churn_rates:
        Per-round leave hazards to sweep.  Each nonzero rate is a
        :class:`~repro.simulation.churn.PoissonChurnModel` with
        ``leave_rate = join_rate = rate`` and ``initially_absent`` as below;
        rate 0 runs without a churn plane (static membership).
    initially_absent:
        Join-pool fraction of the nonzero-churn models: members starting
        outside the group that trickle in at ``join_rate``.
    """

    seed: int = 20082010
    qs: tuple = (0.9, 1.0)
    churn_rates: tuple = (0.0, 0.02, 0.05, 0.1, 0.15)
    initially_absent: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        check_probability_axis("qs", self.qs)
        check_probability_axis("churn_rates", self.churn_rates, allow_one=False)
        check_probability("initially_absent", self.initially_absent)

    def protocols(self) -> tuple:
        """Return the ``(protocol_id, Protocol)`` rows of the churn sweep.

        The full zoo with the peer-sampling protocol appended, plus the
        ``lpbcast-frozen`` anchor: the same push gossip over a *static*
        partial view of the peer-sampling protocol's active-view size.
        """
        from repro.protocols import LpbcastProtocol

        rows = protocol_zoo(self.mean_fanout, self.rounds, include_peer_sampling=True)
        frozen = LpbcastProtocol(
            fanout=self.mean_fanout, rounds=self.rounds, view_size=_PEER_VIEW_SIZE
        )
        frozen.name = "lpbcast-frozen"
        return rows + (("lpbcast-frozen", frozen),)

    def cells(self) -> tuple[CellSpec, ...]:
        """Return the ``(protocol, q, churn_rate)`` grid, protocol-major."""
        return tuple(
            CellSpec(pid, protocol, q, churn_rate=rate, initially_absent=self.initially_absent)
            for pid, protocol in self.protocols()
            for q in self.qs
            for rate in self.churn_rates
        )


@dataclass(frozen=True)
class ChurnResilienceResult(ScenarioResult[ChurnResilienceConfig]):
    """Result of the churn-resilience sweep.

    The view statistics of each cell describe the peer-sampling membership
    service and are ``NaN``/0 for every other protocol (their views have no
    repair machinery to measure).
    """

    axes: ClassVar[tuple[str, ...]] = ("q", "churn_rate")
    columns: ClassVar[tuple[str, ...]] = (
        "survivor_fraction",
        "messages_per_member",
        "atomic_rate",
        "view_staleness",
        "repairs",
        "repair_latency",
    )

    def check_shape(self, *, tolerance: float = 0.05) -> list[str]:
        """Check the qualitative churn-resilience claims.

        1. At ``churn_rate = 0`` every nonfailed member survives (the churn
           plane is inert) and reliability-among-survivors is supercritical.
        2. Per ``(protocol, q)``, reliability does not *increase* with the
           churn rate (beyond Monte-Carlo slack) and the survivor fraction
           falls as members leave — graceful degradation, no cliffs upward.
        3. At every nonzero churn rate, the peer-sampling protocol is at
           least as reliable as fixed-fanout gossip over a frozen partial
           view of the same size (view repair pays), and its total
           degradation from rate 0 is no steeper.
        4. Under churn the peer-sampling service actually works: staleness
           is observed and repairs happen.
        """
        problems: list[str] = []
        for p in self.cells:
            if p.churn_rate == 0.0 and p.survivor_fraction != 1.0:
                problems.append(
                    f"{p.protocol} q={p.q}: survivor fraction "
                    f"{p.survivor_fraction:.4f} != 1 at churn rate 0"
                )
        for protocol in self.protocols():
            for q in self.config.qs:
                problems += self.trend_problems(
                    protocol, "reliability", "churn_rate", 2 * tolerance, q=q
                )
                problems += self.trend_problems(
                    protocol, "survivor_fraction", "churn_rate", tolerance, q=q
                )
        for q in self.config.qs:
            for rate in self.config.churn_rates:
                if rate == 0.0:
                    continue
                try:
                    peer = self.point("hyparview", q, rate)
                    frozen = self.point("lpbcast-frozen", q, rate)
                except KeyError:
                    continue
                if peer.reliability < frozen.reliability - tolerance:
                    problems.append(
                        f"q={q} rate={rate}: hyparview {peer.reliability:.4f} below "
                        f"frozen-view anchor {frozen.reliability:.4f}"
                    )
                if peer.view_staleness <= 0.0 or math.isnan(peer.view_staleness):
                    problems.append(
                        f"q={q} rate={rate}: no view staleness observed under churn"
                    )
                if peer.repairs <= 0:
                    problems.append(
                        f"q={q} rate={rate}: peer-sampling service repaired nothing"
                    )
            rate_top = max(self.config.churn_rates)
            if rate_top > 0.0:
                try:
                    peer0 = self.point("hyparview", q, 0.0)
                    peer1 = self.point("hyparview", q, rate_top)
                    frozen0 = self.point("lpbcast-frozen", q, 0.0)
                    frozen1 = self.point("lpbcast-frozen", q, rate_top)
                except KeyError:
                    continue
                peer_drop = peer0.reliability - peer1.reliability
                frozen_drop = frozen0.reliability - frozen1.reliability
                if peer_drop > frozen_drop + tolerance:
                    problems.append(
                        f"q={q}: hyparview degrades by {peer_drop:.4f} to rate "
                        f"{rate_top}, faster than the frozen view's {frozen_drop:.4f}"
                    )
        return problems


def run_churn_resilience(
    config: ChurnResilienceConfig | None = None,
) -> ChurnResilienceResult:
    """Run the sweep over the full ``(protocol, q, churn_rate)`` grid."""
    config = config or ChurnResilienceConfig()
    return ChurnResilienceResult(config, run_cells(config))
