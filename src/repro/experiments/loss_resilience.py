"""Loss resilience — the protocol zoo under a lossy network plane.

The paper's reliability analysis assumes perfect point-to-point delivery:
a gossip arc either exists or it does not, and every sent message arrives.
Real deployments drop messages.  This experiment sweeps the whole baseline
protocol zoo over a grid of independent per-message loss probabilities
(crossed with the nonfailed ratio ``q``) through the **vectorised loss
plane** of the batched multi-protocol engine
(:func:`repro.simulation.protocol_batch.simulate_protocol_batch` with a
:class:`~repro.simulation.network.NetworkModel`), and reports per
``(protocol, q, loss)`` cell:

* mean/std reliability (delivered nonfailed members / nonfailed members),
* mean message cost per member,
* the realised drop rate (``messages_dropped / messages_sent`` — a direct
  check that the engine thins with the requested Bernoulli law), and
* the atomicity rate.

The expected shape: push-only gossip (fixed/random fanout) degrades first —
a lost push is never retried, so loss eats directly into the effective
fanout (``f_eff = f · (1 - loss)``) and pushes the process toward its
percolation threshold; the redundant and pull-based protocols (flooding's
link redundancy, pbcast's anti-entropy digests, RDG's NACK pulls) buy back
reliability at extra message cost.  At ``loss = 0`` every cell must be
statistically indistinguishable from the loss-free ``protocol_comparison``
numbers — the CI smoke run and the test suite pin exactly that through the
shared statistical harness.

The grid runs through the shared scenario driver
(:func:`repro.experiments.scenario.run_cells`).
"""

from __future__ import annotations

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

__all__ = [
    "LossResilienceConfig",
    "LossResilienceResult",
    "run_loss_resilience",
]

EXPERIMENT_ID = "loss_resilience"
PAPER_REFERENCE = (
    "Sec. 3 model assumption lifted — protocol-zoo reliability under independent "
    "per-message loss (loss_probability x q grid, batched lossy engine)"
)


@dataclass(frozen=True)
class LossResilienceConfig(ScenarioConfig):
    """Configuration of the loss-resilience sweep.

    Shared fields are described on
    :class:`~repro.experiments.scenario.ScenarioConfig`.

    Attributes
    ----------
    qs:
        Nonfailed-ratio grid (supercritical regimes — loss is the axis under
        study, failures are the nuisance dimension).
    loss_probabilities:
        Independent per-message drop probabilities to sweep.
    """

    seed: int = 20082009
    qs: tuple = (0.9, 1.0)
    loss_probabilities: tuple = (0.0, 0.05, 0.1, 0.2, 0.4)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_probability_axis("qs", self.qs)
        check_probability_axis("loss_probabilities", self.loss_probabilities)

    def protocols(self) -> tuple:
        """Return the six ``(protocol_id, Protocol)`` rows at equal effort."""
        return protocol_zoo(self.mean_fanout, self.rounds)

    def cells(self) -> tuple[CellSpec, ...]:
        """Return the ``(protocol, q, loss)`` grid, protocol-major."""
        return tuple(
            CellSpec(pid, protocol, q, channel=("iid", loss))
            for pid, protocol in self.protocols()
            for q in self.qs
            for loss in self.loss_probabilities
        )


@dataclass(frozen=True)
class LossResilienceResult(ScenarioResult[LossResilienceConfig]):
    """Result of the loss-resilience sweep."""

    axes: ClassVar[tuple[str, ...]] = ("q", "loss")
    columns: ClassVar[tuple[str, ...]] = ("messages_per_member", "drop_rate", "atomic_rate")

    def check_shape(self, *, tolerance: float = 0.05) -> list[str]:
        """Check the qualitative loss-resilience claims.

        1. The realised drop rate tracks the requested loss probability
           (the Bernoulli thinning is calibrated).
        2. Per ``(protocol, q)``, reliability does not *increase* with loss
           (beyond Monte-Carlo slack) — dropping messages never helps.
        3. At the highest loss on the grid, flooding stays at least as
           reliable as plain fixed-fanout push gossip (redundancy pays).
        4. At ``loss = 0`` (when on the grid) no messages are dropped at all.
        """
        problems = self.loss_calibration()
        for protocol in self.protocols():
            for q in self.config.qs:
                problems += self.trend_problems(protocol, "reliability", "loss", 2 * tolerance, q=q)
        top_loss = max(self.config.loss_probabilities)
        for q in self.config.qs:
            try:
                flood = self.point("flooding", q, top_loss)
                fixed = self.point("fixed-fanout", q, top_loss)
            except KeyError:
                continue
            if flood.reliability < fixed.reliability - tolerance:
                problems.append(
                    f"q={q} loss={top_loss}: flooding {flood.reliability:.4f} below "
                    f"fixed-fanout {fixed.reliability:.4f}"
                )
        return problems


def run_loss_resilience(config: LossResilienceConfig | None = None) -> LossResilienceResult:
    """Run the sweep over the full ``(protocol, q, loss)`` grid."""
    config = config or LossResilienceConfig()
    return LossResilienceResult(config, run_cells(config))
