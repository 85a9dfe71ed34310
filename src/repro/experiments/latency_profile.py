"""Latency profile — delivery-time percentiles of the zoo under timed networks.

The paper's evaluation counts rounds; deployments care about *time*.  This
experiment runs the whole protocol zoo plus the two-phase recovery
protocols through the batched engines with the per-message **latency
plane** enabled (:class:`~repro.simulation.latency.DeliveryTimePlane`):
every transmission draws its own delay from the configured latency law,
slow messages mature in later rounds via discretised time-buckets, and the
engines report per-member delivery times.  The sweep crosses

* the protocol rows (``protocol_zoo(..., include_peer_sampling=True,
  include_recovery=True)``),
* a latency law per column — constant, uniform and exponential at the
  same one-round mean, so the columns isolate *variance* (the constant
  column is the latency-free round clock, reproduced bit-identically by
  the plane's fast path), and
* an i.i.d. loss grid (loss stretches tails by forcing recovery rounds),

and reports per cell the reliability, the message cost, and the delivery
percentiles ``p50 / p99 / p999`` over delivered members — the tail metrics
a broadcast SLA is written against.

Expected shape (:meth:`LatencyProfileResult.check_shape`): percentiles are
ordered within every cell; under the one-round constant law every delivery
lands exactly on the round grid (the plane is the round clock); the exponential
column's tail dominates the constant column's at equal mean (per-hop
variance compounds); and loss never improves reliability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.experiments.protocol_comparison import protocol_zoo
from repro.experiments.scenario import (
    CellSpec,
    ScenarioConfig,
    ScenarioResult,
    build_latency,
    check_probability_axis,
    latency_label,
    run_cells,
)
from repro.simulation.latency import percentile_label

# Bound by value for the perfbench tracer's protocol_batch.dispatch site.
from repro.simulation.protocol_batch import simulate_protocol_batch as simulate_protocol_batch
from repro.utils.validation import check_probability

__all__ = [
    "LatencyProfileConfig",
    "LatencyProfileResult",
    "run_latency_profile",
]

EXPERIMENT_ID = "latency_profile"
PAPER_REFERENCE = (
    "Sec. 5 beyond the paper — delivery-time percentiles (p50/p99/p999) of the "
    "protocol zoo + recovery protocols under constant/uniform/exponential "
    "per-message latency x i.i.d. loss, batched latency plane"
)


@dataclass(frozen=True)
class LatencyProfileConfig(ScenarioConfig):
    """Configuration of the latency-profile sweep.

    Shared fields are described on
    :class:`~repro.experiments.scenario.ScenarioConfig`.

    Attributes
    ----------
    q:
        Nonfailed ratio (single supercritical value — latency is the axis
        under study, failures are the nuisance dimension).
    latencies:
        Latency-law column specs: ``("constant", value)``,
        ``("uniform", low, high)`` or ``("exponential", mean)``.  The
        defaults share a mean of one round period, so the columns compare
        latency *variance* at equal per-hop cost.
    loss_probabilities:
        Independent per-message drop probabilities to cross with the
        latency columns.
    round_period:
        Gossip period the plane discretises against (the time axis unit).
    percentiles:
        Delivery percentiles to report (over delivered members).
    """

    q: float = 0.9
    latencies: tuple = (
        ("constant", 1.0),
        ("uniform", 0.5, 1.5),
        ("exponential", 1.0),
    )
    loss_probabilities: tuple = (0.0, 0.15)
    round_period: float = 1.0
    percentiles: tuple = (50.0, 99.0, 99.9)
    rounds: int = 12
    seed: int = 20082013

    def __post_init__(self) -> None:
        super().__post_init__()
        check_probability("q", self.q)
        if not self.latencies:
            raise ValueError("latencies must be non-empty")
        for spec in self.latencies:
            build_latency(spec)  # validates kind and parameters
        check_probability_axis("loss_probabilities", self.loss_probabilities)
        if self.round_period <= 0.0:
            raise ValueError(f"round_period must be > 0, got {self.round_period!r}")
        if not self.percentiles:
            raise ValueError("percentiles must be non-empty")
        for p in self.percentiles:
            if not 0.0 < p < 100.0:
                raise ValueError(f"percentiles must be in (0, 100), got {p!r}")

    def protocols(self) -> tuple:
        """Return the full zoo (peer sampling + recovery rows included)."""
        return protocol_zoo(
            self.mean_fanout,
            self.rounds,
            include_peer_sampling=True,
            include_recovery=True,
        )

    def cells(self) -> tuple[CellSpec, ...]:
        """Return the ``(protocol, latency, loss)`` grid, protocol-major."""
        return tuple(
            CellSpec(
                pid,
                protocol,
                self.q,
                channel=("iid", loss),
                latency=spec,
                round_period=self.round_period,
                percentiles=self.percentiles,
            )
            for pid, protocol in self.protocols()
            for spec in self.latencies
            for loss in self.loss_probabilities
        )


@dataclass(frozen=True)
class LatencyProfileResult(ScenarioResult[LatencyProfileConfig]):
    """Result of the latency-profile sweep."""

    axes: ClassVar[tuple[str, ...]] = ("latency", "loss")
    columns: ClassVar[tuple[str, ...]] = ("delivery_percentiles", "messages_per_member")

    def check_shape(self, *, tolerance: float = 0.05) -> list[str]:
        """Check the qualitative latency-profile claims.

        1. Within every cell the reported percentiles are ordered
           (``p50 <= p99 <= p999`` for the default set).
        2. Under the one-round constant law every raw delivery time is an
           exact multiple of the round period: the plane's fast path
           degenerates to the round clock.
        3. Per ``(protocol, loss)``, the exponential column's extreme tail
           dominates the constant column's at equal mean — per-hop variance
           compounds along gossip paths.  Both columns are found by kind;
           the check is skipped when the grid lacks either.
        4. Per ``(protocol, latency)``, reliability does not *increase*
           with loss (beyond Monte-Carlo slack).
        """
        problems: list[str] = []
        percentiles = sorted(self.config.percentiles)
        for p in self.cells:
            ordered = [p.percentile(x) for x in percentiles]
            finite = [v for v in ordered if np.isfinite(v)]
            if any(hi < lo - 1e-9 for lo, hi in zip(finite, finite[1:], strict=False)):
                problems.append(
                    f"{p.protocol} {p.latency} loss={p.loss}: "
                    f"percentiles not ordered: {ordered}"
                )
            if p.round_aligned is False:
                problems.append(
                    f"{p.protocol} {p.latency} loss={p.loss}: "
                    "constant-law delivery times are off the round grid"
                )
        top_label = percentile_label(percentiles[-1])
        constant, exponential = (
            next((latency_label(s) for s in self.config.latencies if s[0] == kind), None)
            for kind in ("constant", "exponential")
        )
        if constant is not None and exponential is not None:
            for protocol in self.protocols():
                for loss in self.config.loss_probabilities:
                    try:
                        const_cell = self.point(protocol, constant, loss)
                        exp_cell = self.point(protocol, exponential, loss)
                    except KeyError:
                        continue
                    const_tail = const_cell.percentile(percentiles[-1])
                    exp_tail = exp_cell.percentile(percentiles[-1])
                    if np.isfinite(const_tail) and np.isfinite(exp_tail):
                        if exp_tail < const_tail - tolerance:
                            problems.append(
                                f"{protocol} loss={loss}: exponential {top_label} "
                                f"{exp_tail:.3f} below constant {const_tail:.3f}"
                            )
        for protocol in self.protocols():
            for spec in self.config.latencies:
                problems += self.trend_problems(
                    protocol, "reliability", "loss", 2 * tolerance, latency=latency_label(spec)
                )
        return problems


def run_latency_profile(config: LatencyProfileConfig | None = None) -> LatencyProfileResult:
    """Run the sweep over the full ``(protocol, latency, loss)`` grid."""
    config = config or LatencyProfileConfig()
    return LatencyProfileResult(config, run_cells(config))
