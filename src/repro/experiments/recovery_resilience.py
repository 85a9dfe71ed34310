"""Recovery resilience — two-phase recovery vs pure push under loss and churn.

The zoo is push-dominated, so every protocol degrades the same way under
adversity: a dropped payload is gone forever, and the paper's only remedy
is "push harder" (a bigger fanout).  The two-phase recovery protocols —
:class:`~repro.protocols.lazy_push.LazyPushProtocol` (eager push, then
IHAVE/IWANT repair) and
:class:`~repro.protocols.anti_entropy.AntiEntropyProtocol` (push-pull
reconciliation) — detect gaps and repair them instead.  This experiment
makes the headline claim measurable: it sweeps the zoo **plus** both
recovery protocols over a grid of loss channels × per-round churn rates
through the batched engines, and reports per cell:

* mean/std **reliability among survivors** (the churn-safe denominator;
  identical to plain reliability for churn-free cells),
* the **payload / control message split** per member — the accounting that
  makes the cost comparison honest: digests, IHAVEs, IWANTs and pull
  requests are control traffic, and only ``messages - control`` carried
  the payload,
* the realised drop rate and the atomic-among-survivors rate.

The loss axis mixes two channels: i.i.d. Bernoulli columns
(:class:`~repro.simulation.network.NetworkModel`) and one **bursty**
Gilbert–Elliott column
(:class:`~repro.simulation.network.GilbertElliottNetworkModel`, a two-state
good/bad Markov chain) whose stationary mean drop rate sits between the
i.i.d. columns — correlated bursts are the regime where recovery should
shine hardest, because a burst wipes out whole push waves while a later
digest still finds the gap.  One extra **targeted-crash** row per protocol
runs the highest i.i.d. loss column under
:class:`~repro.simulation.failures.TargetedCrashModel` (an engineered
block of crashed members instead of uniform draws), exercising the batched
targeted-failure path end-to-end.

:meth:`RecoveryResilienceResult.check_shape` pins the claims: at the
highest i.i.d. loss column, **both recovery protocols are at least as
reliable as every pure-push protocol while sending fewer payload messages
per member**; drop rates are calibrated (the bursty column against its
stationary mean); and reliability never improves with churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.experiments.protocol_comparison import protocol_zoo
from repro.experiments.scenario import (
    Cell,
    CellSpec,
    ScenarioConfig,
    ScenarioResult,
    check_probability_axis,
    nominal_loss,
    run_cells,
)

# Bound by value for the perfbench tracer's protocol_batch.dispatch site.
from repro.simulation.protocol_batch import simulate_protocol_batch as simulate_protocol_batch
from repro.utils.validation import check_probability

__all__ = [
    "RecoveryResilienceConfig",
    "RecoveryResilienceResult",
    "run_recovery_resilience",
    "PURE_PUSH_PROTOCOLS",
    "RECOVERY_PROTOCOLS",
]

EXPERIMENT_ID = "recovery_resilience"
PAPER_REFERENCE = (
    "Sec. 2/3 beyond the paper — two-phase recovery (lazy-push IHAVE/IWANT, "
    "anti-entropy) vs the pure-push zoo under i.i.d. + bursty loss, churn and "
    "targeted crashes, with payload/control cost accounting"
)

#: Protocols with no repair leg whatsoever: every payload transmission is a
#: blind push, so a dropped message is lost for good.  The headline claim is
#: checked against exactly this set.
PURE_PUSH_PROTOCOLS = ("flooding", "lpbcast", "fixed-fanout", "random-fanout")

#: The two-phase recovery rows under test.
RECOVERY_PROTOCOLS = ("lazy-push", "anti-entropy")


@dataclass(frozen=True)
class RecoveryResilienceConfig(ScenarioConfig):
    """Configuration of the recovery-resilience sweep.

    Shared fields are described on
    :class:`~repro.experiments.scenario.ScenarioConfig`.

    Attributes
    ----------
    q:
        Nonfailed ratio of the uniform-crash rows (single value — loss and
        churn are the axes under study).
    loss_probabilities:
        I.i.d. per-message drop probabilities to sweep (the ``"iid"``
        channel columns).  The headline comparison is pinned at the highest.
    burst_loss_good, burst_loss_bad, burst_good_to_bad, burst_bad_to_good:
        Parameters of the single ``"burst"`` Gilbert–Elliott column: drop
        rates of the good/bad states and the Markov transition
        probabilities.  The defaults give a stationary mean drop rate of
        0.2375 with pronounced bursts (bad state loses 80% of messages).
    churn_rates:
        Per-round leave hazards to sweep; each nonzero rate builds a
        :class:`~repro.simulation.churn.PoissonChurnModel` with
        ``leave_rate = join_rate = rate``.
    initially_absent:
        Join-pool fraction of the nonzero-churn models.
    targeted_fraction:
        Fraction of the group crashed as one engineered block (members
        ``1..k``) in the targeted-crash rows, which run the highest i.i.d.
        loss column at churn 0.
    mean_fanout:
        Per-member effort budget (push fanout / overlay degree / lazy-push
        eager+IHAVE fanout; anti-entropy reconciles with half of it).
    rounds:
        Round horizon of the periodic protocols.  Recovery needs rounds to
        act in, so this sweep defaults higher than the push-only sweeps.
    """

    q: float = 0.9
    loss_probabilities: tuple = (0.0, 0.15, 0.4)
    burst_loss_good: float = 0.05
    burst_loss_bad: float = 0.8
    burst_good_to_bad: float = 0.1
    burst_bad_to_good: float = 0.3
    churn_rates: tuple = (0.0, 0.05)
    initially_absent: float = 0.1
    targeted_fraction: float = 0.1
    rounds: int = 16
    repetitions: int = 48
    seed: int = 20082011

    min_scaled_repetitions: ClassVar[int] = 24

    def __post_init__(self) -> None:
        super().__post_init__()
        check_probability("q", self.q)
        check_probability_axis("loss_probabilities", self.loss_probabilities)
        check_probability("burst_loss_good", self.burst_loss_good)
        check_probability("burst_loss_bad", self.burst_loss_bad)
        check_probability("burst_good_to_bad", self.burst_good_to_bad)
        check_probability("burst_bad_to_good", self.burst_bad_to_good)
        check_probability_axis("churn_rates", self.churn_rates, allow_one=False)
        check_probability("initially_absent", self.initially_absent)
        check_probability("targeted_fraction", self.targeted_fraction, allow_one=False)

    def protocols(self) -> tuple:
        """Return the zoo plus the two recovery rows at equal fanout budget."""
        return protocol_zoo(self.mean_fanout, self.rounds, include_recovery=True)

    def channels(self) -> tuple:
        """Return the loss-channel columns as plain-value channel specs."""
        iid = tuple(("iid", p) for p in self.loss_probabilities)
        good, bad = self.burst_loss_good, self.burst_loss_bad
        return (*iid, ("burst", good, bad, self.burst_good_to_bad, self.burst_bad_to_good))

    def burst_mean_loss(self) -> float:
        """Return the stationary mean drop rate of the bursty column."""
        return nominal_loss(self.channels()[-1])

    def cells(self) -> tuple[CellSpec, ...]:
        """Return the grid: per protocol, uniform crashes over every
        ``(channel, churn_rate)`` cell, then one targeted-crash row at the
        highest i.i.d. loss column.
        """
        rows = [(channel, rate, 0.0) for channel in self.channels() for rate in self.churn_rates]
        rows.append((("iid", max(self.loss_probabilities)), 0.0, self.targeted_fraction))
        return tuple(
            CellSpec(
                pid,
                protocol,
                self.q,
                channel=channel,
                churn_rate=rate,
                initially_absent=self.initially_absent,
                targeted=targeted,
            )
            for pid, protocol in self.protocols()
            for channel, rate, targeted in rows
        )


@dataclass(frozen=True)
class RecoveryResilienceResult(ScenarioResult[RecoveryResilienceConfig]):
    """Result of the recovery-resilience sweep."""

    axes: ClassVar[tuple[str, ...]] = ("channel", "loss", "churn_rate", "failure")
    columns: ClassVar[tuple[str, ...]] = (
        "survivor_fraction",
        "payload_per_member",
        "control_per_member",
        "drop_rate",
        "atomic_rate",
    )

    def check_shape(
        self, *, tolerance: float = 0.03, payload_slack: float = 1.05
    ) -> list[str]:
        """Check the qualitative recovery-resilience claims.

        1. **The headline**: at the highest i.i.d. loss column (churn-free
           and targeted-crash rows), every recovery protocol is at least as
           reliable (within Monte-Carlo ``tolerance``) as every pure-push
           protocol while sending no more payload messages per member
           (within ``payload_slack``).  Churned cells are excluded: a
           subcritical push protocol that dies early *appears* cheap, so the
           payload comparison only means something between runs that
           actually disseminated.
        2. Drop rates are calibrated: i.i.d. columns track their requested
           probability exactly; the bursty column is only bounded by its
           good/bad state rates — the realised average is legitimately
           state-weighted (replicas whose chain lingers in the good state
           deliver, and therefore send, more messages).
        3. Reliability never *increases* with churn beyond slack, on the
           i.i.d. columns (the bursty column is bimodal and too noisy for a
           monotonicity pin at experiment scale).
        4. On the bursty column both recovery protocols stay supercritical.
        """
        problems: list[str] = []
        top_loss = max(self.config.loss_probabilities)

        def compare(recovery: Cell, push: Cell, label: str) -> None:
            if recovery.reliability < push.reliability - tolerance:
                problems.append(
                    f"{label}: {recovery.protocol} reliability "
                    f"{recovery.reliability:.4f} below pure-push {push.protocol} "
                    f"{push.reliability:.4f}"
                )
            if recovery.payload_per_member > push.payload_per_member * payload_slack:
                problems.append(
                    f"{label}: {recovery.protocol} payload cost "
                    f"{recovery.payload_per_member:.2f}/member exceeds pure-push "
                    f"{push.protocol} {push.payload_per_member:.2f}/member"
                )

        for recovery_id in RECOVERY_PROTOCOLS:
            for push_id in PURE_PUSH_PROTOCOLS:
                for failure in ("uniform", "targeted"):
                    try:
                        recovery = self.point(recovery_id, "iid", top_loss, 0.0, failure)
                        push = self.point(push_id, "iid", top_loss, 0.0, failure)
                    except KeyError:
                        continue
                    compare(recovery, push, f"loss={top_loss} {failure}")

        burst_mean = self.config.burst_mean_loss()
        lo = min(self.config.burst_loss_good, self.config.burst_loss_bad)
        hi = max(self.config.burst_loss_good, self.config.burst_loss_bad)
        for p in self.cells:
            if p.channel == "burst" and not lo - 0.03 <= p.drop_rate <= hi + 0.03:
                problems.append(
                    f"{p.protocol} burst churn={p.churn_rate}: realised drop "
                    f"rate {p.drop_rate:.4f} outside the state rates [{lo:.2f}, {hi:.2f}]"
                )
        problems += self.loss_calibration()

        for protocol in self.protocols():
            for loss in self.config.loss_probabilities:
                at = {"channel": "iid", "loss": loss, "failure": "uniform"}
                problems += self.trend_problems(
                    protocol, "reliability", "churn_rate", 2 * tolerance, **at
                )

        for recovery_id in RECOVERY_PROTOCOLS:
            for churn_rate in self.config.churn_rates:
                try:
                    p = self.point(recovery_id, "burst", burst_mean, churn_rate, "uniform")
                except KeyError:
                    continue
                if p.reliability < 0.9:
                    problems.append(
                        f"{recovery_id} burst churn={churn_rate}: reliability "
                        f"{p.reliability:.4f} not supercritical on the bursty column"
                    )
        return problems


def run_recovery_resilience(
    config: RecoveryResilienceConfig | None = None,
) -> RecoveryResilienceResult:
    """Run the sweep over the ``(protocol, channel, churn_rate [, targeted])`` grid."""
    config = config or RecoveryResilienceConfig()
    return RecoveryResilienceResult(config, run_cells(config))
