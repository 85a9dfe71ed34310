"""One transport layer under every batched protocol hook.

The paper models every gossip protocol the same way: members send to peers,
some sends are lost or land on members that have left, and reliability is
what reaches the live ones.  :class:`Transport` is that one delivery law for
both batched engines: a protocol hook or the gossip engine says what it
sends, the transport decides what arrives.  One transport serves one
:func:`~repro.simulation.protocol_batch.simulate_protocol_batch` or
:func:`~repro.simulation.gossip.simulate_gossip_batch` run; it owns the loss,
churn and latency planes, the per-replica drop and waste counters and the
current round's churn view.  Every verb is a no-op that draws no randomness
when its plane is off, which keeps plane-off runs bit-identical.

The order in which a hook composes the verbs is the order of its random
draws, so each leg composes them explicitly: payload pushes (and pbcast's
digests) use :meth:`Transport.push`; lazy-push IHAVEs and anti-entropy
digests call :meth:`Transport.lose` then :meth:`Transport.land`, with no
absent-at-send filter; answers that never enter a latency bucket call
:meth:`Transport.lose` and are timed by :meth:`Transport.reply` or
:meth:`Transport.round_trip`.  A Gilbert–Elliott channel steps once per loss
draw, even on an empty leg, so ``lose`` always draws while ``push`` skips
the loss draw of an empty leg.  Cells are flat ids ``replica * n + member``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.simulation.churn import ChurnScheduleBatch
from repro.simulation.latency import DeliveryTimePlane
from repro.simulation.network import NetworkModel
from repro.utils.sampling import fresh_cells

__all__ = ["BatchOutcome", "Transport"]


@dataclass(frozen=True)
class BatchOutcome:
    """What a batched protocol hook returns: per-replica results of ``R`` runs.

    Attributes
    ----------
    delivered:
        ``(R, n)`` masks of members holding the message at the end.
    messages, dropped, rounds:
        ``(R,)`` messages sent, messages lost in transit, rounds executed.
    control:
        Optional ``(R,)`` control-message counts (digests, IHAVE/IWANT, pull
        requests); ``None`` for protocols that only ever push payload.
    stats:
        Optional protocol-specific measurements of the run (e.g. HyParView's
        view repairs), surfaced as ``BatchResult.stats``.
    """

    delivered: np.ndarray
    messages: np.ndarray
    dropped: np.ndarray
    rounds: np.ndarray
    control: np.ndarray | None = None
    stats: dict[str, Any] | None = None


class Transport:
    """Loss, churn and latency planes of one batched run behind one set of verbs.

    ``rng`` is the run's generator (the one the hook draws targets from).
    A plane given as ``None`` is off, and so is a trivial churn schedule.  A
    network switches on the latency plane as well: the transport builds the
    :class:`~repro.simulation.latency.DeliveryTimePlane` on the
    ``round_period`` clock and records the ``source`` at time 0 in every
    replica.  The transport never resets the network; the caller decides
    whether a reused channel starts afresh.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        repetitions: int,
        n: int,
        source: int,
        *,
        network: NetworkModel | None = None,
        churn: ChurnScheduleBatch | None = None,
        round_period: float = 1.0,
    ) -> None:
        self.rng = rng
        self.repetitions = int(repetitions)
        self.n = int(n)
        if churn is not None:
            if (churn.repetitions, churn.n) != (self.repetitions, self.n):
                raise ValueError(
                    f"churn schedule is for shape {(churn.repetitions, churn.n)}, "
                    f"expected {(self.repetitions, self.n)}"
                )
            if churn.is_trivial():
                churn = None  # static group: take the churn-free path verbatim
        self.network = network
        self.churn = churn
        self.latency: DeliveryTimePlane | None = None
        if network is not None:
            self.latency = DeliveryTimePlane(
                network, self.repetitions, self.n, round_period=round_period
            )
            # The source holds the message from the start of every replica.
            self.latency.record(
                np.arange(self.repetitions, dtype=np.int64) * self.n + source,
                np.zeros(self.repetitions),
            )
        #: ``(R,)`` messages lost in transit so far, per replica.
        self.dropped = np.zeros(self.repetitions, dtype=np.int64)
        #: ``(R,)`` messages sent to, or landing on, absent members, per replica.
        self.wasted = np.zeros(self.repetitions, dtype=np.int64)
        self._send_round = 0
        self._present: np.ndarray | None = None
        self._present_flat: np.ndarray | None = None

    # ------------------------------------------------------------ membership

    def begin_round(self, round_index: int) -> None:
        """Enter protocol round ``round_index`` (1-based; 0 before the first round).

        Round ``r`` sends depart at the start of slot ``r - 1`` of the
        latency clock; a send made before round 1 (pbcast's broadcast)
        departs at time 0 as well.
        """
        self._send_round = max(round_index - 1, 0)
        if self.churn is not None:
            self._present = self.churn.present_at(round_index)
            self._present_flat = self._present.ravel()

    def present(self, members: np.ndarray) -> np.ndarray:
        """Restrict an ``(R, n)`` member mask to this round's group.

        Returns ``members`` itself when churn is off.
        """
        return members if self._present is None else members & self._present

    def in_group(self, cells: np.ndarray) -> np.ndarray:
        """Return a bool mask (shaped like ``cells``): cell is in this round's group."""
        if self._present_flat is None:
            return np.ones(np.shape(cells), dtype=bool)
        return self._present_flat[cells]

    def _keep_present(self, cells: np.ndarray) -> np.ndarray:
        """Return the mask of ``cells`` in this round's group; book the rest as wasted."""
        keep = self.in_group(cells)
        self.wasted += np.bincount(cells[~keep] // self.n, minlength=self.repetitions)
        return keep

    # ------------------------------------------------------------------ legs

    def lose(self, replica: np.ndarray) -> np.ndarray:
        """Draw the loss of one leg; return its keep mask and book its drops.

        ``replica`` holds the replica of every message of the leg.  The draw
        happens even for an empty leg (a bursty channel still advances).
        """
        if self.network is None:
            return np.ones(np.size(replica), dtype=bool)
        keep, dropped = self.network.draw_loss_batch(self.rng, replica, self.repetitions)
        self.dropped += dropped
        return keep

    def land(
        self,
        cells: np.ndarray,
        *,
        channel: str = "payload",
        aux: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Send ``cells`` through the latency plane; return what lands this round.

        Returns ``(cells, times, aux)``: the messages due now on ``channel``
        (earlier slow sends included) minus those whose target is absent on
        landing, which count as wasted.  ``times`` is ``None`` when latency
        is off.
        """
        times: np.ndarray | None = None
        if self.latency is not None:
            cells, times, aux = self.latency.schedule(
                self._send_round, cells, self.rng, channel=channel, aux=aux
            )
        if self._present_flat is not None and cells.size:
            keep = self._keep_present(cells)
            cells = cells[keep]
            times = times[keep] if times is not None else None
            aux = aux[keep] if aux is not None else None
        return cells, times, aux

    def push(
        self, cells: np.ndarray, replica: np.ndarray, *, channel: str = "payload"
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One push leg: loss, drop absent targets as wasted, then :meth:`land`.

        An empty leg skips the loss draw but still collects this round's
        matured messages.  With every plane off the leg hands ``cells`` back
        untouched.  Returns ``(cells, times)`` as :meth:`land` does.
        """
        if cells.size and self.network is not None:
            cells = cells[self.lose(replica)]
        if cells.size and self._present_flat is not None:
            cells = cells[self._keep_present(cells)]
        cells, times, _ = self.land(cells, channel=channel)
        return cells, times

    # ---------------------------------------------------------------- timing

    def reply(self, times: np.ndarray | None, index: np.ndarray) -> np.ndarray | None:
        """Arrival times of answers sent when messages ``index`` landed at ``times``.

        One latency leg after each landing; ``None`` when latency is off.
        """
        if self.latency is None or times is None:
            return None
        return times[index] + self.latency.draw(self.rng, index.size)

    def round_trip(self, count: int) -> np.ndarray | None:
        """Arrival times of ``count`` request/answer exchanges started this round.

        A request leg plus an answer leg after the round's send instant;
        ``None`` when latency is off.
        """
        if self.latency is None:
            return None
        start = self.latency.send_time(self._send_round)
        return start + self.latency.draw(self.rng, count) + self.latency.draw(self.rng, count)

    def pending_mask(self) -> np.ndarray:
        """``(R,)`` bool: replicas with messages still in flight."""
        if self.latency is None:
            return np.zeros(self.repetitions, dtype=bool)
        return self.latency.pending_mask()

    def has_pending(self) -> bool:
        """True while any message is still in flight."""
        return self.latency is not None and self.latency.has_pending()

    # --------------------------------------------------------------- booking

    def book(
        self,
        cells: np.ndarray,
        times: np.ndarray | None,
        held: np.ndarray,
        alive_flat: np.ndarray,
    ) -> np.ndarray:
        """Deliver landed ``cells`` to live members; return the newly reached ones.

        Records the arrival ``times`` of live members not yet holding the
        message, then marks the fresh cells (ascending, deduplicated) in the
        flat ``held`` mask.
        """
        live = alive_flat[cells]
        if self.latency is not None and times is not None:
            first = live & ~held[cells]
            self.latency.record(cells[first], times[first])
        fresh = fresh_cells(cells[live], held)
        held[fresh] = True
        return fresh

    def drain(self, held: np.ndarray, alive_flat: np.ndarray) -> None:
        """Deliver every payload still in flight at the round horizon.

        The round budget bounds sending, not physics; in-flight digests are
        not drained — the protocol that would answer them has stopped.
        """
        if self.latency is not None:
            cells, times, _ = self.latency.drain()
            self.book(cells, times, held, alive_flat)
