"""Unit tests of the protocol transport layer (``repro.simulation.transport``).

The transport carries three contracts the golden digests depend on:

* a plane that is off, or on at zero intensity, changes nothing and draws
  nothing — every verb hands its input back and books no drops or waste;
* every pushed message is accounted for: per replica, ``sent == dropped +
  wasted + landed`` once nothing is in flight;
* ``book`` is exactly the record-then-``fresh_cells`` booking the protocol
  hooks used to inline;
* ``push`` skips the loss draw of an empty leg while ``lose`` always draws,
  so a Gilbert–Elliott chain steps exactly where the hooks step it.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.simulation.churn import PoissonChurnModel, trivial_schedule_batch
from repro.simulation.latency import DeliveryTimePlane
from repro.simulation.network import (
    GilbertElliottNetworkModel,
    NetworkModel,
    latency_exponential,
)
from repro.simulation.transport import Transport
from repro.utils.sampling import fresh_cells

N, R = 40, 3


def _state(rng: np.random.Generator) -> dict:
    return copy.deepcopy(rng.bit_generator.state)


def _quiet_transports(rng: np.random.Generator) -> list[Transport]:
    """Transports whose planes are all off or all at zero intensity."""
    zero_loss = NetworkModel(loss_probability=0.0)
    zero_ge = GilbertElliottNetworkModel(loss_probability=0.0, bad_loss_probability=0.0)
    return [
        Transport(rng, R, N, 0),
        Transport(rng, R, N, 0, network=zero_loss, churn=trivial_schedule_batch(N, R)),
        Transport(rng, R, N, 0, network=zero_ge),
    ]


@pytest.mark.parametrize("which", range(3))
def test_quiet_planes_return_inputs_and_draw_nothing(which: int) -> None:
    rng = np.random.default_rng(7)
    transport = _quiet_transports(rng)[which]
    cells = np.array([5, 3, 3, 41, 119, 80], dtype=np.int64)
    replica = cells // N
    members = np.random.default_rng(1).random((R, N)) < 0.5
    before = _state(rng)

    for round_index in range(4):
        transport.begin_round(round_index)
        np.testing.assert_array_equal(transport.present(members), members)
        assert transport.in_group(cells).all()
        assert transport.lose(replica).all()
        assert transport.lose(replica[:0]).size == 0
        landed, times, aux = transport.land(cells, channel="digest", aux=replica)
        np.testing.assert_array_equal(landed, cells)
        np.testing.assert_array_equal(aux, replica)
        pushed, push_times = transport.push(cells, replica)
        np.testing.assert_array_equal(pushed, cells)
        transport.reply(times, np.arange(cells.size))
        transport.round_trip(cells.size)
        assert not transport.pending_mask().any()
        assert not transport.has_pending()
        held = np.zeros(R * N, dtype=bool)
        alive_flat = np.ones(R * N, dtype=bool)
        np.testing.assert_array_equal(
            transport.book(pushed, push_times, held, alive_flat), np.unique(cells)
        )
        transport.drain(held, alive_flat)

    assert _state(rng) == before
    assert not transport.dropped.any()
    assert not transport.wasted.any()


def test_book_matches_record_then_fresh_cells() -> None:
    rng = np.random.default_rng(3)
    cells = rng.integers(0, R * N, size=200)
    times = rng.exponential(1.0, size=cells.size)
    alive_flat = rng.random(R * N) < 0.8
    held = rng.random(R * N) < 0.3
    network = NetworkModel(latency=latency_exponential(1.0))

    reference_plane = DeliveryTimePlane(network, R, N)
    source_cells = np.arange(R) * N
    reference_plane.record(source_cells, np.zeros(R))
    reference_held = held.copy()
    first = alive_flat[cells] & ~reference_held[cells]
    reference_plane.record(cells[first], times[first])
    expected = fresh_cells(cells[alive_flat[cells]], reference_held)
    reference_held[expected] = True

    transport = Transport(np.random.default_rng(0), R, N, 0, network=network)
    plane = transport.latency
    assert plane is not None
    booked_held = held.copy()
    fresh = transport.book(cells, times, booked_held, alive_flat)

    np.testing.assert_array_equal(fresh, expected)
    np.testing.assert_array_equal(booked_held, reference_held)
    everyone = np.ones((R, N), dtype=bool)
    np.testing.assert_array_equal(plane.finalize(everyone), reference_plane.finalize(everyone))

    untimed_held = held.copy()
    untimed = Transport(np.random.default_rng(0), R, N, 0).book(
        cells, None, untimed_held, alive_flat
    )
    np.testing.assert_array_equal(untimed, expected)
    np.testing.assert_array_equal(untimed_held, reference_held)


def _bursty(**latency: object) -> GilbertElliottNetworkModel:
    return GilbertElliottNetworkModel(
        loss_probability=0.05,
        bad_loss_probability=0.6,
        p_good_to_bad=0.2,
        p_bad_to_good=0.4,
        **latency,
    )


def test_push_skips_the_loss_draw_of_an_empty_leg_but_lose_does_not() -> None:
    rng = np.random.default_rng(11)
    transport = Transport(rng, R, N, 0, network=_bursty())
    empty = np.empty(0, dtype=np.int64)
    before = _state(rng)
    cells, _ = transport.push(empty, empty)
    assert cells.size == 0
    assert _state(rng) == before

    keep = transport.lose(empty)
    assert keep.size == 0
    assert _state(rng) != before  # the bursty chain stepped on the empty leg


def test_push_is_lose_then_drop_absent_then_land() -> None:
    churn = PoissonChurnModel(0.1, 0.2, initially_absent=0.2).draw_batch(
        N, R, np.random.default_rng(5)
    )
    cells = np.random.default_rng(6).integers(0, R * N, size=300)

    def make(seed: int) -> Transport:
        network = _bursty(latency=latency_exponential(1.0))
        rng = np.random.default_rng(seed)
        return Transport(rng, R, N, 0, network=network, churn=churn, round_period=0.5)

    pushed, composed = make(9), make(9)
    for round_index in (1, 2, 3):
        pushed.begin_round(round_index)
        composed.begin_round(round_index)
        got_cells, got_times = pushed.push(cells, cells // N)
        kept = cells[composed.lose(cells // N)]
        kept = kept[composed.in_group(kept)]
        want_cells, want_times, _ = composed.land(kept)
        np.testing.assert_array_equal(got_cells, want_cells)
        np.testing.assert_array_equal(got_times, want_times)
        assert composed.in_group(got_cells).all()
    np.testing.assert_array_equal(pushed.dropped, composed.dropped)
    assert pushed.dropped.sum() > 0


def test_drained_push_legs_satisfy_the_accounting_identity() -> None:
    churn = PoissonChurnModel(0.1, 0.2, initially_absent=0.2).draw_batch(
        N, R, np.random.default_rng(5)
    )
    network = NetworkModel(loss_probability=0.2, latency=latency_exponential(1.0))
    transport = Transport(
        np.random.default_rng(13), R, N, 0, network=network, churn=churn, round_period=0.5
    )
    sends = np.random.default_rng(14)
    sent = np.zeros(R, dtype=np.int64)
    landed = np.zeros(R, dtype=np.int64)
    round_index = 0
    while round_index < 6 or transport.has_pending():
        round_index += 1
        transport.begin_round(round_index)
        size = 300 if round_index <= 6 else 0
        cells = sends.integers(0, R * N, size=size)
        sent += np.bincount(cells // N, minlength=R)
        arrived, _ = transport.push(cells, cells // N)
        landed += np.bincount(arrived // N, minlength=R)

    assert round_index > 6  # some sends were still in flight after the last leg
    assert transport.dropped.all() and transport.wasted.all()
    np.testing.assert_array_equal(sent, transport.dropped + transport.wasted + landed)


def test_trivial_churn_is_switched_off_and_a_wrong_shape_is_refused() -> None:
    rng = np.random.default_rng(0)
    assert Transport(rng, R, N, 0, churn=trivial_schedule_batch(N, R)).churn is None
    with pytest.raises(ValueError, match="churn schedule is for shape"):
        Transport(rng, R, N, 0, churn=trivial_schedule_batch(N + 1, R))
