"""Golden digests of the Monte-Carlo consumers of the batched engines.

``tests/simulation/test_golden_digests.py`` pins what the engines return;
this module pins what their consumers compute from it at fixed seeds:

* :func:`~repro.simulation.runner.estimate_reliability`, serial and over a
  pool of two workers (one chunk layout, so one digest);
* :func:`~repro.simulation.rounds.simulate_success_counts` on the batch path,
  in both counting modes;
* a small :func:`~repro.serving.surface.build_surface` grid for the
  ``gossip-poisson`` engine and the ``lazy-push`` zoo row (whose cost column
  differs from its total message count), serial and pooled;
* :func:`~repro.analysis.dimensioning.dimension_fanout` in distribution and
  protocol mode.

Each digest is a SHA-256 over the result's fields in a fixed order: integers
and booleans as int64 bytes, every other number as float64 bytes.  The
projection lives here, so a refactor may move the code that computes a
field, but never a constant: a changed digest means a changed number.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis.dimensioning import dimension_fanout
from repro.core.distributions import PoissonFanout
from repro.experiments.protocol_comparison import protocol_zoo
from repro.protocols.base import Protocol
from repro.serving.surface import SurfaceGrid, build_surface
from repro.simulation.rounds import simulate_success_counts
from repro.simulation.runner import estimate_reliability


def _digest(*values: object) -> str:
    digest = hashlib.sha256()
    for value in values:
        if value is None:
            digest.update(b"none")
            continue
        array = np.asarray(value)
        if array.dtype.kind in "biu":
            canonical = array.astype(np.int64)
        else:
            canonical = array.astype(np.float64)
        digest.update(repr(canonical.shape).encode())
        digest.update(np.ascontiguousarray(canonical).tobytes())
    return digest.hexdigest()


def estimate_digest(processes: int, conditional: bool) -> str:
    """Digest of one 20-replica estimate at n=500, f=2, q=0.9."""
    estimate = estimate_reliability(
        500,
        PoissonFanout(2.0),
        0.9,
        repetitions=20,
        seed=20_160,
        processes=processes,
        conditional_on_spread=conditional,
    )
    return _digest(
        estimate.repetitions,
        estimate.mean_reliability,
        estimate.std_reliability,
        estimate.mean_rounds,
        estimate.mean_messages,
        estimate.success_rate,
        estimate.spread_rate,
        estimate.conditional_on_spread,
        estimate.samples,
    )


def success_counts_digest(mode: str) -> str:
    """Digest of 12 simulations of 10 executions at n=300, f=3, q=0.9."""
    result = simulate_success_counts(
        300,
        PoissonFanout(3.0),
        0.9,
        executions=10,
        simulations=12,
        mode=mode,
        condition_on_spread=True,
        seed=20_161,
    )
    return _digest(
        result.counts,
        result.empirical_pmf,
        result.analytical_reliability,
        result.analytical_pmf,
    )


def surface_digest(protocol: str, processes: int) -> str:
    """Digest of a 2x2x2 surface at n=100 (horizon 4 for the zoo row)."""
    rounds = (0,) if protocol.startswith("gossip-") else (4,)
    grid = SurfaceGrid(
        ns=(100,), qs=(0.8, 1.0), losses=(0.0, 0.1), fanouts=(2.0, 4.0), rounds=rounds
    )
    surface = build_surface(
        grid, protocol=protocol, repetitions=16, seed=20_162, processes=processes
    )
    return _digest(surface.mean, surface.ci_low, surface.ci_high, surface.cost)


def _pbcast(fanout: int, rounds: int) -> Protocol:
    return dict(protocol_zoo(fanout, rounds))["pbcast"]


def dimension_digest(mode: str) -> str:
    """Digest of one solve for a 0.9 target at n=300, q=0.9, loss 0.05."""
    result = dimension_fanout(
        300,
        0.9,
        0.9,
        loss=0.05,
        protocol_factory=_pbcast if mode == "protocol" else None,
        rounds=6,
        initial_replicas=16,
        max_replicas=64,
        seed=20_163,
    )
    return _digest(
        result.fanout,
        result.rounds,
        result.analytical_fanout,
        result.achieved_reliability,
        result.ci_low,
        result.ci_high,
        result.replicas_used,
        result.evaluations,
        result.feasible,
        result.certified,
    )


#: conditional_on_spread -> SHA-256; every constant below was recorded before
#: the engines' two batch result classes were merged.  None may ever be
#: regenerated to make a change pass.
GOLDEN_ESTIMATE: dict[bool, str] = {
    False: "1c1605ec0016056deefdc7429ecd99b47a108c900ad2be090fd781c372da4659",
    True: "c284309ae59bcf89a417985c9e4baf2a41d3669045dfb3e5d6568501721c04cf",
}
GOLDEN_SUCCESS_COUNTS: dict[str, str] = {
    "per_member": "61f82afa306c36d0e9e57ee0b0df452bef944fc44cc3d86b137a175b2e278486",
    "all_members": "bc1dec5e3d231365000c1c1e89afeb3b4bfe55f7ef5a2854ae2ee145f7d8cb5c",
}
GOLDEN_SURFACE: dict[str, str] = {
    "gossip-poisson": "5f6c23191b5a4cfdd52269ddf90181435fc6c5dc2d9abec2b3c1f5ec82b7a9d5",
    "lazy-push": "b4fdcafa45d6015c447c7b025370c001dcd9c82cce5db899477f183b6fe84aae",
}
GOLDEN_DIMENSION: dict[str, str] = {
    "distribution": "7a97285052fd58f1cee7f3ccd25052d8c33c82982c772287227da522b716864d",
    "protocol": "99c71f8f9bcfb185ac2b4b599e83ee1fddab9fde1d3c8ff98cf3436c192dc89a",
}


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("conditional", [False, True])
def test_estimate_reliability_digest(conditional: bool, processes: int) -> None:
    assert estimate_digest(processes, conditional) == GOLDEN_ESTIMATE[conditional]


@pytest.mark.parametrize("mode", ["per_member", "all_members"])
def test_simulate_success_counts_digest(mode: str) -> None:
    assert success_counts_digest(mode) == GOLDEN_SUCCESS_COUNTS[mode]


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("protocol", ["gossip-poisson", "lazy-push"])
def test_build_surface_digest(protocol: str, processes: int) -> None:
    assert surface_digest(protocol, processes) == GOLDEN_SURFACE[protocol]


@pytest.mark.parametrize("mode", ["distribution", "protocol"])
def test_dimension_fanout_digest(mode: str) -> None:
    assert dimension_digest(mode) == GOLDEN_DIMENSION[mode]
