"""Golden digests of the five protocol-zoo experiments.

Each experiment runs its default grid at ``n=200`` and ``repetitions=16``
serially (``processes=1``) and over a pool (``processes=2``).  Both use
the same chunk layout, ``ceil(16/8) = 2`` chunks per cell, so both must
give the pooled digests recorded before the drivers were merged.
The digest is a SHA-256 over the ordered cells: the axis values (strings as
UTF-8, numbers as float64 bytes) plus every reported metric as float64
bytes.  The projection from a result to the hashed rows lives here, so a
refactor of the drivers may rename the attributes it reads, but never a
constant: a changed digest means a changed number.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.registry import get_experiment

N = 200
REPETITIONS = 16


def _protocol_comparison(p) -> tuple:
    return (
        p.protocol,
        p.q,
        p.repetitions,
        p.reliability,
        p.reliability_std,
        p.mean_rounds,
        p.messages_per_member,
        p.atomic_rate,
    )


def _loss_resilience(p) -> tuple:
    return (
        p.protocol,
        p.q,
        p.loss,
        p.repetitions,
        p.reliability,
        p.reliability_std,
        p.messages_per_member,
        p.drop_rate,
        p.atomic_rate,
    )


def _churn_resilience(p) -> tuple:
    return (
        p.protocol,
        p.q,
        p.churn_rate,
        p.repetitions,
        p.reliability,
        p.reliability_std,
        p.survivor_fraction,
        p.messages_per_member,
        p.atomic_rate,
        p.view_staleness,
        p.repairs,
        p.repair_latency,
    )


def _recovery_resilience(p) -> tuple:
    return (
        p.protocol,
        p.channel,
        p.loss,
        p.churn_rate,
        p.failure,
        p.repetitions,
        p.reliability,
        p.reliability_std,
        p.survivor_fraction,
        p.messages_per_member,
        p.payload_per_member,
        p.control_per_member,
        p.drop_rate,
        p.atomic_rate,
    )


def _latency_profile(p) -> tuple:
    aligned = {None: -1.0, False: 0.0, True: 1.0}[p.round_aligned]
    return (
        p.protocol,
        p.latency,
        p.loss,
        p.repetitions,
        p.reliability,
        p.reliability_std,
        p.messages_per_member,
        *(value for _, value in p.delivery_percentiles),
        aligned,
    )


PROJECTIONS = {
    "protocol_comparison": _protocol_comparison,
    "loss_resilience": _loss_resilience,
    "churn_resilience": _churn_resilience,
    "recovery_resilience": _recovery_resilience,
    "latency_profile": _latency_profile,
}

#: experiment id -> digest of the pooled layout, recorded before the
#: drivers shared one scenario module.
GOLDEN = {
    "protocol_comparison": "41a98a9de86105cdc656dd56d9cb9b6500a1e885310564a86eaa64f85d2a3290",
    "loss_resilience": "af7987212be937bc5f88ce5dc1f881ae583dc22661ee342edd19368708ef8179",
    "churn_resilience": "c662658ac2141f4a4e61161bbec64ba84abb9acfd3dcda0ab455560f348689ea",
    "recovery_resilience": "99d0dd4c1f990555e7790e63d181d127e9ad36aac2afb0122ad180853f70ecbb",
    "latency_profile": "61009826d441450ae816f229a4f1644eaf8c243b57334dcbb64c8f44d07a0321",
}


def _digest(rows) -> str:
    sha = hashlib.sha256()
    for row in rows:
        for value in row:
            if isinstance(value, str):
                sha.update(value.encode("utf-8") + b"\0")
            else:
                sha.update(np.float64(value).tobytes())
    return sha.hexdigest()


def experiment_digest(experiment_id: str, processes: int) -> str:
    """Run one experiment's default grid at the pinned size and digest its cells."""
    spec = get_experiment(experiment_id)
    config = replace(spec.config_factory(), n=N, repetitions=REPETITIONS, processes=processes)
    result = spec.runner(config)
    return _digest(PROJECTIONS[experiment_id](p) for p in result.cells)


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN))
@pytest.mark.parametrize("layout", ["serial", "pooled"])
def test_experiment_digest(experiment_id: str, layout: str) -> None:
    processes = 1 if layout == "serial" else 2
    assert experiment_digest(experiment_id, processes=processes) == GOLDEN[experiment_id]
