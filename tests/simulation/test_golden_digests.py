"""Golden output digests of the batched engines at fixed seeds.

The batched gossip engine and every protocol hook are pure functions of
(configuration, seed), so a refactor of their internals must leave every
output bit-identical.  Distributional tests cannot see a change that keeps
the statistics but reorders the RNG stream; these digests can.  Each case is
a SHA-256 over the result arrays (cast to canonical dtypes, so the digest
pins values rather than storage widths) of one run at n=2000, R=4, under
four plane settings:

* ``plain`` — no network, no churn;
* ``loss`` — i.i.d. message loss 0.1 (constant unit latency);
* ``planes`` — loss 0.1, exponential latency of mean 1, Poisson churn;
* ``ge-planes`` — a Gilbert–Elliott bursty channel with exponential latency
  of mean 1, the same Poisson churn, and a round period of 0.5 (so a
  unit-mean latency usually spans more than one round).

Two more gossip-engine variants pin the inputs the plane settings leave at
their defaults: a :class:`~repro.simulation.membership.UniformPartialView`
membership (``plain`` and ``planes``) and explicit ``alive=`` masks
(``planes``).

The ``plain``/``loss``/``planes`` constants were recorded before the
engines' dedup moved from ``np.unique`` to
:func:`repro.utils.sampling.fresh_cells`; the ``ge-planes`` constants were
recorded before the protocol hooks moved onto the shared transport layer;
the gossip-engine variants were recorded before that engine moved onto it.
None may ever be regenerated to make a change pass: a mismatch means the
change altered the engine's output.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.distributions import PoissonFanout
from repro.experiments.protocol_comparison import protocol_zoo
from repro.simulation.churn import PoissonChurnModel
from repro.simulation.gossip import simulate_gossip_batch
from repro.simulation.membership import UniformPartialView
from repro.simulation.network import (
    GilbertElliottNetworkModel,
    NetworkModel,
    latency_exponential,
)
from repro.simulation.protocol_batch import simulate_protocol_batch

N, REPETITIONS, Q, SEED = 2000, 4, 0.9, 20_081


def _network(setting: str) -> NetworkModel | None:
    if setting == "plain":
        return None
    if setting == "loss":
        return NetworkModel(loss_probability=0.1)
    if setting == "ge-planes":
        return GilbertElliottNetworkModel(
            loss_probability=0.05,
            bad_loss_probability=0.6,
            p_good_to_bad=0.2,
            p_bad_to_good=0.4,
            latency=latency_exponential(1.0),
        )
    return NetworkModel(loss_probability=0.1, latency=latency_exponential(1.0))


def _churn(setting: str) -> PoissonChurnModel | None:
    if setting not in ("planes", "ge-planes"):
        return None
    return PoissonChurnModel(0.005, 0.05, initially_absent=0.02)


def _round_period(setting: str) -> float:
    return 0.5 if setting == "ge-planes" else 1.0


def _digest(*arrays: np.ndarray | None) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        if array is None:
            digest.update(b"none")
            continue
        value = np.asarray(array)
        if value.dtype.kind == "b":
            canonical = value.astype(bool)
        elif value.dtype.kind == "f":
            canonical = value.astype(np.float64)
        else:
            canonical = value.astype(np.int64)
        digest.update(repr(canonical.shape).encode())
        digest.update(np.ascontiguousarray(canonical).tobytes())
    return digest.hexdigest()


def gossip_digest(setting: str, variant: str = "full-view") -> str:
    """Digest of one ``simulate_gossip_batch`` run under ``setting``.

    ``variant`` is ``full-view`` (the default membership and failure draw),
    ``partial-view`` (a :class:`UniformPartialView` of 12 peers per member)
    or ``alive-masks`` (alive masks drawn by the caller at ratio 0.85).
    """
    rng = np.random.default_rng(SEED)
    churn = _churn(setting)
    schedule = churn.draw_batch(N, REPETITIONS, rng) if churn is not None else None
    membership = UniformPartialView(N, 12, seed=SEED) if variant == "partial-view" else None
    alive = None
    if variant == "alive-masks":
        alive = np.random.default_rng(SEED + 1).random((REPETITIONS, N)) < 0.85
    result = simulate_gossip_batch(
        N,
        PoissonFanout(4.0),
        Q,
        repetitions=REPETITIONS,
        seed=rng,
        membership=membership,
        alive=alive,
        network=_network(setting),
        churn=schedule,
        round_period=_round_period(setting),
    )
    return _digest(
        result.delivered,
        result.messages_sent,
        result.messages_dropped,
        result.rounds,
        result.delivery_times,
        result.duplicates,
    )


def protocol_digest(protocol_id: str, setting: str) -> str:
    """Digest of one ``simulate_protocol_batch`` run of a zoo protocol."""
    zoo = dict(protocol_zoo(4, 8, include_peer_sampling=True, include_recovery=True))
    result = simulate_protocol_batch(
        zoo[protocol_id],
        N,
        Q,
        repetitions=REPETITIONS,
        seed=SEED,
        network=_network(setting),
        churn=_churn(setting),
        round_period=_round_period(setting),
    )
    return _digest(
        result.delivered,
        result.messages_sent,
        result.messages_dropped,
        result.rounds,
        result.delivery_times,
        result.control_messages_sent,
    )


#: (engine, plane setting) -> SHA-256 recorded on the np.unique-based engines.
GOLDEN: dict[tuple[str, str], str] = {
    ("gossip", "plain"): "0798a736a4308228398aeb3cbca5d9fed4ea471b6c059bf79410ce890aba6514",
    ("gossip", "loss"): "1879b85f8eb8879eb8062f5d3ec9f81359804bc709f72c2e447cefc08a0e0674",
    ("gossip", "planes"): "25eb643a0839c8f32a82ef24362ebd2fdf144f4aec2e36f046e09924b2e4faa1",
    ("flooding", "plain"): "e7294bb1e2da42f3c09bd10e355744f9477ab0b451fe6bb3f6748a51de3ac4d0",
    ("flooding", "loss"): "b75bebbbcc7094f695e57bb2dd26a9637400ba19f7a3178712503212ad8535ea",
    ("flooding", "planes"): "6658fb110e6b9c589865de2e6e642cc4531ad648c912c71dc8d89a8ff23e91ab",
    ("pbcast", "plain"): "93537c954b5a3b886909a8ad1e27e7857230f9c18a2fc24288a6eed9060668ac",
    ("pbcast", "loss"): "9f1f892c2dfc5ccd69be20aca2bbf2079564d9b4ed2fb76b448daaa0c4736644",
    ("pbcast", "planes"): "1a29386f098a76b3d31418195e2aef4b95248b8516bde15acc22c1008dcc2327",
    ("lpbcast", "plain"): "094beef2d0641f0c66a355e8907ea2d53a340ac82d522d74b308d7e4df07a17b",
    ("lpbcast", "loss"): "837184e57327d346dd13b30cf955e7de68be60ba17ef315e716ee7937450f831",
    ("lpbcast", "planes"): "0f8f13d4a7378c6fcc2a6bbe30a8fee81977d6eb49125acc50983fb92d8e34ae",
    ("rdg", "plain"): "c7a46db1e1729bb511844bb71b31c9ec5551907812c04341f2982833692479b7",
    ("rdg", "loss"): "4173ed6c2e31d2fe9657ceae12f8587b44a85dbc5be5d7a424f2fe757efe4164",
    ("rdg", "planes"): "626fa6bbfea086a18aae9d31f9bbb06a72ef3eda1fd16e9336be07a59e0ae47f",
    ("fixed-fanout", "plain"): "948acb7b15c32e3d0c346e52e5cf9500b19cf4ef993bf9552280200c16165794",
    ("fixed-fanout", "loss"): "08ce37ff09ccf41d87a6fd40199f155c8f6a591ebfc5bce70aa7d89b46be85ec",
    ("fixed-fanout", "planes"): "d685b9552912c5331689cd14a6c619a1b4713bb9d61ffa63a20df7ba04ef4f75",
    ("random-fanout", "plain"): "f533a8c7de1a400cc9ca7b901d0566b2a2669d72af06ee06426db2d7dcb20f4b",
    ("random-fanout", "loss"): "14a038f6e421a199b1171a6ee51bdd4d65eac8dfb1af11fe24fde6af7587034d",
    ("random-fanout", "planes"): "7cc13f77ff7c7c4d0a77f0ae7249f4792ea614cb9a9f46079fbd02dafbd07d84",
    ("hyparview", "plain"): "4d48098cc7a951869920c613041038edd0c2f4b2baa418c9223c7ec7306c61c2",
    ("hyparview", "loss"): "cac2339f07919288615a09fed321cc92803fb102c5530e34b20e2858f7d3ca1b",
    ("hyparview", "planes"): "9ca39957fc43dc0fb153901845aacb28f6de12d3034594f1403d807db8e24231",
    ("lazy-push", "plain"): "99a603e509f4ee14cc1c40c78d7f4e43217b1c26737bdf8e5797c991e4f27d11",
    ("lazy-push", "loss"): "98434702373ed0b7e66e4c9d42ad7d1e66b311884f01633fe7c12f119f60e415",
    ("lazy-push", "planes"): "36efed22ce156b842f6deaeb4baf9c10191f41c8b2a20b2b47aee23e564f59cd",
    ("anti-entropy", "plain"): "676cc73f7e391ddaf45c0e8d719d3078c465df03e18f87f6f99f34a9b51703a1",
    ("anti-entropy", "loss"): "9e06700ad6cc6e514d298a55ccf3f0c8a57a0e9a2931e34b3a69365808137b8c",
    ("anti-entropy", "planes"): "754a1cda59ab2c1b4607514f253d4e718335ee00340234b6db0e5c918838bef7",
}

#: engine -> SHA-256 of the ``ge-planes`` setting, recorded before the protocol
#: hooks moved onto the shared transport layer.
GOLDEN_GE_PLANES: dict[str, str] = {
    "gossip": "2affd3ceb743775f2dd17720e559924e393e4a1d62e8a42c5514c2562be52fa1",
    "flooding": "a449583216526d2176046d40d5e8c2dc4df53180461cc48b519b832e60bb83e2",
    "pbcast": "2bb55e3d8be1aedff957719f3d12b5fbac5d103f212dc3f7f0d1ca9c92ad177a",
    "lpbcast": "451bc7798daaeacd0d8da58b7ac29922f445b66cdf8f58fd0a0e608388af0424",
    "rdg": "e212f8b4ad9159bb978756dad1f3637400e0f13cec3b2c931ae2ba0453ba9c96",
    "fixed-fanout": "82e1ed279a1529d2697b151f7a5ac59eba4492681483a39baece1775d21ae642",
    "random-fanout": "b2a7844896fbd3c6af5c3991fb37a353c7055a8bedb3e5403551e5c30475167e",
    "hyparview": "df37d6b727c93545452d3f2d91c8c544375d0594599d3a3a406761a321a836eb",
    "lazy-push": "94419b023228ce1d1171ca25e1ac07911f2f7283689636fb26074e78908bc58f",
    "anti-entropy": "f0195e2600c71e5c91baa8ddeb184566693a52d5c431707bb78207c15ab69ae7",
}
GOLDEN.update({(engine, "ge-planes"): digest for engine, digest in GOLDEN_GE_PLANES.items()})

#: (gossip-engine variant, plane setting) -> SHA-256 recorded before the
#: gossip engine moved onto the shared transport layer.
GOLDEN_GOSSIP_VARIANTS: dict[tuple[str, str], str] = {
    ("partial-view", "plain"): "ec26602833865394d1c88676d5ec833be545557f825363331bf85ab31490a6ce",
    ("partial-view", "planes"): "93066989f0ba1750f9fa527ef52cabe83cdead40a9af808339fbcf7068e68201",
    ("alive-masks", "planes"): "6171ce27d73681f35d04d5c7572a6e7137848aa90cd91ef9d7e147712d3f80f6",
}

SETTINGS = ("plain", "loss", "planes", "ge-planes")
PROTOCOL_IDS = tuple(
    protocol_id
    for protocol_id, _ in protocol_zoo(4, 8, include_peer_sampling=True, include_recovery=True)
)


def test_zoo_is_the_nine_protocols() -> None:
    assert len(PROTOCOL_IDS) == 9
    assert {engine for engine, _ in GOLDEN} == {"gossip", *PROTOCOL_IDS}


@pytest.mark.parametrize("setting", SETTINGS)
def test_gossip_batch_digest(setting: str) -> None:
    assert gossip_digest(setting) == GOLDEN["gossip", setting]


@pytest.mark.parametrize(("variant", "setting"), sorted(GOLDEN_GOSSIP_VARIANTS))
def test_gossip_batch_variant_digest(variant: str, setting: str) -> None:
    assert gossip_digest(setting, variant) == GOLDEN_GOSSIP_VARIANTS[variant, setting]


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("protocol_id", PROTOCOL_IDS)
def test_protocol_batch_digest(protocol_id: str, setting: str) -> None:
    assert protocol_digest(protocol_id, setting) == GOLDEN[protocol_id, setting]
