"""The four benchmark workloads, each a closed loop with one caller.

Every workload derives all of its inputs from the workload seed, calls
``repro`` only through module attributes (so a :class:`~tracing.Tracer`
rebinding them is seen), checks every output it gets back, and feeds the
outputs that define the run's result into a SHA-256 digest.

``setup`` builds what the measured loop needs and makes one small warm-up
call so that lazy imports and caches are filled before timing.
``run_op(index)`` runs operation ``index``; its inputs depend only on the
seed and the index.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, ClassVar, Iterator

import numpy as np

from repro.analysis import dimensioning
from repro.core import distributions, poisson_case
from repro.experiments import protocol_comparison
from repro.graphs import ensemble
from repro.serving import query, serve, surface
from repro.simulation import churn, gossip, membership, network, protocol_batch

#: Largest accepted gap between a conditional mean reliability and Eq. 11.
#: Per-replica noise at these sizes is ~1e-4 (gossip) and ~4e-4
#: (percolation); finite-size bias is O(1/n).
RELIABILITY_TOLERANCE = 0.005


@dataclass
class OpResult:
    """Outcome of one operation: its kind, failed checks and work done."""

    kind: str
    failures: list[str] = field(default_factory=list)
    nodes: int = 0
    member_replica_rounds: int = 0
    messages: int = 0


def _seed(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, *path])


def _update(digest: Any, *arrays: Any) -> None:
    for array in arrays:
        if array is not None:
            digest.update(np.ascontiguousarray(array).tobytes())


def _check_batch(result: Any, label: str) -> list[str]:
    """delivered within alive, source delivered, sent >= dropped, duplicates >= 0."""
    failures = []
    if np.any(result.delivered & ~result.alive):
        failures.append(f"{label}: a failed member is marked delivered")
    if not np.all(result.delivered[:, result.source]):
        failures.append(f"{label}: the source is not delivered")
    if np.any(result.messages_sent < result.messages_dropped):
        failures.append(f"{label}: more messages dropped than sent")
    if np.any(getattr(result, "duplicates", 0) < 0):
        failures.append(f"{label}: negative duplicate count")
    return failures


def _digest_batch(digest: Any, result: Any) -> None:
    _update(digest, result.delivered, result.messages_sent, result.messages_dropped,
            result.rounds, result.delivery_times)


class Workload:
    """Base class: which ops are gated, how many run, and how many a traced pass runs."""

    name = ""
    #: Kind of the ops whose seconds ``op_s_p50`` gates.
    gated_kind = "op"
    #: Operations that always run, even past the measuring time.
    min_ops = 2
    #: Operations of one pass of a traced run (fixed, so counts repeat).
    trace_ops = 1
    #: Operations run once after the timed stream (``closing_op(0..)``);
    #: they are timed but never memory-profiled.
    closing_ops = 0
    #: Whether ``peak_mem_mib`` covers the timed ops (it always covers set-up).
    profile_ops = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.digest = hashlib.sha256()

    def parameters(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, index: int) -> OpResult:
        raise NotImplementedError

    def closing_op(self, index: int) -> OpResult:
        raise NotImplementedError

    def layer_counts(self) -> dict:
        """Counts the workload reads from program state rather than spans."""
        return {}


class Gossip1e5(Workload):
    """The paper's general gossip algorithm at n=1e5 with every plane off."""

    name = "gossip-1e5"
    n, fanout, q, repetitions = 100_000, 8.0, 0.9, 20

    def parameters(self) -> dict:
        return {"n": self.n, "fanout": f"PoissonFanout({self.fanout})", "q": self.q,
                "repetitions": self.repetitions, "membership": "FullView",
                "network": None, "churn": None, "latency": None}

    def setup(self) -> None:
        self.distribution = distributions.PoissonFanout(self.fanout)
        self.view = membership.FullView(self.n)
        self.expected = poisson_case.poisson_reliability(self.fanout, self.q)
        gossip.simulate_gossip_batch(1000, self.distribution, self.q, repetitions=2,
                                     seed=_seed(self.seed, 0xFFFF))

    def run_op(self, index: int) -> OpResult:
        result = gossip.simulate_gossip_batch(
            self.n, self.distribution, self.q, repetitions=self.repetitions,
            seed=_seed(self.seed, index), membership=self.view,
        )
        _digest_batch(self.digest, result)
        failures = _check_batch(result, f"op {index}")
        spread = result.spread_occurred()
        if not spread.any():
            failures.append(f"op {index}: no replica spread")
        else:
            mean = float(result.reliability()[spread].mean())
            if abs(mean - self.expected) > RELIABILITY_TOLERANCE:
                failures.append(
                    f"op {index}: conditional reliability {mean:.5f} vs Eq. 11 {self.expected:.5f}"
                )
        return OpResult(
            "op", failures,
            nodes=self.repetitions * self.n,
            member_replica_rounds=self.n * int(result.rounds.sum()),
            messages=int(result.messages_sent.sum()),
        )


class ZooPlanes(Workload):
    """All nine zoo protocols with loss, exponential latency and Poisson churn on."""

    name = "zoo-planes"
    n, q, repetitions, fanout, rounds = 50_000, 0.9, 10, 4, 8

    def parameters(self) -> dict:
        return {"n": self.n, "q": self.q, "repetitions": self.repetitions,
                "protocol_zoo": [self.fanout, self.rounds, "peer_sampling", "recovery"],
                "network": "NetworkModel(loss_probability=0.1, latency=latency_exponential(1.0))",
                "churn": "PoissonChurnModel(leave_rate=0.005, join_rate=0.05, "
                         "initially_absent=0.02)"}

    def setup(self) -> None:
        self.zoo = protocol_comparison.protocol_zoo(
            self.fanout, self.rounds, include_peer_sampling=True, include_recovery=True
        )
        self.network = network.NetworkModel(
            loss_probability=0.1, latency=network.latency_exponential(1.0)
        )
        self.churn = churn.PoissonChurnModel(leave_rate=0.005, join_rate=0.05,
                                             initially_absent=0.02)
        for number, (_, protocol) in enumerate(self.zoo):
            protocol_batch.simulate_protocol_batch(
                protocol, 500, self.q, repetitions=2, seed=_seed(self.seed, 0xFFFF, number),
                network=self.network, churn=self.churn,
            )

    def run_op(self, index: int) -> OpResult:
        outcome = OpResult("op")
        for number, (protocol_id, protocol) in enumerate(self.zoo):
            result = protocol_batch.simulate_protocol_batch(
                protocol, self.n, self.q, repetitions=self.repetitions,
                seed=_seed(self.seed, index, number), network=self.network, churn=self.churn,
            )
            _digest_batch(self.digest, result)
            outcome.failures += _check_batch(result, f"op {index} {protocol_id}")
            outcome.nodes += self.repetitions * self.n
            outcome.member_replica_rounds += self.n * int(result.rounds.sum())
            outcome.messages += int(result.messages_sent.sum())
        return outcome


class Percolation1e6(Workload):
    """The Gossip(n, P, q) graph at n=1e6 against Eq. 11."""

    name = "percolation-1e6"
    n, fanout, q, repetitions = 10**6, 4.0, 0.6, 4
    min_ops = 4
    trace_ops = 2

    def parameters(self) -> dict:
        return {"n": self.n, "fanout": f"PoissonFanout({self.fanout})", "q": self.q,
                "repetitions": self.repetitions}

    def setup(self) -> None:
        distribution = distributions.PoissonFanout(self.fanout)
        self.ensemble = ensemble.GossipGraphEnsemble(self.n, distribution, self.q)
        self.expected = poisson_case.poisson_reliability(self.fanout, self.q)
        ensemble.GossipGraphEnsemble(1000, distribution, self.q).realise(
            1, seed=_seed(self.seed, 0xFFFF)
        )

    def run_op(self, index: int) -> OpResult:
        result = self.ensemble.realise(self.repetitions, seed=_seed(self.seed, index))
        _update(self.digest, result.n_alive, result.reached, result.giant_fraction,
                result.reliability)
        failures = []
        if np.any(result.reached < 1) or np.any(result.reached > result.n_alive):
            failures.append(f"op {index}: reached count outside [1, alive]")
        mean = result.conditional_reliability()
        if not abs(mean - self.expected) <= RELIABILITY_TOLERANCE:
            failures.append(
                f"op {index}: conditional reliability {mean:.5f} vs Eq. 11 {self.expected:.5f}"
            )
        # Alive members' out-degrees are the messages of the gossip graph.
        messages = round(result.degree_moments.mean * float(result.n_alive.sum()))
        return OpResult("op", failures, nodes=self.repetitions * self.n, messages=messages)


class DesignService(Workload):
    """Served design queries from a small surface plus one certified live solve.

    Every op is one JSON request encoded, handled and encoded back as
    ``serve_loop`` does; the live solve is the closing op.
    """

    name = "design-service"
    # The request path is pure-Python microseconds, whose speed swings up to
    # 1.9x with the host's state; the live solve is seconds of numpy work.
    gated_kind = "solve"
    min_ops = 2000
    trace_ops = 12000
    closing_ops = 1
    # Requests allocate little, and the live solve's allocation depends on
    # the search path its seed takes: only the set-up is memory-profiled.
    profile_ops = False
    grid_spec: ClassVar[dict[str, tuple]] = {
        "ns": (500, 1000), "qs": (0.8, 0.9), "losses": (0.0, 0.1), "fanouts": (4.0, 8.0),
    }
    surface_repetitions = 96
    # Misses are the majority, so the request p50 sits inside the interpolation
    # path rather than on the boundary between hits (~50 us) and misses (~120 us).
    hot_keys, hot_share = 1024, 0.25
    shares: ClassVar[dict[str, float]] = {"reliability": 0.9, "pareto": 0.05, "dimension": 0.05}
    solve: ClassVar[dict[str, float]] = {
        "n": 2000, "q": 0.9, "target_reliability": 0.99, "loss": 0.1,
    }

    def parameters(self) -> dict:
        return {"grid": self.grid_spec, "surface_repetitions": self.surface_repetitions,
                "cache_size": 4096, "hot_keys": self.hot_keys, "hot_share": self.hot_share,
                "request_shares": self.shares, "live_solves_per_run": self.closing_ops,
                "live_solve": self.solve}

    def setup(self) -> None:
        grid = surface.SurfaceGrid(**self.grid_spec)
        surface_seed = int(_seed(self.seed, 0xFFFE).generate_state(1)[0])
        self.surface = surface.build_surface(grid, repetitions=self.surface_repetitions,
                                             seed=surface_seed, processes=1)
        self.engine = query.SurfaceQueryEngine(self.surface)
        _update(self.digest, self.surface.mean, self.surface.ci_low, self.surface.ci_high,
                self.surface.cost)
        self._stream = self._requests()
        self._next = 0
        self._solves: list[Any] = []

    def layer_counts(self) -> dict:
        info = self.engine.cache_info()
        lookups = info["hits"] + info["misses"]
        return {"hit_ratio": info["hits"] / lookups if lookups else 0.0,
                "evictions": info["evictions"]}

    def _requests(self) -> Iterator[dict]:
        """The seeded request stream: hot keys fit the LRU, cold keys overflow it."""
        rng = np.random.default_rng(_seed(self.seed, 0xFFFD))
        spec = self.grid_spec

        def reliability_key() -> dict:
            return {"n": int(rng.integers(spec["ns"][0], spec["ns"][-1] + 1)),
                    "q": float(rng.uniform(spec["qs"][0], spec["qs"][-1])),
                    "loss": float(rng.uniform(spec["losses"][0], spec["losses"][-1])),
                    "fanout": float(rng.uniform(spec["fanouts"][0], spec["fanouts"][-1]))}

        hot = [reliability_key() for _ in range(self.hot_keys)]
        ops = list(self.shares)
        weights = list(self.shares.values())
        identifier = 0
        while True:
            identifier += 1
            op = ops[rng.choice(len(ops), p=weights)]
            if op == "reliability":
                if rng.random() < self.hot_share:
                    fields = hot[int(rng.integers(len(hot)))]
                else:
                    fields = reliability_key()
            else:
                fields = {"n": int(rng.choice(spec["ns"])), "q": float(rng.choice(spec["qs"])),
                          "loss": float(rng.choice(spec["losses"])), "target": 0.9}
            yield {"id": identifier, "op": op, **fields}

    def live_solver(self, *args: Any, **kwargs: Any) -> Any:
        """Call the library solver and keep its full result for the checks."""
        result = dimensioning.dimension_fanout(*args, **kwargs)
        self._solves.append(result)
        return result

    def run_op(self, index: int) -> OpResult:
        if index != self._next:
            raise ValueError(f"requests run in order: expected op {self._next}, got {index}")
        self._next += 1
        request = next(self._stream)
        response = json.loads(json.dumps(serve.handle_request(
            self.engine, json.loads(json.dumps(request))
        )))
        self.digest.update(json.dumps(response, sort_keys=True).encode())
        return OpResult("request", _check_response(request, response))

    def closing_op(self, index: int) -> OpResult:
        solve = self.solve
        answer = query.dimension_from_surface(
            self.engine, allow_live_fallback=True, live_solver=self.live_solver,
            seed=_seed(self.seed, 0xFFFC, index), **solve,
        )
        result = self._solves[-1]
        self.digest.update(repr(answer).encode())
        failures = []
        if answer.source != "live":
            failures.append(f"solve {index}: off-grid solve was served from the surface")
        if not (result.feasible and result.certified):
            failures.append(f"solve {index}: live solve not certified")
        if not result.ci_low >= solve["target_reliability"]:
            failures.append(f"solve {index}: live ci_low {result.ci_low} below target")
        return OpResult("solve", failures, nodes=result.replicas_used * solve["n"])


def _check_response(request: dict, response: dict) -> list[str]:
    """``ok`` responses whose served intervals bracket their estimates."""
    label = f"request {request['id']} ({request['op']})"
    if not response.get("ok"):
        return [f"{label}: {response.get('error')}"]
    if request["op"] == "reliability":
        answers = [(response, "reliability")]
    elif request["op"] == "pareto":
        answers = [(candidate, "reliability") for candidate in response["frontier"]]
    else:
        answers = [(response, "achieved_reliability")] if response["feasible"] else []
    for answer, key in answers:
        if not answer["ci_low"] <= answer[key] <= answer["ci_high"]:
            return [f"{label}: {key} {answer[key]} outside "
                    f"[{answer['ci_low']}, {answer['ci_high']}]"]
    return []


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Gossip1e5, ZooPlanes, Percolation1e6, DesignService)
}
