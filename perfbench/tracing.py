"""In-memory span tracing around the public entry points of each ``repro`` layer.

The tracer never edits ``src/``: it rebinds entry points from the outside and
puts every original back on exit.

* A module-level function is rebound in its defining module and in every
  module that imported it by value (``from x import f`` copies the
  reference, so patching only the defining module would miss those calls).
  Each binding site gets its own wrapper, so the coverage check can tell
  which importer stopped calling it.
* A method is rebound on its class.
* Every wrapper keeps the original's signature through ``functools.wraps``:
  ``simulate_protocol_batch`` inspects ``_disseminate_batch`` to decide
  whether to pass the latency plane, and a wrapper that hid that parameter
  would trace a different program.

A renamed or moved entry point fails :meth:`Tracer.install` with its name.
So does a ``repro`` module that binds a traced function under no declared
site, so no call escapes its span silently.

A span records its layer name, binding site, parent span, operation id,
start, end and optional counts taken from the call's arguments or result.
The spans stay in memory until :func:`write_spans` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

Counter = Callable[[tuple, dict, Any], dict]


def _drawn_from_pair(args: tuple, kwargs: dict, result: Any) -> dict:
    """Targets drawn by a ``(targets, senders)`` / ``(cells, replicas)`` sampler."""
    return {"drawn": int(np.asarray(result[0]).size)}


def _drawn_from_valid(args: tuple, kwargs: dict, result: Any) -> dict:
    """Targets drawn by a ``(matrix, valid)`` row sampler."""
    return {"drawn": int(np.count_nonzero(result[1]))}


def _loss_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    keep, dropped = result
    return {"attempted": int(np.asarray(keep).size), "dropped": int(np.sum(dropped))}


def _gossip_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    """Fresh deliveries to live members (the source excluded) and messages that arrived."""
    replicas = int(result.delivered.shape[0])
    arrived = int(np.sum(result.messages_sent) - np.sum(result.messages_dropped))
    return {"fresh": int(np.count_nonzero(result.delivered)) - replicas, "arrived": arrived}


def _arc_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"arcs": int(args[0].nnz)}


def _solver_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"evaluations": int(result.evaluations), "replicas": int(result.replicas_used)}


@dataclass(frozen=True)
class EntryPoint:
    """One traced entry point.

    ``target`` is ``"function"`` or ``"Class.method"`` in ``module``;
    ``importers`` are the modules that bind the function by value.
    """

    layer: str
    module: str
    target: str
    importers: tuple[str, ...] = ()
    counter: Counter | None = None


_SAMPLING = "sampling.targets"

#: The nine protocol-zoo ids with the class and module of their batched hook.
PROTOCOL_HOOKS = (
    ("flooding", "repro.protocols.flooding", "FloodingProtocol"),
    ("pbcast", "repro.protocols.pbcast", "PbcastProtocol"),
    ("lpbcast", "repro.protocols.lpbcast", "LpbcastProtocol"),
    ("rdg", "repro.protocols.rdg", "RouteDrivenGossip"),
    ("fixed-fanout", "repro.protocols.fixed_fanout", "FixedFanoutGossip"),
    ("random-fanout", "repro.protocols.random_fanout", "RandomFanoutGossip"),
    ("hyparview", "repro.protocols.hyparview", "HyParViewProtocol"),
    ("lazy-push", "repro.protocols.lazy_push", "LazyPushProtocol"),
    ("anti-entropy", "repro.protocols.anti_entropy", "AntiEntropyProtocol"),
)

ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("distributions.sample", "repro.core.distributions", "PoissonFanout.sample"),
    EntryPoint("distributions.sample", "repro.core.distributions", "FixedFanout.sample"),
    EntryPoint(
        _SAMPLING, "repro.simulation.membership", "FullView.sample_targets_batch",
        counter=_drawn_from_pair,
    ),
    EntryPoint(
        _SAMPLING, "repro.utils.sampling", "sample_distinct_rows",
        importers=(
            "repro.simulation.membership",
            "repro.graphs.configuration_model",
            "repro.protocols.hyparview",
            "repro.protocols.lpbcast",
        ),
        counter=_drawn_from_valid,
    ),
    EntryPoint(
        _SAMPLING, "repro.utils.sampling", "sample_distinct_rows_excluding",
        importers=(
            "repro.simulation.membership",
            "repro.simulation.protocol_batch",
            "repro.graphs.ensemble",
            "repro.protocols.flooding",
            "repro.protocols.hyparview",
            "repro.protocols.lpbcast",
        ),
        counter=_drawn_from_valid,
    ),
    EntryPoint(
        _SAMPLING, "repro.simulation.protocol_batch", "sample_group_targets_batch",
        importers=(
            "repro.protocols.anti_entropy",
            "repro.protocols.lazy_push",
            "repro.protocols.pbcast",
            "repro.protocols.rdg",
        ),
        counter=_drawn_from_pair,
    ),
    EntryPoint(
        "gossip.engine", "repro.simulation.gossip", "simulate_gossip_batch",
        importers=(
            "repro.simulation",
            "repro.simulation.rounds",
            "repro.simulation.runner",
            "repro.protocols.fixed_fanout",
            "repro.protocols.random_fanout",
            "repro.analysis.dimensioning",
            "repro.serving.surface",
        ),
        counter=_gossip_counts,
    ),
    EntryPoint(
        "network.loss", "repro.simulation.network", "NetworkModel.draw_loss_batch",
        counter=_loss_counts,
    ),
    EntryPoint("network.latency_draw", "repro.simulation.network",
               "NetworkModel.draw_latency_batch"),
    EntryPoint("latency.schedule", "repro.simulation.latency", "DeliveryTimePlane.schedule"),
    EntryPoint("latency.record", "repro.simulation.latency", "DeliveryTimePlane.record"),
    EntryPoint("latency.finalize", "repro.simulation.latency", "DeliveryTimePlane.finalize"),
    EntryPoint("churn.draw", "repro.simulation.churn", "PoissonChurnModel.draw_batch"),
    EntryPoint("churn.present", "repro.simulation.churn", "ChurnScheduleBatch.present_at"),
    EntryPoint("churn.present", "repro.simulation.churn",
               "ChurnScheduleBatch.present_at_rounds"),
    EntryPoint("failures.draw", "repro.simulation.failures", "UniformCrashModel.draw_batch"),
    EntryPoint(
        "protocol_batch.dispatch", "repro.simulation.protocol_batch", "simulate_protocol_batch",
        importers=(
            "repro.simulation",
            "repro.analysis.dimensioning",
            "repro.serving.surface",
            "repro.experiments.churn_resilience",
            "repro.experiments.latency_profile",
            "repro.experiments.loss_resilience",
            "repro.experiments.protocol_comparison",
            "repro.experiments.recovery_resilience",
        ),
    ),
    *(
        EntryPoint(f"protocols.{pid}.hook", module, f"{cls}._disseminate_batch")
        for pid, module, cls in PROTOCOL_HOOKS
    ),
    EntryPoint("graphs.ensemble", "repro.graphs.ensemble", "GossipGraphEnsemble.realise"),
    EntryPoint("graphs.components", "scipy.sparse.csgraph", "connected_components",
               counter=_arc_counts),
    EntryPoint("graphs.bfs", "scipy.sparse.csgraph", "breadth_first_order"),
    EntryPoint(
        "analysis.solver", "repro.analysis.dimensioning", "dimension_fanout",
        importers=(
            "repro.analysis",
            "repro.experiments.dimensioning",
            "repro.experiments.surface_dimensioning",
        ),
        counter=_solver_counts,
    ),
    EntryPoint("serving.surface.build", "repro.serving.surface", "build_surface",
               importers=("repro.serving",)),
    EntryPoint("serving.query", "repro.serving.query", "SurfaceQueryEngine.query"),
    EntryPoint("serving.handle", "repro.serving.serve", "handle_request",
               importers=("repro.serving",)),
)


@dataclass
class Span:
    """One traced call: ``parent`` is the index of the enclosing span or -1."""

    name: str
    site: str
    parent: int
    op: int
    start: float
    end: float = 0.0
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around :data:`ENTRY_POINTS` while installed (a context manager)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _wrap(self, func: Callable, layer: str, site: str, counter: Counter | None) -> Callable:
        spans, open_spans = self.spans, self._open

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(layer, site, open_spans[-1] if open_spans else -1, self.op,
                        perf_counter())
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_spans.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        had_own = isinstance(owner, type) and attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Rebind every entry point; raises naming the first one that is missing."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            originals: dict[int, tuple[str, set[str]]] = {}
            for entry in ENTRY_POINTS:
                module = importlib.import_module(entry.module)
                if "." in entry.target:
                    cls_name, method = entry.target.split(".")
                    cls = getattr(module, cls_name)
                    func = vars(cls).get(method)
                    if not callable(func):
                        raise AttributeError(f"{entry.module}.{entry.target} is not defined")
                    site = f"{entry.module}:{entry.target}"
                    self._patch(cls, method, self._wrap(func, entry.layer, site, entry.counter))
                    continue
                func = getattr(module, entry.target)
                holders = {entry.module}
                for importer in entry.importers:
                    holder = importlib.import_module(importer)
                    if getattr(holder, entry.target, None) is not func:
                        raise AttributeError(
                            f"{importer} no longer binds {entry.module}.{entry.target}"
                        )
                    holders.add(importer)
                for holder_name in sorted(holders):
                    site = f"{holder_name}:{entry.target}"
                    wrapper = self._wrap(func, entry.layer, site, entry.counter)
                    self._patch(sys.modules[holder_name], entry.target, wrapper)
                originals[id(func)] = (f"{entry.module}.{entry.target}", holders)
            self._check_no_unpatched(originals)
        except BaseException:
            self.uninstall()
            raise

    @staticmethod
    def _check_no_unpatched(originals: dict[int, tuple[str, set[str]]]) -> None:
        """Fail when a loaded ``repro`` module binds a traced function undeclared."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in vars(module).items():
                found = originals.get(id(value))
                if found is not None and module_name not in found[1]:
                    raise AttributeError(
                        f"{module_name}.{attr} binds {found[0]} outside the traced sites"
                    )

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if isinstance(owner, type) and not had_own:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def write_spans(spans: list[Span], path: Path) -> None:
    """Write spans as JSON lines (``id`` is the span's index, ``parent`` -1 at the root)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as stream:
        for index, span in enumerate(spans):
            record = {"id": index, "name": span.name, "site": span.site, "parent": span.parent,
                      "op": span.op, "start": span.start, "end": span.end}
            if span.counts:
                record["counts"] = span.counts
            stream.write(json.dumps(record) + "\n")


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Aggregate spans per layer name.

    For each layer: ``busy_s`` and ``calls`` over its outermost spans (a call
    nested inside a span of the same layer is part of that span's busy
    time), ``self_s`` over all of its spans (duration minus the duration of
    direct children), and every count summed over the outermost spans.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    totals: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span.name, {"busy_s": 0.0, "calls": 0, "self_s": 0.0})
        entry["self_s"] += span.duration - child_time[index]
        if _has_ancestor(spans, span, (span.name,)):
            continue
        entry["busy_s"] += span.duration
        entry["calls"] += 1
        for key, value in (span.counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


def _has_ancestor(spans: list[Span], span: Span, names: tuple[str, ...]) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def count_nested(spans: list[Span], names: tuple[str, ...], within: tuple[str, ...]) -> int:
    """Number of spans named in ``names`` that run inside a span named in ``within``."""
    return sum(1 for span in spans if span.name in names and _has_ancestor(spans, span, within))


def layer_metrics(spans: list[Span], program_counts: dict) -> dict[str, float]:
    """The per-layer metrics of a traced run (zero where a layer never ran).

    ``program_counts`` carries what the workload reads from program state
    (the serving cache's ``hit_ratio`` and ``evictions``).
    """
    totals = layer_totals(spans)

    def get(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0)

    def ratio(layer: str, part: str, whole: str) -> float:
        return get(layer, part) / get(layer, whole) if get(layer, whole) else 0.0

    metrics = {
        "distributions.sample.busy_s": get("distributions.sample", "busy_s"),
        "distributions.sample.calls": get("distributions.sample", "calls"),
        "sampling.targets.busy_s": get(_SAMPLING, "busy_s"),
        "sampling.targets.calls": get(_SAMPLING, "calls"),
        "sampling.targets.drawn": get(_SAMPLING, "drawn"),
        "gossip.engine.self_s": get("gossip.engine", "self_s"),
        "gossip.engine.calls": get("gossip.engine", "calls"),
        "gossip.fresh_ratio": ratio("gossip.engine", "fresh", "arrived"),
        "network.loss.busy_s": get("network.loss", "busy_s"),
        "network.loss.calls": get("network.loss", "calls"),
        "network.drop_ratio": ratio("network.loss", "dropped", "attempted"),
        "network.latency_draw.busy_s": get("network.latency_draw", "busy_s"),
        "latency.schedule.busy_s": get("latency.schedule", "busy_s"),
        "latency.schedule.calls": get("latency.schedule", "calls"),
        "latency.record.busy_s": get("latency.record", "busy_s"),
        "latency.finalize.busy_s": get("latency.finalize", "busy_s"),
        "churn.draw.busy_s": get("churn.draw", "busy_s"),
        "churn.present.busy_s": get("churn.present", "busy_s"),
        "failures.draw.busy_s": get("failures.draw", "busy_s"),
        "protocol_batch.dispatch_self_s": get("protocol_batch.dispatch", "self_s"),
        **{
            f"protocols.{pid}.hook_self_s": get(f"protocols.{pid}.hook", "self_s")
            for pid, _, _ in PROTOCOL_HOOKS
        },
        "graphs.components.busy_s": get("graphs.components", "busy_s"),
        "graphs.bfs.busy_s": get("graphs.bfs", "busy_s"),
        "graphs.ensemble.self_s": get("graphs.ensemble", "self_s"),
        "graphs.arcs": get("graphs.components", "arcs"),
        "analysis.solver.self_s": get("analysis.solver", "self_s"),
        "analysis.solver.evaluations": get("analysis.solver", "evaluations"),
        "analysis.solver.replicas": get("analysis.solver", "replicas"),
        "analysis.solver.engine_calls": count_nested(
            spans, ("gossip.engine", "protocol_batch.dispatch"), ("analysis.solver",)
        ),
        "serving.surface.build_s": get("serving.surface.build", "busy_s"),
        "serving.query.busy_s": get("serving.query", "busy_s"),
        "serving.query.calls": get("serving.query", "calls"),
        "serving.cache.hit_ratio": program_counts.get("hit_ratio", 0.0),
        "serving.cache.evictions": program_counts.get("evictions", 0),
        "serving.handle.self_s": get("serving.handle", "self_s"),
    }
    return metrics


#: Binding sites that must fire on each workload; every other traced site must not
#: (including the by-value importers no workload exercises).
_G, _Z, _P, _D = "gossip-1e5", "zoo-planes", "percolation-1e6", "design-service"
_SITES_BY_WORKLOADS: tuple[tuple[frozenset[str], tuple[str, ...]], ...] = (
    (frozenset({_G, _Z, _P, _D}), (
        "repro.core.distributions:PoissonFanout.sample",
        "repro.utils.sampling:sample_distinct_rows",
    )),
    (frozenset({_G, _Z, _D}), (
        "repro.simulation.membership:FullView.sample_targets_batch",
        "repro.simulation.membership:sample_distinct_rows_excluding",
    )),
    (frozenset({_Z, _D}), (
        "repro.simulation.latency:DeliveryTimePlane.finalize",
        "repro.simulation.latency:DeliveryTimePlane.record",
        "repro.simulation.latency:DeliveryTimePlane.schedule",
        "repro.simulation.network:NetworkModel.draw_latency_batch",
        "repro.simulation.network:NetworkModel.draw_loss_batch",
    )),
    (frozenset({_G}), (
        "repro.simulation.gossip:simulate_gossip_batch",
    )),
    (frozenset({_Z}), (
        "repro.core.distributions:FixedFanout.sample",
        "repro.protocols.anti_entropy:AntiEntropyProtocol._disseminate_batch",
        "repro.protocols.anti_entropy:sample_group_targets_batch",
        "repro.protocols.fixed_fanout:FixedFanoutGossip._disseminate_batch",
        "repro.protocols.fixed_fanout:simulate_gossip_batch",
        "repro.protocols.flooding:FloodingProtocol._disseminate_batch",
        "repro.protocols.flooding:sample_distinct_rows_excluding",
        "repro.protocols.hyparview:HyParViewProtocol._disseminate_batch",
        "repro.protocols.hyparview:sample_distinct_rows",
        "repro.protocols.hyparview:sample_distinct_rows_excluding",
        "repro.protocols.lazy_push:LazyPushProtocol._disseminate_batch",
        "repro.protocols.lazy_push:sample_group_targets_batch",
        "repro.protocols.lpbcast:LpbcastProtocol._disseminate_batch",
        "repro.protocols.lpbcast:sample_distinct_rows",
        "repro.protocols.lpbcast:sample_distinct_rows_excluding",
        "repro.protocols.pbcast:PbcastProtocol._disseminate_batch",
        "repro.protocols.pbcast:sample_group_targets_batch",
        "repro.protocols.random_fanout:RandomFanoutGossip._disseminate_batch",
        "repro.protocols.random_fanout:simulate_gossip_batch",
        "repro.protocols.rdg:RouteDrivenGossip._disseminate_batch",
        "repro.protocols.rdg:sample_group_targets_batch",
        "repro.simulation.churn:ChurnScheduleBatch.present_at",
        "repro.simulation.churn:ChurnScheduleBatch.present_at_rounds",
        "repro.simulation.churn:PoissonChurnModel.draw_batch",
        "repro.simulation.failures:UniformCrashModel.draw_batch",
        "repro.simulation.protocol_batch:sample_distinct_rows_excluding",
        "repro.simulation.protocol_batch:simulate_protocol_batch",
    )),
    (frozenset({_P}), (
        "repro.graphs.ensemble:GossipGraphEnsemble.realise",
        "repro.graphs.ensemble:sample_distinct_rows_excluding",
        "scipy.sparse.csgraph:breadth_first_order",
        "scipy.sparse.csgraph:connected_components",
    )),
    (frozenset({_D}), (
        "repro.analysis.dimensioning:dimension_fanout",
        "repro.analysis.dimensioning:simulate_gossip_batch",
        "repro.serving.query:SurfaceQueryEngine.query",
        "repro.serving.serve:handle_request",
        "repro.serving.surface:build_surface",
        "repro.serving.surface:simulate_gossip_batch",
    )),
)
EXPECTED_SITES: dict[str, frozenset[str]] = {
    site: workloads for workloads, sites in _SITES_BY_WORKLOADS for site in sites
}
