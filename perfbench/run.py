"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gossip-1e5 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds with
tracing off.  ``--trace 1`` runs a fixed number of operations twice, once
plainly and once under the span tracer, checks that both produce the same
digest and that every traced entry point fired exactly where expected, and
reports the per-layer metrics.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with the
run's manifest (and, when tracing, the spans) is written under
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Tail percentiles tried from the highest down; the first with at least
#: ten samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _environment() -> dict:
    """Child-process environment: this one (thread caps included) with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _manifest(args: argparse.Namespace, workload: Any) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": workload.parameters(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": _nproc(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "load": "closed loop, one caller, one process",
    }


def _cold_setup(name: str, seed: int) -> float:
    completed = subprocess.run(
        [sys.executable, str(HERE / "cold_setup.py"), name, str(seed)],
        env=_environment(), cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def _tail(samples: list[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest ladder percentile with >= 10 samples beyond."""
    import numpy as np

    for percentile in TAIL_LADDER:
        if len(samples) * (1.0 - percentile / 100.0) >= 10:
            return percentile, float(np.percentile(samples, percentile))
    return None


@dataclass
class RunResult:
    """Metrics as ``name -> (value, unit, note)``, work attempted and what failed."""

    metrics: dict[str, tuple[float, str, str | None]]
    attempted: int
    failed: int
    failures: list[str]
    lines: list[str] = field(default_factory=list)


def _time_run(args: argparse.Namespace, workload: Any) -> RunResult:
    """Measure the end-to-end metrics with tracing off."""
    setups = [_cold_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    tracemalloc.start()
    workload.setup()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    timings: list[tuple[Any, float]] = []

    def timed(op: Callable[[int], Any], index: int, profile: bool) -> None:
        nonlocal peak
        if profile:
            tracemalloc.start()
        began = perf_counter()
        outcome = op(index)
        elapsed = perf_counter() - began
        if profile:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        timings.append((outcome, elapsed))

    index = 0
    start = perf_counter()
    while index < workload.min_ops or perf_counter() - start < args.seconds:
        timed(workload.run_op, index, workload.profile_ops)
        index += 1
    for closing in range(workload.closing_ops):
        timed(workload.closing_op, closing, False)
    index += workload.closing_ops

    seconds: dict[str, list[float]] = {}
    work = {"nodes": [0, 0.0], "member_replica_rounds": [0, 0.0], "messages": [0, 0.0]}
    failures: list[str] = []
    failed = 0
    for outcome, elapsed in timings:
        seconds.setdefault(outcome.kind, []).append(elapsed)
        failures.extend(outcome.failures)
        failed += bool(outcome.failures)
        for key, total in work.items():
            amount = getattr(outcome, key)
            if amount:
                total[0] += amount
                total[1] += elapsed

    gated = seconds[workload.gated_kind]
    metrics: dict[str, tuple[float, str, str | None]] = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} cold set-ups"),
        "op_s_p50": (statistics.median(gated), "s", f"{len(gated)} {workload.gated_kind}s"),
    }
    tail = _tail(gated)
    if tail is not None:
        metrics["op_s_tail"] = (tail[1], "s", f"p{tail[0]:g} of {len(gated)}")
    rates = {"nodes": "nodes_per_s", "member_replica_rounds": "member_replica_rounds_per_s",
             "messages": "messages_per_s"}
    for key, name in rates.items():
        amount, busy = work[key]
        if amount:
            metrics[name] = (amount / busy, "1/s", None)
    if "request" in seconds:
        requests = seconds["request"]
        metrics["query_us_p50"] = (statistics.median(requests) * 1e6, "us", None)
        tail = _tail(requests)
        if tail is not None:
            metrics["query_us_tail"] = (tail[1] * 1e6, "us", f"p{tail[0]:g} of {len(requests)}")
    if "solve" in seconds:
        solves = seconds["solve"]
        metrics["solve_s"] = (statistics.median(solves), "s", f"{len(solves)} live solves")
    metrics["peak_mem_mib"] = (peak / 2**20, "MiB", "largest tracemalloc peak of set-up or an op")
    metrics["failed_op_ratio"] = (failed / index, "ratio", f"{failed} of {index} ops")
    return RunResult(metrics, index, failed, failures)


def _trace_pass(workload: Any, traced: bool) -> tuple[float, int, list[str], Any]:
    """Set up and run the workload's fixed traced-run ops; returns seconds, failed ops,
    failures and the tracer (None when untraced)."""
    from tracing import Tracer

    tracer = Tracer() if traced else None
    failures: list[str] = []
    failed = 0
    start = perf_counter()
    with tracer if tracer is not None else nullcontext():
        if tracer is not None:
            tracer.op = -1
        workload.setup()
        for index in range(workload.trace_ops):
            if tracer is not None:
                tracer.op = index
            outcome = workload.run_op(index)
            failures += outcome.failures
            failed += bool(outcome.failures)
        for index in range(workload.closing_ops):
            if tracer is not None:
                tracer.op = workload.trace_ops + index
            outcome = workload.closing_op(index)
            failures += outcome.failures
            failed += bool(outcome.failures)
    return perf_counter() - start, failed, failures, tracer


def _trace_run(args: argparse.Namespace, workload_cls: Any, units: dict[str, str]) -> RunResult:
    """An untraced and a traced pass over the same ops; per-layer metrics from the spans.

    Attempted work is both passes' ops plus the digest comparison and one
    coverage check per expected site; each one that fails counts once.
    """
    from tracing import EXPECTED_SITES, layer_metrics, write_spans

    plain, traced = workload_cls(args.seed), workload_cls(args.seed)
    plain_s, plain_failed, failures, _ = _trace_pass(plain, traced=False)
    traced_s, traced_failed, traced_failures, tracer = _trace_pass(traced, traced=True)
    failures += traced_failures
    checks = []
    if plain.digest.hexdigest() != traced.digest.hexdigest():
        checks.append("traced run digest differs from the untraced run")
    calls = Counter(span.site for span in tracer.spans)
    for site, workloads in EXPECTED_SITES.items():
        fired = calls.get(site, 0)
        if args.workload in workloads and not fired:
            checks.append(f"span coverage: {site} never fired")
        elif args.workload not in workloads and fired:
            checks.append(f"span coverage: {site} fired {fired} times, expected 0")
    unexpected = sorted(set(calls) - set(EXPECTED_SITES))
    checks += [f"span coverage: {site} fired but has no expectation" for site in unexpected]
    values = layer_metrics(tracer.spans, traced.layer_counts())
    values["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    write_spans(tracer.spans, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    lines = [f"digest untraced {plain.digest.hexdigest()}",
             f"digest traced   {traced.digest.hexdigest()}",
             f"{len(tracer.spans)} spans; untraced pass {plain_s:.3f} s, "
             f"traced pass {traced_s:.3f} s"]
    metrics = {name: (value, units.get(name, "?"), None) for name, value in values.items()}
    ops = workload_cls.trace_ops + workload_cls.closing_ops
    attempted = 2 * ops + 1 + len(EXPECTED_SITES) + len(unexpected)
    return RunResult(metrics, attempted, plain_failed + traced_failed + len(checks),
                     failures + checks, lines)


def _declared(kind: str) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry for entry in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(_nproc()))
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    manifest = _manifest(args, workload)
    declared = _declared("per_layer" if args.trace else "end_to_end")
    if args.trace:
        run = _trace_run(args, WORKLOADS[args.workload],
                         {name: spec["unit"] for name, spec in declared.items()})
    else:
        run = _time_run(args, workload)
    missing = sorted(set(declared) - set(run.metrics))
    if missing:
        print(f"error: metrics not measured on {args.workload}: {missing}", file=sys.stderr)
        return 1
    for name, (value, unit, note) in run.metrics.items():
        # Of the metrics BENCHMARK.json does not list, only the rates are better higher.
        better = declared[name]["better"] if name in declared else (
            "higher" if unit == "1/s" else "lower")
        print(f"{name:34s} {value:>14.6g} {unit:6s} {better:6s}" + (f"  ({note})" if note else ""))
    for line in run.lines:
        print(line)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    record = {"manifest": manifest, "metrics": run.metrics, "attempted": run.attempted,
              "failed": run.failed, "failures": run.failures}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True), encoding="utf-8"
    )
    metrics = {name: {"value": run.metrics[name][0], "unit": spec["unit"]}
               for name, spec in declared.items()}
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
