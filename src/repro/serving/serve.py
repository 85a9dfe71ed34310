"""JSON-lines serving loop — ``repro serve`` and ``repro query``.

A deliberately tiny wire protocol so the dimensioning service can sit
behind anything that speaks pipes (a socket wrapper, a container health
check, an interactive shell): **one JSON object per line in, one JSON
object per line out**, no framing beyond the newline.

Requests (the ``op`` field selects the operation)::

    {"op": "reliability", "q": 0.9, "loss": 0.1, "fanout": 4}
    {"op": "dimension", "q": 0.9, "loss": 0.1, "target": 0.99}
    {"op": "pareto", "q": 0.9, "target": 0.99}
    {"op": "info"}
    {"op": "shutdown"}

Optional request fields: ``n`` and ``rounds`` (default to the surface's
only / largest grid value), ``objective`` (``min_fanout`` | ``min_cost``),
``live_fallback`` (bool, default false — a *serving* process answers
from the surface only, so its latency stays bounded) and ``seed`` (a
non-negative integer seeding the live fallback, so its answers repeat;
without it the fallback draws fresh entropy) for ``dimension``, and a
free-form ``id`` echoed back verbatim for request/response correlation.

Every response carries ``"ok": true`` plus the answer fields, or
``"ok": false`` plus ``"error"``; malformed lines never kill the loop.

Example
-------
>>> import io, json
>>> from repro.serving.surface import SurfaceGrid, build_surface
>>> surface = build_surface(
...     SurfaceGrid(ns=(64,), qs=(0.8, 1.0), losses=(0.0,), fanouts=(2.0, 8.0)),
...     repetitions=16, seed=7)
>>> out = io.StringIO()
>>> served = serve_loop(surface,
...     io.StringIO('{"op": "reliability", "q": 0.9, "loss": 0.0, "fanout": 5}\\n'),
...     out)
>>> served
1
>>> json.loads(out.getvalue())["ok"]
True
"""

from __future__ import annotations

import json
import math
from typing import Any, TextIO

from repro.serving.query import (
    SurfaceCoverageError,
    SurfaceQueryEngine,
    dimension_from_surface,
    pareto_from_surface,
)
from repro.serving.surface import ReliabilitySurface
from repro.utils.validation import check_integer

__all__ = ["handle_request", "serve_loop"]


def _clean(value: Any) -> Any:
    """Make one value JSON-safe (NaN/inf have no JSON spelling -> None)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _served_fields(answer: Any) -> dict:
    """Flatten a served dataclass into JSON-safe response fields."""
    return {key: _clean(value) for key, value in vars(answer).items()}


def _default_n(engine: SurfaceQueryEngine, request: dict) -> int:
    """Resolve the group size: explicit, or the grid's only ``n`` value."""
    if "n" in request:
        return int(request["n"])
    ns = engine.surface.grid.ns
    if len(ns) == 1:
        return ns[0]
    raise ValueError(f"request must name n (the surface spans several: {list(ns)})")


def handle_request(engine: SurfaceQueryEngine, request: dict) -> dict:
    """Serve one decoded request object; never raises on bad input.

    Returns the JSON-serialisable response dict (see the module docstring
    for the wire protocol).  A ``shutdown`` response carries
    ``"shutdown": true`` so :func:`serve_loop` knows to stop reading.
    """
    if not isinstance(request, dict):
        return {"ok": False, "error": "request must be a JSON object"}
    response: dict = {"ok": True}
    if "id" in request:
        response["id"] = request["id"]
    op = request.get("op")
    try:
        if op == "reliability":
            answer = engine.query(
                n=_default_n(engine, request),
                q=float(request["q"]),
                loss=float(request.get("loss", 0.0)),
                fanout=float(request["fanout"]),
                rounds=request.get("rounds"),
            )
            response.update(_served_fields(answer))
        elif op == "dimension":
            seed = request.get("seed")
            answer = dimension_from_surface(
                engine,
                n=_default_n(engine, request),
                q=float(request["q"]),
                target_reliability=float(request["target"]),
                loss=float(request.get("loss", 0.0)),
                objective=request.get("objective", "min_fanout"),
                allow_live_fallback=bool(request.get("live_fallback", False)),
                seed=None if seed is None else check_integer("seed", seed, minimum=0),
            )
            response.update(_served_fields(answer))
        elif op == "pareto":
            frontier = pareto_from_surface(
                engine,
                n=_default_n(engine, request),
                q=float(request["q"]),
                target_reliability=float(request["target"]),
                loss=float(request.get("loss", 0.0)),
            )
            response["frontier"] = [_served_fields(c) for c in frontier]
        elif op == "info":
            response["manifest"] = engine.surface.manifest()
            response["cache"] = engine.cache_info()
        elif op == "shutdown":
            response["shutdown"] = True
        else:
            response = {"ok": False, "error": f"unknown op {op!r}"}
            if "id" in request:
                response["id"] = request["id"]
    except (KeyError, TypeError, ValueError, SurfaceCoverageError) as exc:
        response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
    return response


def serve_loop(
    surface: ReliabilitySurface, stdin: TextIO, stdout: TextIO, *, cache_size: int = 4096
) -> int:
    """Run the JSON-lines loop until EOF or a ``shutdown`` request.

    Parameters
    ----------
    surface:
        The surface to serve (already validated by
        :func:`~repro.serving.surface.load_surface` when it came from disk).
    stdin, stdout:
        Text streams: one JSON request per input line, one JSON response
        per output line (flushed after every response, so a pipe peer sees
        answers immediately).
    cache_size:
        LRU query-cache capacity of the underlying engine.

    Returns
    -------
    int
        The number of requests answered (blank lines are skipped).
    """
    engine = SurfaceQueryEngine(surface, cache_size=cache_size)
    served = 0
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            response = {"ok": False, "error": f"invalid JSON: {exc}"}
        else:
            response = handle_request(engine, request)
        stdout.write(json.dumps(response) + "\n")
        stdout.flush()
        served += 1
        if response.get("shutdown"):
            break
    return served
