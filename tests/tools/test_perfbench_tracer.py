"""Smoke test of the benchmark tracer against the live tree.

``perfbench/tracing.py`` rebinds every traced entry point from the outside
and refuses to install when an entry point was renamed or moved, or when a
``repro`` module binds a traced function by value under no declared site.
Installing and uninstalling it here catches either mistake in about a second,
before a benchmark run does.
"""

from __future__ import annotations

import importlib

from perfbench.tracing import ENTRY_POINTS, Tracer


def _bound(entry):
    module = importlib.import_module(entry.module)
    if "." in entry.target:
        cls_name, method = entry.target.split(".")
        return vars(getattr(module, cls_name))[method]
    return getattr(module, entry.target)


def test_tracer_installs_and_restores_every_entry_point() -> None:
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = [_bound(entry) for entry in ENTRY_POINTS]
    finally:
        tracer.uninstall()
    restored = [_bound(entry) for entry in ENTRY_POINTS]
    assert all(hasattr(func, "__wrapped__") for func in wrapped)
    assert not any(hasattr(func, "__wrapped__") for func in restored)
