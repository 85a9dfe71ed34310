"""RL007 — no ``np.unique`` dedup in the batched engines.

Runtime contract protected: the batched gossip engine and every protocol's
``_disseminate_batch`` hook book each round's deliveries through
``repro.utils.sampling.fresh_cells`` — one scatter into a scratch mask plus
``np.flatnonzero``, in the same ascending order ``np.unique`` gives, so
seeded outputs are unchanged.  ``np.unique`` hashes or sorts instead and
once took most of the time of a batched run (about 6× at n = 10⁵); a
single call slipped back into a per-round loop brings that cost back
without failing any test.

Flagged: any ``np.unique`` / ``numpy.unique`` call (or ``unique`` imported
from numpy) lexically inside a function named ``_disseminate_batch`` or
``simulate_gossip_batch``, or anywhere in ``repro.simulation.transport`` —
the protocol hooks book their deliveries through that module, so a dedup
there runs inside every hook's round loop.  The scalar references
(``simulate_gossip_once``, the protocols' ``_disseminate``) keep
``np.unique``: they are the oracles the batched paths are tested against.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterator

from tools.lint.asthelpers import dotted_name, numpy_aliases
from tools.lint.engine import FileContext, Rule, Violation

__all__ = ["NoUniqueDedupRule"]

#: functions whose bodies hold a batched engine's per-round loop
_BATCHED_ENGINES = frozenset({"_disseminate_batch", "simulate_gossip_batch"})

#: trailing path parts of the module every protocol hook books through
_TRANSPORT_MODULE = ("repro", "simulation", "transport.py")


def _unique_imports(tree: ast.Module) -> set[str]:
    """Return the local names bound by ``from numpy import unique [as ...]``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name == "unique":
                    names.add(alias.asname or "unique")
    return names


class NoUniqueDedupRule(Rule):
    code = "RL007"
    summary = "batched engines dedup through fresh_cells, never np.unique"

    def check_file(self, context: FileContext) -> Iterator[Violation]:
        spellings = _unique_imports(context.tree) | {
            f"{alias}.unique" for alias in numpy_aliases(context.tree)
        }
        path = str(context.path)
        if PurePath(path).parts[-3:] == _TRANSPORT_MODULE:
            scopes: list[ast.AST] = [context.tree]
        else:
            scopes = [
                function
                for function in ast.walk(context.tree)
                if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                and function.name in _BATCHED_ENGINES
            ]
        for scope in scopes:
            where = getattr(scope, "name", "repro.simulation.transport")
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name in spellings:
                    yield Violation(
                        code=self.code,
                        path=path,
                        line=node.lineno,
                        message=(
                            f"`{name}` in batched engine `{where}` — book "
                            "deliveries through repro.utils.sampling.fresh_cells (one "
                            "scatter, same ascending order) instead of a hash/sort dedup"
                        ),
                    )
