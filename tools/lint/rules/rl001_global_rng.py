"""RL001 — no global-RNG calls.

Runtime contract protected: every stochastic entry point threads an explicit
``numpy.random.Generator`` (normalised by ``repro.utils.rng.as_generator``),
which is what makes replica layouts repetitions-only and results bit-identical
at any pool size (PR 5).  A single ``np.random.rand()`` — or a stdlib
``random.random()`` — draws from hidden process-global state, silently
breaking that guarantee in whichever worker happens to import the module.

Flagged:

* calls to ``np.random.<fn>`` / ``numpy.random.<fn>`` module-level functions
  (the legacy ``RandomState`` API: ``rand``, ``randint``, ``seed``, ...);
* ``default_rng()`` with no argument or a literal ``None`` (fresh OS entropy:
  non-deterministic by construction) — passing a ``seed`` *variable* through
  is fine, that is exactly what ``as_generator`` does;
* ``default_rng(time.time())`` and friends (wall-clock seeding);
* any call into the stdlib ``random`` module (``random.random()``,
  ``from random import shuffle; shuffle(...)``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.asthelpers import dotted_name, numpy_aliases
from tools.lint.engine import FileContext, Rule, Violation

__all__ = ["GlobalRngRule"]

#: ``np.random`` attributes that are *not* hidden-global-state draws:
#: constructors and seeding types that explicit-Generator code legitimately
#: touches.
_SANCTIONED = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

_WALL_CLOCK_SEEDS = frozenset({"time.time", "time.time_ns", "datetime.now", "datetime.utcnow"})


def _stdlib_random_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Return (module aliases of stdlib ``random``, names imported from it)."""
    modules: set[str] = set()
    functions: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    modules.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                for alias in node.names:
                    functions.add(alias.asname or alias.name)
    return modules, functions


class GlobalRngRule(Rule):
    code = "RL001"
    summary = "no global-RNG calls; all randomness flows through an explicit Generator"

    def check_file(self, context: FileContext) -> Iterator[Violation]:
        numpy_names = numpy_aliases(context.tree)
        random_modules, random_functions = _stdlib_random_names(context.tree)
        path = str(context.path)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            # np.random.<fn>(...) — the legacy global-state API.
            if len(parts) == 3 and parts[0] in numpy_names and parts[1] == "random":
                if parts[2] not in _SANCTIONED:
                    yield Violation(
                        code=self.code,
                        path=path,
                        line=node.lineno,
                        message=(
                            f"call to global-state `{name}` — thread an explicit "
                            "numpy.random.Generator (repro.utils.rng.as_generator) instead"
                        ),
                    )
                    continue
            # default_rng() / default_rng(None) / default_rng(<wall clock>).
            if parts[-1] == "default_rng" and (
                len(parts) == 1 or (parts[0] in numpy_names and "random" in parts)
            ):
                yield from self._check_default_rng(node, name, path)
                continue
            # stdlib random module calls.
            if len(parts) >= 2 and parts[0] in random_modules:
                yield Violation(
                    code=self.code,
                    path=path,
                    line=node.lineno,
                    message=(
                        f"call to stdlib `{name}` — the `random` module is process-global "
                        "state; use the threaded numpy Generator"
                    ),
                )
            elif len(parts) == 1 and parts[0] in random_functions:
                yield Violation(
                    code=self.code,
                    path=path,
                    line=node.lineno,
                    message=(
                        f"call to `{name}` imported from stdlib `random` — process-global "
                        "state; use the threaded numpy Generator"
                    ),
                )

    def _check_default_rng(self, node: ast.Call, name: str, path: str) -> Iterator[Violation]:
        if not node.args and not node.keywords:
            yield Violation(
                code=self.code,
                path=path,
                line=node.lineno,
                message=(
                    f"`{name}()` with no seed draws fresh OS entropy — "
                    "pass an explicit seed (or accept one from the caller)"
                ),
            )
            return
        seed_args = list(node.args) + [kw.value for kw in node.keywords if kw.arg == "seed"]
        for arg in seed_args:
            if isinstance(arg, ast.Constant) and arg.value is None:
                yield Violation(
                    code=self.code,
                    path=path,
                    line=node.lineno,
                    message=(
                        f"`{name}(None)` draws fresh OS entropy — "
                        "pass an explicit seed (or accept one from the caller)"
                    ),
                )
            elif isinstance(arg, ast.Call):
                inner = dotted_name(arg.func)
                if inner in _WALL_CLOCK_SEEDS:
                    yield Violation(
                        code=self.code,
                        path=path,
                        line=node.lineno,
                        message=(
                        f"`{name}` seeded from the wall clock (`{inner}`) "
                        "is not reproducible"
                    ),
                    )
