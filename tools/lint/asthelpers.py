"""Small AST utilities shared by the ``repro-lint`` rules."""

from __future__ import annotations

import ast

__all__ = [
    "GENERATOR_METHODS",
    "dotted_name",
    "mentioned_names",
    "numpy_aliases",
    "decorator_dataclass_call",
]

#: Drawing methods of :class:`numpy.random.Generator`.  A call to any of
#: these — on whatever receiver — consumes randomness, which is what the
#: zero-draw rule (RL004) polices.
GENERATOR_METHODS = frozenset(
    {
        "beta",
        "binomial",
        "bytes",
        "chisquare",
        "choice",
        "dirichlet",
        "exponential",
        "f",
        "gamma",
        "geometric",
        "gumbel",
        "hypergeometric",
        "integers",
        "laplace",
        "logistic",
        "lognormal",
        "logseries",
        "multinomial",
        "multivariate_hypergeometric",
        "multivariate_normal",
        "negative_binomial",
        "noncentral_chisquare",
        "noncentral_f",
        "normal",
        "pareto",
        "permutation",
        "permuted",
        "poisson",
        "power",
        "random",
        "rayleigh",
        "shuffle",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_normal",
        "standard_t",
        "triangular",
        "uniform",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
    }
)


def dotted_name(node: ast.expr) -> str | None:
    """Return ``"np.random.rand"``-style dotted paths for Name/Attribute chains."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def numpy_aliases(tree: ast.Module) -> set[str]:
    """Return the local names bound to the numpy module (``numpy``, ``np``...)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return aliases


def mentioned_names(node: ast.AST) -> set[str]:
    """Return every bare name and attribute name appearing in ``node``.

    Used to decide whether a guard expression "mentions" a contract name:
    both ``loss_probability`` in ``self.loss_probability <= 0.0`` and
    ``_is_iid`` in ``self._is_iid()`` count.
    """
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def decorator_dataclass_call(node: ast.ClassDef) -> ast.Call | ast.Name | ast.Attribute | None:
    """Return the ``@dataclass`` decorator node of ``node``, if present.

    Handles ``@dataclass``, ``@dataclass(...)``, and the ``@dataclasses.…``
    spellings; returns the decorator expression so callers can inspect its
    keywords (``frozen=True``).
    """
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return decorator
    return None
