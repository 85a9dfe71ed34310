"""Rule registry of ``repro-lint``.

Each rule is a small stateless object with a per-file pass
(:meth:`~tools.lint.engine.Rule.check_file`) and an optional project-level
pass (:meth:`~tools.lint.engine.Rule.finalize`) that sees every parsed file
at once — the registry-hygiene rule needs the registry and the experiment
modules side by side.
"""

from __future__ import annotations

from tools.lint.engine import Rule
from tools.lint.rules.rl001_global_rng import GlobalRngRule
from tools.lint.rules.rl003_frozen_samplers import FrozenSamplerRule
from tools.lint.rules.rl004_zero_draw import ZeroDrawRule
from tools.lint.rules.rl005_wall_clock import WallClockRule
from tools.lint.rules.rl006_registry import RegistryHygieneRule
from tools.lint.rules.rl007_no_unique_dedup import NoUniqueDedupRule

__all__ = ["ALL_RULES", "Rule"]

#: The bundled rules, in code order.  ``lint_paths`` runs these by default.
ALL_RULES: tuple[Rule, ...] = (
    GlobalRngRule(),
    FrozenSamplerRule(),
    ZeroDrawRule(),
    WallClockRule(),
    RegistryHygieneRule(),
    NoUniqueDedupRule(),
)
