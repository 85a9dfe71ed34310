#!/usr/bin/env python
"""Check that relative links in the repository's markdown docs resolve.

Scans ``README.md``, ``docs/*.md``, and the other top-level markdown files
for inline markdown links (``[text](target)``) and verifies that every
relative target exists in the working tree.  External links (``http(s)://``,
``mailto:``) are skipped — CI must not depend on the network — and pure
in-page anchors (``#section``) are checked against the headings of the file
that contains them.

Every dotted ``repro.…`` reference in ``README.md`` and ``docs/*.md`` must
resolve to a module under ``src/`` or to a name it defines, so a deleted or
renamed name cannot linger in the prose.

Beyond links and references, the checker cross-references the "Static invariants" section
of ``docs/ARCHITECTURE.md`` against the live ``tools.lint`` rule inventory:
every ``RLxxx`` rule must have a documentation entry and every documented
code must exist, so the docs cannot drift from the checker.

Exit status: 0 when every link resolves, 1 otherwise (one line per broken
link).  Run from the repository root: ``python tools/check_docs_links.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

#: Inline markdown links, non-greedy so adjacent links don't merge.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: ATX headings, for anchor validation.
HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def github_anchor(heading: str) -> str:
    """Return the GitHub-style anchor slug of one heading text."""
    heading = re.sub(r"[`*_]", "", heading.strip().lower())
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def collect_markdown_files(root: Path) -> list:
    """Return the markdown files to scan: top-level ``*.md`` plus ``docs/``."""
    files = sorted(root.glob("*.md"))
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.rglob("*.md")))
    benchmarks = root / "benchmarks"
    if benchmarks.is_dir():
        files.extend(sorted(benchmarks.rglob("*.md")))
    return files


def check_file(path: Path, root: Path) -> list:
    """Return the broken links of one markdown file as problem strings."""
    text = path.read_text(encoding="utf-8")
    anchors = {github_anchor(h) for h in HEADING_PATTERN.findall(text)}
    problems = []
    for match in LINK_PATTERN.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, fragment = target.partition("#")
        if not base:
            if fragment and github_anchor(fragment) not in anchors:
                problems.append(f"{path.relative_to(root)}: broken anchor #{fragment}")
            continue
        resolved = (path.parent / base).resolve()
        if not resolved.exists():
            problems.append(f"{path.relative_to(root)}: broken link {target}")
    return problems


#: Dotted references into the package, e.g. ``repro.simulation.transport.Transport``.
REFERENCE_PATTERN = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def _module_file(src: Path, parts: list) -> Path | None:
    """Return the source file of the module named by ``parts`` under ``src``."""
    base = src.joinpath(*parts)
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _bindings(body: list) -> dict:
    """Map every name a module or class body binds to the statement binding it."""
    bound = {}
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            bound.update(_bindings(node.body + node.orelse))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update({t.id: node for t in targets if isinstance(t, ast.Name)})
    return bound


def _class_attributes(cls: ast.ClassDef) -> set:
    """Return the names a class body binds plus the ``self.<name>`` its methods assign."""
    names = set(_bindings(cls.body))
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                names.add(node.attr)
    return names


def resolves(dotted: str, src: Path) -> bool:
    """Return True when ``dotted`` names a module under ``src`` or something it defines.

    Resolution reads the sources instead of importing them, so the check
    needs none of the package's dependencies: after the longest module
    prefix, a name must be bound at module level (re-exports are followed to
    their definition), and a further name must be an attribute of that class
    or of one of its bases.
    """
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = _module_file(src, parts[:cut])
        if module is not None:
            break
    else:
        return False
    if cut == len(parts):
        return True
    name, rest = parts[cut], parts[cut + 1 :]
    node = _bindings(ast.parse(module.read_text(encoding="utf-8")).body).get(name)
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        original = next(a.name for a in node.names if (a.asname or a.name) == name)
        return resolves(".".join([node.module, original, *rest]), src)
    if not rest:
        return node is not None
    if not isinstance(node, ast.ClassDef) or len(rest) > 1:
        return False
    if rest[0] in _class_attributes(node):
        return True
    return any(
        resolves(".".join([*parts[:cut], base.id, rest[0]]), src)
        for base in node.bases
        if isinstance(base, ast.Name)
    )


def check_references(root: Path) -> list:
    """Return the dotted ``repro.…`` references in README.md and docs/*.md that do not resolve."""
    files = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    problems = []
    for path in files:
        if not path.is_file():
            continue
        text = path.read_text(encoding="utf-8")
        for reference in sorted(set(REFERENCE_PATTERN.findall(text))):
            if not resolves(reference, root / "src"):
                problems.append(f"{path.relative_to(root)}: unresolved reference {reference}")
    return problems


#: Bold rule entries in the "Static invariants" docs section, e.g. ``**RL001``.
RULE_ENTRY_PATTERN = re.compile(r"\*\*(RL\d{3})\b")


def check_static_invariants_section(root: Path) -> list:
    """Cross-check docs/ARCHITECTURE.md's rule entries against tools.lint.

    Every rule shipped by ``tools.lint.rules.ALL_RULES`` must have a
    ``**RLxxx`` entry in the "Static invariants" section, and every
    documented code must correspond to a shipped rule.
    """
    architecture = root / "docs" / "ARCHITECTURE.md"
    if not architecture.is_file():
        return []
    text = architecture.read_text(encoding="utf-8")
    problems = []
    if "Static invariants" not in text:
        return ["docs/ARCHITECTURE.md: missing the 'Static invariants' section"]
    documented = set(RULE_ENTRY_PATTERN.findall(text))
    sys.path.insert(0, str(root))
    try:
        from tools.lint.rules import ALL_RULES
    finally:
        sys.path.pop(0)
    shipped = {rule.code for rule in ALL_RULES}
    for code in sorted(shipped - documented):
        problems.append(
            f"docs/ARCHITECTURE.md: repro-lint rule {code} is shipped but has no "
            "entry in the 'Static invariants' section"
        )
    for code in sorted(documented - shipped):
        problems.append(
            f"docs/ARCHITECTURE.md: 'Static invariants' documents {code}, which "
            "tools.lint does not ship"
        )
    return problems


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    files = collect_markdown_files(root)
    problems = []
    for path in files:
        problems.extend(check_file(path, root))
    problems.extend(check_references(root))
    problems.extend(check_static_invariants_section(root))
    print(f"checked {len(files)} markdown file(s)")
    if problems:
        for problem in problems:
            print(f"  BROKEN: {problem}")
        return 1
    print("all relative links and repro references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
