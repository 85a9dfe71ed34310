"""Tests of the docs checker's ``repro.…`` reference resolution."""

from __future__ import annotations

from pathlib import Path

from tools.check_docs_links import check_references, resolves

SRC = Path(__file__).resolve().parents[2] / "src"


def test_references_resolve_statically_against_the_tree() -> None:
    assert resolves("repro.simulation.transport", SRC)
    assert resolves("repro.simulation.transport.Transport.push", SRC)
    assert resolves("repro.simulation.transport.Transport.wasted", SRC)  # set in __init__
    assert resolves("repro.simulation.UniformPartialView.view_size", SRC)  # re-export, base
    assert not resolves("repro.simulation.membership.MembershipView.apply_events", SRC)
    assert not resolves("repro.simulation.no_such_module", SRC)


def test_check_references_reports_only_the_unresolved_one(tmp_path: Path) -> None:
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "links.py").write_text(
        "class Link:\n    def send(self):\n        pass\n", encoding="utf-8"
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("Call `repro.links.Link.send`.\n", encoding="utf-8")
    (tmp_path / "docs" / "GUIDE.md").write_text(
        "Churn once went through `repro.links.Link.apply_events`.\n", encoding="utf-8"
    )
    assert check_references(tmp_path) == [
        "docs/GUIDE.md: unresolved reference repro.links.Link.apply_events"
    ]
