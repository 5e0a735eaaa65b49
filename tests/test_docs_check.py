"""``scripts/docs_check.py``'s ``Class.member`` resolver, on a synthetic tree.

Each case writes a small ``src/repro`` package and a ``README.md`` under a
temporary root and points the checker at it; the last case runs the checker
on the committed docs.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "docs_check.py"

SOURCE = '''
from dataclasses import dataclass
from typing import NamedTuple


class Base:
    def inherited(self):
        pass


class Widget(Base):
    LIMIT = 3

    def __init__(self):
        self.gear = 0

    def spin(self, times):
        self.turns = times


@dataclass
class Spec:
    size: int = 1


class Point(NamedTuple):
    x: float
'''


@pytest.fixture(scope="module")
def docs_check():
    spec = importlib.util.spec_from_file_location("docs_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tree(tmp_path, monkeypatch, docs_check):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "toy.py").write_text(SOURCE)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "architecture.md").write_text("")
    monkeypatch.setattr(docs_check, "REPO_ROOT", tmp_path)

    def broken(readme: str):
        (tmp_path / "README.md").write_text(readme)
        return [(line, reference) for _path, line, reference in docs_check.check_class_members()]

    return broken


@pytest.mark.parametrize(
    "reference",
    [
        "Widget.spin",  # a method
        "Widget.LIMIT",  # a class attribute
        "Spec.size",  # a dataclass field
        "Widget.gear",  # a self.<name> assignment in __init__
        "Widget.turns",  # a self.<name> assignment in another method
        "Widget.inherited",  # defined on a src/repro base
        "Point._replace",  # what every NamedTuple inherits
        "Widget.spin(3)",  # a call spelling names the same member
    ],
)
def test_a_defined_member_resolves(tree, reference):
    assert tree(f"Use `{reference}` here.\n") == []


def test_an_undefined_member_is_reported_with_its_line(tree):
    assert tree("intro\n\n`Widget.spin` and `Widget.cancel`\n") == [(3, "Widget.cancel")]


def test_a_member_of_a_base_does_not_resolve_on_an_unrelated_class(tree):
    assert tree("`Spec.inherited`\n") == [(1, "Spec.inherited")]


def test_a_class_defined_outside_src_is_not_checked(tree):
    assert tree("`Path.exists` and `Counter.most_common`\n") == []


def test_spans_that_are_not_class_member_references_are_ignored(tree):
    # Lower-case receivers, module paths and bare names never match.
    assert tree("`widget.cancel`, `repro.toy`, `Widget`, `Widget.spin.x`\n") == []


def test_the_committed_docs_resolve(docs_check):
    assert docs_check.check_class_members() == []
