"""The function census gate's verdict (``scripts/unused_functions.py``), on a
synthetic module and seen-set -- the census itself is not run here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "unused_functions.py"

MODULE = '''
import abc
from typing import Protocol


def reached():
    pass


def forgotten():
    return 1


class Widget:
    def __repr__(self):
        return "Widget()"

    def spare(self):
        def helper():
            pass
        return helper


class Shape(abc.ABC):
    @abc.abstractmethod
    def area(self):
        """Each shape computes its own."""


class Sized(Protocol):
    def size(self) -> int:
        ...
'''


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("unused_functions", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def verdict(census, reached, allowlist):
    return census.classify({"repro.toy": census.defs(MODULE)}, reached, allowlist)


def test_an_unlisted_uncalled_def_fails(census):
    unlisted, stale = verdict(census, {"repro.toy:reached"}, {})
    assert [target for target, _lines in unlisted] == [
        "repro.toy:forgotten", "repro.toy:Widget.spare", "repro.toy:Widget.spare.helper",
    ]
    assert stale == []


@pytest.mark.parametrize(
    "allowlist",
    [
        {"repro.toy:forgotten": "safety", "repro.toy:Widget.spare": "producer"},
        {"repro.toy:forgotten": "safety", "repro.toy:Widget": "producer"},
        {"repro.toy": "language"},
    ],
)
def test_an_allowlisted_def_passes(census, allowlist):
    # A def entry covers its nested defs, a class entry its methods, a
    # module entry every def in it.
    assert verdict(census, {"repro.toy:reached"}, allowlist) == ([], [])


def test_a_stale_entry_fails_when_its_def_is_now_reached(census):
    reached = {"repro.toy:reached", "repro.toy:forgotten"}
    allowlist = {"repro.toy:forgotten": "safety", "repro.toy:Widget": "producer"}
    assert verdict(census, reached, allowlist) == ([], ["repro.toy:forgotten"])


def test_a_stale_entry_fails_when_its_def_no_longer_exists(census):
    allowlist = {
        "repro.toy:forgotten": "safety",
        "repro.toy:Widget": "producer",
        "repro.toy:deleted": "bench",
        "repro.gone": "language",
    }
    assert verdict(census, {"repro.toy:reached"}, allowlist) == (
        [], ["repro.toy:deleted", "repro.gone"]
    )


def test_dunders_and_declarations_are_exempt(census):
    # Nothing reached and nothing allowlisted: the dunder, the abstract
    # method and the Protocol member still never appear.
    unlisted, _stale = verdict(census, set(), {})
    assert {target for target, _lines in unlisted} == {
        "repro.toy:reached", "repro.toy:forgotten",
        "repro.toy:Widget.spare", "repro.toy:Widget.spare.helper",
    }
    exempt = {name for name, _first, _lines, exempt in census.defs(MODULE) if exempt}
    assert exempt == {"Widget.__repr__", "Shape.area", "Sized.size"}


@pytest.mark.parametrize(
    "line",
    ["repro.toy:forgotten", "repro.toy:forgotten because", "repro.toy:forgotten safety extra"],
)
def test_an_entry_needs_exactly_one_known_reason(census, line):
    with pytest.raises(SystemExit):
        census.read_allowlist(line)


def test_the_committed_allowlist_parses(census):
    entries = census.read_allowlist(census.ALLOWLIST.read_text())
    assert 0 < len(entries) <= 40
    assert set(entries.values()) <= set(census.REASONS)


@pytest.mark.parametrize("reason", ["bench", "producer", "safety", "language"])
def test_every_reason_of_the_closed_set_is_accepted(census, reason):
    assert census.read_allowlist(f"repro.toy:forgotten {reason}") == {
        "repro.toy:forgotten": reason
    }


def test_the_retired_worker_reason_is_rejected(census):
    # Nothing runs only in spawned workers any more: every pooled job also
    # runs in process, where the census sees it.
    assert "worker" not in census.REASONS
    with pytest.raises(SystemExit):
        census.read_allowlist("repro.toy:forgotten worker")


def test_comments_and_blank_lines_are_ignored(census):
    text = "# header\n\nrepro.toy:forgotten safety  # why it stays\n   \n# trailer\n"
    assert census.read_allowlist(text) == {"repro.toy:forgotten": "safety"}


def test_a_target_listed_twice_is_rejected(census):
    with pytest.raises(SystemExit):
        census.read_allowlist("repro.toy:forgotten safety\nrepro.toy:forgotten bench\n")


def test_a_module_entry_covers_no_module_that_merely_shares_its_prefix(census):
    modules = {
        "repro.toy": census.defs("def forgotten():\n    pass\n"),
        "repro.toy_extra": census.defs("def spare():\n    pass\n"),
    }
    unlisted, stale = census.classify(modules, set(), {"repro.toy": "language"})
    assert [target for target, _lines in unlisted] == ["repro.toy_extra:spare"]
    assert stale == []


def test_a_class_entry_covers_no_sibling_that_merely_shares_its_prefix(census):
    unlisted, stale = verdict(
        census, {"repro.toy:reached", "repro.toy:forgotten"}, {"repro.toy:Widg": "producer"}
    )
    assert [target for target, _lines in unlisted] == [
        "repro.toy:Widget.spare", "repro.toy:Widget.spare.helper",
    ]
    assert stale == ["repro.toy:Widg"]


def test_a_class_entry_goes_stale_once_every_method_is_reached(census):
    reached = {
        "repro.toy:reached", "repro.toy:forgotten",
        "repro.toy:Widget.spare", "repro.toy:Widget.spare.helper",
    }
    assert verdict(census, reached, {"repro.toy:Widget": "producer"}) == (
        [], ["repro.toy:Widget"]
    )


def test_a_decorated_def_starts_at_its_first_decorator(census):
    source = "import functools\n\n\n@functools.lru_cache()\n@staticmethod\ndef cached():\n    pass\n"
    [(name, first, lines, exempt)] = census.defs(source)
    # cProfile reports a decorated function at its first decorator's line.
    assert (name, first, lines, exempt) == ("cached", 4, 2, False)


def test_body_lines_count_the_whole_def(census):
    source = "def long():\n    a = 1\n    b = 2\n\n    return a + b\n"
    assert census.defs(source) == [("long", 1, 5, False)]


def test_defs_inside_functions_and_async_defs_are_qualified(census):
    source = (
        "def outer():\n"
        "    class Local:\n"
        "        def method(self):\n"
        "            pass\n"
        "    return Local\n"
        "\n"
        "\n"
        "async def fetch():\n"
        "    pass\n"
    )
    assert [name for name, _first, _lines, _exempt in census.defs(source)] == [
        "outer", "outer.Local.method", "fetch",
    ]


def test_every_pin_test_the_census_runs_exists(census):
    for pin in census.PIN_TESTS:
        path, _, node = pin.partition("::")
        source = (census.ROOT / path).read_text()
        assert not node or f"class {node}" in source, pin


def test_the_defs_only_the_pins_reach_are_listed_sorted(census):
    entered = {
        census.PINS: {"repro.toy:Widget.spare", "repro.toy:reached", "repro.toy:forgotten"},
        "benchmark workloads (smoke)": {"repro.toy:reached"},
        "FAST_EXAMPLES": set(),
    }
    assert census.reached_only_by(entered, census.PINS) == [
        "repro.toy:Widget.spare",
        "repro.toy:forgotten",
    ]
    assert census.reached_only_by({"FAST_EXAMPLES": {"repro.toy:reached"}}, census.PINS) == []


def test_pin_machinery_is_listed_apart_from_the_pins_only_count(census):
    machinery = sorted(census.PIN_MACHINERY)
    entered = {
        census.PINS: {"repro.toy:forgotten", *machinery},
        "benchmark workloads (smoke)": {"repro.toy:reached"},
    }
    assert census.pins_only(entered) == (["repro.toy:forgotten"], machinery)


def test_every_pin_machinery_entry_names_a_def_under_src(census):
    for target in census.PIN_MACHINERY:
        module, _, name = target.partition(":")
        path = census.SOURCE.parent.joinpath(*module.split(".")).with_suffix(".py")
        assert name in {found for found, *_rest in census.defs(path.read_text())}, target


def test_the_census_fails_above_the_pins_only_ceiling(census):
    at_ceiling = [f"repro.toy:def{index}" for index in range(census.PINS_ONLY_CEILING)]
    assert not census.over_ceiling(at_ceiling)
    assert census.over_ceiling(at_ceiling + ["repro.toy:one_more"])


def test_the_pins_only_ceiling_is_never_raised(census):
    # The ceiling only falls: lower this bound with it.
    assert census.PINS_ONLY_CEILING <= 15
