"""Tests for stateful query matching (ORDER BY / LIMIT / OFFSET)."""

from __future__ import annotations

import pytest

from repro.db.changestream import ChangeEvent, OperationType
from repro.db.query import Query
from repro.invalidb import NotificationType, QueryMatchState
from repro.invalidb.stateful import OrderedResultState, window_diff


def make_event(sequence: int, document_id: str, after: dict | None, before: dict | None = None):
    return ChangeEvent(
        sequence=sequence,
        operation=OperationType.UPDATE if after is not None else OperationType.DELETE,
        collection="posts",
        document_id=document_id,
        before=before,
        after=after,
        timestamp=float(sequence),
    )


def doc(document_id: str, views: int) -> dict:
    return {"_id": document_id, "views": views, "tags": ["example"]}


class TestOrderedResultState:
    def test_window_respects_sort_limit_offset(self):
        query = Query("posts", {}, sort=[("views", -1)], limit=2, offset=1)
        state = OrderedResultState(query)
        state.initialize([doc("a", 10), doc("b", 30), doc("c", 20), doc("d", 5)])
        # Full order: b(30), c(20), a(10), d(5); offset 1, limit 2 -> [c, a]
        assert state.window_ids() == ["c", "a"]
        assert state._ordered_ids == ["b", "c", "a", "d"]

    def test_apply_match_reorders(self):
        query = Query("posts", {}, sort=[("views", -1)], limit=2)
        state = OrderedResultState(query)
        state.initialize([doc("a", 10), doc("b", 30)])
        state.apply_match("c", doc("c", 50))
        assert state.window_ids() == ["c", "b"]

    def test_apply_unmatch_removes(self):
        query = Query("posts", {}, sort=[("views", -1)])
        state = OrderedResultState(query)
        state.initialize([doc("a", 10), doc("b", 30)])
        state.apply_unmatch("b")
        assert state.window_ids() == ["a"]
        assert "b" not in state._documents


class TestWindowDiff:
    def test_entered_left_moved(self):
        entered, left, moved = window_diff(["a", "b", "c"], ["b", "a", "d"])
        assert entered == ["d"]
        assert left == ["c"]
        assert ("a", 1) in moved and ("b", 0) in moved

    def test_identical_windows(self):
        assert window_diff(["a"], ["a"]) == ([], [], [])


class TestStatefulQueryMatchState:
    @pytest.fixture
    def top2_state(self) -> QueryMatchState:
        """Top-2 posts by views (a stateful query)."""
        query = Query("posts", {"tags": "example"}, sort=[("views", -1)], limit=2)
        state = QueryMatchState(query)
        state.initialize([doc("a", 10), doc("b", 30), doc("c", 20)])
        return state

    def test_initial_window(self, top2_state):
        assert top2_state._ordered.window_ids() == ["b", "c"]

    def test_new_top_document_displaces_last(self, top2_state):
        notifications = top2_state.process(make_event(1, "d", doc("d", 100)))
        types = sorted(n.type for n in notifications)
        # 'd' enters the window, 'c' leaves it, 'b' shifts position.
        assert NotificationType.ADD in types
        assert NotificationType.REMOVE in types
        assert NotificationType.CHANGE_INDEX in types
        assert top2_state._ordered.window_ids() == ["d", "b"]

    def test_update_outside_window_is_silent(self, top2_state):
        # 'a' has 10 views; bumping it to 15 keeps it outside the top 2.
        notifications = top2_state.process(make_event(1, "a", doc("a", 15), before=doc("a", 10)))
        assert notifications == []
        assert top2_state._ordered.window_ids() == ["b", "c"]

    def test_update_inside_window_without_reorder_is_change(self, top2_state):
        updated = dict(doc("b", 30), title="edited")
        notifications = top2_state.process(make_event(1, "b", updated, before=doc("b", 30)))
        assert [n.type for n in notifications] == [NotificationType.CHANGE]

    def test_unmatching_window_member_promotes_next(self, top2_state):
        # 'b' loses the 'example' tag and leaves; 'a' moves into the window.
        no_tag = {"_id": "b", "views": 30, "tags": []}
        notifications = top2_state.process(make_event(1, "b", no_tag, before=doc("b", 30)))
        types = [n.type for n in notifications]
        assert NotificationType.REMOVE in types
        assert NotificationType.ADD in types  # 'a' enters
        assert top2_state._ordered.window_ids() == ["c", "a"]

    def test_change_index_carries_new_position(self, top2_state):
        notifications = top2_state.process(make_event(1, "c", doc("c", 99), before=doc("c", 20)))
        index_changes = [n for n in notifications if n.type is NotificationType.CHANGE_INDEX]
        assert index_changes and index_changes[0].new_index is not None
