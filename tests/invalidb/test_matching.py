"""Tests for per-query match-state tracking (add/change/remove notifications)."""

from __future__ import annotations

import pytest

from repro.db.changestream import ChangeEvent, OperationType
from repro.db.query import Query
from repro.invalidb import NotificationType, QueryMatchState


def make_event(
    sequence: int,
    document_id: str,
    after: dict | None,
    before: dict | None = None,
    operation: OperationType = OperationType.UPDATE,
    collection: str = "posts",
) -> ChangeEvent:
    return ChangeEvent(
        sequence=sequence,
        operation=operation,
        collection=collection,
        document_id=document_id,
        before=before,
        after=after,
        timestamp=float(sequence),
    )


@pytest.fixture
def tag_query_state() -> QueryMatchState:
    """The paper's Figure 5 query: posts tagged 'example'."""
    state = QueryMatchState(Query("posts", {"tags": "example"}))
    state.initialize([])
    return state


class TestFigure5Lifecycle:
    """Reproduces the notification sequence of Figure 5 in the paper."""

    def test_add_change_remove_sequence(self, tag_query_state):
        # 1. New untagged post: no notification.
        untagged = {"_id": "p1", "tags": []}
        assert tag_query_state.process(
            make_event(1, "p1", untagged, operation=OperationType.INSERT)
        ) == []

        # 2. The 'example' tag is added: the post enters the result set.
        tagged = {"_id": "p1", "tags": ["example"]}
        notifications = tag_query_state.process(make_event(2, "p1", tagged, before=untagged))
        assert [n.type for n in notifications] == [NotificationType.ADD]

        # 3. Another tag is added: the match status is unchanged -> change event.
        both = {"_id": "p1", "tags": ["example", "music"]}
        notifications = tag_query_state.process(make_event(3, "p1", both, before=tagged))
        assert [n.type for n in notifications] == [NotificationType.CHANGE]

        # 4. The 'example' tag is removed: the post leaves the result set.
        music_only = {"_id": "p1", "tags": ["music"]}
        notifications = tag_query_state.process(make_event(4, "p1", music_only, before=both))
        assert [n.type for n in notifications] == [NotificationType.REMOVE]


class TestStatelessMatching:
    def test_initial_result_seeds_matching_state(self):
        state = QueryMatchState(Query("posts", {"tags": "example"}))
        state.initialize([{"_id": "p1", "tags": ["example"]}])
        # An update keeping the match produces a change, not an add.
        notifications = state.process(
            make_event(1, "p1", {"_id": "p1", "tags": ["example"], "views": 2},
                       before={"_id": "p1", "tags": ["example"]})
        )
        assert [n.type for n in notifications] == [NotificationType.CHANGE]

    def test_delete_of_matching_document_is_remove(self, tag_query_state):
        tag_query_state.process(make_event(1, "p1", {"_id": "p1", "tags": ["example"]}))
        notifications = tag_query_state.process(
            make_event(2, "p1", None, operation=OperationType.DELETE)
        )
        assert [n.type for n in notifications] == [NotificationType.REMOVE]

    def test_delete_of_non_matching_document_is_silent(self, tag_query_state):
        assert tag_query_state.process(
            make_event(1, "p9", None, operation=OperationType.DELETE)
        ) == []

    def test_update_without_content_change_is_silent(self, tag_query_state):
        document = {"_id": "p1", "tags": ["example"]}
        tag_query_state.process(make_event(1, "p1", document))
        assert tag_query_state.process(make_event(2, "p1", dict(document), before=dict(document))) == []

    def test_other_collection_is_ignored(self, tag_query_state):
        assert tag_query_state.process(
            make_event(1, "u1", {"_id": "u1", "tags": ["example"]}, collection="users")
        ) == []

    def test_member_filter_restricts_responsibility(self):
        state = QueryMatchState(
            Query("posts", {"tags": "example"}),
            member_filter=lambda document_id: document_id.endswith("0"),
        )
        state.initialize([])
        handled = state.process(make_event(1, "p0", {"_id": "p0", "tags": ["example"]}))
        ignored = state.process(make_event(2, "p1", {"_id": "p1", "tags": ["example"]}))
        assert [n.type for n in handled] == [NotificationType.ADD]
        assert ignored == []

    def test_notifications_carry_query_and_document(self, tag_query_state):
        notifications = tag_query_state.process(
            make_event(7, "p3", {"_id": "p3", "tags": ["example"]})
        )
        notification = notifications[0]
        assert notification.document_id == "p3"
        assert notification.query_key == tag_query_state.query_key
        assert notification.timestamp == 7.0

    def test_matching_ids_tracks_membership(self, tag_query_state):
        tag_query_state.process(make_event(1, "p1", {"_id": "p1", "tags": ["example"]}))
        tag_query_state.process(make_event(2, "p2", {"_id": "p2", "tags": ["example"]}))
        tag_query_state.process(make_event(3, "p1", {"_id": "p1", "tags": []}))
        assert tag_query_state._matching_ids == {"p2"}


class TestNotificationSemantics:
    def test_change_does_not_invalidate_id_lists(self, tag_query_state):
        tag_query_state.process(make_event(1, "p1", {"_id": "p1", "tags": ["example"]}))
        notifications = tag_query_state.process(
            make_event(2, "p1", {"_id": "p1", "tags": ["example"], "views": 5},
                       before={"_id": "p1", "tags": ["example"]})
        )
        change = notifications[0]
        assert change.type is NotificationType.CHANGE
        assert not change.invalidates_id_list()

    def test_membership_changes_invalidate_id_lists(self, tag_query_state):
        notifications = tag_query_state.process(
            make_event(1, "p1", {"_id": "p1", "tags": ["example"]})
        )
        add = notifications[0]
        assert add.invalidates_id_list()
