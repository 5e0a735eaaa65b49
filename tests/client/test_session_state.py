"""Tests for the client-side session state, whitelist and freshness policy."""

from __future__ import annotations

import pytest

from repro.client import ClientSession, DifferentialWhitelist, FreshnessPolicy


class TestDifferentialWhitelist:
    def test_added_keys_are_fresh(self):
        whitelist = DifferentialWhitelist()
        whitelist.add("query:q")
        assert "query:q" in whitelist
        assert "query:other" not in whitelist

    def test_reset_clears_everything(self):
        whitelist = DifferentialWhitelist()
        whitelist.add("a")
        whitelist.add("b")
        whitelist.reset()
        assert len(whitelist) == 0
        assert "a" not in whitelist

    def test_adding_a_key_twice_keeps_one_entry(self):
        whitelist = DifferentialWhitelist()
        whitelist.add("a")
        whitelist.add("a")
        assert "a" in whitelist
        assert len(whitelist) == 1


class TestClientSession:
    def test_observe_read_tracks_highest_version(self):
        session = ClientSession()
        session.observe_read("record:posts/p1", 1, {"_id": "p1", "v": 1})
        session.observe_read("record:posts/p1", 3, {"_id": "p1", "v": 3})
        session.observe_read("record:posts/p1", 2, {"_id": "p1", "v": 2})
        assert session._seen_versions.get("record:posts/p1") == 3

    def test_observe_read_refuses_a_regression(self):
        session = ClientSession()
        assert session.observe_read("key", 1, {"v": 1})
        assert session.observe_read("key", 5, {"v": 5})
        assert session.observe_read("key", 5, {"v": 5})
        # An older version records nothing: the newest copy stays the fallback.
        assert not session.observe_read("key", 4, {"v": 4})
        assert session._seen_versions.get("key") == 5
        assert session.monotonic_fallback("key") == (5, {"v": 5})

    def test_monotonic_fallback_returns_newest_copy(self):
        session = ClientSession()
        session.observe_read("key", 2, {"_id": "x", "value": "new"})
        fallback = session.monotonic_fallback("key")
        assert fallback == (2, {"_id": "x", "value": "new"})
        assert session.monotonic_violations_prevented == 1

    def test_monotonic_fallback_unknown_key(self):
        assert ClientSession().monotonic_fallback("unknown") is None

    def test_same_version_reobservation_keeps_the_latest_reference(self):
        """No same-version special case: each observation at the highest
        version is stored as is (a version pins one content, so it is the
        same content either way)."""
        session = ClientSession()
        first, second = {"_id": "x", "value": "v2"}, {"_id": "x", "value": "v2"}
        session.observe_read("key", 2, first)
        session.observe_read("key", 2, second)
        assert session.monotonic_fallback("key")[1] is second

    def test_fallback_documents_are_disjoint_from_session_state(self):
        """Sessions hold and hand out stored snapshots by reference -- and what
        the SDK feeds them is the database's copy, never the caller's dict."""
        session = ClientSession()
        snapshot = {"_id": "x", "value": "v2"}
        session.observe_read("key", 2, snapshot)
        assert session.monotonic_fallback("key")[1] is snapshot
        assert session.monotonic_fallback("key")[1] is snapshot

    def test_none_snapshot_does_not_mask_a_real_document_at_same_version(self):
        """The same-version skip must store what the legacy path would: a
        falsy observation followed by a real document at the same version."""
        session = ClientSession()
        session.observe_read("key", 5, None)
        session.observe_read("key", 5, {"_id": "x", "value": "real"})
        assert session.monotonic_fallback("key") == (5, {"_id": "x", "value": "real"})

    def test_version_zero_sentinel_never_pins_content(self):
        """Version 0 is the 'unknown version' sentinel (missing
        record_versions); re-observations at 0 must keep re-storing, exactly
        like the legacy path."""
        session = ClientSession()
        session.observe_read("key", 0, {"_id": "x", "value": "first"})
        session.observe_read("key", 0, {"_id": "x", "value": "second"})
        assert session.monotonic_fallback("key") == (0, {"_id": "x", "value": "second"})

    def test_own_writes_recorded(self, deployment):
        """An acknowledged own write is the session's newest seen version:
        the monotonic fallback answers it, and an older version is refused."""
        session = deployment["client"].session
        deployment["client"].insert("posts", {"_id": "x"})
        deployment["client"].update("posts", "x", {"$set": {"v": 4}})
        assert session.monotonic_fallback("record:posts/x") == (2, {"_id": "x", "v": 4})
        assert not session.observe_read("record:posts/x", 1, {"_id": "x"})

    def test_own_write_copies_document(self, deployment):
        """Ingress isolation end to end: the session's own-write snapshot is the
        stored version, so the caller editing its dict afterwards changes
        neither the database nor the session."""
        client, database = deployment["client"], deployment["database"]
        document = {"_id": "fresh", "tags": ["a"]}
        client.insert("posts", document)
        document["tags"].append("b")
        version, remembered = client.session.monotonic_fallback("record:posts/fresh")
        assert (version, remembered) == (1, {"_id": "fresh", "tags": ["a"]})
        assert remembered is database.collection("posts").get("fresh")

        update = {"$set": {"meta": {"k": ["v"]}}}
        client.update("posts", "fresh", update)
        update["$set"]["meta"]["k"].append("edited")
        version, remembered = client.session.monotonic_fallback("record:posts/fresh")
        assert (version, remembered["meta"]) == (2, {"k": ["v"]})
        assert remembered is database.collection("posts").get("fresh")


class TestFreshnessPolicy:
    def test_needs_refresh_initially(self):
        policy = FreshnessPolicy(refresh_interval=10.0)
        assert policy.needs_refresh(0.0)

    def test_refresh_cycle(self):
        policy = FreshnessPolicy(refresh_interval=10.0)
        policy.mark_refreshed(100.0)
        assert not policy.needs_refresh(105.0)
        assert policy.needs_refresh(110.0)

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            FreshnessPolicy(refresh_interval=0.0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_a_non_finite_interval_is_rejected(self, interval):
        # Either one never comes due: refreshes stop, staleness is unbounded.
        with pytest.raises(ValueError, match="finite"):
            FreshnessPolicy(refresh_interval=interval)
