"""Tests for Etags and the response model."""

from __future__ import annotations

from repro.rest import CacheControl, Response, StatusCode
from repro.rest.etags import etag_for_result, etag_for_version


class TestEtags:
    def test_version_etag_changes_with_version(self):
        first = etag_for_version("posts", "p1", 1)
        second = etag_for_version("posts", "p1", 2)
        assert first != second

    def test_version_etag_is_scoped_to_record(self):
        assert etag_for_version("posts", "p1", 1) != etag_for_version("posts", "p2", 1)

    def test_tags_share_one_shape_and_results_ignore_mapping_order(self):
        """Every tag is a quoted 16-hex-digit digest (generated cases live in
        ``tests/properties/test_etag_properties.py``)."""
        tags = [
            etag_for_version("posts", "p1", 3),
            etag_for_result({"p2": 7, "p1": 3}),
        ]
        for tag in tags:
            assert len(tag) == 18 and tag[0] == tag[-1] == '"'
            assert int(tag[1:-1], 16) >= 0
        assert len(set(tags)) == 2
        assert etag_for_result({"p1": 3, "p2": 7}) == tags[1]

    def test_result_etag_changes_with_membership_and_versions(self):
        base = etag_for_result({"p1": 1, "p2": 1})
        assert etag_for_result({"p1": 1, "p2": 2}) != base
        assert etag_for_result({"p1": 1}) != base


class TestResponse:
    def test_ok_is_cacheable(self):
        response = Response.ok({"a": 1}, ttl=30.0)
        assert response.is_cacheable
        assert response.ttl_for(shared=False) == 30.0

    def test_ok_with_separate_shared_ttl(self):
        response = Response.ok({"a": 1}, ttl=30.0, shared_ttl=90.0)
        assert response.ttl_for(shared=True) == 90.0

    def test_uncacheable_response(self):
        response = Response.uncacheable({"a": 1})
        assert not response.is_cacheable
        assert response.ttl_for(shared=True) == 0.0

    def test_not_found_is_not_cacheable(self):
        response = Response(
            status=StatusCode.NOT_FOUND, body=None, cache_control=CacheControl.cacheable(30)
        )
        assert not response.is_cacheable
