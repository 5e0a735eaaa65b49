"""Tests for Etags and the request/response model."""

from __future__ import annotations

from repro.rest import CacheControl, Request, Response, StatusCode, etag_for, weak_compare
from repro.rest.etags import etag_for_result, etag_for_version


class TestEtags:
    def test_same_payload_same_etag(self):
        assert etag_for({"a": 1, "b": 2}) == etag_for({"b": 2, "a": 1})

    def test_different_payload_different_etag(self):
        assert etag_for({"a": 1}) != etag_for({"a": 2})

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
            etag_for({"a": 1}),
            etag_for_version("posts", "p1", 3),
            etag_for_result({"p2": 7, "p1": 3}),
        ]
        for tag in tags:
            assert len(tag) == 18 and tag[0] == tag[-1] == '"'
            assert int(tag[1:-1], 16) >= 0
        assert len(set(tags)) == 3
        assert etag_for_result({"p1": 3, "p2": 7}) == tags[2]

    def test_result_etag_changes_with_membership_and_versions(self):
        base = etag_for_result({"p1": 1, "p2": 1})
        assert etag_for_result({"p1": 1, "p2": 2}) != base
        assert etag_for_result({"p1": 1}) != base

    def test_weak_compare_ignores_weak_prefix(self):
        strong = etag_for({"a": 1})
        assert weak_compare(strong, "W/" + strong)
        assert not weak_compare(strong, etag_for({"a": 2}))

    def test_weak_compare_strips_the_prefix_not_its_characters(self):
        assert weak_compare('W/"x"', 'W/"x"')
        assert not weak_compare('/"x"', '"x"')
        assert not weak_compare('WW/"x"', '"x"')
        assert not weak_compare('W/W/"x"', '"x"')


class TestRequest:
    def test_is_read(self):
        assert Request("GET", "/db/posts/p1").is_read
        assert Request("HEAD", "/db/posts/p1").is_read
        assert not Request("PUT", "/db/posts/p1").is_read

    def test_method_normalised_once_at_construction(self):
        """Lower-case methods are upper-cased by __post_init__, so is_read is
        a plain membership test (no .upper() per access)."""
        request = Request("get", "/db/posts/p1")
        assert request.method == "GET"
        assert request.is_read
        assert Request("head", "/db/posts/p1").is_read
        assert not Request("put", "/db/posts/p1").is_read
        assert Request("delete", "/db/posts/p1").method == "DELETE"

    def test_with_revalidation_adds_header(self):
        request = Request("GET", "/db/posts/p1")
        conditional = request.with_revalidation('"abc"')
        assert conditional.if_none_match == '"abc"'
        assert request.if_none_match is None  # original untouched

    def test_with_revalidation_preserves_existing_headers(self):
        request = Request("GET", "/db/posts/p1", headers={"Accept": "application/json"})
        conditional = request.with_revalidation('"abc"')
        assert conditional.headers == {"Accept": "application/json", "If-None-Match": '"abc"'}
        assert request.headers == {"Accept": "application/json"}  # no aliasing
        conditional.headers["X"] = "y"
        assert "X" not in request.headers


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

    def test_not_modified_response(self):
        response = Response.not_modified_response('"etag"', ttl=10.0)
        assert response.not_modified
        assert response.body is None
        assert response.etag == '"etag"'
