"""Property: resumed ETags are the tags a full render produces, bit for bit.

``etag_for_version`` memoises the FNV-1a state after the canonical JSON's
fixed prefix (``{"c":…,"id":…,"v":`` per ``(collection, id)``) and hashes
only the version digits and the closing brace.  The reference is the public,
unmemoised ``etag_for`` over the full payload: any collection or id text
(non-ASCII, quotes, backslashes, control characters -- whatever JSON has to
escape), any integer version, and the non-``int`` versions that must fall
back to the full render.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.rest.etags import etag_for, etag_for_version

TEXT = st.text(max_size=12)
VERSIONS = st.integers(min_value=-(2**70), max_value=2**70)
ODD_VERSIONS = st.one_of(st.booleans(), st.none(), st.floats(allow_nan=False), TEXT)


@settings(max_examples=300, deadline=None)
@given(collection=TEXT, document_id=TEXT, versions=st.lists(VERSIONS, min_size=1, max_size=4))
def test_record_tags_resume_to_the_full_render(collection, document_id, versions):
    for version in versions:  # the first is a prefix miss, the rest resume
        assert etag_for_version(collection, document_id, version) == etag_for(
            {"c": collection, "id": document_id, "v": version}
        )


@settings(max_examples=100, deadline=None)
@given(collection=TEXT, document_id=TEXT, version=ODD_VERSIONS)
def test_non_integer_versions_fall_back_to_the_full_render(collection, document_id, version):
    # A fresh id per type: lru_cache keys 1, 1.0 and True alike.
    document_id = f"{type(version).__name__}:{document_id}"
    assert etag_for_version(collection, document_id, version) == etag_for(
        {"c": collection, "id": document_id, "v": version}
    )
