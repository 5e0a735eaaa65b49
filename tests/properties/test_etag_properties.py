"""Properties of the digest tags: injective, order-free, change-sensitive.

A tag is a ``blake2b`` digest over an *injective* text of what it names
(``ascii()`` of the identifying tuples, see :mod:`repro.rest.etags`), so two
tags can only be equal when the 64-bit digest itself collides.  What a naive
rendering gets wrong is the text: joining fields with a separator lets id
text that contains the separator run into its neighbour.  The generators
below therefore *move* text across the field boundaries -- the same
characters, cut at two different places -- over an alphabet rich in every
character the rendering uses as punctuation, plus whatever else Unicode
offers (non-ASCII, control characters, lone surrogates).
"""

from __future__ import annotations

import re

from hypothesis import assume, given, settings, strategies as st

from repro.rest.etags import etag_for_result, etag_for_version

PUNCTUATION = "'\"\\,:;()[]{} /|\x00"
HOSTILE = st.text(
    alphabet=st.one_of(
        st.sampled_from(PUNCTUATION + "0123456789-."),
        st.characters(blacklist_categories=()),  # everything, lone surrogates included
    ),
    max_size=10,
)
VERSIONS = st.integers(min_value=-(2**70), max_value=2**70)
ODD_VERSIONS = st.one_of(st.booleans(), st.none(), st.floats(allow_nan=False), HOSTILE)
TAG_SHAPE = re.compile(r'"[0-9a-f]{16}"\Z')


def test_the_generated_cuts_defeat_a_separator_join():
    """Vacuity check: a rendering that joins the fields with a separator
    collides on exactly the inputs the cut tests generate."""

    def joined(collection, document_id, version):
        return f"{collection}/{document_id}@{version}"

    assert joined("a/b", "c", 1) == joined("a", "b/c", 1)
    assert etag_for_version("a/b", "c", 1) != etag_for_version("a", "b/c", 1)
    assert joined("a", "d@1", 3) == joined("a", "d", "1@3")
    assert etag_for_version("a", "d@1", 3) != etag_for_version("a", "d", "1@3")


@settings(max_examples=300, deadline=None)
@given(text=HOSTILE, cuts=st.tuples(st.integers(0, 10), st.integers(0, 10)), version=VERSIONS)
def test_record_tags_tell_apart_the_same_text_cut_at_different_places(text, cuts, version):
    first, second = (min(cut, len(text)) for cut in cuts)
    assume(first != second)
    assert etag_for_version(text[:first], text[first:], version) != etag_for_version(
        text[:second], text[second:], version
    )


@settings(max_examples=300, deadline=None)
@given(collection=HOSTILE, document_id=HOSTILE, digits=st.text("0123456789", min_size=2, max_size=6))
def test_record_tags_tell_an_id_from_its_version(collection, document_id, digits):
    """``d1`` at version 23 is not ``d12`` at version 3."""
    shorter = etag_for_version(collection, document_id + digits[:1], int("1" + digits[1:]))
    longer = etag_for_version(collection, document_id + digits[:1] + "1", int(digits[1:]))
    assert shorter != longer


@settings(max_examples=300, deadline=None)
@given(
    first=st.tuples(HOSTILE, HOSTILE, VERSIONS), second=st.tuples(HOSTILE, HOSTILE, VERSIONS)
)
def test_distinct_records_or_versions_get_distinct_tags(first, second):
    assume(first != second)
    assert etag_for_version(*first) != etag_for_version(*second)
    assert TAG_SHAPE.match(etag_for_version(*first))


@settings(max_examples=100, deadline=None)
@given(collection=HOSTILE, document_id=HOSTILE, version=ODD_VERSIONS)
def test_versions_that_are_not_ints_are_still_tagged(collection, document_id, version):
    # A fresh id per type: the record-tag memo keys 1, 1.0 and True alike.
    document_id = f"{type(version).__name__}:{document_id}"
    tag = etag_for_version(collection, document_id, version)
    assert TAG_SHAPE.match(tag)
    assert tag == etag_for_version(collection, document_id, version)
    assert tag != etag_for_version(collection, document_id, 7)
    result = etag_for_result({document_id: version, "other": 1})
    assert TAG_SHAPE.match(result)
    assert result != etag_for_result({document_id: 7, "other": 1})


RESULTS = st.dictionaries(HOSTILE, VERSIONS, max_size=6)


@settings(max_examples=300, deadline=None)
@given(versions=RESULTS, seed=st.randoms(use_true_random=False))
def test_result_tags_ignore_the_order_members_arrive_in(versions, seed):
    shuffled = list(versions.items())
    seed.shuffle(shuffled)
    assert etag_for_result(dict(shuffled)) == etag_for_result(versions)
    assert TAG_SHAPE.match(etag_for_result(versions))


@settings(max_examples=300, deadline=None)
@given(first=RESULTS, second=RESULTS)
def test_distinct_results_get_distinct_tags(first, second):
    assume(first != second)
    assert etag_for_result(first) != etag_for_result(second)


@settings(max_examples=300, deadline=None)
@given(versions=RESULTS, member=HOSTILE, version=VERSIONS, bump=st.integers(1, 5))
def test_result_tags_change_with_every_membership_or_version_change(
    versions, member, version, bump
):
    assume(member + "'" not in versions)
    versions = {**versions, member: version}
    tag = etag_for_result(versions)
    without = {key: value for key, value in versions.items() if key != member}
    assert etag_for_result(without) != tag
    assert etag_for_result({**versions, member: version + bump}) != tag
    assert etag_for_result({**versions, member + "'": version}) != tag


@settings(max_examples=300, deadline=None)
@given(text=HOSTILE, cuts=st.tuples(st.integers(0, 10), st.integers(0, 10)), version=VERSIONS)
def test_result_tags_tell_apart_member_ids_cut_at_different_places(text, cuts, version):
    """Two members ``text[:k]`` / ``text[k:]`` -- the same characters in the
    same order whatever ``k`` -- are a different result for every ``k``."""
    first, second = (min(cut, len(text)) for cut in cuts)
    assume(first != second)
    assume(all(text[:cut] != text[cut:] for cut in (first, second)))  # two members each
    tags = {
        etag_for_result({text[:cut]: version, text[cut:]: version}) for cut in (first, second)
    }
    assert len(tags) == 2 or {text[:first], text[first:]} == {text[:second], text[second:]}
