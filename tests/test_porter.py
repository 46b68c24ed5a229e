"""Suffix-stripper reference behavior."""

import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_loops as ref
from tweetdyn import porter

# word -> stem, per the published algorithm (full five-step run)
REFERENCE = {
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    "feed": "feed",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "ending": "end",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "fizzed": "fizz",
    "failing": "fail",
    "filing": "file",
    "happy": "happi",
    "sky": "sky",
    "generalizations": "gener",
    "oscillators": "oscil",
    "operator": "oper",
    "controlling": "control",
    "roll": "roll",
    "adoption": "adopt",
    "adjustment": "adjust",
    "replacement": "replac",
    "dying": "dy",
    "syzygy": "syzygi",
    "conditional": "condit",
    "rational": "ration",
    "effective": "effect",
}


@pytest.mark.parametrize("word,expected", sorted(REFERENCE.items()))
def test_reference_cases(word, expected):
    assert porter.stem(word) == expected


def test_short_words_unchanged():
    for word in ("a", "is", "be", "by", "i"):
        assert porter.stem(word) == word


def test_longest_suffix_wins_within_a_step():
    # "ization" must beat "ation": general-IZE, not *generaliz-ATE
    assert porter.stem("organization") == "organ"
    # eed with measure 0 must not fall through to the ed rule
    assert porter.stem("feed") == "feed"


def test_double_consonant_exceptions():
    # l, s, z are exempt from undoubling after ed/ing stripping
    assert porter.stem("hissing") == "hiss"
    assert porter.stem("fizzing") == "fizz"
    assert porter.stem("falling") == "fall"
    assert porter.stem("hopping") == "hop"


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
def test_stems_stay_lowercase_alpha(word):
    out = porter.stem(word)
    assert out
    assert all(c in string.ascii_lowercase for c in out)
    assert len(out) <= len(word) + 1  # at most one restored 'e'


# The old stemmer in reference_loops sorts its tables on every call and
# classifies letters by recursion; the suffix dispatch and the c/v string
# must give the same stem for every word.


@settings(max_examples=1500)
@given(st.text(alphabet=string.ascii_lowercase + string.digits, max_size=14))
@example("yyyying")
@example("syzygies")
def test_same_stems_as_reference_on_any_word(word):
    assert porter.stem(word) == ref.porter_stem(word)


suffix_words = st.builds(
    lambda lead, body, suffixes: lead + body + "".join(suffixes),
    st.sampled_from(["", "y", "yy", "yyy"]),
    st.text(alphabet="aeiouybcdlnrstz", max_size=6),
    st.lists(st.sampled_from(ref.PORTER_SUFFIXES + ("yy",)), min_size=1, max_size=3),
)


@settings(max_examples=1500)
@given(suffix_words)
def test_same_stems_as_reference_on_suffix_built_words(word):
    assert porter.stem(word) == ref.porter_stem(word)


def test_same_stems_on_every_suffix_after_every_short_stem():
    stems = ["", "y", "yy", "b", "a", "by", "ay", "yb", "hop", "feed", "troubl", "tr", "oat"]
    for stem in stems:
        for suffix in ref.PORTER_SUFFIXES:
            word = stem + suffix
            assert porter.stem(word) == ref.porter_stem(word), word
