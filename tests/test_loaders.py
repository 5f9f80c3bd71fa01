"""Hostile input to the JSON loaders: only ``ValueError`` or ``ShrubError``.

Arbitrary text goes into ``GenWord.from_json``; arbitrary JSON values,
non-finite floats included, and shrub-shaped objects with arbitrary parts go
into ``Shrub.from_json_dict`` and ``SignedShrub.from_json_dict``.  Random
valid shrubs go through the JSON, generator-word and fraction-text round
trips.  Texts of the fraction grammar give the same fraction or error
through ``parse_fraction`` as through its general parser alone.
"""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrubs import (
    GenWord,
    Shrub,
    ShrubError,
    SignedShrub,
    decompose,
    evaluate,
    format_fraction,
    fraction_of_shrub,
    parse_fraction,
    reconstruct,
    trivial_shrub,
)
from shrubs.checks import all_shrubs, random_shrub
from shrubs.fraction_parser import _parse_canonical, _parse_general

# what ``json.loads`` can return: floats include inf, -inf and nan
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=6,
)

# labels that mostly exist, so that parsing gets past the first checks
labels = st.integers(1, 4) | st.sampled_from((0, "a", "1"))


def rarely(draw, strategy):
    """``strategy`` 7 times in 8, an arbitrary JSON value otherwise."""
    return draw(json_values if draw(st.integers(0, 7)) == 0 else strategy)


@st.composite
def shrub_dicts(draw):
    """Shrub-shaped objects: heights for the drawn vertices, edges between
    them, and any part (or key) now and then arbitrary or missing."""
    vertices = rarely(draw, st.lists(labels, max_size=5))
    known = vertices if isinstance(vertices, list) and vertices else ["a"]
    pick = st.sampled_from(known)
    height = {str(v): rarely(draw, st.integers(0, 2)) for v in known if isinstance(v, (int, str))}
    edges = rarely(draw, st.lists(st.lists(pick, min_size=2, max_size=2), max_size=5))
    data = {"vertices": vertices, "height": rarely(draw, st.just(height)), "edges": edges}
    if draw(st.integers(0, 7)) == 0:
        del data[draw(st.sampled_from(sorted(data)))]
    return data


signed_dicts = st.fixed_dictionaries(
    {"sign": st.sampled_from((1, -1, 1.0, "1")) | st.floats() | json_values, "shrub": shrub_dicts()}
)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet='{}[]":,CDgenslotarg0123 ', max_size=60) | st.text(max_size=40))
def test_genword_from_json_raises_only_value_or_shrub_errors(text):
    try:
        GenWord.from_json(text)
    except (ValueError, ShrubError):
        pass


@settings(max_examples=200, deadline=None)
@given(shrub_dicts() | json_values)
def test_shrub_from_json_dict_raises_only_value_or_shrub_errors(data):
    try:
        Shrub.from_json_dict(data)
    except (ValueError, ShrubError):
        pass


@settings(max_examples=200, deadline=None)
@given(signed_dicts | json_values)
def test_signed_shrub_from_json_dict_raises_only_value_or_shrub_errors(data):
    try:
        SignedShrub.from_json_dict(data)
    except (ValueError, ShrubError):
        pass


SHRUB = trivial_shrub(1).to_json_dict()


@pytest.mark.parametrize("sign", [math.inf, -math.inf, math.nan, 1.5, -0.5, 0, 2])
def test_signed_shrub_sign_must_be_unit(sign):
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1"):
        SignedShrub.from_json_dict({"sign": sign, "shrub": SHRUB})


# a JSON boolean or string is not a number, though int() reads it
@pytest.mark.parametrize("sign", [True, False, "1", " -1 ", None, [1]])
def test_signed_shrub_sign_must_be_a_number(sign):
    with pytest.raises(ValueError, match=rf"^sign must be \+1 or -1, got {re.escape(repr(sign))}$"):
        SignedShrub.from_json_dict({"sign": sign, "shrub": SHRUB})


@pytest.mark.parametrize("sign, expected", [(1, 1), (-1, -1), (1.0, 1), (-1.0, -1)])
def test_signed_shrub_integral_signs_parse(sign, expected):
    got = SignedShrub.from_json_dict({"sign": sign, "shrub": SHRUB}).sign
    assert got == expected and type(got) is int


# labels the fraction text carries: an int >= 0, or a str of [A-Za-z0-9_□]
# that is not all digits
STR_LABELS = ("a", "Z", "_", "□", "x1", "1a", "0_", "a_b", "□tmp3")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**32), st.sets(st.integers(0, 8)))
def test_valid_shrubs_round_trip(n, seed, as_str):
    labels = [STR_LABELS[i] if i in as_str else i for i in range(n)]
    P = random_shrub(labels, random.Random(seed))
    f = fraction_of_shrub(P)
    assert Shrub.from_json(P.to_json()) == P
    assert evaluate(GenWord.from_json(decompose(P).to_json())) == P
    assert _parse_canonical(format_fraction(f)) == f
    assert parse_fraction(format_fraction(f)) == f
    assert reconstruct(f, cap=n) == P


def test_shrub_texts_take_the_canonical_path():
    for n in range(1, 6):
        for P in all_shrubs(n):
            f = fraction_of_shrub(P)
            assert _parse_canonical(format_fraction(f)) == f


# the str labels, and "1", "01" (the label 1 again), "10" and "u"
TEXT_LABELS = STR_LABELS + ("1", "01", "10", "u")


@st.composite
def fraction_texts(draw):
    """Texts of the fraction grammar.  Factors come from a small pool, so
    they repeat and cancel; half the draws are plain (no sign, scalar,
    coefficient, minus or space, and the canonical denominator wrapping),
    the other half may have any of these."""
    plain = draw(st.booleans())

    def pick(*choices):
        return choices[0] if plain else draw(st.sampled_from(choices))

    def form():
        unique = draw(st.booleans())
        labels = draw(st.lists(st.sampled_from(TEXT_LABELS), min_size=1, max_size=3, unique=unique))
        terms = [pick("", "", "", "2*", "0*") + "u" + v for v in labels]
        return "(" + "".join(t if k == 0 else pick("+", "+", "+", "-") + t for k, t in enumerate(terms)) + ")"

    pool = draw(st.lists(st.builds(form), min_size=1, max_size=4))
    num = draw(st.lists(st.sampled_from(pool), max_size=3))
    den = draw(st.lists(st.sampled_from(pool), max_size=4))
    text = pick("", "", "", "-", "+", "3*", "2/3*", "-1/2*", "1/0*") + ("".join(num) or "1")
    if den:
        wrap = len(den) > 1 if plain else draw(st.booleans())
        text += "/" + ("({})" if wrap else "{}").format("".join(den))
    for k in sorted(draw(st.sets(st.integers(0, len(text)), max_size=0 if plain else 3)), reverse=True):
        text = text[:k] + " " + text[k:]
    return text


def outcome(parse, text):
    try:
        f = parse(text)
    except (ValueError, ShrubError) as exc:
        return type(exc), str(exc)
    return f, repr(f), hash(f)


@settings(max_examples=150, deadline=None)
@given(fraction_texts() | st.text(alphabet="u1a()+-*/ 02", max_size=30))
def test_parse_fraction_agrees_with_the_general_parser(text):
    assert outcome(parse_fraction, text) == outcome(_parse_general, text)
