import copy
import gc
import json
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrubs import (
    GenWord,
    LabelClash,
    MalformedWord,
    Shrub,
    UnknownLabel,
    Unsupported,
    compose,
    decompose,
    disjoint_union,
    evaluate,
    graft,
    graft_generator,
    pair_generator,
    trivial_shrub,
)
from shrubs.checks import _shrubs_by_decomposition, all_shrubs, random_shrub
from shrubs.core import _read_word_json, label_key

from helpers import chain, stack_depth
from oracles import (
    dataclass_repr,
    oracle_compose,
    oracle_decompose,
    oracle_disjoint_union,
    oracle_evaluate,
    oracle_graft,
    oracle_word_from_json_obj,
    oracle_word_json_obj,
)
from properties import holds


def shifted(P, k):
    return P.relabel({v: v + k for v in P.labels})


class TestCompose:
    def test_unit_laws(self):
        holds("operad/units")

    def test_star_formation(self):
        # substituting the pair into the top of an edge spreads a star
        got = compose(graft_generator(3, "*"), "*", pair_generator(1, 2))
        want = Shrub([1, 2, 3], {3: 0, 1: 1, 2: 1}, [(1, 3), (2, 3)])
        assert got == want

    def test_union_via_generator(self):
        got = compose(pair_generator(1, "*"), "*", graft_generator("a", "b"))
        assert got == disjoint_union(trivial_shrub(1), graft_generator("a", "b"))

    def test_heights_shift(self):
        chain = Shrub([1, 2], {1: 0, 2: 1}, [(1, 2)])
        got = compose(chain, 2, shifted(chain, 10))
        assert got.height(12) == 2

    def test_errors(self):
        with pytest.raises(UnknownLabel):
            compose(trivial_shrub(1), 9, trivial_shrub(2))
        with pytest.raises(LabelClash):
            compose(pair_generator(1, 2), 1, trivial_shrub(2))

    def test_slot_label_may_recur_inside(self):
        # the substituted shrub may reuse the consumed slot label
        assert compose(trivial_shrub(1), 1, pair_generator(1, 2)) == pair_generator(1, 2)

    @pytest.mark.parametrize("label", [1, "a"])
    def test_generators_refuse_one_label_twice(self, label):
        for generator in (pair_generator, graft_generator):
            with pytest.raises(LabelClash, match=f"^label clash on \\({label!r},\\)$"):
                generator(label, label)


class TestProducts:
    def test_union_commutative_associative(self):
        a, b, c = trivial_shrub(1), trivial_shrub(2), trivial_shrub(3)
        assert disjoint_union(a, b) == disjoint_union(b, a)
        assert disjoint_union(disjoint_union(a, b), c) == disjoint_union(a, disjoint_union(b, c))

    def test_graft_not_associative(self):
        a, b, c = trivial_shrub(1), trivial_shrub(2), trivial_shrub(3)
        assert graft(graft(a, b), c) != graft(a, graft(b, c))

    def test_products_match_generator_compositions(self):
        for P in all_shrubs(2):
            for Q0 in all_shrubs(2):
                Q = shifted(Q0, 10)
                via_gen = compose(compose(pair_generator("*", "#"), "*", P), "#", Q)
                assert via_gen == disjoint_union(P, Q)
                via_gen = compose(compose(graft_generator("*", "#"), "*", P), "#", Q)
                assert via_gen == graft(P, Q)

    def test_graft_of_trivials_is_edge(self):
        assert graft(trivial_shrub(1), trivial_shrub(2)) == graft_generator(1, 2)
        assert disjoint_union(trivial_shrub(1), trivial_shrub(2)) == pair_generator(1, 2)


# mixed int and str labels for the two operands of a product, disjoint
LEFT_LABELS = (3, "a", -1, "□0")
RIGHT_LABELS = ("b", 0, "□1", 9)
EMPTY = Shrub([], {}, [])


def on_labels(P, labels, turn):
    """``P`` relabeled to ``labels`` rotated by ``turn``, so that int and str
    labels fall on different vertices from one shrub to the next."""
    k = turn % len(labels)
    return P.relabel(dict(zip(P.labels, labels[k:] + labels[:k])))


def operand_pairs(total):
    """Every pair of shrubs ``(P, Q)`` with |P| + |Q| <= ``total``, on
    ``LEFT_LABELS`` and ``RIGHT_LABELS``."""
    for n in range(1, total):
        for m in range(1, total - n + 1):
            for a, P in enumerate(all_shrubs(n)):
                for b, Q in enumerate(all_shrubs(m)):
                    yield on_labels(P, LEFT_LABELS, a), on_labels(Q, RIGHT_LABELS, b)


def assert_same_outcome(fn, oracle, *args):
    got, want = outcome(fn, *args), outcome(oracle, *args)
    assert got == want, args
    assert got[0] != "ok" or type(got[1]) is Shrub


class TestProductsAgainstOracle:
    """The mask products against the edge-list products validated through
    ``Shrub(...)``: the same shrub, or the same exception and message."""

    def test_every_pair_up_to_five(self):
        for P, Q in operand_pairs(5):
            for i in P.labels:
                assert_same_outcome(compose, oracle_compose, P, i, Q)
                # Q may reuse the slot label; it may not reuse another label of P
                assert_same_outcome(compose, oracle_compose, P, i, Q.relabel({Q.labels[0]: i}))
                for j in P.labels:
                    if j != i:
                        assert_same_outcome(compose, oracle_compose, P, i, Q.relabel({Q.labels[-1]: j}))
            for left, right in ((P, Q), (Q, P), (P, Q.relabel({Q.labels[0]: P.labels[-1]}))):
                assert_same_outcome(graft, oracle_graft, left, right)
                assert_same_outcome(disjoint_union, oracle_disjoint_union, left, right)

    @pytest.mark.parametrize("slot", [1.0, True, None, [1], "1", 0])
    def test_slots_that_are_not_labels_of_the_outer_shrub(self, slot):
        Q = on_labels(pair_generator(1, 2), RIGHT_LABELS, 0)
        for P in all_shrubs(2):
            assert_same_outcome(compose, oracle_compose, P, slot, Q)
            with pytest.raises(UnknownLabel, match="composition slot"):
                compose(P, slot, Q)

    def test_empty_operands(self):
        for n in range(1, 4):
            for b, Q in enumerate(all_shrubs(n)):
                Q = on_labels(Q, RIGHT_LABELS, b)
                least_root = min(Q.roots(), key=label_key)
                with pytest.raises(Unsupported, match=f"^vertex {least_root!r} has positive height"):
                    graft(EMPTY, Q)
                assert graft(Q, EMPTY) == Q
                assert disjoint_union(EMPTY, Q) == Q == disjoint_union(Q, EMPTY)
                for i in Q.labels:
                    with pytest.raises(ValueError, match="cannot compose with an empty shrub"):
                        compose(Q, i, EMPTY)
                cases = [(fn, oracle, *args) for args in ((EMPTY, Q), (Q, EMPTY))
                         for fn, oracle in ((graft, oracle_graft), (disjoint_union, oracle_disjoint_union))]
                cases += [(compose, oracle_compose, Q, i, EMPTY) for i in Q.labels]
                cases += [(compose, oracle_compose, EMPTY, i, Q) for i in Q.labels]
                cases.append((compose, oracle_compose, Q, 1.0, EMPTY))
                for fn, oracle, *args in cases:
                    assert_same_outcome(fn, oracle, *args)
        assert graft(EMPTY, EMPTY) == EMPTY == disjoint_union(EMPTY, EMPTY)


def test_products_and_evaluate_build_nothing_through_the_constructor(monkeypatch):
    """The products and ``evaluate`` lay out cover masks; none of them goes
    back through the edge lists of the validating constructor."""
    shrubs = [P for n in range(1, 5) for P in all_shrubs(n)]
    Q = graft_generator(10, 11)
    words = [decompose(P) for P in shrubs]
    calls = []
    init = Shrub.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Shrub, "__init__", counting_init)
    for P, word in zip(shrubs, words):
        for i in P.labels:
            compose(P, i, Q)
        graft(P, Q)
        graft(Q, P)
        disjoint_union(P, Q)
        assert evaluate(word) == P
    assert calls == []
    trivial_shrub(1)
    assert len(calls) == 1  # the count sees the constructor


class TestAxioms:
    def test_parallel_associativity_exhaustive(self):
        holds("operad/associativity")

    def test_sequential_associativity_exhaustive(self):
        holds("operad/associativity")

    def test_random_triples(self):
        holds("operad/associativity")

    def test_equivariance(self):
        holds("operad/equivariance")


class TestPresentation:
    def test_graft_relation(self):
        holds("operad/relations")

    def test_pair_relation(self):
        holds("operad/relations")

    def test_word_roundtrip_small(self):
        holds("operad/word-roundtrip")

    def test_trivial_word_is_a_leaf(self):
        w = decompose(trivial_shrub(7))
        assert w.gen == "leaf" and w.label == 7

    def test_edge_word(self):
        w = decompose(graft_generator(1, 2))
        assert w.gen == "D"
        assert [a.label for a in w.args] == [1, 2]

    def test_star_prefers_the_pair_route(self):
        star = Shrub([1, 2, 3], {3: 0, 1: 1, 2: 1}, [(1, 3), (2, 3)])
        w = decompose(star)
        assert w.gen == "D" and w.args[0].label == 3
        assert w.args[1].gen == "C"
        assert {a.label for a in w.args[1].args} == {1, 2}

    def test_word_json_roundtrip(self):
        for P in all_shrubs(4)[::7]:
            w = decompose(P)
            assert GenWord.from_json(w.to_json()) == w
            assert evaluate(GenWord.from_json(w.to_json())) == P

    def test_malformed_words(self):
        with pytest.raises(MalformedWord):
            GenWord.from_json('{"gen": "X", "args": [1, 2]}')
        with pytest.raises(MalformedWord):
            GenWord.from_json('{"gen": "C", "args": [1]}')
        with pytest.raises(MalformedWord):
            evaluate(GenWord.node("C", "s", GenWord.leaf(1), GenWord.leaf(1)))

    @pytest.mark.parametrize(
        "word",
        [
            GenWord.node("C", "s", 1, 2),
            GenWord.leaf(None),
            GenWord.leaf(1.5),
            GenWord.leaf([1]),
            GenWord.leaf(True),
            GenWord.node("D", "s", GenWord.leaf(1), GenWord.leaf(None)),
        ],
        ids=["bare-args", "none", "float", "list", "bool", "inner-none"],
    )
    def test_bad_arguments_and_labels_are_malformed(self, word):
        with pytest.raises(MalformedWord):
            evaluate(word)


# labels mixing ints and strs; the slot-like ones make ``fresh_slots`` skip
# names, and ``□10`` sorts before ``□2``
MIXED_LABELS = (0, 7, -3, "a", "b", "□0", "□2", "□10", "□tmp")


def assert_same_word(P):
    word, want = decompose(P), oracle_decompose(P)
    assert word == want and word.to_json() == want.to_json(), P
    assert evaluate(word) == P


class TestDecomposeAgainstOracle:
    def test_every_shrub_up_to_five(self):
        for n in range(1, 6):
            for P in all_shrubs(n):
                assert_same_word(P)

    def test_seeded_six_vertex_shrubs(self):
        for P in random.Random(6).sample(all_shrubs(6), 1500):
            assert_same_word(P)

    def test_mixed_labels(self):
        rng = random.Random(12)
        for n in range(1, 6):
            for P in all_shrubs(n)[:: 7 if n == 5 else 1]:
                labels = rng.sample(MIXED_LABELS, n)
                assert_same_word(P.relabel(dict(zip(P.labels, labels))))
        for _ in range(300):
            assert_same_word(random_shrub(rng.sample(MIXED_LABELS, rng.randint(1, 9)), rng))

    def test_slot_names_skip_labels(self):
        P = Shrub(["□0", "□1", 5], {"□0": 0, "□1": 0, 5: 0}, [])
        assert decompose(P) == GenWord.node(
            "C", "□3", GenWord.leaf("□1"), GenWord.node("C", "□2", GenWord.leaf(5), GenWord.leaf("□0"))
        )

    def test_long_chain_without_recursion(self):
        P = chain(5000)
        start = time.perf_counter()
        word = decompose(P)
        assert evaluate(word) == P
        assert time.perf_counter() - start < 1.0  # about 0.1 s on a 2-vCPU Xeon
        again = decompose(P)
        assert word == again and hash(word) == hash(again)
        assert word != decompose(P.relabel({5000: 5001}))
        assert sorted(word.leaf_labels()) == list(P.labels)
        assert repr(word) == dataclass_repr(word)

    def test_repr_as_the_dataclass_repr(self):
        for n in range(1, 5):
            for P in all_shrubs(n):
                word = decompose(P)
                assert repr(word) == dataclass_repr(word)

    def test_json_as_the_recursive_writer_and_reader(self):
        for n in range(1, 6):
            for P in all_shrubs(n):
                word = decompose(P)
                obj = word.to_json_obj()
                assert obj == oracle_word_json_obj(word)
                assert word.to_json() == json.dumps(obj)
                assert GenWord.from_json_obj(obj) == oracle_word_from_json_obj(obj) == word

    def test_long_chain_json_without_recursion(self):
        word = decompose(chain(5000))
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 50)
        try:
            obj = word.to_json_obj()
            text = word.to_json()
            back = GenWord.from_json_obj(obj)
        finally:
            sys.setrecursionlimit(saved)
        assert back == word
        assert text.count('{"gen": ') == 4999 and text.endswith("]}" * 4999)
        assert text.startswith('{"gen": "D", "slot": ') and obj["gen"] == "D"

    def test_object_that_contains_itself(self):
        node = {"gen": "C", "slot": "s", "args": [1, None]}
        node["args"][1] = {"gen": "D", "args": [2, node]}
        with pytest.raises(MalformedWord, match="a generator node contains itself"):
            GenWord.from_json_obj(node)
        shared = {"gen": "C", "args": [1, 2]}  # shared, not nested in itself
        inner = GenWord.node("C", None, GenWord.leaf(1), GenWord.leaf(2))
        assert GenWord.from_json_obj({"gen": "D", "args": [shared, shared]}) == GenWord.node("D", None, inner, inner)


@st.composite
def word_labels(draw):
    """A leaf label, now and then a repeat or not a label at all."""
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from((True, None, 1.5, (1,), [1])))
    return draw(st.integers(0, 15) | st.sampled_from(("a", "□0")))


@st.composite
def words(draw, depth=0):
    """Generator words, mostly well formed: now and then a foreign
    generator, a wrong number of arguments or an argument that is not a
    word."""
    kind = draw(st.integers(0, 23))
    if depth >= 3 or kind < 8:
        return GenWord.leaf(draw(word_labels()))
    if kind == 23 and depth:
        return draw(st.integers(0, 2))
    gen = draw(st.sampled_from(("C", "D", "C", "D", "C", "D", "X", "leaf")))
    arity = 2 if kind < 21 else draw(st.integers(0, 3))
    args = tuple(draw(words(depth + 1)) for _ in range(arity))
    return GenWord(gen=gen, label=draw(word_labels()), slot="s", args=args)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(words())
def test_evaluate_agrees_with_the_recursive_oracle(word):
    got, want = outcome(evaluate, word), outcome(oracle_evaluate, word)
    if want[0] in (TypeError, AttributeError):
        # the oracle trips over a bad label or argument; the library names it
        assert got[0] is MalformedWord
    else:
        assert got == want


def recursive_fields(w):
    """The nested field tuple the dataclass compared and hashed."""
    if not isinstance(w, GenWord):
        return w
    return (w.gen, w.label, w.slot, tuple(recursive_fields(a) for a in w.args))


def recursive_leaf_labels(w):
    if w.gen == "leaf":
        return (w.label,)
    return tuple(label for a in w.args for label in recursive_leaf_labels(a))


@settings(max_examples=100, deadline=None)
@given(words(), words(), st.booleans())
def test_equality_hash_and_leaves_as_the_recursive_definitions(a, b, same):
    if same:
        b = copy.deepcopy(a)
    assert (a == b) == (recursive_fields(a) == recursive_fields(b))
    got, want = outcome(hash, a), outcome(lambda w: hash(recursive_fields(w)), a)
    assert got[0] == want[0]
    if a == b and got[0] == "ok":
        assert hash(a) == hash(b)
    got, want = outcome(GenWord.leaf_labels, a), outcome(recursive_leaf_labels, a)
    assert got[0] == want[0] and (got[0] != "ok" or got == want)


@settings(max_examples=100, deadline=None)
@given(words())
def test_repr_of_any_word_as_the_dataclass_repr(word):
    assert repr(word) == dataclass_repr(word)


@settings(max_examples=200, deadline=None)
@given(words())
def test_json_of_any_word_as_json_dumps(word):
    want = outcome(lambda w: json.dumps(oracle_word_json_obj(w)), word)
    for got in (outcome(GenWord.to_json, word), outcome(lambda w: json.dumps(w.to_json_obj()), word)):
        if want[0] is AttributeError:
            # the oracle trips over an argument that is not a word; the library names it
            assert got[0] is MalformedWord
        else:
            assert got == want


json_values = st.recursive(
    st.integers(-3, 9) | st.sampled_from(("a", "□0", True, None, 1.5)),
    lambda inner: st.lists(inner, max_size=2)
    | st.fixed_dictionaries(
        {"gen": st.sampled_from(("C", "D", "C", "D", "X")), "args": st.lists(inner, min_size=1, max_size=3)},
        optional={"slot": st.integers(0, 3) | st.just("s")},
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_word_from_any_json_value_as_the_recursive_reader(obj):
    assert outcome(GenWord.from_json_obj, obj) == outcome(oracle_word_from_json_obj, obj)


def in_word_grammar(obj, where="top"):
    """Whether ``obj`` is what the flat reader reads: an object whose
    ``"args"`` is a list of scalars and such objects, other values scalars."""
    if isinstance(obj, dict):
        return where != "value" and all(in_word_grammar(v, "args" if k == "args" else "value") for k, v in obj.items())
    if isinstance(obj, list):
        return where == "args" and all(in_word_grammar(v, "word") for v in obj)
    return where != "top"


REFUSED = object()


@settings(max_examples=300, deadline=None)
@given(json_values, st.sampled_from((None, 0, 2)), st.data())
def test_flat_reader_as_json_loads(obj, indent, data):
    text = json.dumps(obj, indent=indent)
    if data.draw(st.booleans()):  # one character replaced, mostly malformed
        k = data.draw(st.integers(0, len(text) - 1))
        text = text[:k] + data.draw(st.sampled_from('{}[]:," 0x')) + text[k + 1 :]
    try:
        want = json.loads(text)
    except ValueError:
        want = REFUSED
    got = _read_word_json(text)
    if got is None:
        assert want is REFUSED or not in_word_grammar(want)
    else:
        assert want is not REFUSED and json.dumps(got) == json.dumps(want)


def test_flat_reader_reads_every_word():
    assert _read_word_json(decompose(trivial_shrub(1)).to_json()) is None  # a leaf never nests
    for n in range(2, 5):
        for P in all_shrubs(n):
            text = decompose(P).to_json()
            for spaced in (text, json.dumps(json.loads(text), indent=1)):
                assert _read_word_json(spaced) == json.loads(text)


class TestGeneratorEnumeration:
    def test_matches_bruteforce(self):
        holds("operad/enumeration-agreement")

    def test_leaves_no_memo_behind(self):
        # the memo's cached function refers to itself, so with the cyclic
        # collector off only clearing the memo frees it
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _shrubs_by_decomposition(6)
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert left < 4 * 2**20
