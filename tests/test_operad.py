import pytest

from shrubs import (
    GenWord,
    LabelClash,
    MalformedWord,
    Shrub,
    UnknownLabel,
    compose,
    decompose,
    disjoint_union,
    evaluate,
    graft,
    graft_generator,
    pair_generator,
    trivial_shrub,
)
from shrubs.checks import all_shrubs

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


class TestGeneratorEnumeration:
    def test_matches_bruteforce(self):
        holds("operad/enumeration-agreement")
