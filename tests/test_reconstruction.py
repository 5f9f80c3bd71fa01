import random
from itertools import combinations

import pytest

from shrubs import (
    FactoredFraction,
    LinearForm,
    NotInImage,
    fraction_components,
    fraction_of_shrub,
    graft_generator,
    kappa,
    pair_generator,
    parse_fraction,
    reconstruct,
    recover_heights,
    trivial_shrub,
)
from shrubs.checks import random_shrub

from oracles import all_shrubs

FIG2_TEXT = (
    "(uB+uE+uF+uG)(uF+uG)/((uA)(uA+uB+uC+uE+uF+uG)(uA+uB+uE+uF+uG)"
    "(uB)(uE)(uE+uF+uG)(uF)(uG))"
)


def form(*pairs):
    return LinearForm(tuple(pairs))


class TestComponents:
    def test_examples(self):
        f = FactoredFraction(den=[form((1, 1)), form((2, 1))])
        assert fraction_components(f) == (frozenset({1}), frozenset({2}))
        g = FactoredFraction(den=[form((1, 1)), form((1, 1), (2, 1))])
        assert fraction_components(g) == (frozenset({1, 2}),)

    def test_matches_shrub_components(self):
        for n in range(1, 6):
            for P in all_shrubs(n):
                parts = fraction_components(fraction_of_shrub(P))
                expected = tuple(
                    frozenset(c.labels) for c in P.connected_components()
                )
                assert set(parts) == set(expected)


class TestHeights:
    def test_examples(self):
        f = kappa(graft_generator(2, 1))
        assert recover_heights(f) == {2: 0, 1: 1}
        g = kappa(pair_generator(1, 2))
        assert recover_heights(g) == {1: 0, 2: 0}

    def test_exhaustive_small(self):
        for n in range(1, 6):
            for P in all_shrubs(n):
                assert recover_heights(kappa(P)) == P.height_map


class TestReconstruct:
    def test_trivial(self):
        assert reconstruct(kappa(trivial_shrub(1))) == trivial_shrub(1)

    def test_edge(self):
        assert reconstruct(parse_fraction("1/((u1)(u1+u2))")) == graft_generator(2, 1)

    def test_roundtrip_exhaustive(self):
        for n in range(1, 6):
            for P in all_shrubs(n):
                assert reconstruct(kappa(P)) == P

    def test_injectivity_of_kappa(self):
        for n in range(1, 6):
            S = all_shrubs(n)
            assert len({kappa(P) for P in S}) == len(S)

    def test_bruteforce_oracle(self):
        for n in range(1, 5):
            table = {kappa(P): P for P in all_shrubs(n)}
            for f, P in table.items():
                matches = [Q for Q in all_shrubs(n) if kappa(Q) == f]
                assert matches == [P]
                assert reconstruct(f) == P

    def test_larger_random_roundtrips(self):
        rng = random.Random(17)
        for n in (6, 7, 8, 9, 10):
            for _ in range(8):
                P = random_shrub(range(1, n + 1), rng)
                assert reconstruct(kappa(P), cap=n) == P

    def test_fig2_fraction(self):
        f = parse_fraction(FIG2_TEXT)
        P = reconstruct(f)
        assert len(P) == 6
        assert set(P.labels) == set("ABCEFG")
        classes = {rc.members: rc.targets for rc in P.ram_classes()}
        assert classes == {
            frozenset({"A"}): frozenset({"B", "F", "G"}),
            frozenset({"E"}): frozenset({"F", "G"}),
        }
        assert kappa(P) == f

    def test_not_in_image(self):
        with pytest.raises(NotInImage):
            reconstruct(parse_fraction("1/((u1)(u2)(u1+u2))"))
        with pytest.raises(NotInImage):
            reconstruct(parse_fraction("-1/(u1)"))
        with pytest.raises(NotInImage):
            reconstruct(parse_fraction("2*1/(u1)"))
        with pytest.raises(NotInImage):
            # connected support but no full-sum denominator factor
            f = FactoredFraction(den=[form((1, 1)), form((2, 1)), form((1, 1), (2, 2))])
            reconstruct(f)

    def test_rejection_of_perturbed_fractions(self):
        # Outside the image the final certificate does the rejecting: each
        # variant either rebuilds a shrub with exactly that fraction or raises
        # NotInImage.  The counts are those of root finding by order extraction.
        def variants(f, labels):
            for k in range(len(f.num)):
                yield FactoredFraction(f.sign, f.scalar, f.num[:k] + f.num[k + 1 :], f.den)
            for k in range(len(f.den)):
                yield FactoredFraction(f.sign, f.scalar, f.num, f.den[:k] + f.den[k + 1 :])
            for a, b in combinations(labels, 2):
                pair = LinearForm.sum_of((a, b))
                yield FactoredFraction(f.sign, f.scalar, f.num, f.den + (pair,))
                yield FactoredFraction(f.sign, f.scalar, f.num + (pair,), f.den)

        returned = rejected = 0
        for n in range(1, 5):
            for P in all_shrubs(n):
                for g in variants(fraction_of_shrub(P), P.labels):
                    try:
                        Q = reconstruct(g, cap=n)
                    except NotInImage:
                        rejected += 1
                    else:
                        assert fraction_of_shrub(Q) == g
                        returned += 1
        assert (returned, rejected) == (296, 3154)

    def test_not_in_image_mixed_support(self):
        # numerator straddling the would-be graft split
        f = FactoredFraction(
            num=[form((1, 1), (2, 1), (3, 1))],
            den=[form((1, 1)), form((2, 1)), form((3, 1)),
                 form((1, 1), (2, 1), (3, 1)), form((1, 1), (2, 1), (3, 1))],
        )
        with pytest.raises(NotInImage):
            reconstruct(f)
