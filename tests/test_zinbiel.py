import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrubs import (
    LabelClash,
    Shrub,
    UnknownLabel,
    ZinbElement,
    compatible_orders,
    gamma,
    graft_generator,
    pair_generator,
    trivial_shrub,
    zinb_compose,
)
from shrubs import checks, zinbiel
from shrubs.checks import all_shrubs, random_shrub
from shrubs.errors import CapExceeded

from helpers import chain
from oracles import oracle_compatible_orders, shuffle_compose_orders
from properties import holds


def order(*labels):
    return ZinbElement.from_order(tuple(labels))


class TestCompatibleOrders:
    def test_trivial(self):
        assert compatible_orders(trivial_shrub(1)) == ((1,),)

    def test_pair(self):
        assert set(compatible_orders(pair_generator(1, 2))) == {(1, 2), (2, 1)}

    def test_star(self):
        star = Shrub([1, 2, 3], {1: 0, 2: 1, 3: 1}, [(1, 2), (1, 3)])
        assert set(compatible_orders(star)) == {(1, 2, 3), (1, 3, 2)}

    def test_matches_direct_filter(self):
        holds("zinbiel/compatible-orders-bruteforce")

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(zinbiel, "_orders", refuse_to_enumerate)
        big = Shrub(range(10), {k: 0 for k in range(10)}, [])
        with pytest.raises(CapExceeded):
            compatible_orders(big)


def refuse_to_enumerate(*args, **kwargs):
    raise AssertionError("enumerated orders past the cap")


class TestOrderKernel:
    """The placed-set sweep against the recursive backtracker, order
    included."""

    def test_every_small_shrub(self):
        for n in range(1, 6):
            for P in all_shrubs(n):
                assert compatible_orders(P) == oracle_compatible_orders(P)

    @pytest.mark.parametrize("n", [7, 8])
    def test_random_shrubs(self, n):
        rng = random.Random(1700 + n)
        for _ in range(200):
            P = random_shrub(range(1, n + 1), rng)
            assert compatible_orders(P) == oracle_compatible_orders(P)

    def test_antichain_of_nine(self):
        P = Shrub(range(1, 10), {k: 0 for k in range(1, 10)}, [])
        assert compatible_orders(P) == tuple(itertools.permutations(range(1, 10)))

    def test_chain_of_nine(self):
        assert compatible_orders(chain(9)) == (tuple(range(1, 10)),)

    def test_mixed_labels(self):
        P = Shrub([2, "a", 10, "B"], {2: 0, "a": 1, 10: 0, "B": 1}, [(2, "a"), (10, "B"), (10, "a")])
        assert compatible_orders(P) == oracle_compatible_orders(P)
        assert compatible_orders(P)[0] == (2, 10, "B", "a")


class TestGamma:
    def test_generator_images(self):
        assert gamma(graft_generator(2, 1)) == order(2, 1)
        assert gamma(pair_generator(1, 2)) == order(1, 2) + order(2, 1)
        assert gamma(trivial_shrub(1)) == order(1)

    def test_unit_coefficients(self):
        holds("zinbiel/unit-coefficients")

    def test_morphism_exhaustive(self):
        holds("zinbiel/morphism")

    def test_morphism_randomized(self):
        holds("zinbiel/morphism")

    def test_injective_small(self):
        holds("zinbiel/injective")

    def test_injective_compares_images_in_full(self, monkeypatch):
        # every image in one hash group: the full comparisons still pass
        monkeypatch.setattr(ZinbElement, "__hash__", lambda self: 0)
        assert checks.gamma_injective(4, 0) == (True, "pairwise distinct for n<=4")
        monkeypatch.undo()
        # two shrubs given one image: the collision is found
        edge = graft_generator(1, 2)
        monkeypatch.setattr(checks, "gamma", lambda P: gamma(edge if P == graft_generator(2, 1) else P))
        assert checks.gamma_injective(4, 0) == (False, "gamma images collide at n=2")

    def test_forest_orders_are_linear_extensions(self):
        holds("zinbiel/forest-linear-extensions")

    def test_equals_the_checked_constructor(self):
        for n in range(1, 6):
            for P in all_shrubs(n):
                got = gamma(P)
                want = ZinbElement(P.labels, {o: 1 for o in compatible_orders(P)})
                assert got.terms() == want.terms()
                assert got.coeffs == want.coeffs and list(got.coeffs) == list(want.coeffs)
                assert hash(got) == hash(want) and got == want

    @pytest.mark.parametrize("bad", [(1, 2), (1, 2, 2), (1, 2, 9)])
    def test_checks_each_order_against_the_labels(self, monkeypatch, bad):
        # gamma looks compatible_orders up on the module, so a stand-in reaches it
        monkeypatch.setattr(zinbiel, "compatible_orders", lambda P: ((1, 2, 3), bad))
        with pytest.raises(UnknownLabel):
            gamma(Shrub([1, 2, 3], {1: 0, 2: 0, 3: 0}, []))


class TestComposition:
    def test_spec_single_extension(self):
        got = zinb_compose(order(2, 1), 1, order(3, 4))
        assert got == order(2, 3, 4)

    def test_head_takes_the_slot(self):
        got = zinb_compose(order(1, 2), 1, order(3, 4))
        assert got == order(3, 2, 4) + order(3, 4, 2)

    def test_unit(self):
        x = order(1, 2) + order(2, 1).scale(3)
        got = zinb_compose(x, 1, order(9))
        assert got == order(9, 2) + order(2, 9).scale(3)

    def test_bilinear_rational(self):
        x = order(1, 2).scale(Fraction(1, 2))
        y = order(3).scale(Fraction(2, 3))
        assert zinb_compose(x, 1, y) == order(3, 2).scale(Fraction(1, 3))

    def test_matches_shuffle_oracle(self):
        rng = random.Random(14)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = rng.randint(1, 3)
            pi = list(range(1, n + 1))
            sigma = list(range(11, 11 + m))
            rng.shuffle(pi)
            rng.shuffle(sigma)
            i = rng.choice(pi)
            got = zinb_compose(order(*pi), i, order(*sigma))
            want = {}
            for o in shuffle_compose_orders(tuple(pi), i, tuple(sigma)):
                want[o] = want.get(o, 0) + 1
            assert dict(got.coeffs) == want

    def test_cap_before_enumeration(self, monkeypatch):
        monkeypatch.setattr(zinbiel, "combinations", refuse_to_enumerate)
        x = order(*range(1, 6)) + order(*range(5, 0, -1))
        with pytest.raises(CapExceeded, match="10 labels exceed the order-enumeration cap 9"):
            zinb_compose(x, 3, order(*range(11, 17)))

    def test_errors(self):
        with pytest.raises(UnknownLabel):
            zinb_compose(order(1, 2), 9, order(3))
        with pytest.raises(LabelClash):
            zinb_compose(order(1, 2), 1, order(2))

    def test_empty_inner_refused(self):
        empty = ZinbElement.from_order(())
        with pytest.raises(ValueError, match="cannot compose with an empty order"):
            zinb_compose(order(1, 2), 1, empty)
        with pytest.raises(ValueError, match="cannot compose with an empty order"):
            zinb_compose(order(1, 2), 1, ZinbElement.zero(()))

    def test_gamma_agrees_with_generator_route(self):
        holds("zinbiel/unit-coefficients")


def small_orders(labels, up_to=4):
    return [o for k in range(1, up_to + 1) for o in itertools.permutations(labels[:k])]


class TestHalfShuffle:
    """``_compose_orders`` against the recursive shuffle oracle, as
    multisets."""

    def test_every_small_composition(self):
        sigmas = small_orders((11, 12, 13, 14))
        for pi in small_orders((1, 2, 3, 4)):
            for i in pi:
                post = len(pi) - 1 - pi.index(i)
                for sigma in sigmas:
                    got = Counter(zinbiel._compose_orders(pi, i, sigma))
                    assert got == Counter(shuffle_compose_orders(pi, i, sigma))
                    assert sum(got.values()) == math.comb(post + len(sigma) - 1, len(sigma) - 1)

    def test_mixed_labels(self):
        pi, sigma = (3, "b", 1, "a"), ("z", 10, "c")
        got = zinbiel._compose_orders(pi, "b", sigma)
        assert Counter(got) == Counter(shuffle_compose_orders(pi, "b", sigma))
        assert len(got) == math.comb(4, 2) and all(o[:2] == (3, "z") for o in got)


class TestZinbElement:
    def test_text(self):
        x = order(1, 2) - order(2, 1).scale(2)
        assert x.text() == "[12] - 2*[21]"
        assert ZinbElement.zero({1}).text() == "0"

    def test_text_long_labels(self):
        x = ZinbElement.from_order((10, 2))
        assert x.text() == "[10,2]"

    def test_algebra(self):
        x = order(1, 2)
        assert (x + x).coeffs == {(1, 2): 2}
        assert (x - x).is_zero()

    def test_rejects_foreign_orders(self):
        with pytest.raises(UnknownLabel):
            ZinbElement({1, 2}, {(1, 3): 1})


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_sequential_composition_property(rng):
    """Composing twice sequentially matches composing the inner pair first."""
    from shrubs.checks import random_shrub

    a = rng.randint(1, 3)
    b = rng.randint(1, 2)
    c = rng.randint(1, 2)
    P = random_shrub(range(1, a + 1), rng)
    Q = random_shrub(range(11, 11 + b), rng)
    R = random_shrub(range(21, 21 + c), rng)
    i = rng.choice(sorted(P.labels))
    j = rng.choice(sorted(Q.labels))
    lhs = zinb_compose(zinb_compose(gamma(P), i, gamma(Q)), j, gamma(R))
    rhs = zinb_compose(gamma(P), i, zinb_compose(gamma(Q), j, gamma(R)))
    assert lhs == rhs
