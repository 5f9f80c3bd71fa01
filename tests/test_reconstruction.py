import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrubs import (
    CapExceeded,
    FactoredFraction,
    LinearForm,
    NotInImage,
    Shrub,
    ShrubError,
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
from shrubs import checks, reconstruction
from shrubs.checks import all_shrubs, random_shrub
from shrubs.mould import shrub_masks
from shrubs.reconstruction import _name_fault, _read_parts, _record, _Weighted

from helpers import FIG2_TEXT, chain, form, stack_depth
from oracles import oracle_components, oracle_reconstruct, outcome
from properties import holds


class TestComponents:
    def test_examples(self):
        f = FactoredFraction(den=[form((1, 1)), form((2, 1))])
        assert fraction_components(f) == (frozenset({1}), frozenset({2}))
        g = FactoredFraction(den=[form((1, 1)), form((1, 1), (2, 1))])
        assert fraction_components(g) == (frozenset({1, 2}),)

    def test_matches_shrub_components(self):
        for n in range(1, 6):
            for P in all_shrubs(n):
                f = fraction_of_shrub(P)
                parts = fraction_components(f)
                expected = tuple(
                    frozenset(c.labels) for c in P.connected_components()
                )
                assert set(parts) == set(expected)
                assert parts == oracle_components(f)


class TestHeights:
    def test_examples(self):
        f = kappa(graft_generator(2, 1))
        assert recover_heights(f) == {2: 0, 1: 1}
        g = kappa(pair_generator(1, 2))
        assert recover_heights(g) == {1: 0, 2: 0}

    def test_exhaustive_small(self):
        for n in range(1, 6):
            for P in all_shrubs(n):
                assert recover_heights(fraction_of_shrub(P)) == P.height_map


class TestReconstruct:
    def test_trivial(self):
        assert reconstruct(kappa(trivial_shrub(1))) == trivial_shrub(1)

    def test_edge(self):
        assert reconstruct(parse_fraction("1/((u1)(u1+u2))")) == graft_generator(2, 1)

    def test_roundtrip_exhaustive(self):
        holds("reconstruction/roundtrip")

    def test_injectivity_of_kappa(self):
        holds("reconstruction/injective")

    def test_injective_finds_a_shared_record(self, monkeypatch):
        # two shrubs given one fraction: their mask records collide
        edge = graft_generator(1, 2)
        monkeypatch.setattr(checks, "fraction_of_shrub", lambda P: fraction_of_shrub(edge if P == graft_generator(2, 1) else P))
        assert checks.fraction_injective(4, 0) == (False, "fractions collide at n=2")

    def test_bruteforce_oracle(self):
        holds("reconstruction/bruteforce-oracle")

    def test_larger_random_roundtrips(self):
        holds("reconstruction/larger-random")

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

        # Every outcome is also that of the linear-form oracle: the same
        # shrub, or the same exception class and message.
        returned = rejected = 0
        for n in range(1, 5):
            for P in all_shrubs(n):
                for g in variants(fraction_of_shrub(P), P.labels):
                    got = outcome(reconstruct, g, n)
                    assert got == outcome(oracle_reconstruct, g, n)
                    if got[0] == "ok":
                        Q = got[1]
                        assert fraction_of_shrub(Q) == g
                        assert Q == Shrub(Q.labels, Q.height_map, Q.edges)
                        returned += 1
                    else:
                        assert got[0] is NotInImage
                        rejected += 1
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


# -- the direct reading and the fault walk --------------------------------------

# the cached entry point, with the direct reading in front of the fault walk
checked = reconstruction._reconstruct_checked.__wrapped__


class TestDirectReading:
    """The direct reading returns every shrub without the fault walk, and
    every record gets the linear-form oracle's outcome: the same shrub, or
    the same exception class and message."""

    @pytest.fixture
    def direct_only(self, monkeypatch):
        """``checked``, failing if the record reaches the fault walk."""

        def refuse(record):
            raise AssertionError(f"the fault walk was asked for {record!r}")

        monkeypatch.setattr(reconstruction, "_name_fault", refuse)
        return checked

    def assert_read_directly(self, direct_only, P):
        record = fraction_of_shrub(P)._masks
        assert direct_only(record) == P
        assert _name_fault(record) is None

    def test_every_shrub_up_to_five(self, direct_only):
        for n in range(1, 6):
            for P in all_shrubs(n):
                self.assert_read_directly(direct_only, P)

    def test_seeded_larger_shrubs(self, direct_only):
        rng = random.Random(31)
        for n in (6, 7, 8):
            for _ in range(300):
                self.assert_read_directly(direct_only, random_shrub(range(1, n + 1), rng))

    def test_mixed_labels(self, direct_only):
        rng = random.Random(32)
        labels = [0, 7, -3, "a", "b"]
        for n in range(1, 6):
            for P in all_shrubs(n):
                rng.shuffle(labels)
                self.assert_read_directly(direct_only, P.relabel(dict(zip(P.labels, labels))))

    def test_long_chain(self, direct_only):
        P = chain(1000)
        assert direct_only(fraction_of_shrub(P)._masks) == P

    def test_refused_long_chain(self):
        # the fault walk keeps no frame per level: one factor too many on a
        # 1,000-vertex chain is refused with 30 frames to spare
        f = fraction_of_shrub(chain(1000))
        record = _record(FactoredFraction(f.sign, f.scalar, f.num, f.den + (LinearForm.sum_of((999, 1000)),)))
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 30)
        try:
            with pytest.raises(NotInImage, match="^no label can start a compatible order$"):
                checked(record)
        finally:
            sys.setrecursionlimit(saved)

    @staticmethod
    def same_outcome(f):
        got = outcome(checked, _record(f))
        assert got == outcome(oracle_reconstruct, f)
        return got

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_perturbed_random_shrubs(self, n):
        # deep walks: a shrub fraction with one factor dropped, one factor
        # copied to a random side, or one random subset sum added to a
        # random side
        rng = random.Random(2000 + n)
        kinds = set()
        for _ in range(250):
            f = fraction_of_shrub(random_shrub(range(1, n + 1), rng))
            side, factor = rng.choice([(0, g) for g in f.num] + [(1, g) for g in f.den])
            subset = LinearForm.sum_of(rng.sample(range(1, n + 1), rng.randint(1, n)))
            # (side, drop rather than add, factor)
            changes = (
                (side, True, factor),
                (rng.randrange(2), False, factor),
                (rng.randrange(2), False, subset),
            )
            for k, drop, g in changes:
                sides = [list(f.num), list(f.den)]
                (sides[k].remove if drop else sides[k].append)(g)
                kinds.add(self.same_outcome(FactoredFraction(f.sign, f.scalar, *sides))[0])
        assert kinds == {"ok", NotInImage}

    def test_weighted_factor(self):
        # right degree, and read as the edge 2 - 1; the factor u1+2*u2 only
        # counts by its support, and the certificate refuses it
        f = parse_fraction("1/((u1)(u1+2*u2))")
        record = _record(f)
        assert isinstance(record[2][1], _Weighted)
        assert _read_parts(record[1], record[2], 2) == ((1, 0), (2, 0))
        assert self.same_outcome(f)[0] is NotInImage
        # a weighted graft factor counts by its support, so the walk finds
        # no fault; the record is refused all the same
        f = parse_fraction("(2*u1+u2)/((u1)(u2)(u3)(u1+u2+u3))")
        assert _name_fault(_record(f)) is None
        assert self.same_outcome(f) == (NotInImage, "the rebuilt shrub does not reproduce the fraction")

    def test_first_fault_in_walk_order(self):
        # two faults: the component with the least label, the lower part of
        # a graft, and a numerator factor straddling the graft split before
        # a denominator factor, are named first
        for text, message in (
            ("1/((u1+u3)(u1+u3)(u2)(u2)(u3))", "no label can start a compatible order"),
            (
                "(u1+u2+u3)/((u1+u2+u3+u4)(u1+u3)(u2)(u4)(u4))",
                "0 numerator factors contain every height-0 vertex (need exactly 1)",
            ),
            (
                "(u1+u2)(u2+u3)/((u1+u2+u3+u4)(u2)(u2)(u1+u3)(u3)(u4))",
                "factor u2+u3 straddles the graft split",
            ),
        ):
            assert self.same_outcome(parse_fraction(text)) == (NotInImage, message)

    def test_empty_fraction(self):
        f = FactoredFraction.one()
        assert _record(f) == ((), (), ())
        assert self.same_outcome(f) == (NotInImage, "no labels to reconstruct from")

    def test_more_labels_than_cap(self):
        # a cap below the label count refuses up front: a forest whose pieces
        # would each fit, and a record the walk would refuse, too
        points = Shrub(range(7), {v: 0 for v in range(7)}, [])
        f = fraction_of_shrub(chain(7))
        faulty = FactoredFraction(f.sign, f.scalar, f.num, f.den + (LinearForm.sum_of((6, 7)),))
        refused = (CapExceeded, "7 labels exceed the reconstruction cap 6")
        for g in (f, fraction_of_shrub(points), faulty):
            assert outcome(reconstruct, g, 6) == outcome(oracle_reconstruct, g, 6) == refused
        # without a cap, fractions of any size are read
        assert self.same_outcome(f) == ("ok", chain(7))
        assert self.same_outcome(fraction_of_shrub(points)) == ("ok", points)
        assert self.same_outcome(faulty) == (NotInImage, "no label can start a compatible order")

    @pytest.mark.parametrize("cap", ["3", True, 3.0])
    def test_cap_must_be_an_int(self, cap):
        with pytest.raises(ValueError, match=r"^the reconstruction cap must be an int or None, got "):
            reconstruct(fraction_of_shrub(chain(2)), cap=cap)
        assert reconstruct(fraction_of_shrub(chain(2)), cap=None) == chain(2)

    def test_right_degree_but_not_a_shrub(self):
        # 4 covers {1, 2} and 5 covers {1, 3}: an F5, whose own masks the
        # reading gives back, certificate and all; only the pattern check
        # keeps it from being returned as a shrub
        f = parse_fraction("(u1+u2)(u1+u3)/((u1)(u2)(u3)(u4)(u5)(u1+u2+u4)(u1+u3+u5))")
        labels, num, den = _record(f)
        heights, covers = _read_parts(num, den, 5)
        assert (heights, covers) == ((0, 0, 0, 1, 1), (0, 0, 0, 0b011, 0b101))

        class Unchecked:  # shrub_masks reads only these
            pass

        S = Unchecked()
        S.labels, S._heights, S._covers = labels, heights, covers
        assert shrub_masks(S) == (num, den)
        assert self.same_outcome(f)[0] is NotInImage


# -- fuzzing against the linear-form oracle -------------------------------------

LABELS = st.lists(
    st.one_of(st.integers(1, 30), st.sampled_from("ABCDEFGH")), min_size=1, max_size=6, unique=True
)


@st.composite
def factored_fractions(draw):
    """A random fraction on at most 6 labels: either a shrub fraction with a
    few factors dropped or added, or factors drawn from scratch.  Factors
    mix 0/1 sums with primitive integer forms whose coefficients are not
    all 1; sign and scalar are random too."""
    labels = draw(LABELS)

    def factor():
        support = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
        if draw(st.booleans()):
            return LinearForm.sum_of(support)
        coeffs = {v: draw(st.integers(-3, 3).filter(bool)) for v in support}
        return LinearForm.normalize(coeffs)[0]

    if draw(st.booleans()):
        P = random_shrub(labels, random.Random(draw(st.integers(0, 2**32))))
        f = fraction_of_shrub(P)
        num, den = list(f.num), list(f.den)
        for k in draw(st.lists(st.sampled_from((0, 1)), max_size=2)):
            side = (num, den)[k]
            if side and draw(st.booleans()):
                side.pop(draw(st.integers(0, len(side) - 1)))
            else:
                side.append(factor())
    else:
        num = [factor() for _ in range(draw(st.integers(0, 3)))]
        den = [factor() for _ in range(draw(st.integers(1, 8)))]
    # mostly +1 and 1, so that most fractions get past the first check
    sign = draw(st.sampled_from((1,) * 7 + (-1,)))
    scalar = draw(st.sampled_from((Fraction(1),) * 6 + (Fraction(2), Fraction(1, 3))))
    return FactoredFraction(sign, scalar, num, den)


@settings(max_examples=200, deadline=None)
@given(factored_fractions())
def test_reconstruct_matches_oracle_on_random_fractions(f):
    for cap in (4, 6):
        got = outcome(reconstruct, f, cap)
        assert got == outcome(oracle_reconstruct, f, cap)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="u0123456789AB+-*/() ", max_size=40) | st.text(max_size=40))
def test_parse_fraction_raises_only_value_or_shrub_errors(text):
    try:
        parse_fraction(text)
    except (ValueError, ShrubError):
        pass
