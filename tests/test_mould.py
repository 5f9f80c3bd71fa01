import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import shrubs
from shrubs import (
    FactoredFraction,
    LinearForm,
    MouldElement,
    NotInZinbielImage,
    Polynomial,
    RationalFunction,
    Shrub,
    ZinbElement,
    compose,
    deformed_generators,
    embed_order,
    embed_zinb,
    equals,
    expand,
    format_fraction,
    fraction_of_shrub,
    gamma,
    graft_generator,
    kappa,
    mould_compose,
    pair_generator,
    parse_fraction,
    trivial_shrub,
    zinb_compose,
    zinb_extract,
)
from shrubs.checks import all_shrubs
from shrubs.errors import CapExceeded, DegreeCapExceeded, LabelClash, UnknownLabel, ZeroDenominator
from shrubs.fraction_parser import _parse_canonical, _parse_general
from shrubs.mould import shrub_masks
from shrubs.reconstruction import _record

from helpers import assert_deformed_relations, chain, form, stack_depth
from oracles import oracle_format_fraction, oracle_fraction, oracle_fraction_factors
from properties import holds


def inv(*forms):
    return FactoredFraction(den=list(forms))


u1, u2, u3, u4 = form((1, 1)), form((2, 1)), form((3, 1)), form((4, 1))
u12 = form((1, 1), (2, 1))


class TestPolynomial:
    def test_arithmetic(self):
        x, y = Polynomial.var("x"), Polynomial.var("y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert p.substitute("x", y) .is_zero()

    def test_degree_and_coeff(self):
        x, y = Polynomial.var("x"), Polynomial.var("y")
        p = x * x * y + x.scale(3) + Polynomial.constant(5)
        assert p.degree_in("x") == 2
        assert p.coeff_of_power("x", 2) == y
        assert p.coeff_of_power("x", 0) == Polynomial.constant(5)

    def test_evaluate(self):
        x = Polynomial.var("x")
        assert (x * x + x).evaluate({"x": Fraction(3)}) == 12

    def test_term_cap(self):
        xs = [Polynomial.var(k) for k in range(12)]
        p = Polynomial.constant(1)
        with pytest.raises(DegreeCapExceeded):
            for _ in range(3):
                for v in xs:
                    p = p.__mul__(Polynomial.constant(1) + v, cap=100)


class TestLinearForm:
    def test_normalization(self):
        f, sign, content = LinearForm.normalize({2: -2, 1: -4})
        assert sign == -1 and content == 2
        assert f == form((1, 2), (2, 1))

    def test_zero(self):
        f, sign, content = LinearForm.normalize({1: 0})
        assert f is None and content == 0

    def test_substitute(self):
        f = form((1, 1), (2, 1))
        g, sign, content = f.substitute({1: {3: 1, 4: 1}})
        assert g == form((2, 1), (3, 1), (4, 1)) and sign == 1 and content == 1
        g, sign, content = f.substitute({1: {1: -1, 2: -1}})
        assert g == u1 and sign == -1 and content == 1  # collapses to -u1

    def test_text(self):
        assert form((1, 1), (2, -2)).text() == "u1-2*u2"

    @pytest.mark.parametrize("c", [1.5, 2.0, 0.0, True, Fraction(2)])
    def test_coefficients_must_be_ints(self, c):
        # 1.5 used to be truncated, giving u1+u2
        with pytest.raises(ValueError) as info:
            LinearForm.normalize({1: c, 2: 1})
        assert str(info.value) == f"the coefficient of 1 must be an int, got {c!r}"

    @pytest.mark.parametrize("c", [0.5, 1.0, True, 0, Fraction(1)])
    def test_raw_forms_take_only_nonzero_int_coefficients(self, c):
        # 0.5 used to make evaluate return floats, and 0 printed as 0*u1
        with pytest.raises(ValueError) as info:
            LinearForm(((2, 1), (1, c)))
        assert str(info.value) == f"the coefficient of 1 must be a nonzero int, got {c!r}"

    def test_substitution_refuses_non_int_coefficients(self):
        # these used to give -1/((u2)(0*u3-u4)) and 1/2*1/((u2)(u3))
        for rep, bad in (({3: 0.5, 4: 1}, 0.5), ({3: 2.7}, 2.7)):
            with pytest.raises(ValueError) as info:
                inv(u1, u2).substitute({1: rep})
            assert str(info.value) == f"the coefficient of 3 must be an int, got {bad}"


class TestFactoredFraction:
    def test_reduction(self):
        f = FactoredFraction(num=[u12], den=[u1, u12])
        assert f == inv(u1)

    def test_scalar_sign_fold(self):
        f = FactoredFraction(sign=1, scalar=-2, num=[u1], den=[u2])
        assert f.sign == -1 and f.scalar == 2

    @pytest.mark.parametrize("sign", [1.0, -1.0, True])
    def test_sign_must_be_the_int_one_or_minus_one(self, sign):
        # a float sign used to give float values: evaluate gave 0.5, not 1/2
        for scalar in (1, -1):
            with pytest.raises(ValueError, match=r"^sign must be \+-1 and the scalar nonzero$"):
                FactoredFraction(sign, scalar, [], [u1])
        got = FactoredFraction(-1, 1, [], [u1]).evaluate({1: 2})
        assert got == Fraction(-1, 2) and type(got) is Fraction

    @pytest.mark.parametrize("scalar", [0.1, 1.0, True, "1/2"])
    def test_scalar_must_be_an_int_or_a_fraction(self, scalar):
        # 0.1 used to be read at its binary value, 3602879701896397/36028797018963968
        with pytest.raises(ValueError) as info:
            FactoredFraction(1, scalar, [], [u1])
        assert str(info.value) == f"the scalar must be an int or a Fraction, got {scalar!r}"
        assert FactoredFraction(1, Fraction(1, 10), [], [u1]).scalar == Fraction(1, 10)
        assert FactoredFraction(1, -3, [], [u1]) == FactoredFraction(-1, Fraction(3), [], [u1])

    def test_compose_cancellation(self):
        # (1/(u1 u2)) o_1 (1/(u3 u4)) = 1/(u2 u3 u4)
        got = inv(u1, u2).compose_at(1, inv(u3, u4), {3, 4})
        assert got == inv(u2, u3, u4)

    def test_compose_unit(self):
        f = inv(u1, u12)
        got = f.compose_at(2, FactoredFraction(den=[form((9, 1))]), {9})
        assert got == inv(form((1, 1)), form((1, 1), (9, 1)))

    def test_evaluate(self):
        f = FactoredFraction(num=[u12], den=[u1, u2])
        assert f.evaluate({1: 1, 2: 2}) == Fraction(3, 2)
        with pytest.raises(ZeroDenominator):
            f.evaluate({1: 0, 2: 2})


class TestTextFormat:
    def test_examples(self):
        assert format_fraction(inv(u1, u12)) == "1/((u1)(u1+u2))"
        assert format_fraction(inv(u1)) == "1/(u1)"
        assert format_fraction(FactoredFraction(num=[u12])) == "(u1+u2)"
        assert format_fraction(FactoredFraction(sign=-1, scalar=Fraction(3, 2), den=[u1])) == "-3/2*1/(u1)"

    def test_roundtrip(self):
        rng = random.Random(15)
        for P in rng.sample(list(all_shrubs(5)), 40):
            f = fraction_of_shrub(P)
            assert parse_fraction(format_fraction(f)) == f

    def test_parser_accepts_unnormalized(self):
        f = parse_fraction("(2*u1+2*u2)/((u1)(u2))")
        assert f.scalar == 2 and f.num == (u12,)

    def test_parser_string_labels(self):
        f = parse_fraction("1/((uA)(uA+uB))")
        assert f.den == (form(("A", 1)), form(("A", 1), ("B", 1)))

    # text the canonical path reads, or leaves to the general parser: a
    # wrapped single factor or numerator, cancelling factors (u01 is the
    # label 1) and a coefficient; the result is the general parser's
    @pytest.mark.parametrize(
        "text, canonical, written",
        [
            ("1/((u1))", False, "1/(u1)"),
            ("((u1)(u2))/(u3)", False, "(u1)(u2)/(u3)"),
            ("1/((uA)(uA+uB))", True, "1/((uA)(uA+uB))"),
            ("(u1)/((u1)(u2))", False, "1/(u2)"),
            ("(u1+u1)/(u2)", False, "2*(u1)/(u2)"),
            ("(u01)/((u1)(u2))", False, "1/(u2)"),
            ("1", True, "1"),
        ],
    )
    def test_canonical_path(self, text, canonical, written):
        f, g = parse_fraction(text), _parse_general(text)
        assert (_parse_canonical(text) is not None) is canonical
        assert (f, repr(f), hash(f)) == (g, repr(g), hash(g))
        assert format_fraction(f) == written

    def test_label_past_the_int_digit_limit(self):
        # int() refuses it; the canonical path leaves the error to the general parser
        text = "1/(u" + "1" * 5000 + ")"
        with pytest.raises(ValueError, match=r"^cannot parse fraction '1/\(u1+\)': Exceeds the limit"):
            parse_fraction(text)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_fraction("1/((u1)")
        with pytest.raises(ValueError):
            parse_fraction("hello")

    # each would read back as another label ("10" as the int 10, "a b" as
    # "ab") or not at all ("a-b", -3), so writing it is refused
    @pytest.mark.parametrize("label", ["10", "a b", "a-b", -3])
    def test_labels_the_text_cannot_carry(self, label):
        f = fraction_of_shrub(graft_generator(label, "x"))
        with pytest.raises(ValueError, match=f"^label {label!r} cannot be written in fraction text"):
            format_fraction(f)
        assert "LinearForm(" in repr(f)  # repr still works


def form_built(f):
    """A copy of ``f`` built by ``FactoredFraction.__init__`` from its forms."""
    return FactoredFraction(f.sign, f.scalar, f.num, f.den)


def text_outcome(fn, f):
    try:
        return "ok", fn(f)
    except ValueError as exc:
        return ValueError, str(exc)


# mixed int and str labels, all of which fraction text carries
MIXED_TEXT_LABELS = (0, 7, "a", "b", "□0", "x1")


class TestMaskBackedFraction:
    """A fraction built from masks agrees with its form-built copy, whether
    or not its forms have been built yet."""

    Q = graft_generator("q0", "q1")

    def assert_as_form_built(self, P, rng):
        def fresh():  # forms not built yet
            return fraction_of_shrub(P)

        assert fresh()._masks == (P.labels, *shrub_masks(P))
        g = form_built(fresh())
        assert g._masks is None
        assert fresh() == g and g == fresh()
        assert hash(fresh()) == hash(g)
        assert format_fraction(fresh()) == format_fraction(g) == oracle_format_fraction(g)
        assert repr(fresh()) == repr(g)
        assert fresh().sort_key() == g.sort_key()
        assert fresh().labels == g.labels == frozenset(P.labels)
        q, q_form = fraction_of_shrub(self.Q), form_built(fraction_of_shrub(self.Q))
        assert fresh() * q == g * q_form and q * fresh() == q_form * g
        if rng.random() < 0.2:  # the costliest check, on a seeded fifth
            i = rng.choice(P.labels)
            composed = g.compose_at(i, q_form, self.Q.labels)
            assert fresh().compose_at(i, q, self.Q.labels) == composed
            assert g.compose_at(i, q, self.Q.labels) == composed
        for c in (copy.copy(fresh()), pickle.loads(pickle.dumps(fresh()))):
            assert c == g and g == c and hash(c) == hash(g) and c._masks == fresh()._masks
            assert format_fraction(c) == format_fraction(g)

    def test_every_shrub_up_to_five(self):
        rng = random.Random(21)
        for n in range(1, 6):
            for P in all_shrubs(n):
                self.assert_as_form_built(P, rng)

    def test_seeded_six_vertex_shrubs(self):
        rng = random.Random(22)
        for P in rng.sample(all_shrubs(6), 3000):
            self.assert_as_form_built(P, rng)

    def test_mixed_labels(self):
        rng = random.Random(23)
        for n in range(1, 6):
            for P in all_shrubs(n)[:: 3 if n == 5 else 1]:
                labels = rng.sample(MIXED_TEXT_LABELS, n)
                self.assert_as_form_built(P.relabel(dict(zip(P.labels, labels))), rng)

    # writing order: numerator first, then factors in sort_key order; in the
    # last shrub the roots "a b" and "zz" form the numerator factor, so "a b"
    # is named although -3 sorts first
    @pytest.mark.parametrize(
        "P, named",
        [
            (graft_generator(-3, "x"), -3),
            (graft_generator("x", "10"), "10"),
            (pair_generator("a b", "10"), "10"),
            (pair_generator(-3, "a b"), -3),
            (
                Shrub(
                    ["a b", "zz", -3, 5],
                    {"a b": 0, "zz": 0, -3: 1, 5: 1},
                    [("a b", -3), ("a b", 5), ("zz", -3), ("zz", 5)],
                ),
                "a b",
            ),
        ],
    )
    def test_labels_the_text_cannot_carry(self, P, named):
        f, g = fraction_of_shrub(P), form_built(fraction_of_shrub(P))
        got = text_outcome(format_fraction, f)
        assert got == text_outcome(format_fraction, g) == text_outcome(oracle_format_fraction, g)
        assert got[0] is ValueError
        assert got[1].startswith(f"label {named!r} cannot be written in fraction text")
        assert repr(fraction_of_shrub(P)) == repr(g)

    def test_bad_labels_in_every_shrub_up_to_four(self):
        rng = random.Random(24)
        pool = (1, 2, -3, "10", "a b", "ok")
        for n in range(1, 5):
            for P in all_shrubs(n):
                P = P.relabel(dict(zip(P.labels, rng.sample(pool, n))))
                g = form_built(fraction_of_shrub(P))
                assert text_outcome(format_fraction, fraction_of_shrub(P)) == text_outcome(
                    oracle_format_fraction, g
                )

    def test_parsed_text_keeps_the_record(self):
        rng = random.Random(25)
        shrubs = [P for n in range(1, 6) for P in all_shrubs(n)]
        shrubs += [P.relabel(dict(zip(P.labels, rng.sample(MIXED_TEXT_LABELS, len(P))))) for P in shrubs]
        for P in shrubs:
            text = format_fraction(fraction_of_shrub(P))
            f = parse_fraction(text)
            assert f._masks == _record(form_built(f)) == fraction_of_shrub(P)._masks
            assert format_fraction(f) == text


# built alike in two processes: a shrub on str labels, its mask-backed
# fraction with its hash built, the same fraction built from its forms, and
# a linear form
PICKLED = """
import pickle, sys
from shrubs import FactoredFraction, LinearForm, fraction_of_shrub, graft_generator
P = graft_generator("a", "b")
f = fraction_of_shrub(P)
hash(f)
values = [P, f, FactoredFraction(f.sign, f.scalar, f.num, f.den), LinearForm.sum_of("ab")]
"""


def test_pickles_hash_in_the_loading_process():
    # a str label hashes differently under another hash seed, so a pickled
    # cached hash would not find the value in the loading process's sets
    src = str(Path(shrubs.__file__).resolve().parents[1])

    def run(code, seed, stdin=""):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", PICKLED + code], input=stdin, capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    dumped = run("sys.stdout.write(pickle.dumps(values).hex())", "1")
    loaded = run(
        "loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
        "print([x == y and x in {y} for x, y in zip(loaded, values)], loaded[1]._masks == f._masks)",
        "2",
        dumped,
    )
    assert loaded == "[True, True, True, True] True\n"


class TestEmbedding:
    def test_embed_order(self):
        assert embed_order((1,)) == inv(u1)
        assert embed_order((2, 1)) == inv(u1, u12)

    def test_pair_identity(self):
        lhs = embed_zinb(gamma(pair_generator(1, 2)))
        rhs = MouldElement.from_fraction(inv(u1, u2))
        assert equals(lhs, rhs)

    def test_intertwines_composition(self):
        holds("mould/embedding")

    def test_compose_errors(self):
        x = MouldElement.from_fraction(inv(u1, u2))
        with pytest.raises(UnknownLabel):
            mould_compose(x, 9, x)
        with pytest.raises(LabelClash):
            mould_compose(x, 1, x)


class TestShrubFraction:
    def test_trivial(self):
        assert fraction_of_shrub(trivial_shrub(1)) == inv(u1)

    def test_edge(self):
        assert fraction_of_shrub(graft_generator(2, 1)) == inv(u1, u12)

    def test_pair(self):
        assert fraction_of_shrub(pair_generator(1, 2)) == inv(u1, u2)

    def test_kappa_equals_formula(self):
        holds("mould/closed-formula")

    def test_kappa_of_a_long_chain_without_recursion(self):
        P = chain(600)
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 100)
        try:
            got = kappa.__wrapped__(P)
        finally:
            sys.setrecursionlimit(saved)
        assert got == fraction_of_shrub(P)

    def test_matches_linear_form_oracle(self):
        shrubs = [P for n in range(1, 6) for P in all_shrubs(n)]
        shrubs += random.Random(6).sample(all_shrubs(6), 2000)
        for P in shrubs:
            f = fraction_of_shrub(P)
            assert f == oracle_fraction(P)
            for got, expected in zip((f.num, f.den), oracle_fraction_factors(P)):
                assert sorted(got, key=LinearForm.sort_key) == sorted(expected, key=LinearForm.sort_key)

    def test_raw_factors_already_reduced_and_squarefree(self):
        holds("mould/squarefree")

    def test_numerator_degree_counts_ram_classes(self):
        holds("mould/numerator-degree")

    def test_connected_full_sum_factor(self):
        holds("mould/full-sum-factor")

    def test_product_rules(self):
        holds("mould/product-rules")

    def test_kappa_is_a_morphism_via_compose(self):
        rng = random.Random(16)
        from shrubs.checks import random_shrub

        for _ in range(40):
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            P = random_shrub(range(1, a + 1), rng)
            Q = random_shrub(range(11, 11 + b), rng)
            i = rng.choice(sorted(P.labels))
            lhs = MouldElement.from_fraction(kappa(compose(P, i, Q)))
            rhs = mould_compose(
                MouldElement.from_fraction(kappa(P)), i, MouldElement.from_fraction(kappa(Q))
            )
            assert equals(lhs, rhs)


class TestExpandEquals:
    def test_reflexive_and_distinct(self):
        x = MouldElement.from_fraction(inv(u1))
        y = MouldElement.from_fraction(inv(u2), labels={1, 2})
        assert equals(x, x)
        assert not equals(MouldElement.from_fraction(inv(u1), labels={1, 2}), y)

    def test_sum_collapses(self):
        two_terms = embed_zinb(ZinbElement({1, 2}, {(1, 2): 1, (2, 1): 1}))
        assert equals(two_terms, MouldElement.from_fraction(inv(u1, u2)))

    def test_expand_shape(self):
        n, d = expand(MouldElement.from_fraction(inv(u1, u2)))
        assert n == Polynomial.constant(1)
        assert d == Polynomial.var(1) * Polynomial.var(2)


class TestExtraction:
    def test_generator_images(self):
        assert zinb_extract(MouldElement.from_fraction(inv(u1, u12))) == ZinbElement.from_order((2, 1))
        assert zinb_extract(MouldElement.from_fraction(inv(u1))) == ZinbElement.from_order((1,))
        got = zinb_extract(MouldElement.from_fraction(inv(u1, u2)))
        assert got == ZinbElement({1, 2}, {(1, 2): 1, (2, 1): 1})

    def test_inverts_gamma(self):
        holds("mould/extraction")

    def test_rational_coefficients(self):
        x = ZinbElement({1, 2}, {(1, 2): Fraction(2, 3), (2, 1): -2})
        assert zinb_extract(embed_zinb(x)) == x

    def test_multi_term_input(self):
        x = embed_zinb(ZinbElement({1, 2, 3}, {(1, 2, 3): 1, (2, 1, 3): 5}))
        got = zinb_extract(x)
        assert got.coeffs == {(1, 2, 3): 1, (2, 1, 3): 5}

    def test_not_in_image(self):
        with pytest.raises(NotInZinbielImage):
            zinb_extract(MouldElement.from_fraction(inv(u1), labels={1, 2}), labels={1, 2})
        with pytest.raises(NotInZinbielImage):
            zinb_extract(MouldElement.from_fraction(FactoredFraction(num=[u12], den=[u1, u2, u2])))

    def test_split_certificate(self):
        # every degree test passes: only the exact split check refuses it
        f = MouldElement.from_fraction(inv(u1, form((1, 1), (2, 2))))
        with pytest.raises(NotInZinbielImage) as info:
            zinb_extract(f)
        assert str(info.value) == "the fraction does not split over candidate minima"

    def test_cap(self):
        big = FactoredFraction(den=[form((k, 1)) for k in range(1, 8)])
        with pytest.raises(CapExceeded):
            zinb_extract(MouldElement.from_fraction(big))

    def test_zero(self):
        assert zinb_extract(MouldElement.zero({1, 2}), labels={1, 2}).is_zero()

    @pytest.mark.parametrize("cap", ["6", None, True, 6.5, 6.0])
    def test_cap_must_be_an_int(self, cap):
        f = MouldElement.from_fraction(inv(u1, u2))
        with pytest.raises(ValueError) as info:
            zinb_extract(f, cap=cap)
        assert str(info.value) == f"the extraction cap must be an int, got {cap!r}"
        assert zinb_extract(f, cap=2) == ZinbElement({1, 2}, {(1, 2): 1, (2, 1): 1})


class TestDeformation:
    def test_constant_t_reproduces_generators(self):
        C, D = deformed_generators((1,))
        assert C == RationalFunction.from_mould(MouldElement.from_fraction(kappa(pair_generator(1, 2))))
        assert D == RationalFunction.from_mould(MouldElement.from_fraction(kappa(graft_generator(1, 2))))

    @pytest.mark.parametrize("coeffs", [(1,), (0, 1), (1, 1), (2, 0, 3)])
    def test_relations(self, coeffs):
        assert_deformed_relations(coeffs)

    def test_linear_t(self):
        C, _ = deformed_generators((0, 1))
        expected = RationalFunction({1, 2}, Polynomial.constant(1), Polynomial.var(1) + Polynomial.var(2))
        assert C == expected

    def test_zero_t_rejected(self):
        with pytest.raises(ZeroDenominator):
            deformed_generators((0, 0))

    def test_equality_and_hash_see_the_labels(self):
        one, u1 = Polynomial.constant(1), Polynomial.var(1)
        a = RationalFunction({1}, u1, one)
        assert a != RationalFunction({1, 2}, u1, one)
        assert len({a, RationalFunction({1, 2}, u1, one)}) == 2
        same = RationalFunction({1}, u1 * Polynomial.constant(2), Polynomial.constant(2))
        assert a == same and hash(a) == hash(same) and len({a, same}) == 1


COEFFICIENT_TAKERS = {
    "ZinbElement": lambda c: ZinbElement({1, 2}, {(1, 2): c}),
    "ZinbElement.scale": lambda c: ZinbElement.from_order((1, 2)).scale(c),
    "MouldElement": lambda c: MouldElement({1}, [(c, inv(u1))]),
    "MouldElement.scale": lambda c: MouldElement.from_fraction(inv(u1)).scale(c),
    "Polynomial": lambda c: Polynomial({((1, 1),): c}),
    "Polynomial.scale": lambda c: Polynomial.var(1).scale(c),
    "Polynomial.constant": lambda c: Polynomial.constant(c),
    "Polynomial.__mul__": lambda c: Polynomial.var(1) * c,
    "Polynomial.__rmul__": lambda c: c * Polynomial.var(1),
}


@pytest.mark.parametrize("c", [0.1, 1.0, True, "1/2"])
@pytest.mark.parametrize("name", COEFFICIENT_TAKERS)
def test_coefficient_must_be_an_int_or_a_fraction(name, c):
    # a float would be read at its binary value: 0.1 as 3602879701896397/36028797018963968
    take = COEFFICIENT_TAKERS[name]
    with pytest.raises(ValueError) as info:
        take(c)
    assert str(info.value) == f"a coefficient must be an int or a Fraction, got {c!r}"
    assert take(Fraction(1, 10)) == take(Fraction(2, 20)) != take(1)


def five_compositions(P, i, Q):
    """The five partial compositions, each on the images of ``P`` and ``Q``."""
    mP, mQ = MouldElement.from_fraction(kappa(P)), MouldElement.from_fraction(kappa(Q))
    return {
        "compose": lambda: compose(P, i, Q),
        "FactoredFraction.compose_at": lambda: kappa(P).compose_at(i, kappa(Q), Q.labels),
        "mould_compose": lambda: mould_compose(mP, i, mQ),
        "RationalFunction.compose_at": lambda: RationalFunction.from_mould(mP).compose_at(
            i, RationalFunction.from_mould(mQ)
        ),
        "zinb_compose": lambda: zinb_compose(gamma(P), i, gamma(Q)),
    }


@pytest.mark.parametrize(
    "slot, inner, error, message",
    [
        (9, graft_generator(3, 4), UnknownLabel, "unknown label 9 in composition slot"),
        (1, Shrub(["a", 2, 5], {"a": 0, 2: 0, 5: 0}, []), LabelClash, "label clash on (2, 'a')"),
        (1.0, graft_generator(3, 4), UnknownLabel, "unknown label 1.0 in composition slot"),
        (True, graft_generator(3, 4), UnknownLabel, "unknown label True in composition slot"),
        ([1], graft_generator(3, 4), UnknownLabel, "unknown label [1] in composition slot"),
    ],
)
def test_compositions_refuse_alike(slot, inner, error, message):
    P = Shrub([1, 2, "a"], {1: 0, 2: 1, "a": 0}, [(1, 2)])
    for name, run in five_compositions(P, slot, inner).items():
        with pytest.raises(error) as info:
            run()
        assert str(info.value) == message, name
