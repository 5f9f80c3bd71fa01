"""Acceptance suite: one test per criterion, one printed line each.

Everything here is exact arithmetic, so every comparison is equality; run
with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
Most criteria run properties of ``shrubs.checks`` at the sizes in
``tests/properties.py``, which are the numbers their lines state.
"""

import time
from contextlib import contextmanager

from shrubs import (
    MouldElement,
    RationalFunction,
    all_ctrees,
    deformed_generators,
    graft_generator,
    kappa,
    pair_generator,
    parse_fraction,
    reconstruct,
)

from helpers import FIG2_TEXT, assert_deformed_relations
from properties import holds


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  {description}", flush=True)
        raise
    print(f"criterion {number:02d} PASS  {description}", flush=True)


def test_01_connected_isomorphism_classes_on_five_vertices():
    with criterion(1, "30 connected isomorphism classes on 5 vertices, under a minute"):
        start = time.monotonic()
        holds("core/iso-counts")
        assert time.monotonic() - start < 60.0


def test_02_enumeration_cross_check():
    with criterion(2, "brute-force enumeration equals building by the union/graft decomposition, n = 1..5"):
        holds("operad/enumeration-agreement")


def test_03_operad_axioms():
    with criterion(3, "associativity, unit and equivariance; exhaustive plus 1000 random triples"):
        holds("operad/associativity", "operad/units", "operad/equivariance")


def test_04_presentation():
    with criterion(4, "generator words invert for every labeled shrub n <= 6; degree-3 relations hold"):
        holds("operad/word-roundtrip", "operad/relations")


def test_05_order_morphism():
    with criterion(5, "order-sum map is a morphism (|P|,|Q| <= 3); equals the compatible-order sum, n <= 5"):
        holds("zinbiel/morphism", "zinbiel/unit-coefficients")


def test_06_mould_formula():
    with criterion(6, "compositional fraction equals the closed formula n <= 5; reduced and squarefree n <= 6"):
        holds("mould/closed-formula", "mould/squarefree")


def test_07_published_fraction_vector():
    with criterion(7, "the published 6-vertex fraction reconstructs and reproduces its text"):
        from shrubs import format_fraction

        f = parse_fraction(FIG2_TEXT)
        P = reconstruct(f)
        assert len(P) == 6
        classes = {rc.members: rc.targets for rc in P.ram_classes()}
        assert set(classes) == {frozenset({"A"}), frozenset({"E"})}
        assert format_fraction(kappa(P)) == FIG2_TEXT


def test_08_injectivity_at_desk_scale():
    with criterion(8, "fractions pairwise distinct and reconstruction inverts, n <= 5; brute-force oracle n <= 4"):
        holds("reconstruction/injective", "reconstruction/roundtrip", "reconstruction/bruteforce-oracle")


def test_09_anticyclic_closure_and_group_laws():
    with criterion(9, "index-0 transpositions close on signed shrubs n <= 5; group laws on 500 seeded pairs"):
        holds("anticyclic/closure", "anticyclic/group-laws")


def test_10_orbit_invariants():
    with criterion(10, "ram-class count and the folded multiset pair are constant on every orbit, n <= 5"):
        holds("anticyclic/orbit-invariants")


def test_11_forest_action():
    with criterion(11, "tree-model action agrees on all signed forests n <= 5; |C(n+1)| = 2(n+1)^(n-1)"):
        assert len(all_ctrees(2)) == 6
        holds("anticyclic/tree-model", "anticyclic/forest-agreement")


def test_12_series_parallel_cross_check():
    with criterion(12, "labeled shrub counts equal labeled series-parallel poset counts, n = 1..5"):
        holds("series-parallel/labeled-counts")


def test_13_deformation():
    with criterion(13, "deformed generators: associative, satisfy the graft relation; t = 1 is undeformed"):
        for coeffs in ((1,), (0, 1), (1, 1)):
            assert_deformed_relations(coeffs)
        C1, D1 = deformed_generators((1,))
        assert C1 == RationalFunction.from_mould(
            MouldElement.from_fraction(kappa(pair_generator(1, 2)))
        )
        assert D1 == RationalFunction.from_mould(
            MouldElement.from_fraction(kappa(graft_generator(1, 2)))
        )
