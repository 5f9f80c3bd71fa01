import importlib
import itertools
import json
import pickle
import pkgutil
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shrubs
from shrubs import (
    ForbiddenPattern,
    HeightJump,
    LabelClash,
    NotALeaf,
    NotCorrelated,
    Shrub,
    UnknownLabel,
    Unsupported,
    count_isomorphism_classes,
    enumerate_shrubs_bruteforce,
    label_key,
    trivial_shrub,
)
from shrubs.checks import all_shrubs, random_shrub
from shrubs.core import _find_pattern
from shrubs.errors import CapExceeded, ShrubError
from shrubs.series_parallel import count_series_parallel

from oracles import (
    brute_force_isomorphic,
    first_pattern_by_pairs,
    graph_candidates,
    naive_forbidden_pattern,
    oracle_canonical_form,
    oracle_merge_correlated,
    oracle_relabel,
)
from properties import holds


def chain(*labels):
    height = {v: k for k, v in enumerate(labels)}
    edges = [(labels[k], labels[k + 1]) for k in range(len(labels) - 1)]
    return Shrub(labels, height, edges)


class TestValidation:
    def test_single_vertex(self):
        P = Shrub([1], {1: 0}, [])
        assert len(P) == 1 and P.height(1) == 0

    def test_rooted_path(self):
        P = chain(1, 2, 3)
        assert P.height(3) == 2

    def test_f4_rejected(self):
        # w over x,y; y over z; x-z missing
        with pytest.raises(ForbiddenPattern) as info:
            Shrub(
                ["w", "x", "y", "z"],
                {"z": 0, "x": 1, "y": 1, "w": 2},
                [("w", "x"), ("w", "y"), ("y", "z")],
            )
        assert info.value.pattern == "F4"
        assert set(info.value.witnesses) == {"w", "x", "y", "z"}

    def test_f5_rejected(self):
        with pytest.raises(ForbiddenPattern) as info:
            Shrub(
                ["x", "y", "p", "q", "r"],
                {"p": 0, "q": 0, "r": 0, "x": 1, "y": 1},
                [("x", "p"), ("x", "q"), ("y", "q"), ("y", "r")],
            )
        assert info.value.pattern == "F5"

    def test_height_jump(self):
        with pytest.raises(HeightJump):
            Shrub([1, 2], {1: 0, 2: 2}, [(1, 2)])

    def test_unsupported(self):
        with pytest.raises(Unsupported):
            Shrub([1, 2], {1: 0, 2: 1}, [])

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            Shrub([1], {1: 0}, [(1, 2)])

    def test_witness_is_the_first_pair_in_index_order(self):
        rng = random.Random(8)
        for _ in range(4000):
            heights = [rng.randint(0, 3) for _ in range(rng.randint(1, 9))]
            covers = []
            for h in heights:
                below = [t for t, g in enumerate(heights) if g == h - 1]
                covers.append(sum(1 << t for t in below if rng.random() < 0.6))
            assert _find_pattern(covers) == first_pattern_by_pairs(covers), covers
        # complete bipartite K(30, 30): each top vertex covers 30 equal covers;
        # then the last bottom vertex gets a vertex below it, an F4 whose
        # first differing pair is (first, last)
        m = 30
        covers = [0] * m + [(1 << m) - 1] * m
        assert _find_pattern(covers) is None
        covers.append(0)
        covers[m - 1] = 1 << 2 * m
        assert _find_pattern(covers) == first_pattern_by_pairs(covers) == ("F4", (m, 0, m - 1, 2 * m))

    def test_pattern_check_matches_naive_scan(self):
        # small exhaustive sweep of all height-axiom graphs, n <= 5
        for n in range(1, 6):
            for hmap, edges in graph_candidates(n):
                try:
                    Shrub(list(hmap), hmap, edges)
                    fast_ok = True
                except ForbiddenPattern:
                    fast_ok = False
                naive = naive_forbidden_pattern(_raw(hmap, edges))
                assert fast_ok == (naive is None), (hmap, edges, naive)
        # complete bipartite K(4, 4), then with two edges gone (an F5)
        hmap = {v: int(v > 4) for v in range(1, 9)}
        full = [(b, t) for b in (1, 2, 3, 4) for t in (5, 6, 7, 8)]
        for edges in (full, [e for e in full if e not in ((1, 5), (2, 6))]):
            try:
                Shrub(list(hmap), hmap, edges)
                fast_ok = True
            except ForbiddenPattern:
                fast_ok = False
            assert fast_ok == (naive_forbidden_pattern(_raw(hmap, edges)) is None) == (edges is full)

    def test_naive_scan_clean_on_sampled_six_vertex_shrubs(self):
        rng = random.Random(3)
        for P in rng.sample(list(all_shrubs(6)), 1500):
            assert naive_forbidden_pattern(P) is None


def _raw(hmap, edges):
    """Bypass pattern validation to hand the naive scanner a raw graph."""
    P = object.__new__(Shrub)
    labels = tuple(sorted(hmap))
    index = {v: i for i, v in enumerate(labels)}
    covers = [0] * len(labels)
    for a, b in edges:
        ia, ib = index[a], index[b]
        if hmap[a] > hmap[b]:
            ia, ib = ib, ia
        covers[ib] |= 1 << ia
    P.labels = labels
    P._index = index
    P._heights = tuple(hmap[v] for v in labels)
    P._covers = tuple(covers)
    return P


class TestQueries:
    def test_covers(self):
        star = Shrub([1, 2, 3], {3: 0, 1: 1, 2: 1}, [(1, 3), (2, 3)])
        assert star.covers(1) == {3}
        assert star.covers(3) == frozenset()
        assert star.covered_by(3) == {1, 2}

    def test_covers_bipartite(self):
        B = Shrub([1, 2, 3, 4], {1: 0, 2: 0, 3: 1, 4: 1}, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert B.covers(3) == {1, 2}

    def test_components(self):
        P = Shrub([1, 2, 3], {1: 0, 2: 1, 3: 0}, [(1, 2)])
        comps = P.connected_components()
        assert sorted(len(c) for c in comps) == [1, 2]
        assert trivial_shrub(1).connected_components() == (trivial_shrub(1),)

    def test_is_connected_as_one_component(self):
        for n in range(1, 6):
            for P in all_shrubs(n):
                assert P.is_connected() == (len(P.connected_components()) == 1), P
        empty = Shrub([], {}, [])
        assert not empty.is_connected() and empty.connected_components() == ()
        long = chain(*range(5000))
        assert long.is_connected() and long.connected_components() == (long,)
        assert not Shrub([*range(5000), "x"], {**long.height_map, "x": 0}, long.edges).is_connected()

    def test_ram_classes(self):
        B = Shrub([1, 2, 3, 4], {1: 0, 2: 0, 3: 1, 4: 1}, [(1, 3), (1, 4), (2, 3), (2, 4)])
        (rc,) = B.ram_classes()
        assert rc.members == {3, 4} and rc.targets == {1, 2}
        assert chain(1, 2, 3).ram_classes() == ()

    def test_forests_have_no_ram_class(self):
        for P in all_shrubs(4):
            assert P.is_forest() == (not P.ram_classes())

    def test_upper_ideal(self):
        P = chain(1, 2, 3)
        assert P.upper_ideal({2}) == {2, 3}
        assert P.upper_ideal(set()) == frozenset()
        assert P.upper_ideal({1}) == {1, 2, 3}

    def test_upper_ideal_unknown(self):
        with pytest.raises(UnknownLabel):
            chain(1, 2).upper_ideal({9})

    def test_leaves_and_pairs(self):
        P = chain(1, 2, 3)
        assert P.leaves() == {3}
        assert P.correlated_pairs() == ()
        star = Shrub([1, 2, 3], {3: 0, 1: 1, 2: 1}, [(1, 3), (2, 3)])
        assert star.leaves() == {1, 2}
        assert star.correlated_pairs() == ((1, 2),)
        assert trivial_shrub(1).leaves() == frozenset()

    def test_delete_leaf(self):
        assert chain(1, 2, 3).delete_leaf(3) == chain(1, 2)
        with pytest.raises(NotALeaf):
            chain(1, 2, 3).delete_leaf(1)

    def test_merge_correlated(self):
        star = Shrub([1, 2, 3], {3: 0, 1: 1, 2: 1}, [(1, 3), (2, 3)])
        merged = star.merge_correlated(1, 2, "m")
        assert merged == Shrub([3, "m"], {3: 0, "m": 1}, [(3, "m")])
        with pytest.raises(NotCorrelated):
            chain(1, 2).merge_correlated(1, 2, "m")
        # a pair needs two vertices, even a vertex correlated with itself
        with pytest.raises(NotCorrelated) as info:
            star.merge_correlated(1, 1, "m")
        assert info.value.pair == (1, 1)

    def test_truncate(self):
        P = chain(1, 2, 3)
        assert P.truncate_at_or_above(1) == chain(2, 3)
        assert P.truncate_at_or_above(0) == P
        assert len(P.truncate_at_or_above(5)) == 0

    @pytest.mark.parametrize("h0", [1.5, True, "1"])
    def test_truncate_refuses_a_height_not_an_int(self, h0):
        with pytest.raises(ValueError) as info:
            chain(1, 2, 3).truncate_at_or_above(h0)
        assert str(info.value) == f"the height must be an int, got {h0!r}"

    def test_relabel_clash_names_each_label_once(self):
        P = Shrub([1, 2, 3, 4], {1: 0, 2: 0, 3: 0, 4: 0}, [])
        with pytest.raises(LabelClash) as info:
            P.relabel({1: "b", 2: "b", 3: "a", 4: "a"})
        assert info.value.labels == ("a", "b")
        assert str(info.value) == "label clash on ('a', 'b')"
        with pytest.raises(LabelClash) as info:
            P.relabel({1: "x", 2: 4, 3: "x"})
        assert info.value.labels == (4, "x")

    def test_surgery_keeps_validity(self):
        holds("core/surgery-validity")

    def test_every_nontrivial_shrub_peels(self):
        holds("core/leaf-or-pair")


class TestIsomorphism:
    def test_relabeled_chain(self):
        assert chain(1, 2, 3).is_isomorphic(chain("c", "a", "b"))

    def test_chain_vs_star(self):
        star = Shrub([1, 2, 3], {3: 0, 1: 1, 2: 1}, [(1, 3), (2, 3)])
        assert not chain(1, 2, 3).is_isomorphic(star)

    def test_canonical_matches_bruteforce(self):
        rng = random.Random(5)
        pool = [P for n in (3, 4) for P in all_shrubs(n)]
        picks = rng.sample(pool, 40)
        for P, Q in zip(picks[::2], picks[1::2]):
            assert P.is_isomorphic(Q) == brute_force_isomorphic(P, Q)
        for n in (5, 6):
            for P in rng.sample(list(all_shrubs(n)), 8):
                perm = list(P.labels)
                rng.shuffle(perm)
                Q = P.relabel(dict(zip(P.labels, perm)))
                assert P.is_isomorphic(Q) and brute_force_isomorphic(P, Q)
            P, Q = rng.sample(list(all_shrubs(n)), 2)
            assert P.is_isomorphic(Q) == brute_force_isomorphic(P, Q)

    def test_canonical_invariant_under_relabeling(self):
        rng = random.Random(6)
        for P in rng.sample(list(all_shrubs(5)), 30):
            perm = list(P.labels)
            rng.shuffle(perm)
            Q = P.relabel(dict(zip(P.labels, perm)))
            assert P.canonical_form()[0] == Q.canonical_form()[0]

    def test_canonical_relabeling_is_an_isomorphism(self):
        for P in all_shrubs(4):
            canon, relab = P.canonical_form()
            assert P.relabel(relab) == canon

    def test_canonical_form_equals_the_exhaustive_oracle(self):
        for n in range(1, 6):
            for P in all_shrubs(n):
                assert_canonical_form_as_oracle(P)
        rng = random.Random(13)
        for P in rng.sample(all_shrubs(6), 3000):
            assert_canonical_form_as_oracle(P)
        for n, count in ((7, 300), (8, 100)):
            for _ in range(count):
                assert_canonical_form_as_oracle(random_shrub(range(1, n + 1), rng))

    def test_canonical_form_breaks_ties_in_label_key_order(self):
        rng = random.Random(14)
        for n in range(1, 6):
            for P in all_shrubs(n):
                labels = rng.sample(MIXED_LABELS, n)
                assert_canonical_form_as_oracle(P.relabel(dict(zip(P.labels, labels))))

    def test_count_isomorphism_classes(self):
        rng = random.Random(15)
        shrubs = list(all_shrubs(4))
        for P in rng.sample(shrubs, 50):
            perm = list(P.labels)
            rng.shuffle(perm)
            shrubs.append(P.relabel(dict(zip(P.labels, [f"v{k}" for k in perm]))))
        assert count_isomorphism_classes(shrubs) == 15


MIXED_LABELS = (0, 7, -3, "a", "b", "□0", "x1", 12, "Z")


def assert_canonical_form_as_oracle(P):
    canon, relabeling = P.canonical_form()
    want_canon, want_relabeling = oracle_canonical_form(P)
    assert canon == want_canon, P
    assert relabeling == want_relabeling, P


def star_of_leaves(k):
    return Shrub(range(k + 1), {v: min(v, 1) for v in range(k + 1)}, [(0, v) for v in range(1, k + 1)])


def complete_bipartite(k):
    return Shrub(range(2 * k), {v: v // k for v in range(2 * k)}, [(a, b) for a in range(k) for b in range(k, 2 * k)])


def two_vertex_chains(k):
    return Shrub(range(2 * k), {v: v % 2 for v in range(2 * k)}, [(v, v + 1) for v in range(0, 2 * k, 2)])


class TestCanonicalFormHardCases:
    """Shapes on which the exhaustive search blows up: 12! relabelings of
    the star's leaves, 6!·6! of the bipartite shrub and of the six chains.
    The 5,000-vertex chain is far deeper than the default recursion limit,
    so it checks that the search never recurses."""

    @pytest.mark.parametrize(
        "make, seconds",
        [
            (lambda: star_of_leaves(12), 0.5),
            (lambda: complete_bipartite(6), 0.5),
            (lambda: two_vertex_chains(6), None),
            (lambda: chain(*range(5000)), None),
        ],
        ids=["star-12", "bipartite-6-6", "chains-6x2", "chain-5000"],
    )
    def test_relabeling_onto_one_to_n_and_invariant(self, make, seconds):
        P = make()
        start = time.perf_counter()
        canon, relabeling = P.canonical_form()
        elapsed = time.perf_counter() - start
        assert canon.labels == tuple(range(1, len(P) + 1))
        assert P.relabel(relabeling) == canon
        perm = list(P.labels)
        random.Random(16).shuffle(perm)
        assert P.relabel(dict(zip(P.labels, perm))).canonical_form()[0] == canon
        if seconds is not None:
            assert elapsed < seconds


class TestEnumeration:
    def test_tiny_counts(self):
        assert enumerate_shrubs_bruteforce(1) == (trivial_shrub(1),)
        two = set(enumerate_shrubs_bruteforce(2))
        assert two == {
            Shrub([1, 2], {1: 0, 2: 0}, []),
            Shrub([1, 2], {1: 0, 2: 1}, [(1, 2)]),
            Shrub([1, 2], {1: 1, 2: 0}, [(1, 2)]),
        }

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_shrubs_bruteforce(7)

    def test_connected_iso_classes_at_five(self):
        holds("core/iso-counts")

    def test_labeled_counts_past_the_cap(self):
        # the labeled shrub counts of the generating functions, past what is enumerated
        assert count_series_parallel(7) == 1_152_019
        assert count_series_parallel(8) == 30_564_075
        with pytest.raises(ValueError):
            count_series_parallel(0)

    def test_deterministic_order(self):
        assert enumerate_shrubs_bruteforce(3) == enumerate_shrubs_bruteforce(3)

    def test_order_is_sort_key_order(self):
        for n in range(1, 6):
            out = enumerate_shrubs_bruteforce(n)
            assert out == tuple(sorted(set(out), key=Shrub.sort_key))

    def test_memory_per_shrub(self):
        # a shrub keeps its labels, heights and cover masks: no upward masks
        # and no hash are stored, the label index is built only on a label
        # query, and the sort builds no key per label
        enumerate_shrubs_bruteforce(3)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            out = enumerate_shrubs_bruteforce(5)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == 2791
        assert retained <= 280 * len(out)
        assert peak <= 1.25 * retained


def _outcome(query):
    try:
        return "value", query()
    except (UnknownLabel, NotALeaf, NotCorrelated, LabelClash) as e:
        return type(e).__name__, str(e)


class TestLabelIndex:
    NON_LABELS = (1.0, True, [1], None)

    def test_built_on_first_query_and_answers_as_validated(self):
        for n in range(1, 5):
            for P in enumerate_shrubs_bruteforce(n):
                assert P._index is None
                Q = Shrub(P.labels, P.height_map, P.edges)
                assert P == Q and hash(P) == hash(Q) and P.to_json_dict() == Q.to_json_dict()
                swap = {P.labels[0]: P.labels[-1], P.labels[-1]: P.labels[0]}
                for mapping in ({v: v + 10 for v in P.labels}, swap):
                    assert P.relabel(mapping) == Q.relabel(mapping)
                assert P.canonical_form() == Q.canonical_form()
                assert P._index is None
                probes = (*P.labels, 0, n + 1, "a", *self.NON_LABELS)
                assert [v in P for v in probes] == [v in Q for v in probes]
                assert P._index == Q._index
                for v in probes:
                    for query in ("height", "covers", "covered_by", "delete_leaf"):
                        assert _outcome(lambda: getattr(P, query)(v)) == _outcome(lambda: getattr(Q, query)(v))
                    assert _outcome(lambda: P.upper_ideal([v])) == _outcome(lambda: Q.upper_ideal([v]))
                assert P.upper_ideal(P.labels) == Q.upper_ideal(P.labels)
                for a, b in itertools.permutations(P.labels + (n + 1,), 2):
                    for new in (a, n + 1, P.labels[0]):
                        assert _outcome(lambda: P.merge_correlated(a, b, new)) == _outcome(
                            lambda: Q.merge_correlated(a, b, new)
                        )

    def test_queries_refuse_what_is_no_label(self):
        for P in (chain(1, 2), enumerate_shrubs_bruteforce(2)[1]):
            for x in self.NON_LABELS:
                assert x not in P
                for query in (P.height, P.covers, P.covered_by, P.delete_leaf, lambda x: P.upper_ideal([x])):
                    with pytest.raises(UnknownLabel):
                        query(x)
                with pytest.raises(UnknownLabel):
                    P.merge_correlated(x, 2, 3)

    def test_pickle_round_trip(self):
        for P in enumerate_shrubs_bruteforce(4)[::7]:
            loaded = pickle.loads(pickle.dumps(P))
            assert loaded == P and hash(loaded) == hash(P)
            assert all(loaded.height(v) == P.height(v) for v in P.labels)
            assert all(loaded.covers(v) == P.covers(v) for v in P.labels)
            assert 0 not in loaded and 1.0 not in loaded


def _answers_from_edges(P):
    """``covered_by`` of each label, ``leaves``, ``correlated_pairs`` and
    ``is_connected`` of ``P``, worked out from ``P.edges`` and
    ``P.height_map`` alone."""
    h = P.height_map
    up = {v: set() for v in P.labels}
    down = {v: set() for v in P.labels}
    for a, b in P.edges:
        low, high = (a, b) if h[a] < h[b] else (b, a)
        up[low].add(high)
        down[high].add(low)
    leaves = frozenset(v for v in P.labels if len(down[v]) == 1 and not up[v])
    pairs = [
        tuple(sorted((a, b), key=label_key))
        for a, b in itertools.combinations(P.labels, 2)
        if up[a] == up[b] and down[a] == down[b]
    ]
    pairs.sort(key=lambda p: (label_key(p[0]), label_key(p[1])))
    reached, todo = set(), list(P.labels[:1])
    while todo:
        v = todo.pop()
        if v not in reached:
            reached.add(v)
            todo += up[v] | down[v]
    covered_by = {v: frozenset(up[v]) for v in P.labels}
    return covered_by, leaves, tuple(pairs), bool(P.labels) and len(reached) == len(P)


def _answers(P):
    return {v: P.covered_by(v) for v in P.labels}, P.leaves(), P.correlated_pairs(), P.is_connected()


class TestUpwardMasks:
    """The masks above each vertex are derived from the cover masks on
    every query; each way of making a shrub must give the answers its edge
    list gives."""

    @staticmethod
    def _made_from(P):
        yield P
        yield Shrub(P.labels, P.height_map, P.edges)
        yield P.relabel({v: f"v{v}" if v % 2 else len(P) + 1 - v for v in P.labels})
        yield from P.connected_components()
        for h0 in range(1, P.max_height() + 1):
            yield P.truncate_at_or_above(h0)
        yield pickle.loads(pickle.dumps(P))

    @classmethod
    def _all_made(cls):
        for P in (Shrub([], {}, []), *itertools.chain.from_iterable(map(all_shrubs, range(1, 6)))):
            yield from cls._made_from(P)

    def test_queries_match_the_edge_list(self):
        for Q in self._all_made():
            assert _answers(Q) == _answers_from_edges(Q), Q

    def test_hash_is_that_of_the_stored_fields(self):
        assert Shrub.__slots__ == ("labels", "_index", "_heights", "_covers")
        for Q in self._all_made():
            assert hash(Q) == hash((Q.labels, Q._heights, Q._covers)), Q


def _moved_outcome(fn, *args):
    try:
        return fn(*args)
    except (ShrubError, TypeError) as e:
        return type(e), str(e)


class TestMaskMove:
    """``relabel`` and ``merge_correlated`` move vertices with their cover
    masks; the oracles rename and merge edge lists through ``Shrub(...)``.
    Each must give the same shrub, or the same exception and message."""

    @staticmethod
    def _shrubs():
        for P in itertools.chain.from_iterable(map(all_shrubs, range(1, 6))):
            yield P
            yield P.relabel({v: f"v{v}" if v % 2 else len(P) + 1 - v for v in P.labels})

    def test_relabel_matches_the_edge_list(self):
        for P in self._shrubs():
            first, last = P.labels[0], P.labels[-1]
            mixed = {v: str(v) if k % 2 else 10 + k for k, v in enumerate(P.labels)}
            swap = {first: last, last: first}
            clashes = ({v: "c" for v in P.labels[:2]}, {last: first})
            for mapping in (mixed, swap, *clashes, {first: 1.0}):
                want = _moved_outcome(oracle_relabel, P, mapping)
                assert _moved_outcome(P.relabel, mapping) == want, (P, mapping)

    def test_merge_correlated_matches_the_edge_list(self):
        for P in self._shrubs():
            for a, b in itertools.product(P.labels, repeat=2):
                other = next((v for v in P.labels if v not in (a, b)), "z")
                for new in ("m", a, b, other, 1.0):
                    assert _moved_outcome(P.merge_correlated, a, b, new) == _moved_outcome(
                        oracle_merge_correlated, P, a, b, new
                    ), (P, a, b, new)


class TestSerialization:
    def test_json_roundtrip(self):
        for P in all_shrubs(4)[:60]:
            assert Shrub.from_json(P.to_json()) == P

    def test_json_string_labels(self):
        P = Shrub(["a", "b"], {"a": 0, "b": 1}, [("a", "b")])
        assert Shrub.from_json(P.to_json()) == P

    def test_json_height_keys_name_vertices(self):
        # as the constructor refuses a height for a label that is no vertex
        for text, label in (
            ('{"vertices": [1, 2], "height": {"1": 0, "2": 1, "3": 0}, "edges": [[1, 2]]}', "3"),
            ('{"vertices": ["a"], "height": {"a": 0, "1": 0}}', "1"),
        ):
            with pytest.raises(UnknownLabel, match=f"^unknown label '{label}' in height map$"):
                Shrub.from_json(text)
        with pytest.raises(UnknownLabel, match="^unknown label 3 in height map$"):
            Shrub([1, 2], {1: 0, 2: 1, 3: 0}, [(1, 2)])

    def test_json_shape(self):
        P = chain(2, 1)
        data = json.loads(P.to_json())
        assert data["vertices"] == [1, 2]
        assert data["edges"] == [[1, 2]]
        assert data["height"] == {"1": 1, "2": 0}

    def test_dot_output(self):
        dot = chain(1, 2).to_dot()
        assert dot.startswith("digraph")
        assert "rankdir=BT" in dot
        assert "rank=same" in dot
        assert '"1" -> "2";' in dot  # drawn low to high, dir=none
        assert "dir=none" in dot
        quoted = Shrub(['a"b', "c"], {'a"b': 0, "c": 1}, [('a"b', "c")]).to_dot()
        assert '{ rank=same; "a\\"b"; }' in quoted
        assert '"a\\"b" -> "c";' in quoted


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.randoms(use_true_random=False))
def test_relabel_roundtrip_property(n, rng):
    pool = all_shrubs(n)
    P = pool[rng.randrange(len(pool))]
    perm = list(P.labels)
    rng.shuffle(perm)
    mapping = dict(zip(P.labels, perm))
    inverse = {v: k for k, v in mapping.items()}
    assert P.relabel(mapping).relabel(inverse) == P


def test_module_level_caches_are_bounded():
    """Every ``functools`` cache at module level in ``shrubs.*``, on a
    function or a class attribute, keeps at most ``maxsize`` entries."""
    sizes = {}
    for info in pkgutil.iter_modules(shrubs.__path__):
        module = importlib.import_module(f"shrubs.{info.name}")
        for value in vars(module).values():
            found = [value]
            if isinstance(value, type):
                found += [getattr(value, name) for name in vars(value)]
            for obj in found:
                if hasattr(obj, "cache_info"):
                    sizes[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_info().maxsize
    assert {name for name, size in sizes.items() if size is None} == set()
    assert {
        "shrubs.mould.kappa",
        "shrubs.reconstruction._reconstruct_checked",
        "shrubs.anticyclic._generators",
        "shrubs.checks.all_shrubs",
    } <= set(sizes)
