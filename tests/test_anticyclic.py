import copy
import dataclasses
import functools
import itertools
import math
import pickle
import random

import pytest

from shrubs import (
    CTree,
    NotAForest,
    Shrub,
    SignedShrub,
    act,
    b0,
    ctree_act,
    forest_act,
    graft_generator,
    orbit,
    orbit_invariant,
    pair_generator,
    ram_count_preserved,
    trivial_shrub,
)
from shrubs import anticyclic
from shrubs.checks import all_shrubs, random_shrub
from shrubs.errors import CapExceeded

from helpers import chain
from oracles import oracle_act, oracle_orbit
from properties import holds


def tau(i, n):
    sigma = list(range(n + 1))
    sigma[0], sigma[i] = sigma[i], sigma[0]
    return tuple(sigma)


def adjacent(i, n):
    sigma = list(range(n + 1))
    sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
    return tuple(sigma)


def signed(P, sign=1):
    return SignedShrub(sign, P)


def all_signed(n):
    return [SignedShrub(s, P) for P in all_shrubs(n) for s in (1, -1)]


class TestAct:
    def test_identity(self):
        x = signed(pair_generator(1, 2))
        assert act((0, 1, 2), x) == x

    def test_pair_flips_to_edge(self):
        x = signed(pair_generator(1, 2))
        got = act(tau(1, 2), x)
        assert got == signed(graft_generator(1, 2), -1)

    def test_rooted_edge_fixed(self):
        x = signed(graft_generator(2, 1))
        assert act(tau(1, 2), x) == x

    def test_zero_fixing_is_relabeling(self):
        holds("anticyclic/relabeling")
        # past the size any check enumerates: a rebuild has no size cap
        sigma = (0, 2, 1, 3, 4, 5, 6, 7)
        want = chain(7).relabel({k: sigma[k] for k in range(1, 8)})
        assert act(sigma, signed(chain(7))) == signed(want)

    def test_closure_exhaustive(self):
        holds("anticyclic/closure")

    def test_group_laws_random(self):
        holds("anticyclic/group-laws")

    def test_sign_multiplies(self):
        x = signed(pair_generator(1, 2), -1)
        got = act(tau(1, 2), x)
        assert got == signed(graft_generator(1, 2), 1)

    def test_bad_permutation(self):
        with pytest.raises(ValueError):
            act((0, 1), signed(pair_generator(1, 2)))

    # a float or bool entry is refused, not truncated by int(): (1.9, 0, 2)
    # would act as (1, 0, 2)
    @pytest.mark.parametrize(
        "sigma", [(1.9, 0, 2), (1.0, 0, 2), (True, False, 2), ("1", "0", "2"), (0, 1, 1), 5]
    )
    @pytest.mark.parametrize("apply, x", [(act, signed(pair_generator(1, 2))), (ctree_act, CTree(1, (0, 0)))])
    def test_entries_must_be_ints(self, apply, x, sigma):
        with pytest.raises(ValueError, match=r"^need a permutation of 0\.\.2 in one-line notation, got "):
            apply(sigma, x)


class TestAgainstSubstitution:
    """``act`` and ``orbit`` against the generic substitution into ``kappa``."""

    def test_act_every_permutation(self):
        for n in range(1, 4):
            for x in all_signed(n):
                for sigma in itertools.permutations(range(n + 1)):
                    assert act(sigma, x) == oracle_act(sigma, x)

    def test_act_transpositions_n4(self):
        n = 4
        sigmas = {adjacent(i, n) for i in range(n)} | {tau(i, n) for i in range(1, n + 1)}
        for x in all_signed(n):
            for sigma in sigmas:
                assert act(sigma, x) == oracle_act(sigma, x)

    def test_orbit_is_the_closure(self):
        for n in range(1, 5):
            remaining = set(all_signed(n))
            while remaining:
                x = remaining.pop()
                closure = frontier = {x}
                while frontier:
                    frontier = {oracle_act(adjacent(i, n), y) for y in frontier for i in range(n)}
                    frontier -= closure
                    closure = closure | frontier
                assert orbit(x) == tuple(sorted(closure, key=SignedShrub.sort_key))
                remaining -= closure


class TestOrbits:
    def test_pair_orbit(self):
        orb = orbit(signed(pair_generator(1, 2)))
        shrubs = {(y.sign, y.shrub) for y in orb}
        assert shrubs == {
            (1, pair_generator(1, 2)),
            (-1, graft_generator(1, 2)),
            (-1, graft_generator(2, 1)),
        }

    def test_trivial_orbit(self):
        point = trivial_shrub(1)
        both = (SignedShrub(-1, point), SignedShrub(1, point))
        assert orbit(SignedShrub(1, point)) == orbit(SignedShrub(-1, point)) == both

    def test_matches_adjacent_transposition_search_n5(self):
        remaining = {SignedShrub(sign, P) for P in all_shrubs(5) for sign in (1, -1)}
        while remaining:
            x = remaining.pop()
            members = oracle_orbit(x)
            assert orbit(x) == tuple(sorted(members, key=SignedShrub.sort_key))
            remaining -= members

    def test_empty_shrub(self):
        with pytest.raises(ValueError, match="the empty shrub has no fraction"):
            orbit(SignedShrub(1, Shrub([], {}, [])))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            orbit(signed(trivial_shrub(1)), cap=0)
        # at a raised cap, the rebuilds take any size
        x = signed(Shrub(range(1, 8), {v: 0 for v in range(1, 8)}, []))
        assert orbit(x, cap=7) == tuple(sorted(oracle_orbit(x), key=SignedShrub.sort_key))

    @pytest.mark.parametrize("cap", ["9", True, 5.0, None])
    def test_cap_must_be_an_int(self, cap):
        with pytest.raises(ValueError, match=r"^the orbit cap must be an int, got "):
            orbit(signed(pair_generator(1, 2)), cap=cap)

    def test_invariants_constant_small(self):
        holds("anticyclic/orbit-invariants")


def all_orbits(n):
    """Every orbit of the signed shrubs on ``1..n``, one ``orbit`` call each."""
    seen, out = set(), []
    for x in all_signed(n):
        if x not in seen:
            members = orbit(x)
            seen.update(members)
            out.append(members)
    return out


def sign_closed(members):
    return len(members) == 2 * len({y.shrub for y in members})


class TestSignsAndShapes:
    """The action is linear, so ``orbit(-x) = -orbit(x)``: an orbit holds
    both signs of every shape it meets or one sign of each.  The search of
    ``orbit`` runs over shapes and relies on this."""

    @staticmethod
    def negated(members):
        return tuple(sorted((y.negate() for y in members), key=SignedShrub.sort_key))

    def test_negation_every_shrub_n4(self):
        for n in range(1, 5):
            for x in all_signed(n):
                assert orbit(x.negate()) == self.negated(orbit(x))

    def test_negation_every_orbit_n5(self):
        for members in all_orbits(5):
            assert orbit(members[0].negate()) == self.negated(members)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_two_kinds(self, n):
        for members in all_orbits(n):
            shapes = {y.shrub for y in members}
            if sign_closed(members):
                assert set(members) == {SignedShrub(s, P) for P in shapes for s in (1, -1)}
            else:
                assert len(shapes) == len(members)

    # signed orbits = shape orbits + sign-free pairs: a sign-free orbit and
    # its negation share their shapes, a sign-closed orbit has them alone
    @pytest.mark.parametrize(
        "n, signed_count, closed, shape_orbits, total",
        [(1, 1, 1, 1, 2), (2, 2, 0, 1, 6), (3, 4, 2, 3, 38), (4, 10, 0, 5, 390), (5, 25, 5, 15, 5582)],
    )
    def test_census(self, n, signed_count, closed, shape_orbits, total):
        orbits = all_orbits(n)
        assert len(orbits) == signed_count
        assert sum(map(sign_closed, orbits)) == closed
        assert len({frozenset(y.shrub for y in members) for members in orbits}) == shape_orbits
        assert sum(map(len, orbits)) == total
        assert signed_count == shape_orbits + (signed_count - closed) // 2

    def test_one_rebuild_per_shape(self, monkeypatch):
        calls = []
        rebuild = anticyclic._reconstruct_checked

        def counted(*args):
            calls.append(args)
            return rebuild(*args)

        monkeypatch.setattr(anticyclic, "_reconstruct_checked", counted)
        sizes = set()
        for members in all_orbits(5):
            anticyclic._generators.cache_clear()
            anticyclic._shape.cache_clear()
            calls.clear()
            orbit(members[0])
            shapes = len(members) // 2 if sign_closed(members) else len(members)
            assert len(calls) <= shapes
            sizes.add((len(members), sign_closed(members)))
        assert (720, True) in sizes


class TestGeneratorTables:
    """``orbit`` steps shapes through one pair of subset-action tables per
    label count, built once and shared by every call."""

    def test_orbits_across_sizes_in_one_process(self):
        anticyclic._generators.cache_clear()
        rng = random.Random(24)
        for n in (3, 5, 1, 4, 5, 2):
            x = signed(random_shrub(range(1, n + 1), rng), rng.choice((1, -1)))
            assert orbit(x) == tuple(sorted(oracle_orbit(x), key=SignedShrub.sort_key))

    def test_act_leaves_the_tables_alone(self):
        for n in range(1, 5):
            orbit(signed(chain(n)))
        tables = {n: anticyclic._generators(n) for n in range(1, 5)}
        before = {n: [dict(t.images) for t in pair] for n, pair in tables.items()}
        for n in range(1, 4):
            for x in all_signed(n):
                for sigma in itertools.permutations(range(n + 1)):
                    act(sigma, x)
        assert all(anticyclic._generators(n) is pair for n, pair in tables.items())
        assert {n: [dict(t.images) for t in pair] for n, pair in tables.items()} == before

    def test_bounded(self):
        maxsize = anticyclic._generators.cache_info().maxsize
        assert maxsize is not None
        for n in range(1, maxsize + 5):
            anticyclic._generators(n)  # tables fill lazily: building one is cheap
        assert anticyclic._generators.cache_info().currsize == maxsize

    def test_refusals_come_first(self):
        anticyclic._generators.cache_clear()
        anticyclic._shape.cache_clear()
        with pytest.raises(ValueError, match="the empty shrub has no fraction"):
            orbit(SignedShrub(1, Shrub([], {}, [])))
        with pytest.raises(CapExceeded):
            orbit(SignedShrub(1, Shrub([], {}, [])), cap=-1)
        with pytest.raises(CapExceeded):
            orbit(signed(chain(6)))
        assert anticyclic._generators.cache_info().currsize == 0
        assert anticyclic._shape.cache_info().currsize == 0

    @staticmethod
    def subset_image(sigma, n, mask):
        """The sign and the label mask of the 0/1 sum over ``mask``'s labels
        after ``u_k -> u_sigma(k)``, with ``u0 = -(u1 + ... + un)``."""
        image = {sigma[k] for k in range(1, n + 1) if mask >> (k - 1) & 1}
        sign = 1
        if 0 in image:
            sign, image = -1, set(range(1, n + 1)) - image
        return sign, sum(1 << (k - 1) for k in image)

    def test_tables_fill_on_a_miss(self):
        for n in range(1, 4):
            masks = range(1, 1 << n)
            for sigma in itertools.permutations(range(n + 1)):
                want = [self.subset_image(sigma, n, mask) for mask in masks]
                action = anticyclic._SubsetAction(sigma, n)
                assert action.images == {}
                # one mask a shape, each a miss, then all masks as one shape,
                # none a miss: the sign multiplies over the factors
                assert anticyclic._step(action, [1] * len(masks), [((), (mask,)) for mask in masks]) == (
                    [sign for sign, _ in want],
                    [((), (image,)) for _, image in want],
                )
                assert action.images == {mask: image for mask, (_, image) in zip(masks, want)}
                [sign], [shape] = anticyclic._step(action, [-1], [((), tuple(masks))])
                assert sign == -math.prod(s for s, _ in want)
                assert shape == ((), tuple(sorted(image for _, image in want)))
                # a shape with one mask met and one not
                action = anticyclic._SubsetAction(sigma, n)
                anticyclic._step(action, [1], [((), (masks[-1],))])
                got = anticyclic._step(action, [1], [((masks[0],), (masks[-1],))])
                assert got == ([want[0][0] * want[-1][0]], [((want[0][1],), (want[-1][1],))])

    def test_generator_tables_fill_on_a_miss(self):
        anticyclic._generators.cache_clear()
        anticyclic._shape.cache_clear()
        for n in range(1, 4):
            tables = anticyclic._generators(n)
            assert [t.images for t in tables] == [{}, {}]
            for x in all_signed(n):
                orbit(x)
            for t in tables:
                assert 0 < len(t.images) <= (1 << n) - 1
                assert t.images == {mask: self.subset_image(t.sigma, n, mask)[1] for mask in t.images}

    def test_no_step_back_through_the_swap(self, monkeypatch):
        steps = []
        step = anticyclic._step

        def counted(image, signs, shapes):
            steps.append(len(shapes))
            return step(image, signs, shapes)

        monkeypatch.setattr(anticyclic, "_step", counted)
        anticyclic._generators.cache_clear()
        anticyclic._shape.cache_clear()
        members = orbit(signed(chain(5)))
        shapes = len({y.shrub for y in members})
        assert (len(members), shapes) == (720, 360)
        # every shape steps through the cycle, and not every one through (0 1)
        assert shapes <= sum(steps) < 2 * shapes


class TestShapeTable:
    """``orbit`` keeps each shape's shrub, sort key and images under the two
    generators in one bounded table, ``anticyclic._shape``, shared by every
    call: an orbit read from the table is the orbit a search from nothing
    finds, and the table's bound holds against an orbit it cannot hold."""

    @staticmethod
    def clear():
        anticyclic._generators.cache_clear()
        anticyclic._shape.cache_clear()

    def test_cold_and_warm_match_the_oracle(self):
        want = {}
        for n in range(1, 5):
            xs = all_signed(n)
            for x in xs:
                if x not in want:
                    members = tuple(sorted(oracle_orbit(x), key=SignedShrub.sort_key))
                    want.update(dict.fromkeys(members, members))
                self.clear()
                assert orbit(x) == want[x]  # every shape a miss
                assert orbit(x) == want[x]  # every shape a hit, as the first search left it
            # every orbit again, all but its first search on entries that
            # searches from other members filled
            for x in xs:
                assert orbit(x) == want[x]

    def test_a_warm_orbit_steps_and_rebuilds_nothing(self, monkeypatch):
        calls = []

        def count(name):
            real = getattr(anticyclic, name)

            def counted(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(anticyclic, name, counted)

        count("_step")
        count("_reconstruct_checked")
        self.clear()
        members = orbit(signed(chain(5)))
        assert {"_step", "_reconstruct_checked"} <= set(calls)
        calls.clear()
        # the same orbit again, from its first shape and from another one
        assert orbit(signed(chain(5))) == orbit(members[101]) == members
        assert calls == []

    def test_an_orbit_larger_than_the_table(self):
        # 5,040 shapes on 6 labels: the search evicts its own first shapes,
        # and a second search misses again
        P = Shrub(range(1, 7), {1: 1, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0}, [(1, 4), (1, 6), (2, 5), (3, 4)])
        x = signed(P, -1)
        self.clear()
        members = orbit(x, cap=6)
        maxsize = anticyclic._shape.cache_info().maxsize
        assert len({y.shrub for y in members}) > maxsize == anticyclic._shape.cache_info().currsize
        assert orbit(x, cap=6) == members
        assert 2 * math.factorial(7) % len(members) == 0
        closure = set(members)
        assert x in closure
        swap, cycle = (1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)
        assert all(act(swap, y) in closure and act(cycle, y) in closure for y in members)


class TestMembers:
    """Members come from ``SignedShrub._trusted``, which skips the checks
    of ``__post_init__``: they must be the objects the checks would build."""

    @pytest.mark.parametrize("n", [3, 5])
    def test_members_are_exact(self, n):
        xs = all_signed(n) if n < 4 else [signed(chain(n), -1)]
        for x in xs:
            for m in (*orbit(x), act(tau(1, n), x)):
                y = SignedShrub(m.sign, m.shrub)
                assert type(m.sign) is int
                assert vars(m) == vars(y) == {"sign": m.sign, "shrub": m.shrub}
                assert m == y and hash(m) == hash(y) and repr(m) == repr(y)
                for z in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), dataclasses.replace(m)):
                    assert z == y and vars(z) == vars(y)
                assert dataclasses.replace(m, sign=-m.sign) == y.negate()
                with pytest.raises(dataclasses.FrozenInstanceError):
                    m.sign = 1

    def test_sign_closed_lists_minus_first(self):
        members = orbit(signed(chain(3)))
        assert [m.sign for m in members] == [-1, 1] * (len(members) // 2)


class TestSigns:
    """A sign is the int +1 or -1: ``True`` and ``1.0`` equal 1 but would
    print as ``true`` and ``1.0`` in every member of an orbit."""

    @pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, 2, 0, "1", None])
    def test_signed_shrub_sign(self, sign):
        with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
            SignedShrub(sign, pair_generator(1, 2))

    @pytest.mark.parametrize("shrub", [[1, 2], None, "12"])
    def test_signed_shrub_holds_a_shrub(self, shrub):
        with pytest.raises(ValueError, match=r"^a signed shrub holds a Shrub, got "):
            SignedShrub(1, shrub)

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0, "1"])
    def test_ctree_sign(self, sign):
        with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
            CTree(sign, (0, 1))

    @pytest.mark.parametrize("parents", [(0, 1.0), (0, True), (False,), (0, "1")])
    def test_ctree_parent_is_an_int(self, parents):
        with pytest.raises(ValueError, match=r"^bad parent .* for vertex "):
            CTree(1, parents)

    def test_ctree_act_keeps_int_signs(self):
        for T in anticyclic.all_ctrees(3):
            for sigma in itertools.permutations(range(4)):
                assert type(ctree_act(sigma, T).sign) is int


class TestInvariant:
    def test_examples(self):
        assert orbit_invariant(signed(graft_generator(2, 1))) == ((), (1, 1))
        assert orbit_invariant(signed(pair_generator(1, 2))) == ((), (1, 1))
        assert orbit_invariant(signed(trivial_shrub(1))) == ((), (1,))

    def test_entries_bounded(self):
        for P in all_shrubs(5):
            num, den = orbit_invariant(signed(P))
            bound = (5 + 1 + 1) // 2
            assert all(1 <= k <= bound for k in num + den)

    def test_ram_count(self):
        assert ram_count_preserved(signed(graft_generator(1, 2))) == 0
        B = Shrub([1, 2, 3, 4], {1: 0, 2: 0, 3: 1, 4: 1}, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert ram_count_preserved(signed(B)) == 1


class TestForestModel:
    def test_b0_example(self):
        F = signed(graft_generator(1, 2))
        T = b0(F)
        assert T == CTree(1, (0, 1))

    def test_b0_rejects_ramified(self):
        B = Shrub([1, 2, 3, 4], {1: 0, 2: 0, 3: 1, 4: 1}, [(1, 3), (1, 4), (2, 3), (2, 4)])
        with pytest.raises(NotAForest):
            b0(signed(B))

    def test_roundtrip_all_forests(self):
        holds("anticyclic/tree-model")

    def test_cardinality(self):
        holds("anticyclic/tree-model")

    def test_b0_is_onto(self):
        holds("anticyclic/tree-model")

    def test_exchange_example(self):
        # swapping 0 with the root of a tree detaches it with a sign flip
        F = signed(graft_generator(1, 2))
        got = forest_act(tau(1, 2), F)
        assert got == signed(pair_generator(1, 2), -1)

    def test_exchange_identity(self):
        # swapping 0 with a root i: minus (i's tree beheaded, disjoint the
        # remaining trees grafted onto a new root i)
        from shrubs import Shrub as _Shrub
        from shrubs import disjoint_union, graft

        rng = random.Random(20)
        checked = 0
        while checked < 40:
            n = rng.randint(2, 5)
            P = random_shrub(range(1, n + 1), rng)
            if not P.is_forest():
                continue
            checked += 1
            F = signed(P, rng.choice((1, -1)))
            i = rng.choice(sorted(P.roots()))
            got = forest_act(tau(i, n), F)
            tree_i = next(c for c in P.connected_components() if i in c)
            rest = [c for c in P.connected_components() if i not in c]
            beheaded = None
            if len(tree_i) > 1:
                vs = [v for v in tree_i.labels if v != i]
                beheaded = _Shrub(
                    vs,
                    {v: tree_i.height(v) - 1 for v in vs},
                    [e for e in tree_i.edges if i not in e],
                )
            regrafted = trivial_shrub(i)
            if rest:
                regrafted = graft(trivial_shrub(i), functools.reduce(disjoint_union, rest))
            expected = regrafted if beheaded is None else disjoint_union(beheaded, regrafted)
            assert got == SignedShrub(-F.sign, expected)
            assert got == act(tau(i, n), F)

    def test_agreement_with_fraction_action(self):
        holds("anticyclic/forest-agreement")

    def test_equivariance_for_inner_permutations(self):
        holds("anticyclic/tree-model")
