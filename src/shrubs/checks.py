"""One registry of named properties, shared by ``shrubs check`` and pytest.

Each property is registered once, in :data:`PROPERTIES`, under a name
``"suite/check"``.  It is one function of ``(max_n, seed)`` that returns
``(ok, detail)``: ``max_n`` bounds its exhaustive sweep (or its largest
random size; fixed-size properties ignore it) and ``seed`` drives every
random choice, so runs reproduce.  A few also take ``trials``.  Each entry
also holds ``size``, which maps the command line's ``--max-n`` to the
``max_n`` the property runs at there; the test suite calls the same
functions at its own sizes.

Only ``mould/closed-formula`` and ``mould/product-rules`` compute the
compositional ``kappa``, one call per shrub; the rest use the closed formula
``fraction_of_shrub``, which ``mould/closed-formula`` equates with ``kappa``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Callable, NamedTuple

from .anticyclic import (
    SignedShrub,
    act,
    all_ctrees,
    b0,
    b0_inverse,
    ctree_act,
    forest_act,
    orbit,
    orbit_invariant,
    ram_count_preserved,
)
from .core import Shrub, enumerate_shrubs_bruteforce, label_key, trivial_shrub
from .errors import ShrubError
from .mould import (
    FactoredFraction,
    LinearForm,
    MouldElement,
    embed_zinb,
    equals,
    fraction_of_shrub,
    kappa,
    mould_compose,
    shrub_masks,
    zinb_extract,
)
from .operad import (
    compose,
    decompose,
    disjoint_union,
    evaluate,
    graft,
    graft_generator,
    pair_generator,
)
from .reconstruction import _read_parts, reconstruct
from .series_parallel import count_series_parallel, count_unlabeled_series_parallel, series_parallel_posets
from .zinbiel import ZinbElement, compatible_orders, gamma, zinb_compose


class Property(NamedTuple):
    check: Callable  # (max_n, seed) -> (ok, detail)
    size: Callable  # --max-n -> the max_n the command line runs ``check`` at


PROPERTIES: dict = {}


def _up_to(cap: int) -> Callable:
    return lambda max_n: min(max_n, cap)


def _register(name: str, size: Callable = _up_to(5)):
    def add(check):
        PROPERTIES[name] = Property(check, size)
        return check

    return add


def random_shrub(labels, rng) -> Shrub:
    """A random shrub on ``labels`` via a random generator word."""
    labels = sorted(labels, key=label_key)
    if len(labels) == 1:
        return trivial_shrub(labels[0])
    items = list(labels)
    rng.shuffle(items)
    k = rng.randint(1, len(items) - 1)
    left = random_shrub(items[:k], rng)
    right = random_shrub(items[k:], rng)
    op = rng.randrange(3)
    if op == 0:
        return disjoint_union(left, right)
    if op == 1:
        return graft(left, right)
    return graft(right, left)


def _shifted(P: Shrub, offset: int) -> Shrub:
    return P.relabel({v: v + offset for v in P.labels})


@functools.lru_cache(maxsize=6)
def all_shrubs(n: int) -> tuple:
    """All shrubs on ``1..n``, enumerated once per size.  The enumerator
    stops at n = 6, so this holds at most six sizes: 54,312 shrubs, about
    8.8 MiB, most of it the 51,303 of n = 6 at 170 B each.  A shrub that is
    asked for a label builds its label index and keeps it, which about
    triples it; no check asks that of the n = 6 shrubs."""
    return enumerate_shrubs_bruteforce(n)


def _all_upto(n_max):
    for n in range(1, n_max + 1):
        yield from all_shrubs(n)


def _random_permutation(labels, rng) -> dict:
    perm = sorted(labels)
    rng.shuffle(perm)
    return dict(zip(sorted(labels), perm))


# -- core ---------------------------------------------------------------


@_register("core/common-cover")
def common_cover(max_n, seed):
    """Connected nontrivial: some height-1 vertex covers every root."""
    for P in _all_upto(max_n):
        if len(P) < 2 or not P.is_connected():
            continue
        roots = P.roots()
        if not any(P.covers(v) == roots for v in P.level(1)):
            return False, f"no all-covering vertex in {P!r}"
    return True, f"all connected shrubs n<={max_n}"


@_register("core/disconnection")
def disconnection(max_n, seed):
    """Dropping the edges from the all-covering vertices to the roots
    separates them from every root."""
    for P in _all_upto(max_n):
        if len(P) < 2 or not P.is_connected():
            continue
        roots = P.roots()
        S = {v for v in P.level(1) if P.covers(v) == roots}
        edges = [e for e in P.edges if not (set(e) & S and set(e) & roots)]
        reach = {v: {v} for v in P.labels}
        changed = True
        while changed:
            changed = False
            for a, b in edges:
                union = reach[a] | reach[b]
                if union != reach[a] or union != reach[b]:
                    for v in union:
                        reach[v] = union
                    changed = True
        for v in S:
            if reach[v] & roots:
                return False, f"{v!r} still reaches a root in {P!r}"
    return True, f"all connected shrubs n<={max_n}"


@_register("core/root-pairs")
def root_pairs(max_n, seed):
    """Connected: every two roots have a common cover."""
    for P in _all_upto(max_n):
        if not P.is_connected():
            continue
        for a, b in itertools.combinations(sorted(P.roots(), key=label_key), 2):
            if not (P.covered_by(a) & P.covered_by(b)):
                return False, f"roots {a!r},{b!r} share no cover in {P!r}"
    return True, f"all connected shrubs n<={max_n}"


@_register("core/leaf-or-pair")
def leaf_or_pair(max_n, seed):
    for P in _all_upto(max_n):
        if len(P) >= 2 and not P.leaves() and not P.correlated_pairs():
            return False, f"{P!r} has neither a leaf nor a correlated pair"
    return True, f"all shrubs n<={max_n}"


def _revalidated(P: Shrub) -> Shrub:
    return Shrub(P.labels, P.height_map, P.edges)


@_register("core/surgery-validity")
def surgery_validity(max_n, seed):
    """Truncation, leaf deletion and correlated merges stay valid."""
    for P in _all_upto(max_n):
        for h0 in range(P.max_height() + 2):
            _revalidated(P.truncate_at_or_above(h0))
        for leaf in sorted(P.leaves(), key=label_key):
            _revalidated(P.delete_leaf(leaf))
        for a, b in P.correlated_pairs():
            _revalidated(P.merge_correlated(a, b, "merged"))
    return True, f"all shrubs n<={max_n}"


@_register("core/upper-ideal-complement")
def upper_ideal_complement(max_n, seed):
    rng = random.Random(seed)
    for P in _all_upto(max_n):
        verts = sorted(P.labels, key=label_key)
        seeds = [set()] + [set(rng.sample(verts, rng.randint(1, len(verts)))) for _ in range(3)]
        for S in seeds:
            ideal = P.upper_ideal(S)
            if not S <= ideal:
                return False, f"ideal misses its seed in {P!r}"
            rest = set(P.labels) - ideal
            if rest:
                hm = P.height_map
                Shrub(rest, {v: hm[v] for v in rest}, [e for e in P.edges if e[0] in rest and e[1] in rest])
    return True, f"all shrubs n<={max_n}, random seeds"


@_register("core/iso-counts", size=_up_to(6))
def iso_counts(max_n, seed):
    """The canonical forms of the shrubs on 1..n fall into as many classes,
    and as many connected ones, as there are unlabeled series-parallel
    posets, for every n <= max_n."""
    got, got_connected = [], []
    for n in range(1, max_n + 1):
        classes = {P.canonical_form()[0] for P in all_shrubs(n)}
        got.append(len(classes))
        got_connected.append(sum(C.is_connected() for C in classes))
    want, want_connected = count_unlabeled_series_parallel(max_n)
    if (got, got_connected) != (want, want_connected):
        return False, f"iso classes {got}, connected {got_connected}; series-parallel {want}, {want_connected}"
    return True, f"iso classes {got}, connected {got_connected}"


# -- operad -------------------------------------------------------------


def _shrubs_by_decomposition(n: int) -> list:
    """Every shrub on ``1..n``, each built once from its unique
    decomposition by the validated products.

    A disconnected shrub is the component holding its least label beside
    the rest; a connected one on two or more labels is ``graft(Q, R)`` with
    ``Q`` a single vertex or disconnected.
    """

    @functools.cache
    def split(labels: tuple) -> tuple:
        """The connected and the disconnected shrubs on ``labels``."""
        if len(labels) == 1:
            return [trivial_shrub(labels[0])], []
        connected, disconnected = [], []
        for k in range(1, len(labels)):
            for part in itertools.combinations(labels, k):
                part_connected, part_disconnected = split(part)
                rest = tuple(v for v in labels if v not in part)
                anything = [R for shrubs in split(rest) for R in shrubs]
                if part[0] == labels[0]:
                    disconnected += [disjoint_union(C, R) for C in part_connected for R in anything]
                bottoms = part_connected if k == 1 else part_disconnected
                connected += [graft(Q, R) for Q in bottoms for R in anything]
        return connected, disconnected

    connected, disconnected = split(tuple(range(1, n + 1)))
    split.cache_clear()  # ``split`` refers to itself, so the memo would outlive this call until a full collection
    return connected + disconnected


@_register("operad/enumeration-agreement")
def enumeration_agreement(max_n, seed):
    """The brute force finds each shrub the decomposition builds, and no
    other; a missing, extra or repeated shrub fails."""
    for n in range(1, max_n + 1):
        brute = all_shrubs(n)
        built = tuple(sorted(_shrubs_by_decomposition(n), key=Shrub.sort_key))
        if brute != built:
            return False, f"enumerators disagree at n={n}: {len(brute)} vs {len(built)}"
    return True, f"both enumerators agree for n<={max_n}"


def _operad_axioms_exhaustive():
    inner = [P for n in (1, 2) for P in all_shrubs(n)]
    firsts = [_shifted(P, 100) for P in inner]
    seconds = [_shifted(P, 200) for P in inner]
    for P in _all_upto(3):
        for i in P.labels:
            for Pp in firsts:
                for Ppp in seconds:
                    for j in P.labels:
                        if j != i and compose(compose(P, i, Pp), j, Ppp) != compose(compose(P, j, Ppp), i, Pp):
                            return False, f"parallel associativity fails at {P!r}"
                    for ii in Pp.labels:
                        if compose(compose(P, i, Pp), ii, Ppp) != compose(P, i, compose(Pp, ii, Ppp)):
                            return False, f"sequential associativity fails at {P!r}"
    return True, "exhaustive"


def _random_triple_sizes(rng, total, first_min):
    a = rng.randint(first_min, total - 2)
    b = rng.randint(1, total - a - 1)
    c = rng.randint(1, total - a - b)
    return a, b, c


@_register("operad/associativity")
def associativity(max_n, seed, trials=1000):
    """Parallel and sequential associativity, exhaustively on small shrubs
    and on random triples of at most 8 labels; on each random triple also
    equivariance of the first composition."""
    ok, detail = _operad_axioms_exhaustive()
    if not ok:
        return ok, detail
    rng = random.Random(seed)
    for _ in range(trials):
        sizes = _random_triple_sizes(rng, total=8, first_min=2)
        P = random_shrub(range(1, sizes[0] + 1), rng)
        Pp = random_shrub(range(101, 101 + sizes[1]), rng)
        Ppp = random_shrub(range(201, 201 + sizes[2]), rng)
        i, j = rng.sample(sorted(P.labels), 2)
        left = compose(compose(P, i, Pp), j, Ppp)
        right = compose(compose(P, j, Ppp), i, Pp)
        if left != right:
            return False, f"parallel associativity fails: {P!r} at {i},{j}"
        ii = rng.choice(sorted(Pp.labels))
        seq_left = compose(compose(P, i, Pp), ii, Ppp)
        seq_right = compose(P, i, compose(Pp, ii, Ppp))
        if seq_left != seq_right:
            return False, f"sequential associativity fails: {P!r} at {i},{ii}"
        relab = _random_permutation(P.labels, rng)
        if compose(P, i, Pp).relabel(relab) != compose(P.relabel(relab), relab[i], Pp):
            return False, f"equivariance fails: {P!r} at {i} under {relab}"
    return True, f"exhaustive (<=3,<=2,<=2) plus {trials} random triples"


@_register("operad/units", _up_to(4))
def units(max_n, seed):
    """Both unit laws; substituting a one-vertex shrub renames the slot."""
    star = trivial_shrub("*")
    for P in _all_upto(max_n):
        for i in P.labels:
            if compose(P, i, trivial_shrub(i)) != P:
                return False, f"right unit fails at {P!r}, {i}"
            if compose(P, i, star) != P.relabel({i: "*"}):
                return False, f"substituting a vertex is not renaming at {P!r}, {i}"
        if compose(star, "*", P) != P:
            return False, f"left unit fails at {P!r}"
    return True, f"all shrubs n<={max_n}"


@_register("operad/equivariance", _up_to(3))
def equivariance(max_n, seed):
    rng = random.Random(seed)
    for P in _all_upto(max_n):
        for Q0 in _all_upto(2):
            Q = _shifted(Q0, 100)
            for i in P.labels:
                relab = _random_permutation(P.labels, rng)
                lhs = compose(P, i, Q).relabel(relab)
                rhs = compose(P.relabel(relab), relab[i], Q)
                if lhs != rhs:
                    return False, f"equivariance fails at {P!r}, {i}"
    return True, "exhaustive small, random relabelings"


@_register("operad/relations")
def relations(max_n, seed):
    nap1 = compose(graft_generator("*", 1), "*", graft_generator(3, 2))
    nap2 = compose(graft_generator("*", 2), "*", graft_generator(3, 1))
    nap3 = compose(graft_generator(3, "*"), "*", pair_generator(1, 2))
    if not nap1 == nap2 == nap3:
        return False, "graft relation fails"
    comm1 = compose(pair_generator("*", 1), "*", pair_generator(2, 3))
    comm2 = compose(pair_generator("*", 2), "*", pair_generator(3, 1))
    if comm1 != comm2:
        return False, "pair relation fails"
    return True, "both degree-3 relations hold"


@_register("operad/word-roundtrip")
def word_roundtrip(max_n, seed):
    for P in _all_upto(max_n):
        if evaluate(decompose(P)) != P:
            return False, f"word roundtrip fails at {P!r}"
    return True, f"all shrubs n<={max_n}"


# -- zinbiel ------------------------------------------------------------


@_register("zinbiel/morphism")
def gamma_morphism(max_n, seed, trials=50):
    for np_ in range(1, 4):
        for P in all_shrubs(np_):
            gP = gamma(P)
            for nq in range(1, 4):
                for Q0 in all_shrubs(nq):
                    Q = _shifted(Q0, 100)
                    gQ = gamma(Q)
                    for i in P.labels:
                        if gamma(compose(P, i, Q)) != zinb_compose(gP, i, gQ):
                            return False, f"morphism fails at {P!r} o_{i} {Q!r}"
    rng = random.Random(seed)
    for _ in range(trials):
        a = rng.randint(1, 4)
        b = rng.randint(1, min(4, 7 - a))
        P = random_shrub(range(1, a + 1), rng)
        Q = random_shrub(range(101, 101 + b), rng)
        i = rng.choice(sorted(P.labels))
        if gamma(compose(P, i, Q)) != zinb_compose(gamma(P), i, gamma(Q)):
            return False, f"morphism fails at random {P!r} o_{i} {Q!r}"
    return True, f"exhaustive |P|,|Q|<=3 plus {trials} random pairs"


@_register("zinbiel/injective")
def gamma_injective(max_n, seed):
    """``gamma`` is injective on the shrubs on ``1..n``.  No image is kept:
    shrubs are grouped by the hash of their image, and an image is compared
    in full only with those of its group, each computed again."""
    for n in range(1, max_n + 1):
        groups = {}
        for P in all_shrubs(n):
            g = gamma(P)
            group = groups.setdefault(hash(g), [])
            if any(gamma(Q) == g for Q in group):
                return False, f"gamma images collide at n={n}"
            group.append(P)
    return True, f"pairwise distinct for n<={max_n}"


@_register("zinbiel/unit-coefficients", _up_to(4))
def gamma_coefficients(max_n, seed):
    """``gamma(P)`` is the sum of the compatible orders of ``P``, each once,
    and composing the generator images along the word of ``P`` gives it too."""
    for P in _all_upto(max_n):
        g = gamma(P)
        if set(g.coeffs) != set(compatible_orders(P)):
            return False, f"gamma({P!r}) is not supported on the compatible orders"
        for _, c in g.terms():
            if c != 1:
                return False, f"coefficient {c} in gamma({P!r})"
        if g != _gamma_by_generators(P):
            return False, f"the generator route disagrees with gamma at {P!r}"
    return True, f"all coefficients are 1 for n<={max_n}"


def _gamma_by_generators(P: Shrub) -> ZinbElement:
    """``gamma`` evaluated along the generator word of ``P``."""
    c_img = ZinbElement.from_order(("x", "y")) + ZinbElement.from_order(("y", "x"))
    d_img = ZinbElement.from_order(("x", "y"))

    def ev(w):
        if w.gen == "leaf":
            return ZinbElement.from_order((w.label,))
        img = c_img if w.gen == "C" else d_img
        return zinb_compose(zinb_compose(img, "x", ev(w.args[0])), "y", ev(w.args[1]))

    return ev(decompose(P))


@_register("zinbiel/forest-linear-extensions", _up_to(4))
def forest_orders_are_linear_extensions(max_n, seed):
    """On forests, compatible orders = linear extensions of the forest order."""
    for P in _all_upto(max_n):
        if not P.is_forest():
            continue
        below = {v: P.covers(v) for v in P.labels}
        orders = set(compatible_orders(P))
        exts = set()
        for perm in itertools.permutations(sorted(P.labels, key=label_key)):
            pos = {v: k for k, v in enumerate(perm)}
            if all(all(pos[w] < pos[v] for w in below[v]) for v in perm):
                exts.add(perm)
        if orders != exts:
            return False, f"orders differ from linear extensions on {P!r}"
    return True, f"all forests n<={max_n}"


@_register("zinbiel/compatible-orders-bruteforce")
def compatible_orders_bruteforce(max_n, seed):
    """``compatible_orders`` equals, in order, every permutation filtered by
    the rule (each vertex that covers something comes after one of the
    vertices it covers); and on forests its count is the hook-length
    formula n!/prod |subtree(v)|.  Neither side shares code with the
    enumerator."""
    for P in _all_upto(max_n):
        below = {v: P.covers(v) for v in P.labels}
        want = tuple(
            perm
            for perm in itertools.permutations(P.labels)
            if all(not below[v] or not below[v].isdisjoint(perm[:k]) for k, v in enumerate(perm))
        )
        if compatible_orders(P) != want:
            return False, f"compatible orders differ from the filtered permutations on {P!r}"
    rng = random.Random(seed)
    shapes = _forest_shapes(7)
    for n in range(1, 8):
        if len(shapes[n]) != _ROOTED_FORESTS[n]:
            return False, f"{len(shapes[n])} forest shapes on {n} vertices, expected {_ROOTED_FORESTS[n]}"
        for shape in shapes[n]:
            P, sizes = _labelled_forest(shape, rng.sample(range(1, n + 1), n))
            want = math.factorial(n) // math.prod(sizes)
            got = len(compatible_orders(P))
            if got != want:
                return False, f"{P!r} has {got} orders, not the {want} of the hook-length formula"
    return True, (
        f"all shrubs n<={max_n} in order; one labelling of each of the "
        f"{sum(map(len, shapes[1:]))} rooted forests n<=7 by hook length"
    )


_ROOTED_FORESTS = (1, 1, 2, 4, 9, 20, 48, 115)  # unlabeled, on n vertices (OEIS A000081, shifted)


def _forest_shapes(n_max) -> list:
    """Entry ``n`` holds every rooted forest on ``n`` unlabeled vertices,
    once each, as the sorted tuple of its trees; a tree is the forest of its
    root's children."""
    shapes = [{()}]
    for n in range(1, n_max + 1):
        out = set()
        for k in range(1, n + 1):  # one tree on k vertices, the rest on n - k
            for tree in shapes[k - 1]:
                for rest in shapes[n - k]:
                    out.add(tuple(sorted(rest + (tree,))))
        shapes.append(out)
    return shapes


def _labelled_forest(shape, labels):
    """The forest of ``shape``, its vertices taking ``labels`` in pre-order,
    and the size of the subtree of each vertex."""
    labels = iter(labels)
    heights, parent = {}, {}
    stack = [(tree, None) for tree in shape]
    while stack:
        children, up = stack.pop()
        v = next(labels)
        heights[v] = 0 if up is None else heights[up] + 1
        parent[v] = up
        stack.extend((child, v) for child in children)
    size = dict.fromkeys(heights, 1)
    for v in sorted(heights, key=heights.get, reverse=True):
        if parent[v] is not None:
            size[parent[v]] += size[v]
    edges = [(up, v) for v, up in parent.items() if up is not None]
    return Shrub(list(heights), heights, edges), tuple(size.values())


# -- mould --------------------------------------------------------------


@_register("mould/closed-formula")
def kappa_formula(max_n, seed):
    for P in _all_upto(max_n):
        if kappa(P) != fraction_of_shrub(P):
            return False, f"kappa differs from the closed formula at {P!r}"
    return True, f"all shrubs n<={max_n}"


@_register("mould/squarefree")
def fraction_squarefree(max_n, seed):
    """The closed formula's factors repeat nothing and cancel nothing.  The
    check reads the forms of ``fraction_of_shrub``, which are the factors of
    :func:`shrub_masks` as they are: ``_of_masks`` must leave them
    uncancelled for this to test anything."""
    for P in _all_upto(max_n):
        f = fraction_of_shrub(P)
        num, den = f.num, f.den
        if len(set(num)) != len(num) or len(set(den)) != len(den):
            return False, f"repeated factor for {P!r}"
        if set(num) & set(den):
            return False, f"unreduced fraction for {P!r}"
    return True, f"reduced and squarefree for n<={max_n}"


@_register("mould/full-sum-factor")
def connected_full_sum(max_n, seed):
    for P in _all_upto(max_n):
        if P.is_connected():
            full = LinearForm.sum_of(P.labels)
            if full not in fraction_of_shrub(P).den:
                return False, f"full-sum factor missing for {P!r}"
    return True, f"all connected shrubs n<={max_n}"


@_register("mould/numerator-degree")
def numerator_degree(max_n, seed):
    for P in _all_upto(max_n):
        if len(fraction_of_shrub(P).num) != len(P.ram_classes()):
            return False, f"numerator degree != ram classes at {P!r}"
    return True, f"n<={max_n}"


@_register("mould/embedding", _up_to(2))
def embedding_intertwines(max_n, seed):
    """Orders into moulds respects composition: basis orders ``|I| <= 3``
    composed with basis orders ``|J| <= max_n``."""
    for ni in (1, 2, 3):
        for pi in itertools.permutations(range(1, ni + 1)):
            for nj in range(1, max_n + 1):
                for sigma in itertools.permutations(range(101, 101 + nj)):
                    zx = ZinbElement.from_order(pi)
                    zy = ZinbElement.from_order(sigma)
                    for i in pi:
                        lhs = embed_zinb(zinb_compose(zx, i, zy))
                        rhs = mould_compose(embed_zinb(zx), i, embed_zinb(zy))
                        if not equals(lhs, rhs):
                            return False, f"embedding fails at {pi} o_{i} {sigma}"
    return True, f"exhaustive over basis orders |I|<=3, |J|<={max_n}"


@_register("mould/product-rules", lambda max_n: min(max_n + 1, 6))
def kappa_products(max_n, seed):
    """Product rules: on a disjoint union ``kappa`` is the product of the
    factors' fractions; on a graft, that times the root-sum ratio."""
    factors = {n: all_shrubs(n) for n in range(1, max_n)}
    raised = {n: [_shifted(R, 100) for R in shrubs] for n, shrubs in factors.items()}
    for nq in range(1, max_n):
        for nr in range(1, max_n - nq + 1):
            for Q in factors[nq]:
                fq = fraction_of_shrub(Q)
                for R in raised[nr]:
                    product = fq * fraction_of_shrub(R)
                    if kappa(disjoint_union(Q, R)) != product:
                        return False, f"union rule fails at {Q!r}, {R!r}"
                    ratio = FactoredFraction(
                        num=[LinearForm.sum_of(Q.labels)],
                        den=[LinearForm.sum_of(set(Q.labels) | set(R.labels))],
                    )
                    if kappa(graft(Q, R)) != product * ratio:
                        return False, f"graft rule fails at {Q!r}, {R!r}"
    return True, f"all pairs |Q|+|R|<={max_n}"


@_register("mould/extraction", _up_to(4))
def extraction_inverts_gamma(max_n, seed):
    for P in _all_upto(max_n):
        if zinb_extract(MouldElement.from_fraction(fraction_of_shrub(P))) != gamma(P):
            return False, f"extraction disagrees with gamma at {P!r}"
    return True, f"all shrubs n<={max_n}"


# -- reconstruction ------------------------------------------------------


@_register("reconstruction/roundtrip")
def reconstruction_roundtrip(max_n, seed):
    """``reconstruct`` inverts the fraction map, and the shrub it builds
    without validation passes validation."""
    for P in _all_upto(max_n):
        Q = reconstruct(fraction_of_shrub(P))
        if Q != P or _revalidated(Q) != Q:
            return False, f"roundtrip fails at {P!r}"
    return True, f"all shrubs n<={max_n}"


@_register("reconstruction/injective")
def fraction_injective(max_n, seed):
    """``fraction_of_shrub`` is injective on the shrubs on ``1..n``.  Their
    fractions share one labels tuple, so their mask records are equal
    exactly when the fractions are: the records are compared, and no
    linear form is built."""
    for n in range(1, max_n + 1):
        S = all_shrubs(n)
        if len({fraction_of_shrub(P)._masks for P in S}) != len(S):
            return False, f"fractions collide at n={n}"
    return True, f"pairwise distinct fractions for n<={max_n}"


@_register("reconstruction/bruteforce-oracle", _up_to(4))
def reconstruction_bruteforce(max_n, seed):
    """Reconstruction agrees with scanning every shrub on the label set."""
    for n in range(1, max_n + 1):
        table = {}
        for P in all_shrubs(n):
            f = fraction_of_shrub(P)
            if f in table:
                return False, f"{P!r} and {table[f]!r} share a fraction"
            table[f] = P
        for f, P in table.items():
            if reconstruct(f) != P:
                return False, f"brute-force oracle disagrees at {P!r}"
    return True, f"n<={max_n}"


@_register("reconstruction/direct-reading", _up_to(6))
def direct_reading(max_n, seed):
    """The two factor-count rules of the direct reading give the heights and
    cover masks of every shrub: a label's height is its denominator count
    minus its numerator count minus 1, and a vertex covers what the
    denominator factors containing it share on the level below."""
    for P in _all_upto(max_n):
        num, den = shrub_masks(P)
        if _read_parts(num, den, len(P)) != (P._heights, P._covers):
            return False, f"direct reading fails at {P!r}"
    return True, f"all shrubs n<={max_n}"


@_register("reconstruction/larger-random", lambda max_n: 7)
def random_roundtrip_larger(max_n, seed, trials=12):
    """Random shrubs on 6 to ``max_n`` labels rebuild from their fractions."""
    sizes = tuple(range(6, max_n + 1))
    rng = random.Random(seed)
    for n in sizes:
        for _ in range(trials):
            P = random_shrub(range(1, n + 1), rng)
            if reconstruct(fraction_of_shrub(P)) != P:
                return False, f"roundtrip fails at random {P!r}"
    return True, f"{trials} random shrubs at sizes {sizes}"


# -- anticyclic ----------------------------------------------------------


def _transpositions_with_zero(n):
    for i in range(1, n + 1):
        sigma = list(range(n + 1))
        sigma[0], sigma[i] = sigma[i], sigma[0]
        yield tuple(sigma)


@_register("anticyclic/closure", _up_to(4))
def action_closure(max_n, seed):
    for n in range(1, max_n + 1):
        for x in [SignedShrub(s, P) for P in all_shrubs(n) for s in (1, -1)]:
            for sigma in _transpositions_with_zero(n):
                try:
                    act(sigma, x)
                except ShrubError as exc:
                    return False, f"closure fails at {x!r} under {sigma}: {exc}"
    return True, f"all signed shrubs n<={max_n}, all 0-transpositions"


@_register("anticyclic/group-laws")
def action_group_laws(max_n, seed, trials=200):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, max_n)
        P = random_shrub(range(1, n + 1), rng)
        x = SignedShrub(rng.choice((1, -1)), P)
        identity = tuple(range(n + 1))
        if act(identity, x) != x:
            return False, f"identity law fails at {x!r}"
        sigma = list(range(n + 1))
        tau = list(range(n + 1))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        combo = tuple(sigma[tau[k]] for k in range(n + 1))
        if act(combo, x) != act(tuple(sigma), act(tuple(tau), x)):
            return False, f"composition law fails at {x!r}, {sigma}, {tau}"
    return True, f"{trials} seeded permutation pairs"


@_register("anticyclic/relabeling", _up_to(4))
def action_extends_relabeling(max_n, seed):
    rng = random.Random(seed)
    for n in range(1, max_n + 1):
        for _ in range(20):
            P = random_shrub(range(1, n + 1), rng)
            x = SignedShrub(1, P)
            inner = list(range(1, n + 1))
            rng.shuffle(inner)
            sigma = tuple([0] + inner)
            got = act(sigma, x)
            want = SignedShrub(1, P.relabel({k: sigma[k] for k in range(1, n + 1)}))
            if got != want:
                return False, f"zero-fixing action is not relabeling at {x!r}"
    return True, "random zero-fixing permutations"


@_register("anticyclic/orbit-invariants", _up_to(4))
def orbit_invariants(max_n, seed):
    for n in range(1, max_n + 1):
        remaining = {SignedShrub(s, P) for P in all_shrubs(n) for s in (1, -1)}
        while remaining:
            x = remaining.pop()
            orb = orbit(x, cap=max_n)
            rams = {ram_count_preserved(y) for y in orb}
            invs = {orbit_invariant(y) for y in orb}
            if len(rams) != 1:
                return False, f"ram count varies on the orbit of {x!r}"
            if len(invs) != 1:
                return False, f"multiset invariant varies on the orbit of {x!r}"
            remaining -= set(orb)
    return True, f"constant on every orbit, n<={max_n}"


@_register("anticyclic/forest-agreement", _up_to(4))
def forest_action_agreement(max_n, seed):
    for n in range(1, max_n + 1):
        for P in all_shrubs(n):
            if not P.is_forest():
                continue
            for s in (1, -1):
                F = SignedShrub(s, P)
                for sigma in _transpositions_with_zero(n):
                    if forest_act(sigma, F) != act(sigma, F):
                        return False, f"models disagree at {F!r} under {sigma}"
    return True, f"all signed forests n<={max_n}, all 0-transpositions"


@_register("anticyclic/tree-model")
def b0_bijection(max_n, seed):
    rng = random.Random(seed)
    for n in range(1, max_n + 1):
        forests = [P for P in all_shrubs(n) if P.is_forest()]
        seen = set()
        for P in forests:
            for s in (1, -1):
                F = SignedShrub(s, P)
                T = b0(F)
                if b0_inverse(T) != F:
                    return False, f"b0 roundtrip fails at {F!r}"
                seen.add(T)
        trees = all_ctrees(n)
        if len(trees) != 2 * (n + 1) ** (n - 1):
            return False, f"|C({n + 1})| != 2(n+1)^(n-1)"
        if seen != set(trees):
            return False, f"b0 is not onto at n={n}"
        for _ in range(10):
            P = rng.choice(forests)
            F = SignedShrub(rng.choice((1, -1)), P)
            inner = list(range(1, n + 1))
            rng.shuffle(inner)
            sigma = tuple([0] + inner)
            if b0(forest_act(sigma, F)) != ctree_act(sigma, b0(F)):
                return False, f"b0 equivariance fails at {F!r}"
    return True, f"bijection, cardinality and equivariance for n<={max_n}"


# -- series-parallel -----------------------------------------------------


@_register("series-parallel/labeled-counts")
def series_parallel_counts(max_n, seed):
    """As many shrubs on 1..n as labeled series-parallel posets by their
    generating functions, for every n <= max_n; for n <= 5 the posets are
    also built and counted."""
    for n in range(1, max_n + 1):
        sp = count_series_parallel(n)
        sh = len(all_shrubs(n))
        if sp != sh:
            return False, f"counts differ at n={n}: {sp} posets vs {sh} shrubs"
        if n <= 5 and len(series_parallel_posets(range(1, n + 1))) != sp:
            return False, f"the posets built at n={n} are not the {sp} counted"
    return True, f"labeled counts agree for n<={max_n}"


# -- suites ---------------------------------------------------------------


def run_suite(name: str, max_n: int = 5, seed: int = 0):
    """Run one suite, or ``"all"``; returns a list of (name, ok, detail)."""
    suites = sorted({key.split("/")[0] for key in PROPERTIES})
    if name != "all" and name not in suites:
        raise ValueError(f"unknown suite {name!r}; choose from {suites} or 'all'")
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    rows = []
    for key, (check, size) in PROPERTIES.items():
        if name in ("all", key.split("/")[0]):
            try:
                ok, detail = check(size(max_n), seed)
            except ShrubError as exc:  # a domain error fails this row, not the run
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            rows.append((key, ok, detail))
    return rows
