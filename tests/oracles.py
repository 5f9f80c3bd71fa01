"""Independent test oracles, deliberately written the slow obvious way.

Nothing here shares logic with the library implementations it checks: the
pattern scan walks every 4- and 5-vertex induced subgraph, isomorphism
tries every height-preserving bijection, the order-composition oracle
builds shuffles directly, and the index-0 action substitutes variables into
the compositional fraction ``kappa`` through the generic linear-form path
(sharing only the inverse, ``reconstruct``, with the library).
"""

import functools
import itertools

from shrubs.anticyclic import SignedShrub
from shrubs.core import Shrub, enumerate_shrubs_bruteforce
from shrubs.errors import NotInImage
from shrubs.mould import FactoredFraction, kappa
from shrubs.reconstruction import reconstruct


@functools.lru_cache(maxsize=None)
def all_shrubs(n):
    return enumerate_shrubs_bruteforce(n, cap=7)


def _edge(P, a, b):
    return b in (P.covers(a) | P.covered_by(a))


def naive_forbidden_pattern(P: Shrub):
    """Scan all 4- and 5-subsets for the two excluded induced shapes."""
    verts = list(P.labels)
    h = P.height_map
    for quad in itertools.combinations(verts, 4):
        for w, x, y, z in itertools.permutations(quad):
            if not (h[w] == h[x] + 1 == h[y] + 1 == h[z] + 2):
                continue
            wanted = {
                (w, x): True, (w, y): True, (y, z): True,
                (x, z): False, (x, y): False, (w, z): False,
            }
            if all(_edge(P, a, b) == present for (a, b), present in wanted.items()):
                return "F4", (w, x, y, z)
    for quint in itertools.combinations(verts, 5):
        for x, y, p, q, r in itertools.permutations(quint):
            if not (h[x] == h[y] == h[p] + 1 == h[q] + 1 == h[r] + 1):
                continue
            wanted = {
                (x, p): True, (x, q): True, (y, q): True, (y, r): True,
                (x, r): False, (y, p): False, (x, y): False,
                (p, q): False, (p, r): False, (q, r): False,
            }
            if all(_edge(P, a, b) == present for (a, b), present in wanted.items()):
                return "F5", (x, y, p, q, r)
    return None


def graph_candidates(n):
    """Every (heights, edges) pair satisfying the two height axioms on 1..n,
    with no pattern filtering at all."""
    labels = tuple(range(1, n + 1))
    for heights in itertools.product(range(n), repeat=n):
        if 0 not in heights:
            continue
        hmap = dict(zip(labels, heights))
        levels = {}
        for v, hh in hmap.items():
            levels.setdefault(hh, []).append(v)
        if set(levels) != set(range(max(heights) + 1)):
            continue
        per_vertex = []
        ok = True
        for v in labels:
            if hmap[v] == 0:
                continue
            below = levels.get(hmap[v] - 1, [])
            if not below:
                ok = False
                break
            subsets = [
                combo
                for k in range(1, len(below) + 1)
                for combo in itertools.combinations(below, k)
            ]
            per_vertex.append((v, subsets))
        if not ok:
            continue
        for choice in itertools.product(*(s for _, s in per_vertex)):
            edges = []
            for (v, _), targets in zip(per_vertex, choice):
                for t in targets:
                    edges.append((v, t))
            yield hmap, edges


def brute_force_isomorphic(P: Shrub, Q: Shrub) -> bool:
    """Try every height-preserving bijection from P's labels to Q's."""
    if len(P) != len(Q):
        return False
    pv = list(P.labels)
    for image in itertools.permutations(Q.labels):
        phi = dict(zip(pv, image))
        if any(P.height(v) != Q.height(phi[v]) for v in pv):
            continue
        mapped = {tuple(sorted((str(phi[a]), str(phi[b])))) for a, b in P.edges}
        actual = {tuple(sorted((str(a), str(b)))) for a, b in Q.edges}
        if mapped == actual:
            return True
    return False


def _shuffles(a, b):
    if not a:
        yield tuple(b)
        return
    if not b:
        yield tuple(a)
        return
    for rest in _shuffles(a[1:], b):
        yield (a[0],) + rest
    for rest in _shuffles(a, b[1:]):
        yield (b[0],) + rest


def shuffle_compose_orders(pi, i, sigma):
    """Order composition built directly: the prefix before the slot stays
    put, the inner head takes the slot, and the inner tail shuffles with
    the remainder."""
    pos = pi.index(i)
    pre, post = pi[:pos], pi[pos + 1 :]
    head, tail = sigma[0], sigma[1:]
    return [pre + (head,) + w for w in _shuffles(post, tail)]


def permuted_fraction(sigma, f: FactoredFraction, n: int) -> FactoredFraction:
    """Replace each ``u_k`` by ``u_{sigma(k)}`` and eliminate ``u0``.

    Each substituted factor renormalizes to a primitive form, feeding its
    extracted sign into the fraction's global sign.
    """
    mapping = {}
    minus_all = {j: -1 for j in range(1, n + 1)}
    for k in range(1, n + 1):
        img = sigma[k]
        mapping[k] = dict(minus_all) if img == 0 else {img: 1}
    return f.substitute(mapping)


def oracle_act(sigma, x: SignedShrub) -> SignedShrub:
    """The index-0 action by substitution into ``kappa`` of the shrub."""
    f = permuted_fraction(sigma, kappa(x.shrub), x.n)
    if f.scalar != 1:
        raise NotInImage(f"permuted fraction has scalar {f.scalar}")
    return SignedShrub(x.sign * f.sign, reconstruct(f.magnitude()))
