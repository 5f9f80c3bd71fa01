"""Signed shrubs and the index-0 action of the larger symmetric group.

Adjoining a variable ``u0`` with ``u0 + u1 + ... + un = 0`` lets the
symmetric group on ``{0, 1, ..., n}`` act on fractions over ``{1..n}`` by
permuting variables and eliminating ``u0`` again.  Signed shrubs are stable
under this action: the permuted fraction is, up to sign, again the fraction
of a shrub.  The convention is fixed once and pinned by the group-law
tests: a permutation replaces each variable ``u_k`` by ``u_{sigma(k)}``.

For signed forests the action has an explicit model on signed rooted trees
with an extra vertex 0, where moving the root across an edge flips the
sign; :func:`forest_act` computes it there and agrees with :func:`act`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .core import Shrub
from .errors import CapExceeded, NotAForest, NotInImage
from .mould import FactoredFraction, kappa
from .reconstruction import reconstruct


class OrbitInvariant(NamedTuple):
    """Folded multiset pair (numerator, denominator), entries in
    ``[1, ceil((n+1)/2)]``."""

    numerator: tuple
    denominator: tuple


@dataclass(frozen=True)
class SignedShrub:
    """A shrub on labels ``1..n`` together with a sign."""

    sign: int
    shrub: Shrub

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        n = len(self.shrub)
        if set(self.shrub.labels) != set(range(1, n + 1)):
            raise ValueError("a signed shrub lives on labels 1..n")

    @property
    def n(self) -> int:
        return len(self.shrub)

    def negate(self) -> "SignedShrub":
        return SignedShrub(-self.sign, self.shrub)

    def sort_key(self):
        return (self.shrub.sort_key(), self.sign)

    def to_json_dict(self) -> dict:
        return {"sign": self.sign, "shrub": self.shrub.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data) -> "SignedShrub":
        if not (isinstance(data, dict) and "sign" in data and "shrub" in data):
            raise ValueError("a signed shrub is a JSON object with keys 'sign' and 'shrub'")
        try:
            sign = int(data["sign"])
        except (TypeError, ValueError):
            raise ValueError(f"sign must be +1 or -1, got {data['sign']!r}") from None
        return cls(sign, Shrub.from_json_dict(data["shrub"]))


def _check_permutation(sigma, n):
    sigma = tuple(int(v) for v in sigma)
    if len(sigma) != n + 1 or sorted(sigma) != list(range(n + 1)):
        raise ValueError(f"need a permutation of 0..{n} in one-line notation, got {sigma!r}")
    return sigma


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


def act(sigma, x: SignedShrub) -> SignedShrub:
    """Action of a permutation of ``{0..n}`` on a signed shrub.

    Permutations fixing 0 reduce to plain relabeling; the general case goes
    through the fraction and back.  Failure to land on a shrub fraction
    would be a closure bug, surfaced as ``NotInImage``.
    """
    sigma = _check_permutation(sigma, x.n)
    f = permuted_fraction(sigma, kappa(x.shrub), x.n)
    if f.scalar != 1:
        raise NotInImage(f"permuted fraction has scalar {f.scalar}")
    shrub = reconstruct(f.magnitude())
    return SignedShrub(x.sign * f.sign, shrub)


def orbit(x: SignedShrub, cap: int = 5) -> tuple:
    """Closure of ``x`` under the full index-0 action, sorted."""
    n = x.n
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the orbit cap {cap}")
    generators = []
    for i in range(n):
        sigma = list(range(n + 1))
        sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
        generators.append(tuple(sigma))
    seen = {x}
    frontier = [x]
    while frontier:
        new = []
        for y in frontier:
            for sigma in generators:
                z = act(sigma, y)
                if z not in seen:
                    seen.add(z)
                    new.append(z)
        frontier = new
    return tuple(sorted(seen, key=SignedShrub.sort_key))


def orbit_invariant(x: SignedShrub) -> OrbitInvariant:
    """Multiset pair from specializing every variable to 1, folded.

    Each factor contributes its support size; sizes above ``(n+1)/2`` fold
    to ``n+1-k``.  Constant on every orbit of the index-0 action.
    """
    n = x.n
    f = kappa(x.shrub)

    def fold(k):
        return n + 1 - k if 2 * k > n + 1 else k

    num = tuple(sorted(fold(len(g.support())) for g in f.num))
    den = tuple(sorted(fold(len(g.support())) for g in f.den))
    return OrbitInvariant(num, den)


def ram_count_preserved(x: SignedShrub) -> int:
    """Number of ramification classes; equals the numerator degree of the
    fraction, hence constant on orbits."""
    return len(x.shrub.ram_classes())


# -- the explicit model on forests -------------------------------------------


@dataclass(frozen=True)
class CTree:
    """A signed rooted tree on ``{0, 1, ..., n}``, canonically rooted at 0.

    Stands for the class of signed rooted trees under the relation that
    re-rooting across one edge flips the sign; rooting at 0 picks the
    canonical representative.  ``parents[v-1]`` is the parent of vertex
    ``v``.
    """

    sign: int
    parents: tuple

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        n = len(self.parents)
        for v, p in enumerate(self.parents, start=1):
            if not 0 <= p <= n or p == v:
                raise ValueError(f"bad parent {p} for vertex {v}")
        seen = set()
        for v in range(1, n + 1):
            path = []
            while v != 0 and v not in seen:
                path.append(v)
                v = self.parents[v - 1]
            if v != 0 and v not in seen:
                raise ValueError("parent map is not a tree rooted at 0")
            seen.update(path)

    @property
    def n(self) -> int:
        return len(self.parents)


def b0(F: SignedShrub) -> CTree:
    """Graft the trees of a signed forest onto the extra root 0."""
    P = F.shrub
    parents = []
    for v in range(1, F.n + 1):
        targets = P.covers(v)
        if len(targets) > 1:
            raise NotAForest(v)
        parents.append(next(iter(targets)) if targets else 0)
    return CTree(F.sign, tuple(parents))


def b0_inverse(T: CTree) -> SignedShrub:
    """Delete the root 0; heights are distances to the deleted root minus 1."""
    n = T.n
    children = {v: [] for v in range(n + 1)}
    for v, p in enumerate(T.parents, start=1):
        children[p].append(v)
    heights = {}
    frontier = children[0]
    depth = 0
    while frontier:
        nxt = []
        for v in frontier:
            heights[v] = depth
            nxt.extend(children[v])
        frontier = nxt
        depth += 1
    edges = [(v, p) for v, p in enumerate(T.parents, start=1) if p != 0]
    return SignedShrub(T.sign, Shrub(range(1, n + 1), heights, edges))


def _reroot_to_zero(sign, edges, root, n):
    """Canonical 0-rooted representative; each re-rooting step flips the sign."""
    adjacency = {v: set() for v in range(n + 1)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    parent_of = {root: None}
    order = [root]
    for v in order:
        for w in adjacency[v]:
            if w not in parent_of:
                parent_of[w] = v
                order.append(w)
    distance = 0
    v = 0
    while parent_of[v] is not None:
        distance += 1
        v = parent_of[v]
    # re-root at 0: parents point along paths toward 0
    parents = [0] * n
    new_parent = {0: None}
    queue = [0]
    for v in queue:
        for w in adjacency[v]:
            if w not in new_parent:
                new_parent[w] = v
                parents[w - 1] = v
                queue.append(w)
    return CTree(sign * (-1) ** distance, tuple(parents))


def ctree_act(sigma, T: CTree) -> CTree:
    """Relabel vertices by ``sigma`` and bring the root back to 0."""
    sigma = _check_permutation(sigma, T.n)
    edges = [(sigma[v], sigma[p]) for v, p in enumerate(T.parents, start=1)]
    return _reroot_to_zero(T.sign, edges, sigma[0], T.n)


def forest_act(sigma, F: SignedShrub) -> SignedShrub:
    """The index-0 action computed in the rooted-tree model.

    Agrees with :func:`act` on signed forests; moving 0 across an edge
    costs one sign flip.
    """
    return b0_inverse(ctree_act(sigma, b0(F)))


def all_ctrees(n: int) -> tuple:
    """Every signed 0-rooted tree on ``{0..n}``, via decoded parent codes.

    There are ``2 * (n+1)**(n-1)`` of them.
    """
    m = n + 1
    trees = []
    if m == 1:
        raise ValueError("need at least one non-root vertex")
    if m == 2:
        trees.append((0,))
    else:
        for code in itertools.product(range(m), repeat=m - 2):
            trees.append(_decode_pruefer(code, m))
    out = []
    for parents in trees:
        for sign in (1, -1):
            out.append(CTree(sign, parents))
    return tuple(out)


def _decode_pruefer(code, m):
    degree = [1] * m
    for v in code:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    adjacency = {v: set() for v in range(m)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    parents = [0] * (m - 1)
    seen = {0}
    queue = [0]
    for v in queue:
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                parents[w - 1] = v
                queue.append(w)
    return tuple(parents)


def signed_shrubs(n: int, shrubs=None) -> tuple:
    """All signed shrubs on ``1..n`` (helper for orbit sweeps)."""
    from .core import enumerate_shrubs_bruteforce

    base = enumerate_shrubs_bruteforce(n) if shrubs is None else shrubs
    out = []
    for P in base:
        out.append(SignedShrub(1, P))
        out.append(SignedShrub(-1, P))
    return tuple(out)
