"""Signed shrubs and the index-0 action of the larger symmetric group.

Adjoining a variable ``u0`` with ``u0 + u1 + ... + un = 0`` lets the
symmetric group on ``{0, 1, ..., n}`` act on fractions over ``{1..n}`` by
permuting variables and eliminating ``u0`` again.  Signed shrubs are stable
under this action: the permuted fraction is, up to sign, again the fraction
of a shrub.  The convention is fixed once and pinned by the group-law
tests: a permutation replaces each variable ``u_k`` by ``u_{sigma(k)}``.

Every factor of a shrub fraction is a 0/1 sum, kept here as the label mask
of :func:`shrub_masks`.  With ``k0 = sigma^-1(0)``, a factor over ``S``
maps to the sum over ``sigma(S)`` when ``k0`` is 0 or not in ``S``; when
``k0`` is in ``S`` it maps to minus the sum over the complement of
``sigma(S - {k0})``.  So the action never leaves 0/1 sums: :func:`act` and
:func:`orbit` map signed shapes, a sign and the ``(num masks, den masks)``
pair, to a sign and a shape, and rebuild a shrub from the masks of each
result, through the cache behind :func:`reconstruct`.  No factored
fraction is built.  Both step shapes through one kernel, :func:`_step`,
which reads each mask's image from a plain dict and, on a miss, fills in
the images of that shape's masks and steps it again.  :func:`orbit` closes
the shape of ``x`` under two generators of the whole group, the
transposition ``(0 1)`` and the cycle ``k -> k+1 mod n+1``, whose mask
tables are made once per ``n`` and shared by every orbit (at most
``2^n - 1`` images each, for at most 16 values of ``n``).  The action is
linear, so an orbit either holds both signs of each of its shapes or one
sign of each.  ``(0 1)`` is an involution, so a shape first reached
through it is not stepped through it again: an orbit of ``m`` members on
``s`` shapes, ``s = m/2`` when sign-closed, ``r`` of them first reached
through ``(0 1)``, costs ``2s - r`` steps and ``s - 1`` rebuilds.

For signed forests the action has an explicit model on signed rooted trees
with an extra vertex 0, where moving the root across an edge flips the
sign; :func:`forest_act` computes it there and agrees with :func:`act`.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from operator import add, attrgetter
from typing import NamedTuple

from .core import Shrub, _bits
from .errors import CapExceeded, NotAForest
from .mould import shrub_masks
from .reconstruction import _reconstruct_checked


class OrbitInvariant(NamedTuple):
    """Folded multiset pair (numerator, denominator), entries in
    ``[1, ceil((n+1)/2)]``."""

    numerator: tuple
    denominator: tuple


def _check_sign(sign):
    # an int, not True or 1.0, which compare equal to 1 and then print as
    # true or 1.0 in every member of an orbit
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True)
class SignedShrub:
    """A shrub on labels ``1..n`` together with a sign."""

    sign: int
    shrub: Shrub

    def __post_init__(self):
        _check_sign(self.sign)
        if not isinstance(self.shrub, Shrub):
            raise ValueError(f"a signed shrub holds a Shrub, got {self.shrub!r}")
        n = len(self.shrub)
        if set(self.shrub.labels) != set(range(1, n + 1)):
            raise ValueError("a signed shrub lives on labels 1..n")

    @classmethod
    def _trusted(cls, sign, shrub) -> "SignedShrub":
        """A sign of +-1 and a shrub on ``1..n``, unchecked (trusted, like
        ``Shrub._from_parts``)."""
        self = object.__new__(cls)
        fields = self.__dict__  # written as unpickling does, past the frozen __setattr__
        fields["sign"] = sign
        fields["shrub"] = shrub
        return self

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
        sign = data["sign"]
        if type(sign) is float and sign.is_integer():  # JSON 1.0 reads as 1
            sign = int(sign)
        elif type(sign) is not int:  # a JSON boolean, string or null, 1.5, inf, nan
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        return cls(sign, Shrub.from_json_dict(data["shrub"]))


def _check_permutation(sigma, n):
    try:
        sigma = tuple(sigma)
    except TypeError:  # not iterable
        ok = False
    else:  # entries are ints, not floats or bools that int() would read
        ok = (
            len(sigma) == n + 1
            and all(isinstance(v, int) and not isinstance(v, bool) for v in sigma)
            and sorted(sigma) == list(range(n + 1))
        )
    if not ok:
        raise ValueError(f"need a permutation of 0..{n} in one-line notation, got {sigma!r}")
    return sigma


class _SubsetAction:
    """``sigma`` acting on the 0/1 factor over a label set, as the plain
    dict ``images`` of ``mask -> image mask``; bit ``k - 1`` stands for
    label ``k``, as in :func:`shrub_masks` over ``1..n``.  A factor over a
    set holding ``k0 = sigma^-1(0)``, bit ``drop``, maps to minus its
    image, so a fraction changes sign once per such factor.  ``images``
    starts empty and :meth:`fill` adds the masks of a shape when one of them
    is first missed, so it holds at most ``2^n - 1`` images and a repeated
    mask costs one dict lookup."""

    __slots__ = ("images", "sigma", "full", "drop")

    def __init__(self, sigma, n):
        k0 = sigma.index(0)
        self.images, self.sigma = {}, sigma
        self.full, self.drop = (1 << n) - 1, 1 << (k0 - 1) if k0 else 0

    def fill(self, masks):
        """Compute and keep the images of ``masks`` not yet in ``images``."""
        images, sigma, full, drop = self.images, self.sigma, self.full, self.drop
        for mask in masks:
            if mask not in images:
                out = 0
                for i in _bits(mask & ~drop):
                    out |= 1 << (sigma[i + 1] - 1)
                images[mask] = full ^ out if mask & drop else out


@functools.lru_cache(maxsize=16)
def _generators(n):
    """The subset actions of ``(0 1)`` and ``k -> k+1 mod n+1`` on ``1..n``,
    shared by every orbit on ``n`` labels; their tables start empty and fill
    as masks are met."""
    swap, cycle = (1, 0, *range(2, n + 1)), (*range(1, n + 1), 0)
    return _SubsetAction(swap, n), _SubsetAction(cycle, n)


def _step(action, signs, shapes):
    """Apply a subset action to signed shapes, ``signs[i]`` times the
    fraction of the ``(num masks, den masks)`` pair ``shapes[i]``; returns
    the signs and the shapes of the images, as two lists.

    Masks are read from ``action.images``; a shape with a mask missing
    there has its masks filled in and is stepped again.  The action is an
    invertible linear map, so distinct factors stay distinct and a reduced
    fraction stays reduced: nothing cancels.
    """
    images, drop, out_signs, out_shapes = action.images, action.drop, [], []
    for sign, (num, den) in zip(signs, shapes):
        # bit ``drop`` of the xor of the masks is the parity of the factors
        # that change sign; plain loops, as CPython 3.11 calls a function
        # per comprehension
        while True:
            try:
                parity, num_images, den_images = 0, [], []
                for mask in num:
                    parity ^= mask
                    num_images.append(images[mask])
                for mask in den:
                    parity ^= mask
                    den_images.append(images[mask])
                break
            except KeyError:
                action.fill(num + den)
        num_images.sort()
        den_images.sort()
        out_signs.append(-sign if parity & drop else sign)
        out_shapes.append((tuple(num_images), tuple(den_images)))
    return out_signs, out_shapes


def act(sigma, x: SignedShrub) -> SignedShrub:
    """Action of a permutation of ``{0..n}`` on a signed shrub.

    Maps each factor mask of the fraction of ``x`` (see the module
    docstring), then rebuilds the shrub.  Permutations fixing 0 reduce to
    plain relabeling.  Failure to land on a shrub fraction would be a
    closure bug, surfaced as ``NotInImage`` by the certified rebuild.
    """
    sigma = _check_permutation(sigma, x.n)
    [sign], [(num, den)] = _step(_SubsetAction(sigma, x.n), [x.sign], [shrub_masks(x.shrub)])
    shrub = _reconstruct_checked((x.shrub.labels, num, den))
    return SignedShrub._trusted(sign, shrub)


# shrubs on one labels tuple of length n sort by heights then covers, as by
# their sort keys; both tuples have length n, so by their concatenation too
_heights, _covers = attrgetter("_heights"), attrgetter("_covers")


def orbit(x: SignedShrub, cap: int = 5) -> tuple:
    """Closure of ``x`` under the full index-0 action, sorted.

    A breadth-first search over unsigned shapes under the transposition
    ``(0 1)`` and the cycle ``k -> k+1 mod n+1``, which generate the group,
    starting from the shape of ``x``, one level at a time; each shape keeps
    the sign it was first reached with.  Since ``orbit(-x) = -orbit(x)``, a
    step that reaches a shape with the other sign makes the orbit
    sign-closed, holding both signs of every shape; otherwise each shape
    appears once, with its sign.  ``(0 1)`` is an involution, so a shape
    first reached through it steps back to its parent, with the parent's
    sign: that step is skipped.  An orbit on ``s`` shapes, ``r`` of them
    first reached through ``(0 1)``, costs ``2s - r`` steps and ``s - 1``
    certified rebuilds, one per shape other than that of ``x``.  Members
    share the labels ``1..n``, so they sort by heights, covers and sign, as
    by their sort keys; each shrub's key is made once, without a Python
    call.  An orbit can hold ``2 (n+1)!`` members, so more than ``cap``
    labels raise ``CapExceeded`` before the search; a ``cap`` that is not an
    int, ``True`` included, raises ``ValueError``.
    """
    if type(cap) is not int:
        raise ValueError(f"the orbit cap must be an int, got {cap!r}")
    n = x.n
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the orbit cap {cap}")
    start = shrub_masks(x.shrub)
    seen, closed = {start: x.sign}, False

    def visit(action, signs, shapes):
        """Step signed shapes by ``action``; the signs and shapes first met."""
        nonlocal closed
        new_signs, new_shapes = [], []
        for t, z in zip(*_step(action, signs, shapes)):
            had = seen.get(z)
            if had is None:
                seen[z] = t
                new_signs.append(t)
                new_shapes.append(z)
            elif had != t:
                closed = True
        return new_signs, new_shapes

    swap, cycle = _generators(n)
    swapped, others = ([], []), ([x.sign], [start])  # this level, split by how first reached
    while swapped[1] or others[1]:
        swapped, others = (
            visit(swap, *others),
            visit(cycle, swapped[0] + others[0], swapped[1] + others[1]),
        )
    labels = x.shrub.labels
    shapes = iter(seen)
    next(shapes)  # the shape of x
    shrubs = [x.shrub, *(_reconstruct_checked((labels, *z)) for z in shapes)]
    keys = list(map(add, map(_heights, shrubs), map(_covers, shrubs)))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    trusted = SignedShrub._trusted
    if closed:
        return tuple(trusted(s, shrubs[i]) for i in order for s in (-1, 1))
    signs = list(seen.values())
    return tuple(trusted(signs[i], shrubs[i]) for i in order)


def orbit_invariant(x: SignedShrub) -> OrbitInvariant:
    """Multiset pair from specializing every variable to 1, folded.

    Each factor contributes its support size; sizes above ``(n+1)/2`` fold
    to ``n+1-k``.  Constant on every orbit of the index-0 action.
    """
    n = x.n
    num, den = shrub_masks(x.shrub)

    def fold(masks):
        return tuple(sorted(n + 1 - k if 2 * k > n + 1 else k for k in map(int.bit_count, masks)))

    return OrbitInvariant(fold(num), fold(den))


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
        _check_sign(self.sign)
        n = len(self.parents)
        for v, p in enumerate(self.parents, start=1):
            if type(p) is not int or not 0 <= p <= n or p == v:
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


def _tree_from_zero(edges, m):
    """Parents and depths in the tree on ``0..m-1`` with ``edges``, rooted
    at 0 by one breadth-first search; ``parents[v-1]`` is the parent of
    ``v`` and ``depth[v]`` its distance to 0."""
    adjacency = [[] for _ in range(m)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parents = [0] * (m - 1)
    depth = [0] + [None] * (m - 1)
    queue = [0]
    for v in queue:
        for w in adjacency[v]:
            if depth[w] is None:
                depth[w] = depth[v] + 1
                parents[w - 1] = v
                queue.append(w)
    return tuple(parents), depth


def _reroot_to_zero(sign, edges, root, n):
    """Canonical 0-rooted representative; each re-rooting step flips the
    sign, so moving the root from ``root`` to 0 flips it once per edge
    between them."""
    parents, depth = _tree_from_zero(edges, n + 1)
    return CTree(sign * (-1) ** depth[root], parents)


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
    return _tree_from_zero(edges, m)[0]
