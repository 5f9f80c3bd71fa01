"""Shrubs: height-labeled graphs generalizing forests of rooted trees.

A shrub assigns a nonnegative integer height to every vertex of a finite
labeled graph so that

1. edges only join consecutive heights,
2. every positive-height vertex covers (has an edge down to) at least one
   vertex, and
3. neither of two induced configurations occurs:

   * **F4** -- a vertex covering two vertices whose own cover sets differ
     (four witnesses: ``w`` covers ``x`` and ``y``, ``y`` covers ``z``,
     ``x`` does not cover ``z``);
   * **F5** -- two vertices whose cover sets overlap without being nested
     (five witnesses: ``x`` covers ``p, q``, ``y`` covers ``q, r``, ``x``
     does not cover ``r`` and ``y`` does not cover ``p``).

"Induced" means the edge and non-edge constraints both hold, at any base
height.  Rooted trees with the distance-to-root height, their forests, and
complete bipartite graphs on two consecutive levels are all shrubs.

Every value is immutable after construction and every operation is a pure
function, so shrubs are safe to share between threads.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    CapExceeded,
    ForbiddenPattern,
    HeightJump,
    LabelClash,
    NotALeaf,
    NotCorrelated,
    UnknownLabel,
    Unsupported,
)

Label = int | str


def label_key(label):
    """Sort key giving a total order across int and str labels."""
    if isinstance(label, str):
        return (1, label)
    return (0, label)


def _is_label(value) -> bool:
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def _check_label(label):
    if not _is_label(label):
        raise TypeError(f"labels must be int or str, got {label!r}")
    return label


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RamClass(NamedTuple):
    """An equivalence class of ramified vertices sharing one target set.

    ``members`` are the vertices covering at least two vertices each, all
    with the same cover set ``targets``.
    """

    members: frozenset
    targets: frozenset


def _find_pattern(heights, covers, order):
    """Scan cover masks for an induced F4 or F5; return (name, index tuple).

    Uses the O(V^3) reformulations: F4-freeness means any two vertices
    covered by a common vertex have identical cover sets; F5-freeness means
    any two vertices with intersecting cover sets have nested cover sets
    (cover sets sit one level down, so only same-height vertices can ever
    intersect and ``heights`` is not consulted).  ``order`` fixes which
    witness is reported first.
    """
    for w in order:
        cw = covers[w]
        if not cw:
            continue
        targets = [t for t in order if cw >> t & 1]
        for x, y in itertools.combinations(targets, 2):
            if covers[x] != covers[y]:
                diff = covers[y] & ~covers[x]
                if not diff:
                    x, y = y, x
                    diff = covers[y] & ~covers[x]
                z = next(_bits(diff))
                return "F4", (w, x, y, z)
    for x in order:
        cx = covers[x]
        if not cx:
            continue
        for y in order:
            if y <= x:
                continue
            cy = covers[y]
            common = cx & cy
            if common and cx != cy and cx & ~cy and cy & ~cx:
                p = next(_bits(cx & ~cy))
                q = next(_bits(common))
                r = next(_bits(cy & ~cx))
                return "F5", (x, y, p, q, r)
    return None


class Shrub:
    """An immutable shrub on a finite set of int or str labels."""

    __slots__ = ("labels", "_index", "_heights", "_covers", "_covered", "_hash")

    def __init__(self, vertices: Iterable[Label], height: Mapping[Label, int], edges):
        labels = tuple(sorted({_check_label(v) for v in vertices}, key=label_key))
        index = {v: i for i, v in enumerate(labels)}
        hs = []
        for v in labels:
            if v not in height:
                raise UnknownLabel(v, "height map (missing)")
            h = height[v]
            if isinstance(h, bool) or not isinstance(h, int) or h < 0:
                raise ValueError(f"height of {v!r} must be a nonnegative integer")
            hs.append(h)
        for v in height:
            if v not in index:
                raise UnknownLabel(v, "height map")
        heights = tuple(hs)

        covers = [0] * len(labels)
        covered = [0] * len(labels)
        for e in edges:
            a, b = e
            if a not in index:
                raise UnknownLabel(a, "edge list")
            if b not in index:
                raise UnknownLabel(b, "edge list")
            ia, ib = index[a], index[b]
            ha, hb = heights[ia], heights[ib]
            if ha == hb + 1:
                ia, ib = ib, ia
                ha, hb = hb, ha
            if hb != ha + 1:
                raise HeightJump((a, b), (height[a], height[b]))
            # ib covers ia
            covers[ib] |= 1 << ia
            covered[ia] |= 1 << ib
        hit = _find_pattern(heights, covers, range(len(labels)))
        if hit is not None:
            name, witnesses = hit
            raise ForbiddenPattern(name, tuple(labels[i] for i in witnesses))
        for i, h in enumerate(heights):
            if h > 0 and not covers[i]:
                raise Unsupported(labels[i])

        self.labels = labels
        self._index = index
        self._heights = heights
        self._covers = tuple(covers)
        self._covered = tuple(covered)
        self._hash = hash((labels, heights, self._covers))

    @classmethod
    def _from_parts(cls, labels, heights, covers):
        """Trusted constructor for results known to satisfy all axioms."""
        self = object.__new__(cls)
        self.labels = labels
        self._index = {v: i for i, v in enumerate(labels)}
        self._heights = heights
        self._covers = covers
        covered = [0] * len(labels)
        for j, m in enumerate(covers):
            for i in _bits(m):
                covered[i] |= 1 << j
        self._covered = tuple(covered)
        self._hash = hash((labels, heights, covers))
        return self

    # -- basic queries ----------------------------------------------------

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return label in self._index

    def __eq__(self, other):
        if not isinstance(other, Shrub):
            return NotImplemented
        return (
            self.labels == other.labels
            and self._heights == other._heights
            and self._covers == other._covers
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        hs = ", ".join(f"{v!r}:{h}" for v, h in zip(self.labels, self._heights))
        es = ", ".join(f"{a!r}-{b!r}" for a, b in self.edges)
        return f"Shrub({{{hs}}}; {es})"

    def _idx(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(label) from None

    def _mask_labels(self, mask):
        return frozenset(self.labels[i] for i in _bits(mask))

    def height(self, label) -> int:
        return self._heights[self._idx(label)]

    @property
    def height_map(self) -> dict:
        return dict(zip(self.labels, self._heights))

    @property
    def edges(self) -> tuple:
        """Edges as sorted label pairs (lower label first), sorted."""
        out = []
        for j, m in enumerate(self._covers):
            for i in _bits(m):
                a, b = sorted((self.labels[i], self.labels[j]), key=label_key)
                out.append((a, b))
        return tuple(sorted(out, key=lambda e: (label_key(e[0]), label_key(e[1]))))

    def max_height(self) -> int:
        return max(self._heights, default=-1)

    def covers(self, label) -> frozenset:
        """The vertices that ``label`` covers (one level down)."""
        return self._mask_labels(self._covers[self._idx(label)])

    def covered_by(self, label) -> frozenset:
        """The vertices covering ``label`` (one level up)."""
        return self._mask_labels(self._covered[self._idx(label)])

    def roots(self) -> frozenset:
        """The height-0 vertices."""
        return frozenset(v for v, h in zip(self.labels, self._heights) if h == 0)

    def level(self, h) -> frozenset:
        return frozenset(v for v, hh in zip(self.labels, self._heights) if hh == h)

    def sort_key(self):
        """Deterministic total order on shrubs (labels, heights, covers)."""
        return (
            tuple(label_key(v) for v in self.labels),
            self._heights,
            self._covers,
        )

    # -- structure --------------------------------------------------------

    def _restrict_mask(self, mask, shift=0):
        """Induced sub-shrub on the vertices in ``mask`` (trusted valid)."""
        idxs = list(_bits(mask))
        labels = tuple(self.labels[i] for i in idxs)
        heights = tuple(self._heights[i] - shift for i in idxs)
        pos = {i: p for p, i in enumerate(idxs)}
        covers = []
        for i in idxs:
            m = 0
            for t in _bits(self._covers[i] & mask):
                m |= 1 << pos[t]
            covers.append(m)
        return Shrub._from_parts(labels, heights, tuple(covers))

    def connected_components(self) -> tuple:
        """The connected induced sub-shrubs, by increasing least label."""
        n = len(self.labels)
        seen = 0
        comps = []
        for s in range(n):
            if seen >> s & 1:
                continue
            frontier = 1 << s
            comp = 0
            while frontier:
                comp |= frontier
                new = 0
                for i in _bits(frontier):
                    new |= self._covers[i] | self._covered[i]
                frontier = new & ~comp
            seen |= comp
            comps.append(self._restrict_mask(comp))
        return tuple(comps)

    def is_connected(self) -> bool:
        return len(self.labels) > 0 and len(self.connected_components()) == 1

    def ram_classes(self) -> tuple:
        """Equivalence classes of ramified vertices, grouped by target set.

        A vertex is ramified when it covers at least two vertices; two
        ramified vertices are equivalent when their cover sets coincide.
        Forests are exactly the shrubs with no ramified vertex.
        """
        groups = {}
        for i, m in enumerate(self._covers):
            if bin(m).count("1") >= 2:
                groups.setdefault(m, []).append(i)
        out = []
        for m, idxs in groups.items():
            out.append(
                RamClass(
                    members=frozenset(self.labels[i] for i in idxs),
                    targets=self._mask_labels(m),
                )
            )
        out.sort(key=lambda rc: min(label_key(v) for v in rc.members))
        return tuple(out)

    def is_forest(self) -> bool:
        return not self.ram_classes()

    def upper_ideal(self, seed) -> frozenset:
        """Minimal upper ideal containing ``seed``.

        A subset is an upper ideal when its complement induces a shrub; the
        minimal one generated by ``seed`` consists of the vertices all of
        whose descending paths to height 0 pass through ``seed``.
        """
        seed_mask = 0
        for v in seed:
            seed_mask |= 1 << self._idx(v)
        n = len(self.labels)
        order = sorted(range(n), key=lambda i: self._heights[i])
        escapes = 0
        for i in order:
            if seed_mask >> i & 1:
                continue
            if self._heights[i] == 0 or self._covers[i] & escapes:
                escapes |= 1 << i
        return self._mask_labels(~escapes & ((1 << n) - 1))

    def leaves(self) -> frozenset:
        """Vertices with exactly one edge down and none up."""
        return frozenset(
            self.labels[i]
            for i in range(len(self.labels))
            if bin(self._covers[i]).count("1") == 1 and not self._covered[i]
        )

    def correlated_pairs(self) -> tuple:
        """Pairs of vertices with identical sources and identical targets.

        Returned as sorted label pairs in deterministic order.
        """
        out = []
        n = len(self.labels)
        for i in range(n):
            for j in range(i + 1, n):
                if self._covers[i] == self._covers[j] and self._covered[i] == self._covered[j]:
                    a, b = sorted((self.labels[i], self.labels[j]), key=label_key)
                    out.append((a, b))
        return tuple(sorted(out, key=lambda p: (label_key(p[0]), label_key(p[1]))))

    def delete_leaf(self, leaf) -> "Shrub":
        i = self._idx(leaf)
        if bin(self._covers[i]).count("1") != 1 or self._covered[i]:
            raise NotALeaf(leaf)
        mask = ((1 << len(self.labels)) - 1) ^ (1 << i)
        return self._restrict_mask(mask)

    def merge_correlated(self, a, b, new_label) -> "Shrub":
        ia, ib = self._idx(a), self._idx(b)
        if self._covers[ia] != self._covers[ib] or self._covered[ia] != self._covered[ib]:
            raise NotCorrelated((a, b))
        _check_label(new_label)
        if new_label in self._index and new_label not in (a, b):
            raise LabelClash((new_label,))
        keep = [i for i in range(len(self.labels)) if i not in (ia, ib)]
        labels = [self.labels[i] for i in keep] + [new_label]
        heights = {self.labels[i]: self._heights[i] for i in keep}
        heights[new_label] = self._heights[ia]
        edges = []
        for j in keep:
            for t in _bits(self._covers[j] & ~(1 << ia) & ~(1 << ib)):
                if t in keep:
                    edges.append((self.labels[j], self.labels[t]))
        for t in _bits(self._covers[ia]):
            edges.append((new_label, self.labels[t]))
        for s in _bits(self._covered[ia]):
            edges.append((self.labels[s], new_label))
        return Shrub(labels, heights, edges)

    def truncate_at_or_above(self, h0: int) -> "Shrub":
        """Induced sub-shrub on heights >= ``h0``, heights shifted down."""
        if h0 <= 0:
            return self
        mask = 0
        for i, h in enumerate(self._heights):
            if h >= h0:
                mask |= 1 << i
        return self._restrict_mask(mask, shift=h0)

    def relabel(self, mapping: Mapping) -> "Shrub":
        """Rename vertices through an injective mapping (identity default)."""
        new = [mapping.get(v, v) for v in self.labels]
        for v in new:
            _check_label(v)
        if len(set(new)) != len(new):
            raise LabelClash(tuple(v for v in new if new.count(v) > 1))
        order = sorted(range(len(new)), key=lambda i: label_key(new[i]))
        labels = tuple(new[i] for i in order)
        heights = tuple(self._heights[i] for i in order)
        pos = {i: p for p, i in enumerate(order)}
        covers = [0] * len(new)
        for j, m in enumerate(self._covers):
            mm = 0
            for t in _bits(m):
                mm |= 1 << pos[t]
            covers[pos[j]] = mm
        return Shrub._from_parts(labels, heights, tuple(covers))

    # -- isomorphism ------------------------------------------------------

    def canonical_form(self):
        """Canonical relabeling to ``1..n`` plus the relabeling used.

        Minimizes the serialized edge list over all height-compatible
        relabelings; exponential in the largest level, fine for n <= 7.
        Returns ``(canonical_shrub, {old_label: new_label})``.
        """
        n = len(self.labels)
        if n == 0:
            return self, {}
        order = sorted(range(n), key=lambda i: (self._heights[i], label_key(self.labels[i])))
        levels = []
        for _, grp in itertools.groupby(order, key=lambda i: self._heights[i]):
            levels.append(list(grp))
        edge_idx = []
        for j, m in enumerate(self._covers):
            for i in _bits(m):
                edge_idx.append((i, j))
        best = None
        best_assign = None
        for perms in itertools.product(*(itertools.permutations(lv) for lv in levels)):
            new = [0] * n
            k = 1
            for lv in perms:
                for i in lv:
                    new[i] = k
                    k += 1
            key = tuple(sorted((new[i], new[j]) if new[i] < new[j] else (new[j], new[i]) for i, j in edge_idx))
            if best is None or key < best:
                best = key
                best_assign = new
        heights = {best_assign[i]: self._heights[i] for i in range(n)}
        canon = Shrub(range(1, n + 1), heights, list(best))
        return canon, {self.labels[i]: best_assign[i] for i in range(n)}

    def is_isomorphic(self, other: "Shrub") -> bool:
        if len(self) != len(other):
            return False
        if sorted(self._heights) != sorted(other._heights):
            return False
        return self.canonical_form()[0] == other.canonical_form()[0]

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.labels),
            "height": {v: h for v, h in zip(self.labels, self._heights)},
            "edges": [list(e) for e in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "Shrub":
        if not isinstance(data, dict):
            raise ValueError(f"a shrub is a JSON object, not {type(data).__name__}")
        for key in ("vertices", "height"):
            if key not in data:
                raise ValueError(f"shrub JSON lacks the key {key!r}")
        vertices = data["vertices"]
        raw_height = data["height"]
        raw_edges = data.get("edges", [])
        if not (isinstance(vertices, list) and isinstance(raw_height, dict) and isinstance(raw_edges, list)):
            raise ValueError("shrub JSON needs a vertices list, a height object and an edges list")
        for v in vertices:
            if not _is_label(v):
                raise ValueError(f"labels must be int or str, got {v!r}")
        for e in raw_edges:
            if not (isinstance(e, list) and len(e) == 2 and all(map(_is_label, e))):
                raise ValueError(f"an edge is a pair of labels, got {e!r}")
        height = {}
        for v in vertices:
            if v in raw_height:
                height[v] = raw_height[v]
            elif str(v) in raw_height:
                height[v] = raw_height[str(v)]
            else:
                raise UnknownLabel(v, "height map (missing)")
        edges = [tuple(e) for e in raw_edges]
        return cls(vertices, height, edges)

    @classmethod
    def from_json(cls, text: str) -> "Shrub":
        return cls.from_json_dict(json.loads(text))

    def to_dot(self) -> str:
        """DOT drawing with one rank per height, height increasing upward."""
        lines = ["digraph shrub {", "  rankdir=BT;", "  node [shape=circle];", "  edge [dir=none];"]
        for h in range(self.max_height() + 1):
            names = " ".join(f'"{v}";' for v in sorted(self.level(h), key=label_key))
            lines.append(f"  {{ rank=same; {names} }}")
        for j, m in enumerate(self._covers):
            for i in _bits(m):
                lines.append(f'  "{self.labels[i]}" -> "{self.labels[j]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def validate_shrub(vertices, height, edges) -> Shrub:
    """Validate the three axioms and return the shrub, or raise."""
    return Shrub(vertices, height, edges)


def trivial_shrub(label) -> Shrub:
    return Shrub([label], {label: 0}, [])


# -- enumeration ----------------------------------------------------------


def _ordered_level_partitions(items):
    """All ways to split ``items`` into an ordered sequence of nonempty levels."""
    items = tuple(items)
    if not items:
        yield ()
        return

    def rec(remaining):
        if not remaining:
            yield ()
            return
        for k in range(1, len(remaining) + 1):
            for head in itertools.combinations(remaining, k):
                head_set = set(head)
                tail = tuple(v for v in remaining if v not in head_set)
                for rest in rec(tail):
                    yield (head,) + rest

    yield from rec(items)


def enumerate_shrubs_bruteforce(n: int, cap: int = 6) -> tuple:
    """All shrubs on labels ``1..n`` by exhausting height maps and edge sets.

    Height maps are exactly the ordered level partitions (axiom 2 forces
    contiguous levels); the edge sets compatible with axioms 1 and 2 are the
    per-vertex choices of a nonempty cover set one level down; the pattern
    axiom is then checked on each candidate.  Deterministic output order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds cap {cap}")
    labels = tuple(range(1, n + 1))
    out = []
    for levels in _ordered_level_partitions(labels):
        heights = {}
        for h, lv in enumerate(levels):
            for v in lv:
                heights[v] = h
        label_order = tuple(sorted(heights, key=label_key))
        height_tuple = tuple(heights[v] for v in label_order)
        idx = {v: i for i, v in enumerate(label_order)}
        choosers = []
        for h in range(1, len(levels)):
            below = [idx[v] for v in levels[h - 1]]
            subsets = []
            for r in range(1, len(below) + 1):
                for combo in itertools.combinations(below, r):
                    m = 0
                    for i in combo:
                        m |= 1 << i
                    subsets.append(m)
            for v in levels[h]:
                choosers.append((idx[v], subsets))
        for choice in itertools.product(*(s for _, s in choosers)):
            covers = [0] * n
            for (i, _), m in zip(choosers, choice):
                covers[i] = m
            if _find_pattern(height_tuple, covers, range(n)) is None:
                out.append(Shrub._from_parts(label_order, height_tuple, tuple(covers)))
    out.sort(key=Shrub.sort_key)
    return tuple(out)


def count_isomorphism_classes(shrubs: Iterable[Shrub]) -> int:
    """Number of distinct shrubs up to height-preserving isomorphism."""
    return len({P.canonical_form()[0] for P in shrubs})
