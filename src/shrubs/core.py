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
import re
from collections import Counter
from json.decoder import scanstring
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

ENUMERATION_CAP = 6  # 51,303 shrubs on 6 labels; 1,152,019 on 7


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


def _check_height(h):
    if isinstance(h, bool) or not isinstance(h, int):
        raise ValueError(f"the height must be an int, got {h!r}")


def _check_count(n):
    """Refuse a label count that is not an int of at least 1: ``True``
    would count one label, and ``2.0`` or ``"2"`` fail later in a bare
    ``TypeError``."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError("n must be >= 1")


def parse_json(text: str):
    """``json.loads``, for generator words of any depth.

    The stdlib parser recurses on nesting.  Text nested past the
    interpreter's limit is read again by :func:`_read_word_json`, on an
    explicit stack; if it is not the JSON of a generator word, it raises
    ``ValueError: JSON nested too deeply to parse``.
    """
    try:
        return json.loads(text)
    except RecursionError:
        obj = _read_word_json(text)
    if obj is None:
        raise ValueError("JSON nested too deeply to parse")
    return obj


_SPACE = re.compile(r"[ \t\n\r]*")  # JSON whitespace
_read_scalar = json.JSONDecoder().raw_decode  # a string, number or literal at an index


def _read_word_json(text: str):
    """``json.loads(text)`` on an explicit stack, for the JSON of a
    generator word: an object whose ``"args"`` is a list of labels and
    words, and whose other values are scalars.  ``None`` for any other
    text, malformed JSON included."""
    skip = _SPACE.match
    i = skip(text).end()
    if not text.startswith("{", i):
        return None
    word = {}
    stack = [word]  # open containers, innermost last
    i, after_entry = skip(text, i + 1).end(), False
    while stack:
        top = stack[-1]
        if text.startswith("}" if type(top) is dict else "]", i):
            stack.pop()
            i, after_entry = skip(text, i + 1).end(), True
            continue
        if after_entry:
            if not text.startswith(",", i):
                return None
            i = skip(text, i + 1).end()
        key = None
        if type(top) is dict:
            if not text.startswith('"', i):
                return None
            try:
                key, i = scanstring(text, i + 1)
            except ValueError:
                return None
            i = skip(text, i).end()
            if not text.startswith(":", i):
                return None
            i = skip(text, i + 1).end()
        # a list holds words, and only an object's "args" holds a list
        opener = "{" if key is None else "[" if key == "args" else None
        if opener and text.startswith(opener, i):
            value = {} if opener == "{" else []
            i, after_entry = skip(text, i + 1).end(), False
        elif text.startswith(("{", "["), i):
            return None
        else:
            try:
                value, i = _read_scalar(text, i)
            except ValueError:
                return None
            i, after_entry = skip(text, i).end(), True
        if key is None:
            top.append(value)
        else:
            top[key] = value
        if not after_entry:
            stack.append(value)
    return word if i == len(text) else None


# the set-bit indices of every mask below 256, so that a small one is one lookup
_BYTE_BITS = tuple(tuple(i for i in range(8) if m >> i & 1) for m in range(256))


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending, as an iterable."""
    if mask < 256:
        return _BYTE_BITS[mask]
    return _wide_bits(mask)


def _wide_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _low_bit(mask):
    """Index of the lowest set bit of ``mask``."""
    return (mask & -mask).bit_length() - 1


def _check_clash(outer, inner, slot=None):
    """Raise :class:`LabelClash` on the labels of ``inner`` that ``outer``
    also has, other than ``slot``, sorted by ``label_key``: the rule every
    product and partial composition shares."""
    clash = set(inner).intersection(outer)
    clash.discard(slot)
    if clash:
        raise LabelClash(sorted(clash, key=label_key))


def _composed_labels(outer, i, inner) -> frozenset:
    """The labels of the partial composition of ``inner`` into the slot
    ``i`` of ``outer``: ``i`` must be a label of ``outer``, and the
    labels pass :func:`_check_clash`."""
    if not _is_label(i) or i not in outer:
        raise UnknownLabel(i, "composition slot")
    _check_clash(outer, inner, i)
    return (frozenset(outer) - {i}).union(inner)


class RamClass(NamedTuple):
    """An equivalence class of ramified vertices sharing one target set.

    ``members`` are the vertices covering at least two vertices each, all
    with the same cover set ``targets``.
    """

    members: frozenset
    targets: frozenset


def _upward(covers) -> list:
    """The cover masks read upwards: bit ``j`` of entry ``i`` is set when
    vertex ``j`` covers vertex ``i``."""
    covered = [0] * len(covers)
    for j, m in enumerate(covers):
        bit = 1 << j
        while m:
            low = m & -m
            covered[low.bit_length() - 1] |= bit
            m ^= low
    return covered


def _remap(covers, order) -> tuple:
    """The masks ``covers[k]`` of the vertices ``k`` in ``order``, with each
    vertex in ``order`` moved to its place there and every other dropped."""
    pos = [0] * len(covers)  # bit of each kept vertex in the result, 0 if dropped
    for p, k in enumerate(order):
        pos[k] = 1 << p
    out = []
    for k in order:
        m, c = 0, covers[k]
        while c:
            low = c & -c
            m |= pos[low.bit_length() - 1]
            c ^= low
        out.append(m)
    return tuple(out)


def _certify(labels, heights, covers):
    """The certificate the constructor and every mask build end with: no
    induced F4 or F5 (:class:`ForbiddenPattern`, first witness in index
    order), then every vertex above height 0 covers something
    (:class:`Unsupported` on the first that does not)."""
    hit = _find_pattern(covers)
    if hit is not None:
        name, witnesses = hit
        raise ForbiddenPattern(name, tuple(labels[i] for i in witnesses))
    for i, h in enumerate(heights):
        if h > 0 and not covers[i]:
            raise Unsupported(labels[i])


def _find_pattern(covers):
    """Scan cover masks for an induced F4 or F5; return (name, index tuple).

    Uses the reformulations: F4-freeness means any two vertices covered by
    a common vertex have identical cover sets; F5-freeness means any two
    vertices with intersecting cover sets have nested cover sets (cover
    sets sit one level down, so only same-height vertices can ever
    intersect and heights need not be consulted).  For F5 each vertex is
    paired only with the later vertices covering one of its targets, so a
    sparse shrub costs about one pass over its edges.  The witness reported
    is the first in index order.
    """
    n = len(covers)
    for w in range(n):
        cw = covers[w]
        if cw & (cw - 1):
            # a differing pair exists exactly when some vertex differs from
            # the first, and the first such pair is also first in pair order
            x = _low_bit(cw)
            for y in _bits(cw & (cw - 1)):
                if covers[x] != covers[y]:
                    diff = covers[y] & ~covers[x]
                    if not diff:
                        x, y = y, x
                        diff = covers[y] & ~covers[x]
                    z = _low_bit(diff)
                    return "F4", (w, x, y, z)
    covered = _upward(covers)
    for x, cx in enumerate(covers):
        near = 0
        m = cx
        while m:
            low = m & -m
            near |= covered[low.bit_length() - 1]
            m ^= low
        near >>= x + 1  # bit k stands for the vertex x + 1 + k
        while near:
            low = near & -near
            near ^= low
            y = x + low.bit_length()
            cy = covers[y]
            if cx & ~cy and cy & ~cx:
                p = _low_bit(cx & ~cy)
                q = _low_bit(cx & cy)
                r = _low_bit(cy & ~cx)
                return "F5", (x, y, p, q, r)
    return None


class Shrub:
    """An immutable shrub on a finite set of int or str labels."""

    __slots__ = ("labels", "_index", "_heights", "_covers")

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
        _certify(labels, heights, covers)

        self.labels = labels
        self._index = index
        self._heights = heights
        self._covers = tuple(covers)

    @classmethod
    def _from_parts(cls, labels, heights, covers):
        """Trusted constructor for results known to satisfy all axioms.

        Only the labels, heights and cover masks are kept.  The label index
        is built by the first label query (:meth:`_label_index`): most
        trusted shrubs, the enumerated ones above all, are only read by
        position, and the index would be two thirds of what each keeps."""
        self = object.__new__(cls)
        self.labels = labels
        self._index = None
        self._heights = heights
        self._covers = covers
        return self

    # -- basic queries ----------------------------------------------------

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return _is_label(label) and label in self._label_index()

    def __eq__(self, other):
        if not isinstance(other, Shrub):
            return NotImplemented
        return (
            self.labels == other.labels
            and self._heights == other._heights
            and self._covers == other._covers
        )

    def __hash__(self):
        return hash((self.labels, self._heights, self._covers))

    def __reduce__(self):
        # the label index stays out of the pickle: it is rebuilt on the
        # first label query, as for any trusted shrub
        return Shrub._from_parts, (self.labels, self._heights, self._covers)

    def __repr__(self):
        hs = ", ".join(f"{v!r}:{h}" for v, h in zip(self.labels, self._heights))
        es = ", ".join(f"{a!r}-{b!r}" for a, b in self.edges)
        return f"Shrub({{{hs}}}; {es})"

    def _label_index(self) -> dict:
        """The label → position dict, built on first use and kept.  Threads
        that race here build equal dicts, so either may be kept."""
        index = self._index
        if index is None:
            index = self._index = {v: i for i, v in enumerate(self.labels)}
        return index

    def _idx(self, label):
        if _is_label(label):
            i = self._label_index().get(label)
            if i is not None:
                return i
        raise UnknownLabel(label)

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
        return self._mask_labels(_upward(self._covers)[self._idx(label)])

    def roots(self) -> frozenset:
        """The height-0 vertices."""
        return frozenset(v for v, h in zip(self.labels, self._heights) if h == 0)

    def level(self, h) -> frozenset:
        """The vertices at height ``h``; ``ValueError`` unless ``h`` is an
        int (not a ``bool``)."""
        _check_height(h)
        return frozenset(v for v, hh in zip(self.labels, self._heights) if hh == h)

    def sort_key(self):
        """Deterministic total order on shrubs (labels, heights, covers)."""
        return (
            tuple(label_key(v) for v in self.labels),
            self._heights,
            self._covers,
        )

    # -- structure --------------------------------------------------------

    def _moved(self, order, labels, shift=0):
        """The shrub whose vertex ``p`` is vertex ``order[p]`` of this one,
        renamed ``labels[p]`` and lowered by ``shift``, its covers kept on
        the moved vertices.  Trusted: the result must be a shrub, and
        ``labels`` distinct and in ``label_key`` order."""
        return Shrub._from_parts(
            tuple(labels), tuple(self._heights[i] - shift for i in order), _remap(self._covers, order)
        )

    def _restrict_mask(self, mask, shift=0):
        """Induced sub-shrub on the vertices in ``mask`` (trusted valid)."""
        order = list(_bits(mask))
        return self._moved(order, [self.labels[i] for i in order], shift)

    def _component_mask(self, s, up) -> int:
        """Mask of the component of ``s``, by flood fill; ``up`` is ``_upward(self._covers)``."""
        frontier = 1 << s
        comp = 0
        while frontier:
            comp |= frontier
            new = 0
            for i in _bits(frontier):
                new |= self._covers[i] | up[i]
            frontier = new & ~comp
        return comp

    def connected_components(self) -> tuple:
        """The connected induced sub-shrubs, by increasing least label."""
        seen = 0
        comps = []
        up = _upward(self._covers)
        for s in range(len(self.labels)):
            if not seen >> s & 1:
                comp = self._component_mask(s, up)
                seen |= comp
                comps.append(self._restrict_mask(comp))
        return tuple(comps)

    def is_connected(self) -> bool:
        n = len(self.labels)
        return n > 0 and self._component_mask(0, _upward(self._covers)) == (1 << n) - 1

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
        whose descending paths to height 0 pass through ``seed``, an
        iterable of labels; ``ValueError`` for a str or a non-iterable seed.
        """
        if isinstance(seed, str):
            raise ValueError(f"the seed must be an iterable of labels, not the str {seed!r}")
        try:
            seed = iter(seed)
        except TypeError:
            raise ValueError(f"the seed must be an iterable of labels, got {seed!r}") from None
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
        up = _upward(self._covers)
        return frozenset(
            self.labels[i]
            for i in range(len(self.labels))
            if bin(self._covers[i]).count("1") == 1 and not up[i]
        )

    def correlated_pairs(self) -> tuple:
        """Pairs of vertices with identical sources and identical targets.

        Returned as sorted label pairs in deterministic order.
        """
        out = []
        n = len(self.labels)
        up = _upward(self._covers)
        for i in range(n):
            for j in range(i + 1, n):
                if self._covers[i] == self._covers[j] and up[i] == up[j]:
                    a, b = sorted((self.labels[i], self.labels[j]), key=label_key)
                    out.append((a, b))
        return tuple(sorted(out, key=lambda p: (label_key(p[0]), label_key(p[1]))))

    def delete_leaf(self, leaf) -> "Shrub":
        i = self._idx(leaf)
        if bin(self._covers[i]).count("1") != 1 or _upward(self._covers)[i]:
            raise NotALeaf(leaf)
        mask = ((1 << len(self.labels)) - 1) ^ (1 << i)
        return self._restrict_mask(mask)

    def merge_correlated(self, a, b, new_label) -> "Shrub":
        """Merge the correlated pair ``a``, ``b`` into the vertex ``new_label``,
        undoing one C composition: drop ``b``, rename ``a``.  ``new_label``
        is checked as by :meth:`relabel`, and may be ``a`` or ``b``."""
        ia, ib = self._idx(a), self._idx(b)
        up = _upward(self._covers)
        if ia == ib or self._covers[ia] != self._covers[ib] or up[ia] != up[ib]:
            raise NotCorrelated((a, b))
        return self._restrict_mask(((1 << len(self.labels)) - 1) ^ (1 << ib)).relabel({a: new_label})

    def truncate_at_or_above(self, h0: int) -> "Shrub":
        """Induced sub-shrub on heights >= ``h0``, heights shifted down;
        ``ValueError`` unless ``h0`` is an int (not a ``bool``)."""
        _check_height(h0)
        if h0 <= 0:
            return self
        mask = 0
        for i, h in enumerate(self._heights):
            if h >= h0:
                mask |= 1 << i
        return self._restrict_mask(mask, shift=h0)

    def relabel(self, mapping: Mapping) -> "Shrub":
        """Rename vertices through an injective mapping (identity default):
        ``TypeError`` for a new label not int or str, ``LabelClash`` naming each clash once."""
        new = [_check_label(mapping.get(v, v)) for v in self.labels]
        counts = Counter(new)
        if len(counts) != len(new):
            raise LabelClash(sorted((v for v, k in counts.items() if k > 1), key=label_key))
        order = sorted(range(len(new)), key=lambda i: label_key(new[i]))
        return self._moved(order, [new[i] for i in order])

    # -- isomorphism ------------------------------------------------------

    def canonical_form(self):
        """Canonical relabeling to ``1..n`` plus the relabeling used.

        New labels go level by level from height 0.  The canonical
        relabeling minimizes the sorted edge list, that is, maximizes the
        upper adjacency matrix read row by row; among ties it lists the old
        vertices first in ``label_key`` (= index) order.  Returns
        ``(canonical_shrub, {old_label: new_label})``.

        Ordered refinement: each level is a list of cells, vertex masks
        filling consecutive labels.  The next label goes to the member of
        the first cell with the largest row (its up-neighbour count per
        cell above), which splits each cell above in two.  The search
        branches only on tied members that are not twins (same covers and
        covered), in index order, keeps the first best and drops a branch
        at its first row behind it.  Untied rows cost one pass; ties no
        twin rule removes multiply, e.g. k disjoint two-vertex chains give
        k! leaves where trying every relabeling costs (k!)^2.
        """
        n = len(self.labels)
        if n == 0:
            return self, {}
        heights, up = self._heights, _upward(self._covers)
        top = max(heights)
        levels = [0] * (top + 2)
        for i, h in enumerate(heights):
            levels[h] |= 1 << i

        def split(cells, u):
            out = []
            for c in cells:
                a = c & u
                if a and a != c:
                    out += (a, c ^ a)
                else:
                    out.append(c)
            return out

        best_rows = best_order = None
        branched = False  # rows are recorded once a later branch may compare them
        # a path: its rows, its vertices in label order, the height it is
        # at, that level's cells left (first cell last), the next level's
        # cells, and whether it is already ahead of the best
        stack = [([], [], 0, [levels[0]], [levels[1]], True)]
        while stack:
            rows, order, h, cur, nxt, ahead = stack.pop()
            while True:
                if not cur:
                    h += 1
                    cur, nxt = nxt[::-1], [levels[h + 1]]
                if h == top:  # top cells hold twins (same covers, nothing above): index order
                    for c in reversed(cur):
                        order += _bits(c)
                    break
                cell = cur.pop()
                if cell & (cell - 1):
                    seen = set()  # members share their covers, so twins share `up`
                    row = None
                    for w in _bits(cell):
                        u = up[w]
                        if u not in seen:
                            seen.add(u)
                            r = tuple([(c & u).bit_count() for c in nxt])
                            if row is None or r > row:
                                row, ties = r, [w]
                            elif r == row:
                                ties.append(w)
                    v = ties[0]
                else:
                    ties = ()
                    v = cell.bit_length() - 1
                    row = tuple([(c & up[v]).bit_count() for c in nxt]) if branched else None
                if not ahead:
                    if row < best_rows[len(order)]:
                        break
                    ahead = row > best_rows[len(order)]
                for w in ties[:0:-1]:  # when popped, a sibling is level with the best
                    branched = True
                    rest = cur + [cell ^ (1 << w)]
                    stack.append((rows + [row], order + [w], h, rest, split(nxt, up[w]), False))
                rows.append(row)
                order.append(v)
                if cell ^ (1 << v):
                    cur.append(cell ^ (1 << v))
                if up[v]:
                    nxt = split(nxt, up[v])
            if len(order) == n and ahead:  # else the branch stopped behind the best
                best_rows, best_order = rows, order

        new = [0] * n
        for p, v in enumerate(best_order, 1):
            new[v] = p
        covers = _remap(self._covers, best_order)
        canon = Shrub._from_parts(tuple(range(1, n + 1)), tuple(heights[v] for v in best_order), covers)
        return canon, dict(zip(self.labels, new))

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
        names = {*vertices, *map(str, vertices)}
        for key in raw_height:
            if key not in names:
                raise UnknownLabel(key, "height map")
        edges = [tuple(e) for e in raw_edges]
        return cls(vertices, height, edges)

    @classmethod
    def from_json(cls, text: str) -> "Shrub":
        return cls.from_json_dict(parse_json(text))

    def to_dot(self) -> str:
        """DOT drawing with one rank per height, height increasing upward."""
        lines = ["digraph shrub {", "  rankdir=BT;", "  node [shape=circle];", "  edge [dir=none];"]
        for h in range(self.max_height() + 1):
            names = " ".join(f"{_dot_id(v)};" for v in sorted(self.level(h), key=label_key))
            lines.append(f"  {{ rank=same; {names} }}")
        for j, m in enumerate(self._covers):
            for i in _bits(m):
                lines.append(f"  {_dot_id(self.labels[i])} -> {_dot_id(self.labels[j])};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_id(label) -> str:
    """``label`` as a double-quoted DOT identifier, with quotes escaped."""
    return json.dumps(str(label), ensure_ascii=False)


def _laid_out(labels, heights, covers, kept) -> Shrub:
    """The shrub on the vertices ``kept`` of a vertex list in any order,
    where vertex ``k`` is ``labels[k]`` at height ``heights[k]`` and covers
    the vertices in the mask ``covers[k]``: laid out in ``label_key`` order,
    its masks remapped, and certified by :func:`_certify`.  The kept labels
    must be distinct labels, the heights nonnegative ints and the edges
    between consecutive levels."""
    order = sorted(kept, key=lambda k: label_key(labels[k]))
    labels = tuple([labels[k] for k in order])
    heights = tuple([heights[k] for k in order])
    covers = _remap(covers, order)
    _certify(labels, heights, covers)
    return Shrub._from_parts(labels, heights, covers)


def _joined(P: Shrub, Q: Shrub, lift=0, down=0, slot=None) -> Shrub:
    """The vertices of ``P`` but the one at index ``slot``, and those of
    ``Q`` raised by ``lift``, laid out by :func:`_laid_out`: the roots
    of ``Q`` also cover the vertices of ``P`` in the mask ``down``, and take
    the place of ``slot`` in the covers of ``P``.  The caller checks that
    the kept labels are distinct; :func:`_laid_out` certifies the result."""
    n = len(P.labels)
    covers = list(P._covers)
    roots = 0
    for j, (c, h) in enumerate(zip(Q._covers, Q._heights), n):
        if h:
            covers.append(c << n)
        else:
            covers.append(c << n | down)
            roots |= 1 << j
    kept = range(len(covers))
    if slot is not None:
        bit = 1 << slot
        covers = [c | roots if c & bit else c for c in covers]
        kept = [k for k in kept if k != slot]
    heights = P._heights + tuple([h + lift for h in Q._heights])
    return _laid_out(P.labels + Q.labels, heights, covers, kept)


def trivial_shrub(label) -> Shrub:
    return Shrub([label], {label: 0}, [])


# -- enumeration ----------------------------------------------------------


def _ordered_level_partitions(items: tuple):
    """All ways to split ``items`` into an ordered sequence of nonempty levels."""
    if not items:
        yield ()
        return
    for k in range(1, len(items) + 1):
        for head in itertools.combinations(items, k):
            head_set = set(head)
            tail = tuple(v for v in items if v not in head_set)
            for rest in _ordered_level_partitions(tail):
                yield (head,) + rest


def enumerate_shrubs_bruteforce(n: int) -> tuple:
    """All shrubs on labels ``1..n`` by exhausting height maps and edge sets.

    Height maps are exactly the ordered level partitions (axiom 2 forces
    contiguous levels); the edge sets compatible with axioms 1 and 2 are the
    per-vertex choices of a nonempty cover set one level down; the pattern
    axiom is then checked on each candidate.  The output is in
    :meth:`Shrub.sort_key` order.
    At most :data:`ENUMERATION_CAP` labels: the result is held whole.

    Every shrub shares one ``labels`` tuple, the shrubs of one level
    partition share one heights tuple, and none holds a label index until a
    label is first looked up (:meth:`Shrub._from_parts`): 170 B a shrub at
    n = 6.  All have the labels ``1..n``, so ``sort_key`` ties on its first
    part, and the sort reads ``(heights, covers)`` directly.
    """
    _check_count(n)
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"n={n} exceeds cap {ENUMERATION_CAP}")
    labels = tuple(range(1, n + 1))  # label v sits at index v - 1
    out = []
    for levels in _ordered_level_partitions(labels):
        heights = [0] * n
        for h, lv in enumerate(levels):
            for v in lv:
                heights[v - 1] = h
        height_tuple = tuple(heights)
        choosers = []
        for h in range(1, len(levels)):
            below = [v - 1 for v in levels[h - 1]]
            subsets = []
            for r in range(1, len(below) + 1):
                for combo in itertools.combinations(below, r):
                    m = 0
                    for i in combo:
                        m |= 1 << i
                    subsets.append(m)
            for v in levels[h]:
                choosers.append((v - 1, subsets))
        for choice in itertools.product(*(s for _, s in choosers)):
            covers = [0] * n
            for (i, _), m in zip(choosers, choice):
                covers[i] = m
            if _find_pattern(covers) is None:
                out.append(Shrub._from_parts(labels, height_tuple, tuple(covers)))
    out.sort(key=lambda P: (P._heights, P._covers))
    return tuple(out)


def count_isomorphism_classes(shrubs: Iterable[Shrub]) -> int:
    """Number of distinct shrubs up to height-preserving isomorphism."""
    return len({P.canonical_form()[0] for P in shrubs})
