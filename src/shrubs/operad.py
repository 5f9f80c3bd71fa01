"""Operad structure on shrubs.

Partial composition substitutes a shrub into a vertex of another; the two
binary products it induces are disjoint union and grafting.  Every shrub
decomposes into the two degree-2 generators

* ``C`` -- disjoint union of two single vertices,
* ``D`` -- the two-vertex rooted tree (first argument below),

and :func:`decompose` / :func:`evaluate` realize that presentation as
generator words.

The products and :func:`evaluate` build their results from cover masks,
never from edge lists: the vertices are laid out in ``label_key`` order,
only the joining edges are added as masks, and the result passes the
certificate the :class:`Shrub` constructor ends with (no induced F4 or F5,
every vertex above height 0 covers something), so it is certified like
any constructed shrub.
"""

from __future__ import annotations

import bisect
import heapq
import json
from dataclasses import dataclass

from .core import (
    Shrub,
    _bits,
    _check_clash,
    _is_label,
    _joined,
    _laid_out,
    _upward,
    label_key,
    parse_json,
    trivial_shrub,
)
from .errors import MalformedWord, UnknownLabel

SLOT_PREFIX = "□"  # reserved namespace for placeholder vertex names


def compose(P: Shrub, i, Q: Shrub) -> Shrub:
    """Substitute ``Q`` into vertex ``i`` of ``P``.

    The vertices of ``Q`` land at heights shifted by the height of ``i``;
    every former neighbor of ``i`` is joined to every height-0 vertex of
    ``Q``.  The labels of ``P`` minus ``i`` and of ``Q`` must be disjoint.
    """
    index = P._label_index()
    k = index.get(i) if _is_label(i) else None
    if k is None:
        raise UnknownLabel(i, "composition slot")
    _check_clash(index, Q.labels, i)
    if len(Q) == 0:
        raise ValueError("cannot compose with an empty shrub")
    return _joined(P, Q, P._heights[k], P._covers[k], k)


def disjoint_union(P: Shrub, Q: Shrub) -> Shrub:
    """Place ``P`` and ``Q`` side by side (commutative, associative)."""
    _check_clash(P.labels, Q.labels)
    return _joined(P, Q)


def graft(P: Shrub, Q: Shrub) -> Shrub:
    """Raise ``Q`` one level and join its roots to every root of ``P``.

    Equals composing ``P`` and ``Q`` into the two-vertex rooted tree; the
    operation is not associative.
    """
    _check_clash(P.labels, Q.labels)
    return _joined(P, Q, 1, sum(1 << j for j, h in enumerate(P._heights) if not h))


def pair_generator(a, b) -> Shrub:
    """The generator ``C`` on labels ``{a, b}``: two isolated vertices."""
    return disjoint_union(trivial_shrub(a), trivial_shrub(b))


def graft_generator(root, top) -> Shrub:
    """The generator ``D`` on ``{root, top}``: an edge rooted at ``root``."""
    return graft(trivial_shrub(root), trivial_shrub(top))


# -- generator words ------------------------------------------------------


@dataclass(frozen=True)
class GenWord:
    """Expression tree over the generators ``C`` and ``D``.

    A leaf carries a vertex label; an internal node combines two subtrees,
    commutatively for ``C`` and root-first for ``D``.  ``slot`` records the
    placeholder vertex the node replaced during decomposition; each slot
    name is consumed exactly once.
    """

    gen: str  # "leaf", "C" or "D"
    label: object = None
    slot: object = None
    args: tuple = ()

    @classmethod
    def leaf(cls, label) -> "GenWord":
        return cls(gen="leaf", label=label)

    @classmethod
    def node(cls, gen, slot, left, right) -> "GenWord":
        return cls(gen=gen, slot=slot, args=(left, right))

    @classmethod
    def _trusted(cls, gen, label, slot, args) -> "GenWord":
        """A word with these fields, unchecked (trusted, like
        ``Shrub._from_parts``)."""
        self = object.__new__(cls)
        fields = self.__dict__  # written as unpickling does, past the frozen __setattr__
        fields["gen"] = gen
        fields["label"] = label
        fields["slot"] = slot
        fields["args"] = args
        return self

    def leaf_labels(self) -> tuple:
        out = []
        stack = [self]
        while stack:
            w = stack.pop()
            if w.gen == "leaf":
                out.append(w.label)
            else:
                stack.extend(reversed(w.args))
        return tuple(out)

    def _fields(self):
        """The fields of every node in pre-order, walked with an explicit
        stack: ``(class, gen, label, slot, arity)`` for a node whose
        arguments are a tuple, which come next; ``args`` whole in a sixth
        place when they are not a tuple; ``(value,)`` for an argument that
        is not a word.  The arities make the sequence prefix-free: two
        words are equal exactly when their sequences are."""
        stack = [self]
        while stack:
            w = stack.pop()
            if not isinstance(w, GenWord):
                yield (w,)
            elif type(w.args) is tuple:
                yield (w.__class__, w.gen, w.label, w.slot, len(w.args))
                stack.extend(reversed(w.args))
            else:
                yield (w.__class__, w.gen, w.label, w.slot, None, w.args)

    def __eq__(self, other):
        """Field by field, node by node, so deep words compare without
        recursion."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a == b for a, b in zip(self._fields(), other._fields()))

    def __hash__(self):
        return hash(tuple(self._fields()))

    def __repr__(self):
        """The dataclass repr, written with an explicit stack so that deep
        words need no recursion."""
        parts = []
        stack = [self]
        while stack:
            w = stack.pop()
            if type(w) is str:  # text; every argument is pushed as a word or its repr
                parts.append(w)
                continue
            head = f"{w.__class__.__qualname__}(gen={w.gen!r}, label={w.label!r}, slot={w.slot!r}, args="
            if type(w.args) is not tuple:
                parts.append(f"{head}{w.args!r})")
                continue
            parts.append(head + "(")
            stack.append(",))" if len(w.args) == 1 else "))")
            for k in reversed(range(len(w.args))):
                a = w.args[k]
                stack.append(a if isinstance(a, GenWord) else repr(a))
                if k:
                    stack.append(", ")
        return "".join(parts)

    def to_json_obj(self):
        """The word as JSON values: a leaf is its label, a node the object
        ``{"gen", "slot", "args"}``.  Built with an explicit stack."""
        if self.gen == "leaf":
            return self.label
        top = {}
        stack = [(self, top)]
        while stack:
            w, obj = stack.pop()
            args = []
            obj.update(gen=w.gen, slot=w.slot, args=args)
            for a in _word_args(w):
                if a.gen == "leaf":
                    args.append(a.label)
                else:
                    args.append({})
                    stack.append((a, args[-1]))
        return top

    def to_json(self) -> str:
        """``json.dumps(self.to_json_obj())``, written piece by piece with an
        explicit stack, so deep words need no recursion; each label and slot
        goes through ``json.dumps`` on its own."""
        parts = []
        stack = [self]
        while stack:
            w = stack.pop()
            if type(w) is str:  # text; every argument is pushed as a word
                parts.append(w)
            elif w.gen == "leaf":
                parts.append(json.dumps(w.label))
            else:
                parts.append(f'{{"gen": {json.dumps(w.gen)}, "slot": {json.dumps(w.slot)}, "args": [')
                stack.append("]}")
                args = _word_args(w)
                for k in reversed(range(len(args))):
                    stack.append(args[k])
                    if k:
                        stack.append(", ")
        return "".join(parts)

    @classmethod
    def from_json_obj(cls, obj) -> "GenWord":
        """The word of JSON values as :meth:`to_json_obj` writes them.

        Checked in pre-order with an explicit stack, so the first fault met
        depth-first, left argument first, is the one raised; the word is then
        built bottom-up.  An object that contains itself raises
        :class:`MalformedWord` too."""
        order = []  # checked labels and objects, in pre-order
        open_ids = set()  # objects whose arguments are being checked
        stack = [(obj, False)]
        while stack:
            o, closing = stack.pop()
            if closing:
                open_ids.discard(o)
                continue
            if isinstance(o, (int, str)) and not isinstance(o, bool):
                order.append(o)
                continue
            if not isinstance(o, dict):
                raise MalformedWord(f"expected a label or an object, got {o!r}")
            gen = o.get("gen")
            if gen not in ("C", "D"):
                raise MalformedWord(f"unknown generator {gen!r}")
            args = o.get("args")
            if not isinstance(args, list) or len(args) != 2:
                raise MalformedWord("a generator node needs exactly two args")
            if id(o) in open_ids:
                raise MalformedWord("a generator node contains itself")
            open_ids.add(id(o))
            order.append(o)
            stack += ((id(o), True), (args[1], False), (args[0], False))
        built = []
        for o in reversed(order):
            if isinstance(o, dict):
                left = built.pop()
                built.append(cls.node(o["gen"], o.get("slot"), left, built.pop()))
            else:
                built.append(cls.leaf(o))
        return built[0]

    @classmethod
    def from_json(cls, text: str) -> "GenWord":
        try:
            obj = parse_json(text)
        except ValueError as exc:
            raise MalformedWord(f"invalid JSON: {exc}") from None
        return cls.from_json_obj(obj)


def _word_args(w: GenWord) -> tuple:
    args = tuple(w.args)
    for a in args:
        if not isinstance(a, GenWord):
            raise MalformedWord(f"not a generator word: {a!r}")
    return args


def evaluate(word: GenWord) -> Shrub:
    """Evaluate a generator word to the shrub it builds.

    One walk with an explicit stack collects each leaf's height (the number
    of ``D`` nodes whose right argument holds it) and the root mask of every
    argument; a ``D`` node makes each root of its right argument cover every
    root of its left one.  The masks are then laid out in ``label_key``
    order and certified once, as the :class:`Shrub` constructor ends.
    Anything that is not a word over ``C`` and ``D`` with distinct int or
    str leaf labels raises :class:`MalformedWord`.
    """
    if not isinstance(word, GenWord):
        raise MalformedWord(f"not a generator word: {word!r}")
    labels = []
    stack = [word]
    while stack:
        w = stack.pop()
        if w.gen == "leaf":
            labels.append(w.label)
            continue
        try:
            args = list(w.args)
        except TypeError:
            raise MalformedWord(f"generator node arguments are not a sequence: {w.args!r}") from None
        for a in reversed(args):
            if not isinstance(a, GenWord):
                raise MalformedWord(f"not a generator word: {a!r}")
            stack.append(a)
    try:
        distinct = len(set(labels)) == len(labels)
    except TypeError:
        raise MalformedWord("leaf labels must be int or str") from None
    if not distinct:
        raise MalformedWord("leaf labels repeat")

    # leaf k of this walk is labels[k]: both walks go depth-first, left first
    heights = []
    covers = []
    roots = []  # the mask of the height-0 leaves of each evaluated argument, innermost last
    stack = [(word, 0, False)]
    while stack:
        w, h, done = stack.pop()
        if w.gen == "leaf":
            if not _is_label(w.label):
                raise MalformedWord(f"leaf labels must be int or str, got {w.label!r}")
            roots.append(1 << len(heights))
            heights.append(h)
            covers.append(0)
        elif done:
            right = roots.pop()
            if w.gen == "C":
                roots[-1] |= right
            elif w.gen == "D":
                for b in _bits(right):
                    covers[b] |= roots[-1]
            else:
                raise MalformedWord(f"unknown generator {w.gen!r}")
        elif len(w.args) != 2:
            raise MalformedWord("a generator node needs exactly two args")
        else:
            left, right = w.args
            stack.append((w, h, True))
            stack.append((right, h + 1 if w.gen == "D" else h, False))
            stack.append((left, h, False))
    return _laid_out(labels, heights, covers, range(len(labels)))


def fresh_slots(avoid, count=None):
    """Names from the reserved slot namespace not clashing with ``avoid``."""
    avoid = set(avoid)
    k = 0
    produced = 0
    while count is None or produced < count:
        name = f"{SLOT_PREFIX}{k}"
        k += 1
        if name in avoid:
            continue
        produced += 1
        yield name


def decompose(P: Shrub) -> GenWord:
    """Write ``P`` as a generator word; ``evaluate`` inverts it.

    Peels one step at a time: merge the smallest correlated pair into a
    fresh slot (a ``C`` node), else delete the smallest leaf and rename the
    vertex under it to a fresh slot (a ``D`` node).  Every nontrivial shrub
    has a leaf or a correlated pair, so this always terminates; the
    tie-break makes the output deterministic.

    The peel runs on the cover masks of ``P`` and builds no intermediate
    shrub: a slot takes over the index of the vertex it replaces.  The
    correlation classes, grouped on ``(covers, covered)``, change only
    where a step removes a vertex, so they are kept up to date along with
    two heaps, one of the two smallest members of each class and one of
    the leaves.  The word is assembled at the end, each slot's node after
    the nodes of its arguments, without recursion.
    """
    n = len(P)
    if n == 0:
        raise ValueError("cannot decompose an empty shrub")
    labels = list(P.labels)
    keys = [label_key(v) for v in labels]  # None once the vertex is peeled off
    covers = list(P._covers)
    covered = _upward(P._covers)
    # (covers, covered) -> [(key, index)], sorted: the correlation classes;
    # the labels of P are sorted by label_key, so each list starts sorted
    groups = {}
    for i in range(n):
        groups.setdefault((covers[i], covered[i]), []).append((keys[i], i))

    def is_leaf(i):
        return not covered[i] and covers[i].bit_count() == 1

    pairs = [(g[0][0], g[1][0], g[0][1], g[1][1]) for g in groups.values() if len(g) > 1]
    leaves = [(keys[i], i) for i in range(n) if is_leaf(i)]
    heapq.heapify(pairs)
    heapq.heapify(leaves)

    def leave(i):
        sig = covers[i], covered[i]
        g = groups[sig]
        del g[bisect.bisect_left(g, (keys[i], i))]
        if not g:
            del groups[sig]

    def join(i):
        g = groups.setdefault((covers[i], covered[i]), [])
        bisect.insort(g, (keys[i], i))
        if len(g) > 1:
            heapq.heappush(pairs, (g[0][0], g[1][0], g[0][1], g[1][1]))
        if is_leaf(i):
            heapq.heappush(leaves, (keys[i], i))

    slots = fresh_slots(P.labels)
    steps = []
    kept = 0
    for _ in range(n - 1):
        # An entry is stale once one of its keys has changed.  Nothing else
        # can make it stale: a step changes the masks of all members of a
        # class alike, so classes never split, and a leaf stays a leaf
        # until it is peeled off or renamed.
        while pairs:
            ka, kb, a, b = heapq.heappop(pairs)
            if keys[a] == ka and keys[b] == kb:
                gen, kept, gone = "C", a, b
                break
        else:
            while True:
                k, gone = heapq.heappop(leaves)
                if keys[gone] == k:
                    break
            gen, kept = "D", covers[gone].bit_length() - 1
        slot = next(slots)
        steps.append((gen, slot, labels[kept], labels[gone]))
        leave(gone)
        bit = 1 << gone
        for t in _bits(covers[gone] | covered[gone]):
            leave(t)
            covers[t] &= ~bit
            covered[t] &= ~bit
            join(t)
        keys[gone] = None
        leave(kept)
        labels[kept] = slot
        keys[kept] = label_key(slot)
        join(kept)

    word = GenWord._trusted
    words = {}
    for gen, slot, x, y in steps:
        left = words.pop(x) if x in words else word("leaf", x, None, ())
        right = words.pop(y) if y in words else word("leaf", y, None, ())
        words[slot] = word(gen, None, slot, (left, right))
    last = labels[kept]
    return words.pop(last) if last in words else word("leaf", last, None, ())
