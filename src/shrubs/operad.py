"""Operad structure on shrubs.

Partial composition substitutes a shrub into a vertex of another; the two
binary products it induces are disjoint union and grafting.  Every shrub
decomposes into the two degree-2 generators

* ``C`` -- disjoint union of two single vertices,
* ``D`` -- the two-vertex rooted tree (first argument below),

and :func:`decompose` / :func:`evaluate` realize that presentation as
generator words.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .core import Shrub, label_key, parse_json, trivial_shrub
from .errors import LabelClash, MalformedWord, UnknownLabel

SLOT_PREFIX = "□"  # reserved namespace for placeholder vertex names


def compose(P: Shrub, i, Q: Shrub) -> Shrub:
    """Substitute ``Q`` into vertex ``i`` of ``P``.

    The vertices of ``Q`` land at heights shifted by the height of ``i``;
    every former neighbor of ``i`` is joined to every height-0 vertex of
    ``Q``.  The labels of ``P`` minus ``i`` and of ``Q`` must be disjoint.
    """
    if i not in P:
        raise UnknownLabel(i, "composition slot")
    if len(Q) == 0:
        raise ValueError("cannot compose with an empty shrub")
    clash = (set(P.labels) - {i}) & set(Q.labels)
    if clash:
        raise LabelClash(sorted(clash, key=label_key))
    hi = P.height(i)
    vertices = [v for v in P.labels if v != i] + list(Q.labels)
    height = {v: P.height(v) for v in P.labels if v != i}
    for v in Q.labels:
        height[v] = Q.height(v) + hi
    edges = [e for e in P.edges if i not in e]
    edges.extend(Q.edges)
    neighbors = P.covers(i) | P.covered_by(i)
    for j in neighbors:
        for r in Q.roots():
            edges.append((j, r))
    return Shrub(vertices, height, edges)


def disjoint_union(P: Shrub, Q: Shrub) -> Shrub:
    """Place ``P`` and ``Q`` side by side (commutative, associative)."""
    clash = set(P.labels) & set(Q.labels)
    if clash:
        raise LabelClash(sorted(clash, key=label_key))
    height = P.height_map
    height.update(Q.height_map)
    return Shrub(P.labels + Q.labels, height, list(P.edges) + list(Q.edges))


def graft(P: Shrub, Q: Shrub) -> Shrub:
    """Raise ``Q`` one level and join its roots to every root of ``P``.

    Equals composing ``P`` and ``Q`` into the two-vertex rooted tree; the
    operation is not associative.
    """
    clash = set(P.labels) & set(Q.labels)
    if clash:
        raise LabelClash(sorted(clash, key=label_key))
    height = P.height_map
    for v in Q.labels:
        height[v] = Q.height(v) + 1
    edges = list(P.edges) + list(Q.edges)
    for a in P.roots():
        for b in Q.roots():
            edges.append((a, b))
    return Shrub(P.labels + Q.labels, height, edges)


def pair_generator(a, b) -> Shrub:
    """The generator ``C`` on labels ``{a, b}``: two isolated vertices."""
    return Shrub([a, b], {a: 0, b: 0}, [])


def graft_generator(root, top) -> Shrub:
    """The generator ``D`` on ``{root, top}``: an edge rooted at ``root``."""
    return Shrub([root, top], {root: 0, top: 1}, [(root, top)])


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

    def leaf_labels(self) -> tuple:
        if self.gen == "leaf":
            return (self.label,)
        return tuple(itertools.chain.from_iterable(a.leaf_labels() for a in self.args))

    def to_json_obj(self):
        if self.gen == "leaf":
            return self.label
        return {"gen": self.gen, "slot": self.slot, "args": [a.to_json_obj() for a in self.args]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj) -> "GenWord":
        if isinstance(obj, (int, str)) and not isinstance(obj, bool):
            return cls.leaf(obj)
        if not isinstance(obj, dict):
            raise MalformedWord(f"expected a label or an object, got {obj!r}")
        gen = obj.get("gen")
        if gen not in ("C", "D"):
            raise MalformedWord(f"unknown generator {gen!r}")
        args = obj.get("args")
        if not isinstance(args, list) or len(args) != 2:
            raise MalformedWord("a generator node needs exactly two args")
        return cls.node(gen, obj.get("slot"), cls.from_json_obj(args[0]), cls.from_json_obj(args[1]))

    @classmethod
    def from_json(cls, text: str) -> "GenWord":
        try:
            obj = parse_json(text)
        except ValueError as exc:
            raise MalformedWord(f"invalid JSON: {exc}") from None
        return cls.from_json_obj(obj)


def evaluate(word: GenWord) -> Shrub:
    """Evaluate a generator word to the shrub it builds."""
    if not isinstance(word, GenWord):
        raise MalformedWord(f"not a generator word: {word!r}")
    labels = word.leaf_labels()
    if len(set(labels)) != len(labels):
        raise MalformedWord("leaf labels repeat")

    def ev(w):
        if w.gen == "leaf":
            return trivial_shrub(w.label)
        if len(w.args) != 2:
            raise MalformedWord("a generator node needs exactly two args")
        left, right = (ev(a) for a in w.args)
        if w.gen == "C":
            return disjoint_union(left, right)
        if w.gen == "D":
            return graft(left, right)
        raise MalformedWord(f"unknown generator {w.gen!r}")

    return ev(word)


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


def _replace_leaf(word: GenWord, slot, replacement: GenWord) -> GenWord:
    if word.gen == "leaf":
        return replacement if word.label == slot else word
    return GenWord(
        gen=word.gen,
        slot=word.slot,
        args=tuple(_replace_leaf(a, slot, replacement) for a in word.args),
    )


def decompose(P: Shrub) -> GenWord:
    """Write ``P`` as a generator word; ``evaluate`` inverts it.

    Peels one step at a time: merge the smallest correlated pair into a
    fresh slot (a ``C`` node), else delete the smallest leaf and rename the
    vertex under it to a fresh slot (a ``D`` node).  Every nontrivial shrub
    has a leaf or a correlated pair, so this always terminates; the
    tie-break makes the output deterministic.
    """
    if len(P) == 0:
        raise ValueError("cannot decompose an empty shrub")
    slots = fresh_slots(P.labels)

    def rec(S: Shrub) -> GenWord:
        if len(S) == 1:
            return GenWord.leaf(S.labels[0])
        pairs = S.correlated_pairs()
        if pairs:
            a, b = pairs[0]
            slot = next(slots)
            rest = S.merge_correlated(a, b, slot)
            inner = GenWord.node("C", slot, GenWord.leaf(a), GenWord.leaf(b))
        else:
            leaf = min(S.leaves(), key=label_key)
            (under,) = S.covers(leaf)
            slot = next(slots)
            rest = S.delete_leaf(leaf).relabel({under: slot})
            inner = GenWord.node("D", slot, GenWord.leaf(under), GenWord.leaf(leaf))
        return _replace_leaf(rec(rest), slot, inner)

    return rec(P)

