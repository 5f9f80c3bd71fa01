"""Rebuilding a shrub from its factored fraction.

The fraction of a shrub determines it completely.  Reconstruction splits
into connected pieces read off the denominator supports, finds the roots
(height 0) of each piece by counting the factors that involve each label,
and then recurses: a single root strips the full-sum factor; several roots
locate the unique numerator factor containing them all, whose complement is
the grafted upper part.  No compatible order is enumerated, so the work is
polynomial in the number of labels.  Every step validates its bookkeeping
and the result is checked against the closed formula
(:func:`fraction_of_shrub`), so a fraction outside the image always raises
``NotInImage``.
"""

from __future__ import annotations

import functools

from .core import Shrub, label_key
from .errors import CapExceeded, NotInImage
from .mould import FactoredFraction, LinearForm, fraction_of_shrub
from .mould import kappa  # noqa: F401  (unused here; perfbench's tracer rewraps it)
from .operad import disjoint_union, graft, trivial_shrub


def fraction_components(f: FactoredFraction) -> tuple:
    """Partition of the labels: two labels meet when some denominator
    factor involves both, transitively closed.  For the fraction of a
    shrub this is exactly the partition into connected components."""
    labels = sorted(f.labels, key=label_key)
    parent = {v: v for v in labels}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for form in f.den:
        support = sorted(form.support(), key=label_key)
        for other in support[1:]:
            ra, rb = find(support[0]), find(other)
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for v in labels:
        groups.setdefault(find(v), []).append(v)
    parts = [frozenset(g) for g in groups.values()]
    parts.sort(key=lambda p: min(label_key(v) for v in p))
    return tuple(parts)


def _roots(f: FactoredFraction, labels) -> list:
    """Height-0 vertices of a connected piece, read off factor counts.

    In ``f * (sum of the labels)`` every embedded compatible order has
    degree 0 in ``u_a`` when it starts with ``a`` and negative degree
    otherwise, so ``a`` is a root exactly when as many numerator factors
    as denominator factors involve ``u_a``.  More numerator factors cannot
    come from any shrub.
    """
    F = f * FactoredFraction(num=[LinearForm.sum_of(labels)])
    roots = []
    for a in sorted(labels, key=label_key):
        dn = sum(1 for g in F.num if a in g.support())
        dd = sum(1 for g in F.den if a in g.support())
        if dn > dd:
            raise NotInImage(f"degree in u{a} grows: not an order combination")
        if dn == dd:
            roots.append(a)
    if not roots:
        raise NotInImage("no label can start a compatible order")
    return roots


def recover_heights(f: FactoredFraction, labels=None, cap: int = 6) -> dict:
    """Height map of the underlying shrub.

    Read off the certified reconstruction, whose roots come from factor
    counts at every level (see :func:`_roots`); no order is enumerated.
    ``labels`` must be the labels of ``f``.
    """
    labels = frozenset(f.labels if labels is None else labels)
    if len(labels) > cap:
        raise CapExceeded(f"{len(labels)} labels exceed the extraction cap {cap}")
    if labels != f.labels:
        raise NotInImage("the labels differ from those of the fraction")
    return reconstruct(f, cap).height_map


def _split_factors_by_support(forms, left, right):
    out_left, out_right = [], []
    for form in forms:
        support = form.support()
        if support <= left:
            out_left.append(form)
        elif support <= right:
            out_right.append(form)
        else:
            raise NotInImage(f"factor {form.text()} straddles the graft split")
    return out_left, out_right


def _reconstruct_connected(f: FactoredFraction, labels, cap) -> Shrub:
    if len(labels) == 1:
        (a,) = labels
        if f.num or f.den != (LinearForm(((a, 1),)),):
            raise NotInImage("a single-vertex fraction must be 1/u")
        return trivial_shrub(a)
    if len(labels) > cap:
        raise CapExceeded(f"{len(labels)} labels exceed the extraction cap {cap}")
    roots = _roots(f, labels)
    full = LinearForm.sum_of(labels)
    if full not in f.den:
        raise NotInImage("a connected fraction needs the full-sum denominator factor")
    den = list(f.den)
    den.remove(full)
    if len(roots) == 1:
        (i,) = roots
        rest = FactoredFraction(f.sign, f.scalar, f.num, den)
        if i in rest.labels:
            raise NotInImage(f"u{i} survives after stripping the root factor")
        return graft(trivial_shrub(i), _reconstruct(rest, labels - {i}, cap))
    root_set = frozenset(roots)
    candidates = [g for g in f.num if root_set <= g.support()]
    if len(candidates) != 1:
        raise NotInImage(
            f"{len(candidates)} numerator factors contain every height-0 vertex (need exactly 1)"
        )
    alpha = candidates[0]
    q_labels = alpha.support()
    r_labels = labels - q_labels
    if not r_labels:
        raise NotInImage("the graft numerator factor must miss some label")
    num = list(f.num)
    num.remove(alpha)
    num_q, num_r = _split_factors_by_support(num, q_labels, r_labels)
    den_q, den_r = _split_factors_by_support(den, q_labels, r_labels)
    fq = FactoredFraction(f.sign, f.scalar, num_q, den_q)
    fr = FactoredFraction(1, 1, num_r, den_r)
    return graft(_reconstruct(fq, q_labels, cap), _reconstruct(fr, r_labels, cap))


def _reconstruct(f: FactoredFraction, labels, cap) -> Shrub:
    if not labels:
        raise NotInImage("no labels to reconstruct from")
    parts = fraction_components(f)
    covered = set().union(*parts) if parts else set()
    if covered != labels:
        raise NotInImage("some label appears in no denominator factor")
    if len(parts) == 1:
        return _reconstruct_connected(f, labels, cap)
    num_by_part = {p: [] for p in parts}
    den_by_part = {p: [] for p in parts}
    for source, sink in ((f.num, num_by_part), (f.den, den_by_part)):
        for form in source:
            support = form.support()
            home = next((p for p in parts if support <= p), None)
            if home is None:
                raise NotInImage(f"factor {form.text()} straddles components")
            sink[home].append(form)
    pieces = []
    for k, p in enumerate(parts):
        piece_fraction = FactoredFraction(
            f.sign if k == 0 else 1,
            f.scalar if k == 0 else 1,
            num_by_part[p],
            den_by_part[p],
        )
        pieces.append(_reconstruct(piece_fraction, p, cap))
    return functools.reduce(disjoint_union, pieces)


# Bounded, so that a long stream of distinct fractions cannot grow memory
# without limit.  1024 still holds one whole orbit at the default orbit cap 5
# (at most 6! = 720 distinct fractions), so orbit sweeps keep hitting.
@functools.lru_cache(maxsize=1024)
def _reconstruct_checked(f: FactoredFraction, cap: int) -> Shrub:
    if f.sign != 1 or f.scalar != 1:
        raise NotInImage("a shrub fraction has sign +1 and scalar 1")
    shrub = _reconstruct(f, frozenset(f.labels), cap)
    if fraction_of_shrub(shrub) != f:
        raise NotInImage("the rebuilt shrub does not reproduce the fraction")
    return shrub


def reconstruct(f: FactoredFraction, cap: int = 6) -> Shrub:
    """The unique shrub whose fraction is ``f``; ``NotInImage`` otherwise.

    The final result is always verified against the closed-formula
    forward map, :func:`fraction_of_shrub`.
    """
    return _reconstruct_checked(f, cap)
