"""Rebuilding a shrub from its factored fraction.

The fraction of a shrub determines it completely.  Reconstruction works on
label masks (see :func:`shrub_masks`): the fraction is converted once, and
every step after that is integer arithmetic.

The closed formula has one upper-ideal denominator factor per vertex and
one factor on each side per ramification class, so a shrub is read straight
off the factors that contain each label, in one pass for heights and one
for covers:

* the height of ``i`` is the number of denominator factors containing ``i``,
  minus the number of numerator factors containing ``i``, minus 1;
* a vertex ``v`` at height ``h > 0`` covers the intersection of ``m & L``
  over the denominator factors ``m`` that contain ``v`` and meet ``L``, the
  labels at height ``h - 1``.

That reading is taken whenever the total degree is minus the number of
labels, and its result counts only once it is a shrub (no forbidden
pattern) whose masks reproduce the fraction.  A fraction that reading
refuses goes to a walk that names the fault without building anything (see
:func:`_name_fault`): it splits the labels into connected pieces, reads the
roots of each piece off the same counts (:func:`_heights`), and strips or
splits, on an explicit stack.  No compatible order is enumerated and
nothing recurses, so the work is polynomial in the number of labels and
needs no size cap.  A fraction outside the image always raises
``NotInImage``.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .core import Shrub, _bits, _find_pattern, label_key
from .errors import CapExceeded, NotInImage
from .mould import FactoredFraction, _form_text, shrub_masks


class _Weighted(int):
    """The label mask of a factor with a coefficient other than 1.

    It takes part in every step that reads supports, as its mask, but
    equals only a factor with the same linear form, never a 0/1 mask: the
    exact-form checks (``1/u``, the full sum, the final certificate) reject
    it.
    """

    def __new__(cls, mask, form):
        self = super().__new__(cls, mask)
        self.form = form
        return self

    def __eq__(self, other):
        return isinstance(other, _Weighted) and self.form == other.form

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self.form)


def fraction_components(f: FactoredFraction) -> tuple:
    """Partition of the labels: two labels meet when some denominator
    factor involves both, transitively closed.  For the fraction of a
    shrub this is exactly the partition into connected components."""
    labels, num, den = _record(f)
    return tuple(
        frozenset(labels[i] for i in _bits(part)) for part in _components(den, _support(num, den))
    )


def recover_heights(f: FactoredFraction) -> dict:
    """Height map of the shrub of ``f``, ``reconstruct(f).height_map``.

    The height of a label is the number of denominator factors containing
    it, minus the number of numerator factors containing it, minus 1
    (:func:`_heights`), read off the certified reconstruction; no order is
    enumerated.
    """
    return reconstruct(f).height_map


def _record(f: FactoredFraction) -> tuple:
    """``(labels, num masks, den masks)`` of ``f``, masks sorted numerically:
    the record a fraction built from masks keeps, else read off its forms."""
    if f._masks is not None:
        return f._masks
    labels = tuple(sorted({v for g in f.num + f.den for v, _ in g.terms}, key=label_key))
    index = {v: i for i, v in enumerate(labels)}

    def mask(form):
        m = 0
        unit = True
        for v, c in form.terms:
            m |= 1 << index[v]
            unit = unit and c == 1
        return m if unit else _Weighted(m, form)

    return labels, tuple(sorted(map(mask, f.num))), tuple(sorted(map(mask, f.den)))


def _support(*factor_lists) -> int:
    out = 0
    for masks in factor_lists:
        for m in masks:
            out |= m
    return out


def _components(den, labels) -> list:
    """The labels split by the denominator masks (merged while they
    overlap), ordered by least label."""
    parts = []
    for m in den:
        merged = int(m)
        apart = []
        for p in parts:
            if p & merged:
                merged |= p
            else:
                apart.append(p)
        apart.append(merged)
        parts = apart
    for i in _bits(labels & ~_support(den)):
        parts.append(1 << i)
    parts.sort(key=lambda p: p & -p)
    return parts


def _first_text(labels, masks) -> str:
    """Text of the first of ``masks`` in ``LinearForm.sort_key`` order."""
    index = {v: i for i, v in enumerate(labels)}

    def key(m):
        if isinstance(m, _Weighted):
            return tuple((index[v], c) for v, c in m.form.terms)
        return tuple((i, 1) for i in _bits(m))

    m = min(masks, key=key)
    if isinstance(m, _Weighted):
        return _form_text(m.form)
    return "+".join(f"u{labels[i]}" for i in _bits(m))


def _heights(num, den, n) -> list:
    """Per label, the denominator factors containing it, less the numerator
    factors containing it, less 1: its height when the masks are a shrub's."""
    heights = [-1] * n
    for m in den:
        while m:
            low = m & -m
            heights[low.bit_length() - 1] += 1
            m ^= low
    for m in num:
        while m:
            low = m & -m
            heights[low.bit_length() - 1] -= 1
            m ^= low
    return heights


def _split(masks, parts, labels, where) -> list:
    """``masks``, each inside the union of the disjoint ``parts``, split by
    the part each lies in; one that meets two parts straddles ``where``."""
    out, straddling = [[] for _ in parts], []
    for m in masks:
        for k, p in enumerate(parts):
            if m & p:
                (straddling if m & ~p else out[k]).append(m)
                break
    if straddling:
        raise NotInImage(f"factor {_first_text(labels, straddling)} straddles {where}")
    return out


def _name_fault(record: tuple) -> None:
    """Raise the first fault of a record, or return ``None`` if it has none.

    The labels are split into connected pieces read off the denominator
    masks.  A piece's roots are its labels whose count (:func:`_heights`,
    taken once per record) equals the piece's ``base``, and a count below
    ``base`` is a fault.  ``base`` is the number of full sums taken off
    above the piece, less the graft numerator factors taken off above it
    as a lower part: the factors gone from its lists that hold its labels.
    A single root strips the full-sum factor; several roots locate the
    unique numerator factor containing them all, whose complement is the
    upper part of a graft.  Pieces are visited with an explicit stack,
    lower before upper and components by least label, and nothing is
    built.
    """
    labels, num, den = record
    n = len(labels)
    # at[h]: the labels counted h < n, at[-1] those counted below 0, and
    # under[b] those counted below b; a piece at base b has n - b labels or fewer
    at = [0] * (n + 1)
    for i, h in enumerate(_heights(num, den, n)):
        if h < n:
            at[h if h >= 0 else -1] |= 1 << i
    under = list(itertools.accumulate(at[:-1], operator.or_, initial=at[-1]))
    stack = [(list(num), list(den), (1 << n) - 1, 0)]
    while stack:
        num, den, part, base = stack.pop()
        if not part:
            raise NotInImage("no labels to reconstruct from")
        if _support(num, den) != part:
            raise NotInImage("some label appears in no denominator factor")
        # a piece with its full-sum factor is connected
        parts = _components(den, part) if part & (part - 1) and part not in den else [part]
        if len(parts) > 1:
            nums = _split(num, parts, labels, "components")
            dens = _split(den, parts, labels, "components")
            stack.extend((nums[k], dens[k], parts[k], base) for k in reversed(range(len(parts))))
            continue
        if not part & (part - 1):
            if num or den != [part]:
                raise NotInImage("a single-vertex fraction must be 1/u")
            continue
        grows = part & under[base]
        if grows:
            label = labels[(grows & -grows).bit_length() - 1]
            raise NotInImage(f"degree in u{label} grows: not an order combination")
        roots = part & at[base]
        if not roots:
            raise NotInImage("no label can start a compatible order")
        if part not in den:
            raise NotInImage("a connected fraction needs the full-sum denominator factor")
        den = list(den)
        den.remove(part)
        if not roots & (roots - 1):
            if _support(num, den) & roots:
                root = labels[roots.bit_length() - 1]
                raise NotInImage(f"u{root} survives after stripping the root factor")
            stack.append((num, den, part ^ roots, base + 1))
            continue
        candidates = [k for k, m in enumerate(num) if not roots & ~m]
        if len(candidates) != 1:
            raise NotInImage(
                f"{len(candidates)} numerator factors contain every height-0 vertex (need exactly 1)"
            )
        (k,) = candidates
        low = int(num[k])
        high = part & ~low
        if not high:
            raise NotInImage("the graft numerator factor must miss some label")
        num_low, num_high = _split(num[:k] + num[k + 1 :], (low, high), labels, "the graft split")
        den_low, den_high = _split(den, (low, high), labels, "the graft split")
        stack.append((num_high, den_high, high, base + 1))
        stack.append((num_low, den_low, low, base))


def _read_parts(num, den, n) -> tuple | None:
    """``(heights, covers)`` read straight off the factor masks of a
    fraction on ``n`` labels, or ``None`` when a height is negative or not
    below ``n``, or a positive-height vertex gets no cover.  On the masks of
    a shrub this is the shrub's own heights and cover masks; on others it
    need not be a shrub."""
    heights = _heights(num, den, n)
    levels = [0] * n
    for i, h in enumerate(heights):
        if not 0 <= h < n:
            return None
        levels[h] |= 1 << i
    # -1 has every bit set: the cover of a vertex no factor has narrowed yet
    covers = [-1 if h else 0 for h in heights]
    for m in den:
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            h = heights[i]
            if h:
                below = m & levels[h - 1]
                if below:
                    covers[i] &= below
    if -1 in covers:
        return None
    return tuple(heights), tuple(covers)


# Bounded, so that a long stream of distinct fractions cannot grow memory
# without limit.  orbit rebuilds through it only on a miss in its own shape
# table (anticyclic._shape), which keeps the shrubs it needs.
@functools.lru_cache(maxsize=1024)
def _reconstruct_checked(record: tuple) -> Shrub:
    """The shrub of a ``(labels, num masks, den masks)`` record (sign +1,
    scalar 1), certified by comparing its own masks with the record's.

    A record of degree ``-n`` on ``n > 0`` labels is read directly
    (:func:`_read_parts`).  When that reading is not a shrub with these
    masks, :func:`_name_fault` looks for the fault.  A record the walk
    passes describes a union/graft closure of single vertices, which is a
    shrub; it has the record's masks exactly when the reading certifies, so
    a refused record without a fault still raises ``NotInImage``."""
    labels, num, den = record
    n = len(labels)
    shrub = None
    if n and len(den) - len(num) == n:
        parts = _read_parts(num, den, n)
        if parts is not None and _find_pattern(parts[1]) is None:
            shrub = Shrub._from_parts(labels, *parts)
            if shrub_masks(shrub) != (num, den):
                shrub = None
    if shrub is None:
        _name_fault(record)
        raise NotInImage("the rebuilt shrub does not reproduce the fraction")
    return shrub


def reconstruct(f: FactoredFraction, cap: int | None = None) -> Shrub:
    """The unique shrub whose fraction is ``f``; ``NotInImage`` otherwise.

    The final result is always verified against the closed-formula
    forward map, :func:`shrub_masks`.  Reading is polynomial at any size;
    a ``cap``, when given, refuses a fraction on more than ``cap`` labels
    with ``CapExceeded`` before it is read.  A ``cap`` other than an int or
    ``None``, ``True`` included, raises ``ValueError``.
    """
    if cap is not None and type(cap) is not int:
        raise ValueError(f"the reconstruction cap must be an int or None, got {cap!r}")
    if f.sign != 1 or f.scalar != 1:
        raise NotInImage("a shrub fraction has sign +1 and scalar 1")
    record = _record(f)
    n = len(record[0])
    if cap is not None and n > cap:
        raise CapExceeded(f"{n} labels exceed the reconstruction cap {cap}")
    return _reconstruct_checked(record)
