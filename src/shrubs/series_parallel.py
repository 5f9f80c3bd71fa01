"""Independent counting oracles: series-parallel posets.

Series-parallel posets are built from singletons by disjoint union and
ordinal sum.  Shrubs on a fixed label set are equinumerous with them, and
so are their isomorphism classes, so the counts produced here cross-check
the shrub enumerator and ``Shrub.canonical_form`` without sharing any code
with them but the check of a label count.  Labeled posets are built by
:func:`series_parallel_posets`, each stored as the frozenset of its strict
relations ``(a, b)`` meaning ``a < b``; every count comes from exact
generating functions.
"""

from __future__ import annotations

import itertools
from math import comb

from .core import _check_count


def series_parallel_posets(labels) -> frozenset:
    """All labeled series-parallel posets on ``labels``, as relation sets;
    ``ValueError`` for a str, which would be read as its characters."""
    if isinstance(labels, str):
        raise ValueError(f"the labels must be an iterable of labels, not the str {labels!r}")
    labels = tuple(sorted(labels, key=lambda v: (isinstance(v, str), v)))
    memo = {}

    def build(subset: frozenset) -> frozenset:
        if len(subset) == 1:
            return frozenset([frozenset()])
        hit = memo.get(subset)
        if hit is not None:
            return hit
        out = set()
        items = sorted(subset, key=lambda v: (isinstance(v, str), v))
        for r in range(1, len(items)):
            for left in itertools.combinations(items, r):
                left = frozenset(left)
                right = subset - left
                cross = frozenset(itertools.product(left, right))
                for pa in build(left):
                    for pb in build(right):
                        both = pa | pb
                        out.add(both)            # parallel
                        out.add(both | cross)    # series, left below right
        result = frozenset(out)
        memo[subset] = result
        return result

    if not labels:
        return frozenset()
    result = build(frozenset(labels))
    memo.clear()  # ``build`` refers to itself, so the memo would outlive this call until a full collection
    return result


def count_series_parallel(n: int) -> int:
    """Number of labeled series-parallel posets on ``1..n``, not built:
    exact coefficients of the exponential generating functions
    ``S = exp(C) - 1`` and ``C = x + (x + S - C)*S`` of all of them and the
    connected ones, by binomial convolution, with ``S' = C'*(1 + S)`` for
    the exponential.  This gives 1, 3, 19, 195, 2791, 51303, ...
    """
    _check_count(n)
    s = [1] + [0] * n  # s[0] = 1 is the constant term of exp(C)
    c = [0] * (n + 1)
    for m in range(1, n + 1):
        c[m] = (m == 1) + sum(comb(m, k) * ((k == 1) + s[k] - c[k]) * s[m - k] for k in range(1, m))
        s[m] = sum(comb(m - 1, k - 1) * c[k] * s[m - k] for k in range(1, m + 1))
    return s[n]


def count_unlabeled_series_parallel(max_n: int) -> tuple:
    """Unlabeled series-parallel posets on 1..max_n points: two lists, all
    of them and the connected ones, indexed from one point.

    Exact integer coefficients of two ordinary generating functions.  A
    poset is a nonempty multiset of connected ones, ``S = MSET>=1(C)``
    (the Euler transform), and a connected one is a single point or the
    ordinal sum of a bottom that is a single point or disconnected with
    anything on top, ``C = x + (x + S - C)*S``.  This gives 1, 2, 5, 15,
    48, 167, 602, ... and 1, 1, 3, 9, 30, 103, 375, ... (OEIS A003430).
    """
    s = [1] + [0] * max_n  # s[0] = 1 stands for the empty multiset
    c = [0] * (max_n + 1)
    b = [0] * (max_n + 1)  # b[m]: sum of d * c[d] over the divisors d of m
    for m in range(1, max_n + 1):
        c[m] = (m == 1) + sum(((k == 1) + s[k] - c[k]) * s[m - k] for k in range(1, m))
        for k in range(m, max_n + 1, m):
            b[k] += m * c[m]
        s[m] = sum(b[k] * s[m - k] for k in range(1, m + 1)) // m
    return s[1:], c[1:]
