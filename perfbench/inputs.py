"""Seeded input generator of the benchmark.

Shrubs are built only through the public constructors ``Shrub``,
``graft`` and ``disjoint_union``: every shrub is either the disjoint
union of smaller shrubs or a graft of one shrub onto another, so a
random binary split of the labels with a random product at each node
reaches every shrub.  The distribution is not uniform over labeled
shrubs; it is fixed by the seed alone.
"""

from __future__ import annotations

import random

from shrubs import Shrub, disjoint_union, graft


def single(label) -> Shrub:
    return Shrub([label], {label: 0}, [])


def random_shrub(labels, rng: random.Random) -> Shrub:
    """A shrub on ``labels``: split them at random and combine the halves by
    a disjoint union or a graft in either direction (one third each)."""
    labels = list(labels)
    if len(labels) == 1:
        return single(labels[0])
    rng.shuffle(labels)
    k = rng.randint(1, len(labels) - 1)
    left = random_shrub(labels[:k], rng)
    right = random_shrub(labels[k:], rng)
    op = rng.randrange(3)
    if op == 0:
        return disjoint_union(left, right)
    if op == 1:
        return graft(left, right)
    return graft(right, left)


def random_forest(labels, rng: random.Random) -> Shrub:
    """A forest of rooted trees on ``labels``: a tree grafts a forest onto a
    single root, so no vertex ever covers two vertices."""
    labels = list(labels)
    rng.shuffle(labels)
    if len(labels) == 1:
        return single(labels[0])
    k = rng.randint(1, len(labels))
    if k == len(labels):
        return graft(single(labels[0]), random_forest(labels[1:], rng))
    return disjoint_union(random_forest(labels[:k], rng), random_forest(labels[k:], rng))


def count_compatible_orders(P: Shrub) -> int:
    """Orders in which every vertex is a root or follows a vertex it covers,
    counted by dynamic programming over the sets placed so far."""
    labels = list(P.labels)
    bit = {v: 1 << k for k, v in enumerate(labels)}
    need = [0 if P.height(v) == 0 else sum(bit[w] for w in P.covers(v)) for v in labels]
    ways = [0] * (1 << len(labels))
    ways[0] = 1
    for placed in range(len(ways)):
        if not ways[placed]:
            continue
        for k, v in enumerate(labels):
            if not placed & bit[v] and (need[k] == 0 or placed & need[k]):
                ways[placed | bit[v]] += ways[placed]
    return ways[-1]


def order_bin(P: Shrub) -> int:
    """floor(log4) of the compatible-order count of the largest component.

    Reconstruction enumerates the compatible orders of each connected
    piece, so this sets its cost: on random shrubs with n = 5..7 the log of
    the time tracks the log of this count with correlation above 0.9.
    """
    most = max(count_compatible_orders(C) for C in P.connected_components())
    return (most.bit_length() - 1) // 2


# Labels of fresh shrubs: all of two digits, so that the fraction texts of
# one size have one length.  There are C(90, n) label sets of size n.
FRESH_LABELS = range(10, 100)


def fresh_shrub(n: int, rng: random.Random, seen: set, want_bin=None, tries: int = 10000):
    """A random shrub on ``n`` labels drawn from :data:`FRESH_LABELS`, whose
    hash is not in ``seen`` (then added to it), in order bin ``want_bin``
    when given; ``None`` if ``tries`` draws fail.

    Each draw takes a new label set, so no size or bin ever runs out of
    shrubs: on ``1..5`` only about 15 shrubs fall in bin 3.
    """
    for _ in range(tries):
        P = random_shrub(rng.sample(FRESH_LABELS, n), rng)
        if hash(P) not in seen and (want_bin is None or order_bin(P) == want_bin):
            seen.add(hash(P))
            return P
    return None
