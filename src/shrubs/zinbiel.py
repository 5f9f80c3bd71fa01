"""The Zinbiel operad on total orders and the order-sum morphism from shrubs.

A basis element of ``Zinb(I)`` is a total order on ``I``, written as a tuple
with the minimum first.  Partial composition is a half-shuffle: composing
``sigma`` into the slot ``i`` of ``pi`` sums the orders that keep what came
before ``i``, put the head of ``sigma`` in its place, and follow it with a
shuffle of what came after ``i`` with the tail of ``sigma`` (the dual
Leibniz operad of Loday, Math. Scand. 77, 1995).

A total order is *compatible* with a shrub when every positive-height vertex
exceeds at least one vertex it covers; for forests these are exactly the
linear extensions of the forest order.  The morphism :func:`gamma` sends a
shrub to the sum of its compatible orders.

Compatible orders come from a kernel on label masks, bit ``i`` standing
for ``labels[i]``.  Whether a vertex may come next depends only on the set
already placed, so each placed set is met once: a forward sweep lists the
reachable sets with their ready vertices, and a backward sweep gives each
set its completions, each ready vertex in label order put in front of the
completions of the set that places it.  That copying runs in C (``map``
over ``tuple.__add__``), and the Python work is one step per pair of a
reachable set and a ready vertex, at most ``n * 2**(n-1)``.  At
``ORDER_CAP`` the 9-point antichain, the worst case, gives its 9! = 362,880
orders in about 0.25 s; its peak traced memory is about 60 MB, against
46 MB for the output alone, since the completion lists of two adjacent
sizes are alive together (the last step frees each list of one placed
vertex as it consumes it).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .core import Shrub, _composed_labels, _upward, label_key
from .errors import CapExceeded, LabelClash, UnknownLabel
from .mould import _exact

ORDER_CAP = 9  # linear-extension enumeration is exponential past this
_ONE = Fraction(1)

TotalOrder = tuple


def _order_key(order):
    return tuple(label_key(v) for v in order)


class ZinbElement:
    """Formal rational combination of total orders on one label set."""

    __slots__ = ("labels", "coeffs", "_key")

    def __init__(self, labels, coeffs=None):
        labels = frozenset(labels)
        clean = {}
        for order, c in (coeffs or {}).items():
            order = tuple(order)
            if frozenset(order) != labels or len(order) != len(labels):
                raise UnknownLabel(order, "order over the wrong label set")
            c = _exact(c, "a coefficient")
            if c:
                clean[order] = clean.get(order, Fraction(0)) + c
        clean = {o: c for o, c in clean.items() if c}
        self.labels = labels
        self.coeffs = clean
        self._key = tuple(sorted(clean.items(), key=lambda kv: _order_key(kv[0])))

    @classmethod
    def _trusted(cls, labels, coeffs) -> "ZinbElement":
        """Nonzero ``Fraction`` coefficients on distinct orders of the
        frozenset ``labels``, inserted in ``terms()`` order (trusted, like
        ``Shrub._from_parts``)."""
        self = object.__new__(cls)
        self.labels = labels
        self.coeffs = coeffs
        self._key = tuple(coeffs.items())
        return self

    @classmethod
    def from_order(cls, order, coeff=1) -> "ZinbElement":
        order = tuple(order)
        return cls(order, {order: coeff})

    @classmethod
    def zero(cls, labels) -> "ZinbElement":
        return cls(labels, {})

    def terms(self):
        """(order, coefficient) pairs in deterministic order."""
        return self._key

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, ZinbElement):
            return NotImplemented
        return self.labels == other.labels and self._key == other._key

    def __hash__(self):
        return hash((self.labels, self._key))

    def __add__(self, other):
        if self.labels != other.labels:
            raise LabelClash(sorted(self.labels ^ other.labels, key=label_key))
        merged = dict(self.coeffs)
        for o, c in other.coeffs.items():
            merged[o] = merged.get(o, Fraction(0)) + c
        return ZinbElement(self.labels, merged)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "ZinbElement":
        c = _exact(c, "a coefficient")
        return ZinbElement(self.labels, {o: cc * c for o, cc in self.coeffs.items()})

    def text(self) -> str:
        """Deterministic text form, e.g. ``[12] + [21]`` or ``2*[1,10]``."""
        if not self._key:
            return "0"
        compact = all(len(str(v)) == 1 for v in self.labels)
        parts = []
        for order, c in self._key:
            body = "".join(str(v) for v in order) if compact else ",".join(str(v) for v in order)
            mag = abs(c)
            term = f"[{body}]" if mag == 1 else f"{mag}*[{body}]"
            parts.append(("- " if c < 0 else "+ ") + term)
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])

    def __repr__(self):
        return f"ZinbElement({self.text()})"


def _orders(labels, ready, opens):
    """Every order of ``labels`` in which each vertex is ready when placed,
    in lexicographic index order (bit ``i`` stands for ``labels[i]``), by
    the two sweeps of the module docstring.

    ``ready`` is the mask of the vertices that may come first; placing
    ``i`` makes the vertices of ``opens[i]`` ready.
    """
    heads = [(v,).__add__ for v in labels]
    levels = [{0: ready}]
    for _ in labels:
        nxt = {}
        for s, r in levels[-1].items():
            m = r
            while m:
                low = m & -m
                m ^= low
                t = s | low
                if t not in nxt:
                    nxt[t] = (r | opens[low.bit_length() - 1]) & ~t
        levels.append(nxt)
    done = dict.fromkeys(levels.pop(), [()])
    while levels:
        level = levels.pop()
        # a set of one vertex is reached only from the empty set, so the last step may free it
        take = done.__getitem__ if levels else done.pop
        cur = {}
        for s, r in level.items():
            out = []
            m = r
            while m:
                low = m & -m
                m ^= low
                out += map(heads[low.bit_length() - 1], take(s | low))
            cur[s] = out
        done = cur
    return done[0]


def compatible_orders(P: Shrub) -> tuple:
    """All total orders where each vertex exceeds something it covers.

    A vertex may be placed when it has height 0 or covers an already placed
    vertex, so placing ``i`` makes every vertex covering it ready; the
    orders come from :func:`_orders` on the cover masks of ``P``, in
    lexicographic label order.
    """
    n = len(P)
    if n > ORDER_CAP:
        raise CapExceeded(f"{n} labels exceed the order-enumeration cap {ORDER_CAP}")
    roots = sum(1 << i for i, m in enumerate(P._covers) if not m)
    return tuple(_orders(P.labels, roots, _upward(P._covers)))


def gamma(P: Shrub) -> ZinbElement:
    """Coefficient 1 on every order compatible with ``P``.

    An operad morphism: ``gamma(compose(P, i, Q))`` equals
    ``zinb_compose(gamma(P), i, gamma(Q))``.  The orders come out of
    :func:`compatible_orders` distinct and already in ``terms()`` order, so
    after checking that each covers the labels of ``P`` the element is
    built once, every order sharing one coefficient ``Fraction(1)``.
    """
    orders = compatible_orders(P)
    labels = frozenset(P.labels)
    for order in orders:
        if len(order) != len(labels) or frozenset(order) != labels:
            raise UnknownLabel(order, "order over the wrong label set")
    return ZinbElement._trusted(labels, dict.fromkeys(orders, _ONE))


def _compose_orders(pi: tuple, i, sigma: tuple):
    """Orders substituting ``sigma`` for the slot ``i`` inside ``pi``: a
    half-shuffle.  What came before the slot stays put, the head of
    ``sigma`` takes the slot, and the tail of ``sigma`` shuffles with what
    came after it, both internal orders kept; each choice of the tail's
    places gives one order."""
    total = len(pi) - 1 + len(sigma)
    if total > ORDER_CAP:
        raise CapExceeded(f"{total} labels exceed the order-enumeration cap {ORDER_CAP}")
    pos = pi.index(i)
    lead, post, tail = pi[:pos] + sigma[:1], pi[pos + 1 :], sigma[1:]
    out = []
    for places in combinations(range(len(post) + len(tail)), len(tail)):
        word = list(post)
        for k, v in zip(places, tail):  # ascending places, so each insert leaves the earlier ones put
            word.insert(k, v)
        out.append(lead + tuple(word))
    return out


def zinb_compose(x: ZinbElement, i, y: ZinbElement) -> ZinbElement:
    """Partial composition of ``y`` into ``x`` at the slot ``i``."""
    labels = _composed_labels(x.labels, i, y.labels)
    if not y.labels:
        raise ValueError("cannot compose with an empty order")
    acc = {}
    for pi, cx in x.coeffs.items():
        for sigma, cy in y.coeffs.items():
            for order in _compose_orders(pi, i, sigma):
                acc[order] = acc.get(order, Fraction(0)) + cx * cy
    return ZinbElement(labels, acc)
