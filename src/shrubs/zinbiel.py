"""The Zinbiel operad on total orders and the order-sum morphism from shrubs.

A basis element of ``Zinb(I)`` is a total order on ``I``, written as a tuple
with the minimum first.  Partial composition sums the total orders extending
a partial order that keeps both operands' internal orders and places the
substituted word after everything that preceded the slot.

A total order is *compatible* with a shrub when every positive-height vertex
exceeds at least one vertex it covers; for forests these are exactly the
linear extensions of the forest order.  The morphism :func:`gamma` sends a
shrub to the sum of its compatible orders.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Shrub, label_key
from .errors import CapExceeded, LabelClash, UnknownLabel

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
            c = Fraction(c)
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
        c = Fraction(c)
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


def compatible_orders(P: Shrub) -> tuple:
    """All total orders where each vertex exceeds something it covers.

    Backtracking over placeable vertices (height 0, or covering an already
    placed vertex); output in lexicographic label order.
    """
    n = len(P)
    if n > ORDER_CAP:
        raise CapExceeded(f"{n} labels exceed the order-enumeration cap {ORDER_CAP}")
    verts = sorted(P.labels, key=label_key)
    covers = {v: P.covers(v) for v in verts}
    heights = {v: P.height(v) for v in verts}
    out = []
    placed = []
    placed_set = set()

    def rec():
        if len(placed) == n:
            out.append(tuple(placed))
            return
        for v in verts:
            if v in placed_set:
                continue
            if heights[v] == 0 or covers[v] & placed_set:
                placed.append(v)
                placed_set.add(v)
                rec()
                placed.pop()
                placed_set.remove(v)

    rec()
    return tuple(out)


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


def _extensions(elements, preds):
    """Linear extensions of a partial order given as predecessor sets."""
    out = []
    chosen = []
    remaining = set(elements)

    def rec():
        if not remaining:
            out.append(tuple(chosen))
            return
        for v in sorted(remaining, key=label_key):
            if preds[v] & remaining:
                continue
            remaining.remove(v)
            chosen.append(v)
            rec()
            chosen.pop()
            remaining.add(v)

    rec()
    return out


def _compose_orders(pi: tuple, i, sigma: tuple):
    """Orders substituting ``sigma`` for the slot ``i`` inside ``pi``.

    The inner word fills the slot from its position rightward: everything
    before the slot precedes all of ``sigma``, the head of ``sigma`` takes
    the slot's place ahead of what followed it, and the tail of ``sigma``
    shuffles freely with that remainder (both internal orders kept).
    """
    pos = pi.index(i)
    pre, post = pi[:pos], pi[pos + 1 :]
    head = sigma[0]
    preds = {}
    for seq in (pre, post, sigma):
        for k in range(1, len(seq)):
            preds[seq[k]] = {seq[k - 1]}
    preds.setdefault(head, set())
    if pre:
        preds[pre[0]] = set()
        preds[head] = {pre[-1]}
    if post:
        preds[post[0]] = ({pre[-1]} if pre else set()) | {head}
    total = len(pre) + len(post) + len(sigma)
    if total > ORDER_CAP:
        raise CapExceeded(f"{total} labels exceed the order-enumeration cap {ORDER_CAP}")
    return _extensions(list(pre) + list(post) + list(sigma), preds)


def zinb_compose(x: ZinbElement, i, y: ZinbElement) -> ZinbElement:
    """Partial composition of ``y`` into ``x`` at the slot ``i``."""
    if i not in x.labels:
        raise UnknownLabel(i, "composition slot")
    clash = (x.labels - {i}) & y.labels
    if clash:
        raise LabelClash(sorted(clash, key=label_key))
    labels = (x.labels - {i}) | y.labels
    acc = {}
    for pi, cx in x.coeffs.items():
        for sigma, cy in y.coeffs.items():
            for order in _compose_orders(pi, i, sigma):
                acc[order] = acc.get(order, Fraction(0)) + cx * cy
    return ZinbElement(labels, acc)
