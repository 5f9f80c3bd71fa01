"""Exact arithmetic of factored multivariate rational fractions.

``Mould(I)`` is the field of rational functions in variables indexed by
``I``; partial composition multiplies by the inner variable sum and
substitutes it for the slot variable.  Shrubs land here through

* :func:`embed_order` -- a total order becomes the inverse product of its
  suffix sums,
* :func:`fraction_of_shrub` -- the closed formula: one denominator factor
  per vertex (its generated upper ideal) and a numerator/denominator pair
  per ramification class,
* :func:`kappa` -- the same fraction computed compositionally from the
  generator decomposition.

Fractions are kept in canonical factored form: primitive integer linear
forms with positive leading coefficient, a global sign and a positive
rational scalar, numerator and denominator sharing no factor.  Equality of
sums of fractions reduces to polynomial cross-multiplication; no gcd is
ever taken.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd

from .core import Shrub, label_key
from .errors import (
    CapExceeded,
    DegreeCapExceeded,
    LabelClash,
    NotInZinbielImage,
    UnknownLabel,
    ZeroDenominator,
)
from .operad import decompose, fresh_slots
from .zinbiel import ZinbElement

POLY_TERM_CAP = 200_000
EXTRACTION_CAP = 6


# -- sparse polynomials -----------------------------------------------------


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Monomial keys are sorted ``(label, exponent)`` tuples; no zero
    coefficient or zero exponent is ever stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                mono = tuple(sorted(((v, e) for v, e in mono if e), key=lambda p: label_key(p[0])))
                clean[mono] = clean.get(mono, Fraction(0)) + c
        self.terms = {m: c for m, c in clean.items() if c}

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({(): Fraction(c)})

    @classmethod
    def var(cls, label) -> "Polynomial":
        return cls({((label, 1),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(out)

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other, cap=POLY_TERM_CAP):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                d = dict(d1)
                for v, e in m2:
                    d[v] = d.get(v, 0) + e
                key = tuple(sorted(d.items(), key=lambda p: label_key(p[0])))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
            if cap is not None and len(out) > cap:
                raise DegreeCapExceeded(f"polynomial exceeded {cap} terms")
        return Polynomial(out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial({m: cc * c for m, cc in self.terms.items()})

    def pow(self, k: int) -> "Polynomial":
        out = Polynomial.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def degree_in(self, label) -> int:
        deg = 0
        for m in self.terms:
            for v, e in m:
                if v == label and e > deg:
                    deg = e
        return deg

    def coeff_of_power(self, label, k: int) -> "Polynomial":
        """Coefficient of ``label**k`` as a polynomial in the other variables."""
        out = {}
        for m, c in self.terms.items():
            e = dict(m).get(label, 0)
            if e == k:
                rest = tuple(p for p in m if p[0] != label)
                out[rest] = out.get(rest, Fraction(0)) + c
        return Polynomial(out)

    def substitute(self, label, replacement: "Polynomial") -> "Polynomial":
        deg = self.degree_in(label)
        if deg == 0:
            return self
        out = Polynomial({})
        powers = [Polynomial.constant(1)]
        for _ in range(deg):
            powers.append(powers[-1] * replacement)
        for m, c in self.terms.items():
            e = dict(m).get(label, 0)
            rest = tuple(p for p in m if p[0] != label)
            out = out + powers[e].scale(c) * Polynomial({rest: 1})
        return out

    def evaluate(self, point) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val *= Fraction(point[v]) ** e
            total += val
        return total

    def variables(self) -> frozenset:
        return frozenset(v for m in self.terms for v, _ in m)

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"u{v}^{e}" if e > 1 else f"u{v}" for v, e in m) or "1"
            bits.append(f"{c}*{mono}")
        return "Polynomial(" + " + ".join(bits) + ")"


# -- linear forms -----------------------------------------------------------


class LinearForm:
    """Primitive integer linear form with positive leading coefficient."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a linear form cannot be zero")
        self.terms = terms
        self._hash = hash(terms)

    @classmethod
    def normalize(cls, coeffs):
        """Canonicalize a label->int mapping; returns (form, sign, content).

        ``form`` is ``None`` when the mapping is identically zero; otherwise
        ``coeffs == sign * content * form`` with ``content`` a positive int.
        """
        items = sorted(((v, int(c)) for v, c in coeffs.items() if c), key=lambda p: label_key(p[0]))
        if not items:
            return None, 1, 0
        content = 0
        for _, c in items:
            content = gcd(content, abs(c))
        sign = 1 if items[0][1] > 0 else -1
        form = cls(tuple((v, sign * c // content) for v, c in items))
        return form, sign, content

    @classmethod
    def sum_of(cls, labels) -> "LinearForm":
        items = sorted(labels, key=label_key)
        if not items:
            raise ValueError("a linear form cannot be zero")
        return cls(tuple((v, 1) for v in items))

    def support(self) -> frozenset:
        return frozenset(v for v, _ in self.terms)

    def coeff(self, label) -> int:
        for v, c in self.terms:
            if v == label:
                return c
        return 0

    def substitute(self, mapping):
        """Apply label -> coeff-dict substitutions; returns (form, sign, content)."""
        acc = {}
        for v, c in self.terms:
            rep = mapping.get(v)
            if rep is None:
                acc[v] = acc.get(v, 0) + c
            else:
                for w, cw in rep.items():
                    acc[w] = acc.get(w, 0) + c * cw
        return LinearForm.normalize(acc)

    def to_polynomial(self) -> Polynomial:
        return Polynomial({((v, 1),): Fraction(c) for v, c in self.terms})

    def evaluate(self, point) -> Fraction:
        return sum((Fraction(point[v]) * c for v, c in self.terms), Fraction(0))

    def sort_key(self):
        return tuple((label_key(v), c) for v, c in self.terms)

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LinearForm({self.text()})"

    def text(self) -> str:
        bits = []
        for v, c in self.terms:
            mag = abs(c)
            body = f"u{v}" if mag == 1 else f"{mag}*u{v}"
            bits.append(("-" if c < 0 else "+") + body)
        out = "".join(bits)
        return out[1:] if out.startswith("+") else out


# -- factored fractions -----------------------------------------------------


def _sorted_forms(forms):
    return tuple(sorted(forms, key=LinearForm.sort_key))


class FactoredFraction:
    """``sign * scalar * (product of forms) / (product of forms)``, reduced.

    The numerator and denominator are multisets of canonical linear forms
    sharing no common factor; the scalar is a positive rational.
    """

    __slots__ = ("sign", "scalar", "num", "den", "_hash")

    def __init__(self, sign=1, scalar=1, num=(), den=()):
        scalar = Fraction(scalar)
        if scalar < 0:
            sign, scalar = -sign, -scalar
        if sign not in (1, -1) or scalar == 0:
            raise ValueError("sign must be +-1 and the scalar nonzero")
        num = list(num)
        den = list(den)
        den_count = {}
        for f in den:
            den_count[f] = den_count.get(f, 0) + 1
        kept_num = []
        for f in num:
            if den_count.get(f):
                den_count[f] -= 1
            else:
                kept_num.append(f)
        kept_den = []
        for f in den:
            if den_count.get(f):
                den_count[f] -= 1
                kept_den.append(f)
        self.sign = sign
        self.scalar = scalar
        self.num = _sorted_forms(kept_num)
        self.den = _sorted_forms(kept_den)
        self._hash = hash((self.sign, self.scalar, self.num, self.den))

    @classmethod
    def one(cls) -> "FactoredFraction":
        return cls()

    @property
    def labels(self) -> frozenset:
        out = set()
        for f in self.num + self.den:
            out |= f.support()
        return frozenset(out)

    def __eq__(self, other):
        if not isinstance(other, FactoredFraction):
            return NotImplemented
        return (
            self.sign == other.sign
            and self.scalar == other.scalar
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (
            tuple(f.sort_key() for f in self.den),
            tuple(f.sort_key() for f in self.num),
            self.sign,
            self.scalar,
        )

    def __mul__(self, other) -> "FactoredFraction":
        return FactoredFraction(
            self.sign * other.sign,
            self.scalar * other.scalar,
            self.num + other.num,
            self.den + other.den,
        )

    def magnitude(self) -> "FactoredFraction":
        return FactoredFraction(1, self.scalar, self.num, self.den)

    def substitute(self, mapping) -> "FactoredFraction":
        """Substitute coeff-dicts for variables in every factor."""
        sign, scalar = self.sign, self.scalar
        num, den = [], []
        for target, source in ((num, self.num), (den, self.den)):
            for f in source:
                form, s, content = f.substitute(mapping)
                if form is None:
                    raise ZeroDenominator(f"substitution annihilates the factor {f.text()}")
                sign *= s
                scalar = scalar * content if target is num else scalar / content
                target.append(form)
        return FactoredFraction(sign, scalar, num, den)

    def compose_at(self, i, other: "FactoredFraction", other_labels) -> "FactoredFraction":
        """Partial composition: multiply by the inner sum, substitute it for ``i``."""
        if i not in self.labels:
            raise UnknownLabel(i, "composition slot")
        other_labels = frozenset(other_labels)
        clash = (self.labels - {i}) & other_labels
        if clash:
            raise LabelClash(sorted(clash, key=label_key))
        jsum = LinearForm.sum_of(other_labels)
        subbed = self.substitute({i: {v: 1 for v in other_labels}})
        return subbed * other * FactoredFraction(num=[jsum])

    def evaluate(self, point) -> Fraction:
        val = self.scalar * self.sign
        for f in self.num:
            val *= f.evaluate(point)
        for f in self.den:
            d = f.evaluate(point)
            if d == 0:
                raise ZeroDenominator(f"denominator factor {f.text()} vanishes at the point")
            val /= d
        return val

    def __repr__(self):
        return f"FactoredFraction({format_fraction(self)})"


# -- canonical text format --------------------------------------------------


def format_fraction(ff: FactoredFraction) -> str:
    """Canonical text: sign, optional scalar, then ``(f1)(f2)/((g1)(g2))``."""
    head = "-" if ff.sign < 0 else ""
    if ff.scalar != 1:
        head += f"{ff.scalar}*"
    num = "".join(f"({f.text()})" for f in ff.num) or "1"
    if not ff.den:
        return head + num
    den = "".join(f"({f.text()})" for f in ff.den)
    if len(ff.den) > 1:
        den = f"({den})"
    return f"{head}{num}/{den}"


_TERM_RE = re.compile(r"^(?:(\d+)\*)?u([A-Za-z0-9_□]+)$")
_SCALAR_RE = re.compile(r"^(\d+(?:/\d+)?)\*")


def _parse_linear_form(text):
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty linear form")
    pieces = re.split(r"(?=[+-])", text)
    coeffs = {}
    for piece in pieces:
        if not piece:
            continue
        sgn = 1
        if piece[0] == "+":
            piece = piece[1:]
        elif piece[0] == "-":
            sgn = -1
            piece = piece[1:]
        m = _TERM_RE.match(piece)
        if not m:
            raise ValueError(f"bad linear-form term {piece!r}")
        c = int(m.group(1)) if m.group(1) else 1
        label = m.group(2)
        if label.isdigit():
            label = int(label)
        coeffs[label] = coeffs.get(label, 0) + sgn * c
    return coeffs


def _split_factors(text):
    """Split a product like ``(a)(b)(c)`` into its top-level groups."""
    groups = []
    depth = 0
    start = None
    for k, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                start = k
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
            if depth == 0:
                groups.append(text[start + 1 : k])
        elif depth == 0 and not ch.isspace():
            raise ValueError(f"unexpected character {ch!r} between factors")
    if depth != 0:
        raise ValueError("unbalanced parentheses")
    return groups


def parse_fraction(text: str) -> FactoredFraction:
    """Parse the canonical fraction grammar back into a factored fraction."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:].strip()
    elif text.startswith("+"):
        text = text[1:].strip()
    m = _SCALAR_RE.match(text)
    scalar = Fraction(1)
    if m:
        try:
            scalar = Fraction(m.group(1))
        except ZeroDivisionError:
            raise ValueError(f"cannot parse fraction {text!r}: zero scalar denominator") from None
        text = text[m.end() :]
    depth = 0
    slash = None
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            slash = k
            break
    num_text = text[:slash] if slash is not None else text
    den_text = text[slash + 1 :] if slash is not None else ""

    def parse_product(side):
        side = side.strip()
        if side in ("", "1"):
            return []
        groups = _split_factors(side)
        if len(groups) == 1 and "(" in groups[0]:
            groups = _split_factors(groups[0])
        return [_parse_linear_form(g) for g in groups]

    try:
        num_raw = parse_product(num_text)
        den_raw = parse_product(den_text)
    except ValueError as exc:
        raise ValueError(f"cannot parse fraction {text!r}: {exc}") from None
    num, den = [], []
    for raw, target, in_num in ((num_raw, num, True), (den_raw, den, False)):
        for coeffs in raw:
            form, s, content = LinearForm.normalize(coeffs)
            if form is None:
                raise ZeroDenominator("zero factor in fraction text")
            sign *= s
            scalar = scalar * content if in_num else scalar / content
            target.append(form)
    return FactoredFraction(sign, scalar, num, den)


# -- formal sums of fractions ------------------------------------------------


class MouldElement:
    """Rational-coefficient formal sum of factored fractions over one label set."""

    __slots__ = ("labels", "terms")

    def __init__(self, labels, terms=()):
        self.labels = frozenset(labels)
        acc = {}
        for coeff, ff in terms:
            coeff = Fraction(coeff) * ff.sign * ff.scalar
            key = ff.magnitude()
            key = FactoredFraction(1, 1, key.num, key.den)
            acc[key] = acc.get(key, Fraction(0)) + coeff
        pairs = [(c, ff) for ff, c in acc.items() if c]
        pairs.sort(key=lambda p: p[1].sort_key())
        self.terms = tuple(pairs)

    @classmethod
    def from_fraction(cls, ff: FactoredFraction, labels=None) -> "MouldElement":
        return cls(ff.labels if labels is None else labels, [(1, ff)])

    @classmethod
    def zero(cls, labels) -> "MouldElement":
        return cls(labels, [])

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if self.labels != other.labels:
            raise LabelClash(sorted(self.labels ^ other.labels, key=label_key))
        return MouldElement(self.labels, self.terms + other.terms)

    def scale(self, c) -> "MouldElement":
        return MouldElement(self.labels, [(Fraction(c) * cc, ff) for cc, ff in self.terms])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def evaluate(self, point) -> Fraction:
        return sum((c * ff.evaluate(point) for c, ff in self.terms), Fraction(0))

    def __eq__(self, other):
        """Structural equality of canonical terms; see :func:`equals` for
        equality as rational functions."""
        if not isinstance(other, MouldElement):
            return NotImplemented
        return self.labels == other.labels and self.terms == other.terms

    def __hash__(self):
        return hash((self.labels, self.terms))

    def __repr__(self):
        if not self.terms:
            return "MouldElement(0)"
        bits = []
        for c, ff in self.terms:
            prefix = "" if c == 1 else f"{c}*"
            bits.append(prefix + format_fraction(ff))
        return "MouldElement(" + " + ".join(bits) + ")"


def mould_compose(f: MouldElement, i, g: MouldElement) -> MouldElement:
    """Partial composition, term by term; factored inputs stay factored."""
    if i not in f.labels:
        raise UnknownLabel(i, "composition slot")
    clash = (f.labels - {i}) & g.labels
    if clash:
        raise LabelClash(sorted(clash, key=label_key))
    labels = (f.labels - {i}) | g.labels
    jsum = LinearForm.sum_of(g.labels)
    sub = {i: {v: 1 for v in g.labels}}
    out = []
    for cf, Ff in f.terms:
        base = Ff.substitute(sub)
        for cg, Fg in g.terms:
            out.append((cf * cg, base * Fg * FactoredFraction(num=[jsum])))
    return MouldElement(labels, out)


def embed_order(order) -> FactoredFraction:
    """A total order as the inverse product of its suffix sums."""
    order = tuple(order)
    den = [LinearForm.sum_of(order[k:]) for k in range(len(order))]
    return FactoredFraction(den=den)


def embed_zinb(x: ZinbElement) -> MouldElement:
    """Linear extension of :func:`embed_order`; intertwines the compositions."""
    return MouldElement(x.labels, [(c, embed_order(o)) for o, c in x.terms()])


# -- the shrub fraction -------------------------------------------------------


def shrub_fraction_factors(P: Shrub):
    """Raw numerator/denominator factor lists of the closed formula.

    One denominator factor per vertex (the sum over its generated upper
    ideal); per ramification class ``r`` with target set ``t``: a numerator
    factor summing the ideal of ``t`` inside the shrub minus the ideal of
    ``r``, and a denominator factor summing the ideal of ``t``.  The lists
    are returned unreduced so callers can check they already share nothing.
    """
    if len(P) == 0:
        raise ValueError("the empty shrub has no fraction")
    num, den = [], []
    for v in sorted(P.labels, key=label_key):
        den.append(LinearForm.sum_of(P.upper_ideal({v})))
    heights = P.height_map
    for rc in P.ram_classes():
        den.append(LinearForm.sum_of(P.upper_ideal(rc.targets)))
        outside = set(P.labels) - P.upper_ideal(rc.members)
        sub = Shrub(
            outside,
            {v: heights[v] for v in outside},
            [e for e in P.edges if e[0] in outside and e[1] in outside],
        )
        num.append(LinearForm.sum_of(sub.upper_ideal(rc.targets)))
    return num, den


def fraction_of_shrub(P: Shrub) -> FactoredFraction:
    """The closed-formula fraction of a shrub (reduced, squarefree)."""
    num, den = shrub_fraction_factors(P)
    return FactoredFraction(1, 1, num, den)


@functools.lru_cache(maxsize=None)
def kappa(P: Shrub) -> FactoredFraction:
    """The fraction of ``P`` computed compositionally.

    Decomposes ``P`` into generator words and evaluates them through the
    generator images ``1/(ux*uy)`` and ``1/(uy*(ux+uy))`` using partial
    composition; agrees factor-for-factor with :func:`fraction_of_shrub`.
    """
    word = decompose(P)
    slots = fresh_slots(P.labels, 2)
    x, y = tuple(slots)

    def ev(w):
        if w.gen == "leaf":
            return FactoredFraction(den=[LinearForm(((w.label, 1),))]), frozenset((w.label,))
        left, left_labels = ev(w.args[0])
        right, right_labels = ev(w.args[1])
        if w.gen == "C":
            gen = FactoredFraction(den=[LinearForm(((x, 1),)), LinearForm(((y, 1),))])
        else:
            sx, sy = sorted((x, y), key=label_key)
            gen = FactoredFraction(
                den=[LinearForm(((y, 1),)), LinearForm(((sx, 1), (sy, 1)))]
            )
        out = gen.compose_at(x, left, left_labels)
        out = out.compose_at(y, right, right_labels)
        return out, left_labels | right_labels

    result, _ = ev(word)
    return result


# -- expansion and equality ---------------------------------------------------


def _product_poly(forms, cap=POLY_TERM_CAP):
    out = Polynomial.constant(1)
    for f in forms:
        out = out.__mul__(f.to_polynomial(), cap=cap)
    return out


def expand(x: MouldElement, cap: int = POLY_TERM_CAP):
    """Write ``x`` as a single ratio ``(N, D)`` of expanded polynomials.

    ``D`` is the product of every distinct denominator factor across terms
    at its maximal multiplicity, so no multivariate gcd is needed.
    """
    den_mult = {}
    for _, ff in x.terms:
        counts = {}
        for f in ff.den:
            counts[f] = counts.get(f, 0) + 1
        for f, m in counts.items():
            if den_mult.get(f, 0) < m:
                den_mult[f] = m
    all_den = []
    for f, m in sorted(den_mult.items(), key=lambda p: p[0].sort_key()):
        all_den.extend([f] * m)
    D = _product_poly(all_den, cap)
    N = Polynomial({})
    for c, ff in x.terms:
        remaining = dict(den_mult)
        for f in ff.den:
            remaining[f] -= 1
        cofactor = []
        for f, m in sorted(remaining.items(), key=lambda p: p[0].sort_key()):
            cofactor.extend([f] * m)
        piece = _product_poly(list(ff.num) + cofactor, cap)
        N = N + piece.scale(c * ff.sign * ff.scalar)
    return N, D


def equals(x: MouldElement, y: MouldElement, cap: int = POLY_TERM_CAP) -> bool:
    """Exact equality as rational functions, by cross-multiplication."""
    nx, dx = expand(x, cap)
    ny, dy = expand(y, cap)
    return nx.__mul__(dy, cap=cap) == ny.__mul__(dx, cap=cap)


# -- extracting total orders ---------------------------------------------------


def _peel_factored(f: FactoredFraction, labels):
    """Coefficients of ``f`` on the order basis, certified step by step.

    Multiplies by the label sum and reads off, per candidate minimum ``a``,
    the leading behavior as ``u_a`` grows: factors containing ``u_a`` drop
    out into the scalar.  Each split ``F == sum of limits`` is verified by
    exact polynomial arithmetic, which certifies the final answer.
    """
    if len(labels) == 1:
        (a,) = labels
        expected = (LinearForm(((a, 1),)),)
        if f.num or f.den != expected:
            raise NotInZinbielImage(f"leftover fraction {format_fraction(f)} is not c/u{a}")
        return {(a,): Fraction(f.sign) * f.scalar}
    S = LinearForm.sum_of(labels)
    F = f * FactoredFraction(num=[S])
    coeffs = {}
    limits = []
    for a in sorted(labels, key=label_key):
        dn = sum(1 for g in F.num if a in g.support())
        dd = sum(1 for g in F.den if a in g.support())
        if dn > dd:
            raise NotInZinbielImage(f"degree in u{a} grows: not an order combination")
        if dn < dd:
            continue
        sign, scalar = F.sign, F.scalar
        num, den = [], []
        for g in F.num:
            c = g.coeff(a)
            if c:
                sign, scalar = (sign, scalar * c) if c > 0 else (-sign, scalar * -c)
            else:
                num.append(g)
        for g in F.den:
            c = g.coeff(a)
            if c:
                sign, scalar = (sign, scalar / c) if c > 0 else (-sign, scalar / -c)
            else:
                den.append(g)
        g_a = FactoredFraction(sign, scalar, num, den)
        limits.append(g_a)
        for order, c in _peel_factored(g_a, labels - {a}).items():
            coeffs[(a,) + order] = c
    # verify F == sum of the limits over the common denominator F.den
    target = _product_poly(F.num).scale(F.sign * F.scalar)
    den_mult = {}
    for g in F.den:
        den_mult[g] = den_mult.get(g, 0) + 1
    total = Polynomial({})
    for g_a in limits:
        remaining = dict(den_mult)
        for g in g_a.den:
            remaining[g] -= 1
        cofactor = list(g_a.num)
        for g, m in remaining.items():
            cofactor.extend([g] * m)
        total = total + _product_poly(cofactor).scale(g_a.sign * g_a.scalar)
    if total != target:
        raise NotInZinbielImage("the fraction does not split over candidate minima")
    return coeffs


def _peel_expanded(N: Polynomial, D: Polynomial, labels):
    """Order-basis coefficients from an expanded ratio (verified by caller)."""
    if D.is_zero():
        raise ZeroDenominator("zero denominator")
    if len(labels) == 1:
        (a,) = labels
        NU = N * Polynomial.var(a)
        if NU.is_zero():
            return {}
        mono, c0 = next(iter(D.terms.items()))
        c = NU.terms.get(mono, Fraction(0)) / c0
        if NU != D.scale(c):
            raise NotInZinbielImage("leftover ratio is not a multiple of 1/u")
        return {(a,): c} if c else {}
    S = Polynomial({((v, 1),): Fraction(1) for v in labels})
    FN = N * S
    coeffs = {}
    for a in sorted(labels, key=label_key):
        dn, dd = FN.degree_in(a), D.degree_in(a)
        if dn > dd:
            raise NotInZinbielImage(f"degree in u{a} grows: not an order combination")
        if dn < dd:
            continue
        gN = FN.coeff_of_power(a, dn)
        gD = D.coeff_of_power(a, dd)
        for order, c in _peel_expanded(gN, gD, labels - {a}).items():
            coeffs[(a,) + order] = c
    return coeffs


def zinb_extract(f: MouldElement, labels=None, cap: int = EXTRACTION_CAP) -> ZinbElement:
    """Invert the order embedding: write ``f`` as a combination of orders.

    Raises ``NotInZinbielImage`` when no combination exists; the returned
    combination is always certified exactly (factored inputs step by step,
    general sums by a final symbolic comparison).
    """
    labels = frozenset(f.labels if labels is None else labels)
    if len(labels) > cap:
        raise CapExceeded(f"{len(labels)} labels exceed the extraction cap {cap}")
    if not labels:
        raise ValueError("cannot extract over an empty label set")
    if f.is_zero():
        return ZinbElement(labels, {})
    if not f.labels <= labels:
        raise UnknownLabel(sorted(f.labels - labels, key=label_key)[0], "extraction labels")
    if len(f.terms) == 1:
        c0, ff = f.terms[0]
        raw = _peel_factored(ff, labels)
        return ZinbElement(labels, {o: c0 * c for o, c in raw.items()})
    N, D = expand(f)
    raw = _peel_expanded(N, D, labels)
    candidate = ZinbElement(labels, raw)
    if not equals(embed_zinb(candidate), f):
        raise NotInZinbielImage("no order combination matches the element")
    return candidate


# -- deformation ----------------------------------------------------------------


class RationalFunction:
    """A plain ratio of polynomials; equality by cross-multiplication."""

    __slots__ = ("labels", "num", "den")

    def __init__(self, labels, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        self.labels = frozenset(labels)
        self.num = num
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):  # pragma: no cover - not used as dict key
        return hash(self.labels)

    def __neg__(self):
        return RationalFunction(self.labels, -self.num, self.den)

    def __mul__(self, other):
        return RationalFunction(self.labels | other.labels, self.num * other.num, self.den * other.den)

    def substitute(self, label, replacement: Polynomial, new_labels) -> "RationalFunction":
        den = self.den.substitute(label, replacement)
        if den.is_zero():
            raise ZeroDenominator("substitution annihilates the denominator")
        return RationalFunction(new_labels, self.num.substitute(label, replacement), den)

    def compose_at(self, i, other: "RationalFunction") -> "RationalFunction":
        if i not in self.labels:
            raise UnknownLabel(i, "composition slot")
        clash = (self.labels - {i}) & other.labels
        if clash:
            raise LabelClash(sorted(clash, key=label_key))
        S = Polynomial({((v, 1),): Fraction(1) for v in other.labels})
        labels = (self.labels - {i}) | other.labels
        subbed = self.substitute(i, S, labels)
        return RationalFunction(labels, S * other.num * subbed.num, other.den * subbed.den)

    def relabel(self, mapping) -> "RationalFunction":
        num, den = self.num, self.den
        temp = {v: f"□tmp{k}" for k, v in enumerate(mapping)}
        for v in mapping:
            num = num.substitute(v, Polynomial.var(temp[v]))
            den = den.substitute(v, Polynomial.var(temp[v]))
        for v, w in mapping.items():
            num = num.substitute(temp[v], Polynomial.var(w))
            den = den.substitute(temp[v], Polynomial.var(w))
        return RationalFunction({mapping.get(v, v) for v in self.labels}, num, den)

    @classmethod
    def from_mould(cls, x: MouldElement) -> "RationalFunction":
        N, D = expand(x)
        return cls(x.labels, N, D)

    def __repr__(self):
        return f"RationalFunction({self.num!r} / {self.den!r})"


def _univariate_at(coeffs, arg: Polynomial) -> Polynomial:
    out = Polynomial({})
    power = Polynomial.constant(1)
    for c in coeffs:
        if c:
            out = out + power.scale(c)
        power = power * arg
    return out


def deformed_generators(t_num, t_den=(1,)):
    """Deformed generator pair for ``t`` given by univariate coefficients.

    ``t = t_num / t_den`` (ascending integer coefficients).  The commutative
    generator becomes ``t(u1) t(u2) / (u1 u2 t(u1+u2))``; the graft generator
    is forced by the signed index-0 action: negate after substituting
    ``-(u1+u2)`` for ``u1``.  Returns ``(C_t, D_t)`` as polynomial ratios.
    """
    t_num = tuple(int(c) for c in t_num)
    t_den = tuple(int(c) for c in t_den)
    if not any(t_num):
        raise ZeroDenominator("t must not be identically zero")
    if not any(t_den):
        raise ZeroDenominator("the denominator of t must not be identically zero")
    u1, u2 = Polynomial.var(1), Polynomial.var(2)
    s = u1 + u2
    num = _univariate_at(t_num, u1) * _univariate_at(t_num, u2) * _univariate_at(t_den, s)
    den = u1 * u2 * _univariate_at(t_den, u1) * _univariate_at(t_den, u2) * _univariate_at(t_num, s)
    C = RationalFunction({1, 2}, num, den)
    minus_s = -s
    D = -C.substitute(1, minus_s, {1, 2})
    return C, D
