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

from .core import Shrub, _composed_labels, label_key
from .errors import (
    CapExceeded,
    DegreeCapExceeded,
    LabelClash,
    NotInZinbielImage,
    UnknownLabel,
    ZeroDenominator,
)

POLY_TERM_CAP = 200_000
EXTRACTION_CAP = 6


def _exact(c, what) -> Fraction:
    """``c`` as a ``Fraction``; ``ValueError`` naming ``what`` unless ``c``
    is an int (not a ``bool``) or a ``Fraction``, since a float would be
    read at its binary value."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise ValueError(f"{what} must be an int or a Fraction, got {c!r}")
    return Fraction(c)


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
            c = _exact(c, "a coefficient")
            if c:
                mono = tuple(sorted(((v, e) for v, e in mono if e), key=lambda p: label_key(p[0])))
                clean[mono] = clean.get(mono, Fraction(0)) + c
        self.terms = {m: c for m, c in clean.items() if c}

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({(): _exact(c, "a coefficient")})

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
        if not isinstance(other, Polynomial):
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
        c = _exact(c, "a coefficient")
        return Polynomial({m: cc * c for m, cc in self.terms.items()})

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


# a label in fraction text, [A-Za-z0-9_□]+ spelled with ASCII \w, which
# compiles several times faster beside □; all digits reads as an int
_LABEL_TEXT = r"(?a:[\w□])+"


def _check_text_label(v):
    """Raise ``ValueError`` unless fraction text reads label ``v`` back as
    itself: a non-negative int, or a str of label characters, not all digits."""
    if isinstance(v, int):
        if v < 0:
            raise ValueError(f"label {v} cannot be written in fraction text: an int label is >= 0")
    elif v.isdigit() or not re.fullmatch(_LABEL_TEXT, v):
        raise ValueError(
            f"label {v!r} cannot be written in fraction text:"
            " a str label must use only [A-Za-z0-9_□] and not be all digits"
        )


def _form_text(form) -> str:
    """``form.text()`` for reprs and error messages, or the terms when a
    label has no fraction text, so that they still name the form."""
    try:
        return form.text()
    except ValueError:
        return repr(form.terms)


class LinearForm:
    """Primitive integer linear form with positive leading coefficient."""

    __slots__ = ("terms", "_hash", "_key")

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a linear form cannot be zero")
        for v, c in terms:
            if type(c) is not int or not c:
                raise ValueError(f"the coefficient of {v!r} must be a nonzero int, got {c!r}")
        self.terms = terms
        self._hash = hash(terms)
        self._key = None

    @classmethod
    def normalize(cls, coeffs):
        """Canonicalize a label->int mapping; returns (form, sign, content).

        ``form`` is ``None`` when the mapping is identically zero; otherwise
        ``coeffs == sign * content * form`` with ``content`` a positive int.
        """
        for v, c in coeffs.items():
            if type(c) is not int:
                raise ValueError(f"the coefficient of {v!r} must be an int, got {c!r}")
        items = sorted(((v, c) for v, c in coeffs.items() if c), key=lambda p: label_key(p[0]))
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
        if self._key is None:  # built once: fractions re-sort their forms on every product
            self._key = tuple((label_key(v), c) for v, c in self.terms)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # no cached hash in the pickle: a str label hashes differently in another process
        return LinearForm, (self.terms,)

    def __repr__(self):
        return f"LinearForm({_form_text(self)})"

    def text(self) -> str:
        """The form in the grammar of :func:`parse_fraction`; ``ValueError``
        for a label that the text would not read back as itself."""
        bits = []
        for v, c in self.terms:
            if type(v) is not int or v < 0:
                _check_text_label(v)
            mag = abs(c)
            body = f"u{v}" if mag == 1 else f"{mag}*u{v}"
            bits.append(("-" if c < 0 else "+") + body)
        out = "".join(bits)
        return out[1:] if out.startswith("+") else out


# -- factored fractions -----------------------------------------------------


_ONE = Fraction(1)


def _sorted_forms(forms):
    return tuple(sorted(forms, key=LinearForm.sort_key))


class FactoredFraction:
    """``sign * scalar * (product of forms) / (product of forms)``, reduced.

    The numerator and denominator are multisets of canonical linear forms
    sharing no common factor; the scalar is a positive rational.

    A fraction built from label masks (:meth:`_of_masks`) keeps its record
    in ``_masks`` and builds ``num``, ``den`` and its hash on first read.
    """

    __slots__ = ("sign", "scalar", "num", "den", "_hash", "_masks")

    def __init__(self, sign=1, scalar=1, num=(), den=()):
        scalar = _exact(scalar, "the scalar")
        if type(sign) is not int or sign not in (1, -1) or scalar == 0:
            raise ValueError("sign must be +-1 and the scalar nonzero")
        if scalar < 0:
            sign, scalar = -sign, -scalar
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
        self._masks = None

    @classmethod
    def _of_masks(cls, labels, num, den) -> "FactoredFraction":
        """Sign +1 and scalar 1 over the 0/1 factors of a mask record:
        ``labels`` sorted by ``label_key``, each of them in some factor, and
        numerically sorted ``num`` and ``den`` masks sharing no factor
        (trusted, like ``Shrub._from_parts``)."""
        self = object.__new__(cls)
        self.sign = 1
        self.scalar = _ONE
        self._masks = (labels, num, den)
        return self

    def __getattr__(self, name):
        # called only for an unset slot: the forms of a mask record
        if name not in ("num", "den", "_hash") or self._masks is None:
            raise AttributeError(name)
        labels, num, den = self._masks
        self.num = _forms(labels, num)
        self.den = _forms(labels, den)
        self._hash = hash((1, _ONE, self.num, self.den))
        return object.__getattribute__(self, name)

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

    def __reduce__(self):
        # no cached hash in the pickle: str labels hash differently in another
        # process.  A mask record stays one, its forms and hash built on first read
        if self._masks is not None:
            return FactoredFraction._of_masks, self._masks
        return FactoredFraction, (self.sign, self.scalar, self.num, self.den)

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
                    raise ZeroDenominator(f"substitution annihilates the factor {_form_text(f)}")
                sign *= s
                scalar = scalar * content if target is num else scalar / content
                target.append(form)
        return FactoredFraction(sign, scalar, num, den)

    def compose_at(self, i, other: "FactoredFraction", other_labels) -> "FactoredFraction":
        """Partial composition: multiply by the inner sum, substitute it for ``i``."""
        other_labels = frozenset(other_labels)
        _composed_labels(self.labels, i, other_labels)
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
                raise ZeroDenominator(f"denominator factor {_form_text(f)} vanishes at the point")
            val /= d
        return val

    def __repr__(self):
        try:
            return f"FactoredFraction({format_fraction(self)})"
        except ValueError:  # a label that fraction text cannot carry
            return f"FactoredFraction({self.sign}, {self.scalar}, {self.num}, {self.den})"


# -- canonical text format --------------------------------------------------


def format_fraction(ff: FactoredFraction) -> str:
    """Canonical text: sign, optional scalar, then ``(f1)(f2)/((g1)(g2))``.
    ``ValueError`` for a label the text cannot carry (see ``LinearForm.text``)."""
    if ff._masks is not None:
        return _mask_text(*ff._masks)
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


def parse_fraction(text: str) -> FactoredFraction:
    """Parse the fraction grammar back into a factored fraction.

    Text in the shape :func:`format_fraction` writes for a shrub is read
    straight into its mask record: no sign, scalar or space, ``1`` or
    juxtaposed factors, then optionally ``/`` and one factor or several
    wrapped in one more pair of parentheses, each factor a sum of distinct
    labels, none on both sides.  Every other spelling of the grammar
    (signs, scalars, coefficients, spaces, any factor order or wrapping,
    cancelling factors) is still accepted, by the general parser, with the
    same result and the same errors.
    """
    from . import fraction_parser  # on first use: writing fraction text never needs it

    return fraction_parser.parse(text)


# -- formal sums of fractions ------------------------------------------------


class MouldElement:
    """Rational-coefficient formal sum of factored fractions over one label set."""

    __slots__ = ("labels", "terms")

    def __init__(self, labels, terms=()):
        self.labels = frozenset(labels)
        acc = {}
        for coeff, ff in terms:
            coeff = _exact(coeff, "a coefficient") * ff.sign * ff.scalar
            key = FactoredFraction(1, 1, ff.num, ff.den)
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
        c = _exact(c, "a coefficient")
        return MouldElement(self.labels, [(c * cc, ff) for cc, ff in self.terms])

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
    labels = _composed_labels(f.labels, i, g.labels)
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
#
# Every factor of a shrub fraction is a 0/1 sum over labels.  Inside the
# library a fraction over ``labels`` (sorted by ``label_key``) is therefore
# kept as two tuples of ints, the numerator and denominator masks, sorted
# numerically: bit ``i`` of a mask stands for ``labels[i]``.  A factored
# fraction of a shrub keeps that record; its text is written from the masks,
# and its linear forms are built only when something reads them.


def shrub_masks(P: Shrub) -> tuple:
    """``(num, den)``: the factor masks of the closed formula, over ``P.labels``.

    Each factor sums an upper ideal, computed in one bottom-up pass: a
    vertex joins the ideal generated by a seed when everything it covers is
    already in (height-0 vertices cover nothing and join only as seeds).

    * one denominator factor per vertex: the ideal of the vertex;
    * per ramification class (ramified vertices sharing one cover mask
      ``t``): a denominator factor, the ideal of ``t``, and a numerator
      factor, the ideal of ``t`` in the shrub minus the ideal ``I`` of the
      class -- the ideal of ``t`` plus ``I``, minus ``I``.

    The factors come out distinct and numerator and denominator share none
    (pinned by the squarefree tests), so nothing is cancelled.
    """
    if not P.labels:
        raise ValueError("the empty shrub has no fraction")
    covers = P._covers
    order = sorted(range(len(covers)), key=P._heights.__getitem__)

    def ideal(seed):
        for i in order:
            c = covers[i]
            if c and not c & ~seed:
                seed |= 1 << i
        return seed

    den = [ideal(1 << i) for i in range(len(covers))]
    num = []
    classes = {}
    for i, c in enumerate(covers):
        if c & (c - 1):
            classes[c] = classes.get(c, 0) | 1 << i
    for targets, members in classes.items():
        den.append(ideal(targets))
        upper = ideal(members)
        num.append(ideal(targets | upper) & ~upper)
    num.sort()
    den.sort()
    return tuple(num), tuple(den)


def _rows(masks) -> list:
    """The ascending index list of each mask, sorted: ``LinearForm.sort_key``
    order of the forms, since labels are sorted by ``label_key``."""
    rows = []
    for m in masks:
        row = []
        while m:
            low = m & -m
            row.append(low.bit_length() - 1)
            m ^= low
        rows.append(row)
    rows.sort()
    return rows


def _forms(labels, masks) -> tuple:
    """The 0/1 linear forms of ``masks`` over ``labels``, in
    ``LinearForm.sort_key`` order."""
    terms = [(v, 1) for v in labels]
    return tuple(LinearForm(tuple(map(terms.__getitem__, row))) for row in _rows(masks))


def _mask_text(labels, num, den) -> str:
    """:func:`format_fraction` of a mask record, written from the rows.
    Labels are checked in writing order, so a refused one is the one the
    forms would name."""
    num, den = _rows(num), _rows(den)
    if any(type(v) is not int or v < 0 for v in labels):
        for row in num + den:
            for i in row:
                _check_text_label(labels[i])
    names = [f"u{v}" for v in labels]
    num_text = "".join(f"({'+'.join(map(names.__getitem__, row))})" for row in num) or "1"
    if not den:
        return num_text
    den_text = "".join(f"({'+'.join(map(names.__getitem__, row))})" for row in den)
    return f"{num_text}/({den_text})" if len(den) > 1 else f"{num_text}/{den_text}"


def fraction_of_shrub(P: Shrub) -> FactoredFraction:
    """The closed-formula fraction of a shrub (reduced, squarefree).

    The factors of :func:`shrub_masks` are already reduced, so the result
    keeps their record and builds no linear form until one is read.
    """
    return FactoredFraction._of_masks(P.labels, *shrub_masks(P))


@functools.lru_cache(maxsize=1024)
def kappa(P: Shrub) -> FactoredFraction:
    """The fraction of ``P`` computed compositionally.

    Decomposes ``P`` into generator words and evaluates them through the
    generator images ``1/(ux*uy)`` and ``1/(uy*(ux+uy))`` using partial
    composition, in post-order with an explicit stack; agrees
    factor-for-factor with :func:`fraction_of_shrub`.
    """
    from .operad import decompose, fresh_slots

    word = decompose(P)
    slots = fresh_slots(P.labels, 2)
    x, y = tuple(slots)

    c_gen = FactoredFraction(den=[LinearForm(((x, 1),)), LinearForm(((y, 1),))])
    sx, sy = sorted((x, y), key=label_key)
    d_gen = FactoredFraction(den=[LinearForm(((y, 1),)), LinearForm(((sx, 1), (sy, 1)))])
    done = []  # (fraction, labels) of the finished arguments, left below right
    stack = [(word, False)]
    while stack:
        w, args_done = stack.pop()
        if w.gen == "leaf":
            done.append((FactoredFraction(den=[LinearForm(((w.label, 1),))]), frozenset((w.label,))))
        elif not args_done:
            stack += ((w, True), (w.args[1], False), (w.args[0], False))
        else:
            right, right_labels = done.pop()
            left, left_labels = done.pop()
            gen = c_gen if w.gen == "C" else d_gen
            out = gen.compose_at(x, left, left_labels).compose_at(y, right, right_labels)
            done.append((out, left_labels | right_labels))
    return done[0][0]


# -- expansion and equality ---------------------------------------------------


def _product_poly(forms):
    out = Polynomial.constant(1)
    for f in forms:
        out = out * f.to_polynomial()
    return out


def _numerator_over(terms, den) -> Polynomial:
    """The numerator ``N`` of the sum of ``c * F`` over the pairs ``(c, F)``
    of ``terms``, written over the product of the forms ``den``: a
    multiset holding the denominator of every ``F``."""
    N = Polynomial({})
    for c, ff in terms:
        cofactor = list(den)
        for f in ff.den:
            cofactor.remove(f)
        N = N + _product_poly(ff.num + tuple(cofactor)).scale(c * ff.sign * ff.scalar)
    return N


def expand(x: MouldElement):
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
    D = _product_poly(all_den)
    return _numerator_over(x.terms, all_den), D


def equals(x: MouldElement, y: MouldElement) -> bool:
    """Exact equality as rational functions, by cross-multiplication."""
    nx, dx = expand(x)
    ny, dy = expand(y)
    return nx * dy == ny * dx


# -- extracting total orders ---------------------------------------------------


def _peel_factored(f: FactoredFraction, labels):
    """Coefficients of ``f`` on the order basis, certified step by step.

    Multiplies by the label sum and reads off, per candidate minimum ``a``,
    the leading behavior as ``u_a`` grows: factors containing ``u_a`` drop
    out into the scalar.  Each split ``F == sum of limits`` is verified by
    exact polynomial arithmetic (``F`` minus its limits has numerator zero
    over ``F.den``), which certifies the final answer.
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
    if not _numerator_over([(1, F)] + [(-1, g_a) for g_a in limits], F.den).is_zero():
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
    if type(cap) is not int:
        raise ValueError(f"the extraction cap must be an int, got {cap!r}")
    from .zinbiel import ZinbElement

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
        return self.labels == other.labels and self.num * other.den == other.num * self.den

    def __hash__(self):
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
        labels = _composed_labels(self.labels, i, other.labels)
        S = Polynomial({((v, 1),): Fraction(1) for v in other.labels})
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
