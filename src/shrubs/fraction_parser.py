"""Reading fraction text: the parser behind :func:`shrubs.mould.parse_fraction`.

``mould`` imports this module on the first parse, so that a process that
only writes fraction text, such as ``shrubs fraction``, never loads it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import label_key
from .errors import ZeroDenominator
from .mould import _LABEL_TEXT, FactoredFraction, LinearForm


def parse(text: str) -> FactoredFraction:
    """:func:`shrubs.mould.parse_fraction`: the canonical path, else the
    general parser."""
    f = _parse_canonical(text.strip())
    return _parse_general(text) if f is None else f


_TERM_RE = re.compile(rf"^(?:(\d+)\*)?u({_LABEL_TEXT})$")
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


_FACTOR_TEXT = rf"\(u{_LABEL_TEXT}(?:\+u{_LABEL_TEXT})*\)"
_CANONICAL_RE = re.compile(rf"(?:1|(?:{_FACTOR_TEXT})+)(?:/(?:{_FACTOR_TEXT}|\((?:{_FACTOR_TEXT}){{2,}}\)))?")


def _parse_canonical(text):
    """The fraction of canonical shrub text (see :func:`shrubs.mould.parse_fraction`),
    or ``None`` when the text needs the general parser: another shape, a
    label repeated within a factor (a coefficient 2) or a factor on both
    sides (which cancels)."""
    if not _CANONICAL_RE.fullmatch(text):
        return None
    num_text, _, den_text = text.partition("/")
    if den_text.startswith("(("):
        den_text = den_text[1:-1]
    num = [factor.split("+u") for factor in num_text[2:-1].split(")(u")] if num_text != "1" else []
    den = [factor.split("+u") for factor in den_text[2:-1].split(")(u")] if den_text else []
    try:
        read = {t: int(t) if t.isdigit() else t for t in set().union(*num, *den)}
    except ValueError:  # more digits than int() reads: the general parser words the error
        return None
    values = set(read.values())
    ordered = sorted(values) if all(type(v) is int for v in values) else sorted(values, key=label_key)
    rank = {v: i for i, v in enumerate(ordered)}
    bit = {t: 1 << rank[v] for t, v in read.items()}
    masks = []
    for side in (num, den):
        out = []
        for form in side:
            m = 0
            for t in form:
                m |= bit[t]
            if m.bit_count() < len(form):
                return None
            out.append(m)
        masks.append(tuple(sorted(out)))
    num, den = masks
    if not set(num).isdisjoint(den):
        return None
    return FactoredFraction._of_masks(tuple(ordered), num, den)


def _parse_general(text):
    """Any spelling of the grammar, normalized and reduced."""
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
            if content != 1:
                scalar = scalar * content if in_num else scalar / content
            target.append(form)
    return FactoredFraction(sign, scalar, num, den)
