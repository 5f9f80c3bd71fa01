"""Shapes, probes and checks shared by several test modules."""

import sys

from shrubs import LinearForm, Shrub, deformed_generators

# the published 6-vertex fraction
FIG2_TEXT = (
    "(uB+uE+uF+uG)(uF+uG)/((uA)(uA+uB+uC+uE+uF+uG)(uA+uB+uE+uF+uG)"
    "(uB)(uE)(uE+uF+uG)(uF)(uG))"
)


def form(*pairs):
    """The linear form with these ``(label, coefficient)`` pairs."""
    return LinearForm(tuple(pairs))


def chain(n):
    """The path 1 - 2 - ... - n, rooted at 1."""
    return Shrub(range(1, n + 1), {v: v - 1 for v in range(1, n + 1)}, [(v, v + 1) for v in range(1, n)])


def stack_depth():
    """The number of frames on the stack, this call's own included."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def assert_deformed_relations(coeffs):
    """The deformed generators for ``coeffs``: ``C`` is symmetric and
    associative, and ``D`` satisfies the graft relation."""
    C, D = deformed_generators(coeffs)
    assert C == C.relabel({1: 2, 2: 1})
    left = C.relabel({1: "*", 2: 3}).compose_at("*", C)
    right = C.relabel({2: "*"}).compose_at("*", C.relabel({1: 2, 2: 3}))
    assert left == right
    a = D.relabel({1: "*", 2: 1}).compose_at("*", D.relabel({1: 3, 2: 2}))
    b = D.relabel({1: "*"}).compose_at("*", D.relabel({1: 3, 2: 1}))
    c = D.relabel({1: 3, 2: "*"}).compose_at("*", C)
    assert a == b and b == c
