"""Shapes and probes shared by several test modules."""

import sys

from shrubs import Shrub


def chain(n):
    """The path 1 - 2 - ... - n, rooted at 1."""
    return Shrub(range(1, n + 1), {v: v - 1 for v in range(1, n + 1)}, [(v, v + 1) for v in range(1, n)])


def stack_depth():
    """The number of frames on the stack, this call's own included."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth
