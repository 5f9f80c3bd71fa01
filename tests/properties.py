"""The registered properties at the sizes the test suite runs them.

Each property runs with seed 0 at the largest sizes and trial counts of the
test copies it replaced.  Several tests name the same property: the first
to ask runs it and the rest reuse its result, so each runs once a session.
"""

import functools

from shrubs.checks import PROPERTIES

# name -> arguments of its check; the others run at max_n=5
SIZES = {
    "operad/units": {"max_n": 4},
    "operad/equivariance": {"max_n": 3},
    "operad/word-roundtrip": {"max_n": 6},
    "zinbiel/morphism": {"trials": 60},
    "zinbiel/forest-linear-extensions": {"max_n": 4},
    "mould/squarefree": {"max_n": 6},
    "mould/embedding": {"max_n": 3},
    "reconstruction/bruteforce-oracle": {"max_n": 4},
    "reconstruction/larger-random": {"max_n": 10},
    "anticyclic/relabeling": {"max_n": 4},
    "anticyclic/group-laws": {"trials": 500},
}


@functools.cache
def run(name):
    return PROPERTIES[name].check(**{"max_n": 5, "seed": 0, **SIZES.get(name, {})})


def holds(*names):
    for name in names:
        ok, detail = run(name)
        assert ok, f"{name}: {detail}"
