"""Exact-arithmetic library for the operad of shrubs.

Shrubs are height-labeled graphs generalizing forests of rooted trees.
This package validates them, composes them operadically, maps them into the
Zinbiel operad (sums of total orders) and the mould operad (factored
multivariate rational fractions), rebuilds a shrub from its fraction, and
implements the signed action of the symmetric group on one extra index.

``import shrubs`` loads no submodule.  Each name in ``__all__``, and each
submodule (``shrubs.core``, ``shrubs.mould``, ...), is imported on first
use and then cached in the package namespace, so a command that needs only
part of the library pays only for that part.
"""

import importlib

# public name -> defining submodule
_EXPORTS = {
    name: module
    for module, names in {
        "anticyclic": """CTree OrbitInvariant SignedShrub act all_ctrees b0 b0_inverse ctree_act
            forest_act orbit orbit_invariant ram_count_preserved""",
        "core": """RamClass Shrub count_isomorphism_classes enumerate_shrubs_bruteforce label_key
            trivial_shrub""",
        "errors": """CapExceeded DegreeCapExceeded ForbiddenPattern HeightJump LabelClash
            MalformedWord NotAForest NotALeaf NotCorrelated NotInImage NotInZinbielImage
            ShrubError UnknownLabel Unsupported ZeroDenominator""",
        "mould": """FactoredFraction LinearForm MouldElement Polynomial RationalFunction
            deformed_generators embed_order embed_zinb equals expand format_fraction
            fraction_of_shrub kappa mould_compose parse_fraction zinb_extract""",
        "operad": "GenWord compose decompose disjoint_union evaluate graft graft_generator pair_generator",
        "reconstruction": "fraction_components reconstruct recover_heights",
        "series_parallel": "count_series_parallel series_parallel_posets",
        "zinbiel": "TotalOrder ZinbElement compatible_orders gamma zinb_compose",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
