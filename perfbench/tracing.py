"""Spans around the calls into each layer of ``shrubs``, installed from outside.

A :class:`Tracer` replaces each public boundary function by a wrapper, in
every loaded module that holds a reference to it (``from .mould import
kappa`` binds the name again in ``shrubs.reconstruction`` and
``shrubs.anticyclic``, so rebinding only ``shrubs.mould.kappa`` would miss
those calls).  A wrapper records one span -- name, start, end and the span
that caused it -- while the tracer is ``active``, and costs one extra call
otherwise; it keeps the wrapped function's ``cache_info``.  Spans stay in
memory until :meth:`Tracer.write_spans`.

A boundary or cache that a later version of the library removes is skipped,
never an error: :meth:`Tracer.install` returns the names it could wrap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric prefix -> (module, attribute path)
BOUNDARIES = (
    ("core.enumerate_shrubs_bruteforce", "shrubs.core", "enumerate_shrubs_bruteforce"),
    ("core.Shrub", "shrubs.core", "Shrub.__init__"),
    ("core.Shrub.canonical_form", "shrubs.core", "Shrub.canonical_form"),
    ("operad.compose", "shrubs.operad", "compose"),
    ("operad.graft", "shrubs.operad", "graft"),
    ("operad.disjoint_union", "shrubs.operad", "disjoint_union"),
    ("operad.decompose", "shrubs.operad", "decompose"),
    ("operad.evaluate", "shrubs.operad", "evaluate"),
    ("zinbiel.gamma", "shrubs.zinbiel", "gamma"),
    ("zinbiel.compatible_orders", "shrubs.zinbiel", "compatible_orders"),
    ("mould.fraction_of_shrub", "shrubs.mould", "fraction_of_shrub"),
    ("mould.format_fraction", "shrubs.mould", "format_fraction"),
    ("mould.parse_fraction", "shrubs.mould", "parse_fraction"),
    ("mould.kappa", "shrubs.mould", "kappa"),
    ("mould.zinb_extract", "shrubs.mould", "zinb_extract"),
    ("reconstruction.reconstruct", "shrubs.reconstruction", "reconstruct"),
    ("reconstruction.fraction_components", "shrubs.reconstruction", "fraction_components"),
    ("anticyclic.orbit", "shrubs.anticyclic", "orbit"),
    ("anticyclic.act", "shrubs.anticyclic", "act"),
    ("anticyclic.orbit_invariant", "shrubs.anticyclic", "orbit_invariant"),
)

# Timed by cli_child.py in the child processes of the cli workload.
CLI_BOUNDARIES = ("cli.import", "cli.main")

# metric -> (module, candidate attributes exposing ``cache_info``)
CACHES = (
    ("mould.kappa.cache_hit_ratio", "shrubs.mould", ("kappa",)),
    (
        "reconstruction.reconstruct.cache_hit_ratio",
        "shrubs.reconstruction",
        ("reconstruct", "_reconstruct_checked"),
    ),
)

COUNTERS = (
    "mould.zinb_extract.orders_out",
    "mould.zinb_extract.distinct_first",
    "reconstruction.reconstruct.rejected",
)


def resolve(module_name, path):
    """(owner, attribute, value) for ``module.path``, or ``None`` if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = vars(owner).get(attr)
    return None if value is None else (owner, attr, value)


def _cache_infos():
    """(metric, ``cache_info``) for every cache the library still has."""
    out = []
    for metric, module_name, candidates in CACHES:
        module = sys.modules.get(module_name)
        for attr in candidates:
            info = getattr(getattr(module, attr, None), "cache_info", None)
            if info is not None:
                out.append((metric, info))
                break
    return out


class Tracer:
    """Span recorder for the boundaries of one process."""

    def __init__(self):
        self.active = False
        self.names = []  # span name ids -> names
        self.spans = []  # (name id, start ns, end ns, parent index or -1)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._restore = []
        self.caches = {}  # metric -> [hits, misses] inside measured windows
        self._window = {}

    # -- installation ------------------------------------------------------

    def wrap(self, name, fn, on_return=None, on_raise=None):
        """``fn`` recording a span named ``name`` per call while active."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()
                if on_raise is not None:
                    on_raise(exc)
                raise
            spans[index] = (name_id, start, clock(), parent)
            stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _on_extract(self, element):
        terms = getattr(element, "terms", None)
        if terms is None:
            return
        orders = [order for order, _ in terms()]
        self.counters["mould.zinb_extract.orders_out"] += len(orders)
        self.counters["mould.zinb_extract.distinct_first"] += len({o[0] for o in orders if o})

    def _on_reconstruct_raise(self, exc):
        if type(exc).__name__ == "NotInImage":
            self.counters["reconstruction.reconstruct.rejected"] += 1

    def install(self) -> list:
        """Wrap every boundary still present; return the wrapped names."""
        hooks = {
            "mould.zinb_extract": {"on_return": self._on_extract},
            "reconstruction.reconstruct": {"on_raise": self._on_reconstruct_raise},
        }
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "shrubs" or name.startswith("shrubs."))
        ]
        for metric, _ in _cache_infos():
            self.caches.setdefault(metric, [0, 0])
        wrapped = []
        for name, module_name, path in BOUNDARIES:
            found = resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self.wrap(name, original, **hooks.get(name, {}))
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, key, original))
                            setattr(module, key, wrapper)
            wrapped.append(name)
        return wrapped

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- measurement -------------------------------------------------------

    def resume(self):
        """Open a measured window: record spans and cache lookups."""
        self._window = {metric: info() for metric, info in _cache_infos()}
        self.active = True

    def pause(self):
        """Close the window opened by :meth:`resume`."""
        self.active = False
        for metric, info in _cache_infos():
            if metric in self._window:
                now, then = info(), self._window[metric]
                row = self.caches.setdefault(metric, [0, 0])
                row[0] += now.hits - then.hits
                row[1] += now.misses - then.misses

    def record(self, name, start, end):
        """Add a top-level span timed by the caller."""
        if name not in self.names:
            self.names.append(name)
        self.spans.append((self.names.index(name), start, end, -1))

    def export(self) -> dict:
        """Everything a child process hands back to its parent's tracer."""
        return {
            "names": self.names,
            "spans": self.spans,
            "counters": self.counters,
            "caches": self.caches,
        }

    def absorb(self, child: dict):
        """Merge a child process's :meth:`export` into this tracer."""
        offset = len(self.spans)
        ids = []
        for name in child["names"]:
            if name not in self.names:
                self.names.append(name)
            ids.append(self.names.index(name))
        for name_id, start, end, parent in child["spans"]:
            self.spans.append((ids[name_id], start, end, parent + offset if parent >= 0 else -1))
        for key, value in child["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        for metric, (hits, misses) in child["caches"].items():
            row = self.caches.setdefault(metric, [0, 0])
            row[0] += hits
            row[1] += misses

    def summary(self) -> dict:
        """name -> [calls, busy seconds, self seconds] over all spans.

        Self time is a span's duration minus the durations of the spans it
        caused; spans of one process nest, so those never overlap.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (name_id, start, end, _), inner in zip(self.spans, child_ns):
            row = out.setdefault(self.names[name_id], [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return {name: [c, busy / 1e9, own / 1e9] for name, (c, busy, own) in out.items()}

    def write_spans(self, path):
        """Write the spans as tab-separated ``id name start_ns end_ns parent``."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for index, (name_id, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index}\t{self.names[name_id]}\t{start}\t{end}\t{parent}\n")
