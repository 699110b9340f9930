"""Spans around every public function of the program's layers, recorded from outside.

`Tracer.install` replaces each public function of `cli`, `weyl`, `metric`,
`stokes`, `models` and `dynamics` with a wrapper, in its own module and in
every module that bound it by `from .x import y` (for example
`metric.star_commutator` and `dynamics.spiked_matrix_element`), so internal
calls are spanned too. `remove` puts the originals back.

A span holds its function, parent span, request, start and end, and whether
an exception left it. Spans stay in memory as flat arrays and are written
out once, when the run ends. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "weyl", "metric", "stokes", "models", "dynamics")


def _terms(sym):
    """Number of polynomial terms of a WeylSymbol or an ExpPolySymbol."""
    if hasattr(sym, "items"):
        return len(sym.items())
    return sum(len(prefactor.items()) for prefactor, _ in sym.terms)


def _count_star(counts, a, result):
    counts["weyl.star.in_terms"] += _terms(a["f"]) * _terms(a["g"])


def _count_bch(counts, a, result):
    counts["metric.conjugate_by_exp.order_sum"] += result.order


def _count_spectrum(counts, a, result):
    counts["models.hermitian_spectrum.points"] += a["grid"].points


def _count_sweep(counts, a, result):
    counts["dynamics.transition_sweep.points"] += a["steps"] * len(a["xi_list"])


def _count_cn(counts, a, result):
    if a["T"] == 0:
        return
    steps = max(1, round(a["T"] / a["dt"]))
    counts["dynamics.crank_nicolson_propagate.steps"] += steps
    counts["dynamics.crank_nicolson_propagate.step_points"] += steps * a["grid"].points


# Work counts taken from a call's bound arguments and result.
_COUNTERS = {
    "weyl.star": _count_star,
    "metric.conjugate_by_exp": _count_bch,
    "models.hermitian_spectrum": _count_spectrum,
    "dynamics.transition_sweep": _count_sweep,
    "dynamics.crank_nicolson_propagate": _count_cn,
}


class Tracer:
    def __init__(self):
        self.names = []  # function index -> "layer.function"
        self.func = array("h")
        self.parent = array("q")
        self.request = array("l")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self.counts = Counter()
        self.current_request = -1
        self._stack = []
        self._patches = []

    def install(self):
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "pseudoherm" or name.startswith("pseudoherm.")
        }
        for layer in LAYERS:
            mod = modules[f"pseudoherm.{layer}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            self._patches.append((other, attr, fn))
                            setattr(other, attr, wrapper)

    def remove(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        if key not in self.names:  # install() may run once per traced pass
            self.names.append(key)
        index = self.names.index(key)
        counter = _COUNTERS.get(key)
        signature = inspect.signature(fn)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.func.append(index)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self.current_request)
            self.start.append(0)
            self.end.append(0)
            self.error.append(0)
            self._stack.append(sid)
            self.start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.error[sid] = 1
                raise
            finally:
                self.end[sid] = clock()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
            return result

        return wrapper

    def columns(self):
        return {
            "func": np.frombuffer(self.func, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "error": np.frombuffer(self.error, dtype=np.int8),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.columns())

    def summary(self, scale, outer=()):
        """Per-function totals: calls, self_ns and errors.

        `scale[r]` converts the times of request r to reference speed. For
        the functions named in `outer`, also outer_ns: the duration of the
        calls that no call of the same function encloses.
        """
        col = self.columns()
        func, parent = col["func"], col["parent"]
        duration = (col["end"] - col["start"]) * np.asarray(scale)[col["request"]]
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_ns = duration - child
        out = {}
        for index, key in enumerate(self.names):
            mask = func == index
            out[key] = {
                "calls": int(mask.sum()),
                "self_ns": float(self_ns[mask].sum()),
                "errors": int(col["error"][mask].sum()),
            }
            if key in outer:
                total = 0.0
                for sid in np.nonzero(mask)[0]:
                    p = parent[sid]
                    while p >= 0 and func[p] != index:
                        p = parent[p]
                    if p < 0:
                        total += duration[sid]
                out[key]["outer_ns"] = total
        return out
