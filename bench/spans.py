"""Per-module spans recorded from outside the program.

The program has no tracing of its own, so the benchmark wraps every
public function of each layer module and installs the wrapper under
every module-level name in the package that refers to the function.
``design_matrix``, for example, is imported by name into
``series_regression``, ``gamma_solver`` and ``inference``; calls through
each of those names are timed. Calls into private helpers and methods
stay inside the span of the public function that made them.

Each span is added to running sums when it closes. A span's self time
is its duration minus the durations of its direct children; calls are
sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import scipy.optimize

PACKAGE = "shadowpse"
LAYERS = (
    "data_model", "simulation", "sieve_basis", "series_regression",
    "gamma_solver", "estimator", "inference", "baselines", "cli",
)


def patch_everywhere(original, replacement) -> list:
    """Point every module-level name in the package bound to `original` at
    `replacement`. Returns the (module, name, value) triples that undo it.
    """
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)
    return undo


def unpatch(undo: list) -> None:
    for mod, attr, value in reversed(undo):
        setattr(mod, attr, value)


def public_functions() -> dict:
    """{"layer.func": function} for every public function of each layer."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == mod.__name__):
                out[f"{layer}.{attr}"] = value
    return out


def _rows(arg) -> int:
    shape = getattr(arg, "shape", None)
    return int(shape[0]) if shape else len(arg)


# Extra exact counts taken from a call's arguments or result.
_COUNTERS = {
    "sieve_basis.design_matrix": lambda args, kw, res: {
        "rows": _rows(kw["points"] if "points" in kw else args[1])},
    "series_regression.orthonormal_span": lambda args, kw, res: {
        "rows": _rows(kw["matrix"] if "matrix" in kw else args[0])},
    "gamma_solver.fit_gamma": lambda args, kw, res: {
        "starts": res[1].n_starts, "useful_nfev": res[1].n_iter},
}


class Tracer:
    """Wraps the layer functions while installed and sums, per function,
    its calls, seconds, self seconds and counts as each span closes."""

    def __init__(self):
        self.targets = public_functions()
        self.sums: dict = defaultdict(float)
        self.trf_nfev = 0
        self._stack: list = []  # child seconds per open span
        self._undo: list = []

    def install(self) -> None:
        for name, fn in self.targets.items():
            self._undo += patch_everywhere(fn, self._wrap(name, fn))
        lsq = scipy.optimize.least_squares
        self._undo.append((scipy.optimize, "least_squares", lsq))
        scipy.optimize.least_squares = self._count_nfev(lsq)

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def _count_nfev(self, lsq):
        @functools.wraps(lsq)
        def wrapper(*args, **kwargs):
            res = lsq(*args, **kwargs)
            self.trf_nfev += int(res.nfev)
            return res
        return wrapper

    def _wrap(self, name: str, fn):
        sums, stack = self.sums, self._stack
        counter = _COUNTERS.get(name)
        self_key = name.split(".", 1)[0] + ".self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
                if counter is not None:
                    for key, value in counter(args, kwargs, res).items():
                        sums[f"{name}_{key}"] += value
                return res
            finally:
                took = time.perf_counter() - start
                stack.pop()
                sums[f"{name}_calls"] += 1
                sums[f"{name}_s"] += took
                sums[self_key] += took - frame[0]
                if stack:
                    stack[-1][0] += took
        return wrapper

    def totals(self) -> dict:
        """Per function calls, seconds and counts, per layer self seconds,
        plus the least-squares nfev."""
        return {**self.sums, "gamma_solver.trf_nfev": self.trf_nfev}
