"""Spans around the calls into each ``qseal`` module, installed from outside.

The tracer replaces module attributes (and the bindings other modules made
with ``from .x import y``), the validating constructors' ``__post_init__``
and ``CsvTable.render`` with wrappers that time each call.  A span's self
time is its duration minus the durations of the spans directly inside it.
Spans are aggregated per name as they close; counters are computed from the
arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

import numpy as np

# Real floating-point operations computed from argument shapes: Golub-Van
# Loan counts times 4 for complex arithmetic (Hermitian eigendecomposition
# with vectors 9n^3, singular values only 8n^3/3), 8n^3 for a complex matrix
# product, 6 per complex multiply and 2 per complex addition.
_GFLOP = 1e-9


def _square_dim(m) -> int:
    return int(np.shape(m)[0])


def _count_sqrt(counters, result, m):
    n = _square_dim(m)
    counters["linalg.computed_gflop"] += (4 * 9 * n ** 3 + 8 * n ** 3) * _GFLOP
    counters["linalg.max_dim"] = max(counters["linalg.max_dim"], n)


def _count_trace_norm(counters, result, m):
    n = _square_dim(m)
    counters["linalg.computed_gflop"] += 4 * 8 * n ** 3 / 3 * _GFLOP
    counters["linalg.max_dim"] = max(counters["linalg.max_dim"], n)


def _count_tensor(counters, result, a, b, max_dim=None):
    rows, cols = result.shape
    counters["linalg.computed_gflop"] += 6 * rows * cols * _GFLOP
    counters["linalg.max_dim"] = max(counters["linalg.max_dim"], rows, cols)


def _count_partial_trace(counters, result, m, dims, traced):
    dim_a, dim_b = int(dims[0]), int(dims[1])
    kept, summed = (dim_b, dim_a) if traced == "A" else (dim_a, dim_b)
    counters["linalg.computed_gflop"] += 2 * summed * kept ** 2 * _GFLOP
    counters["linalg.max_dim"] = max(counters["linalg.max_dim"], dim_a * dim_b)


def _count_gentle(counters, report, *args, **kwargs):
    if not (report.satisfied_classic and report.satisfied_unknown):
        counters["gentle.violations"] += 1


def _count_seal(counters, report, scheme):
    counters["seal.bound_violations"] += sum(
        row.p_dist_numeric > row.p_dist_upper or row.p_nfp_numeric > row.p_nfp_upper
        for row in report.per_message)


def _count_trials(counters, result, state, trials, rng):
    counters["naive.trials"] += int(trials)


def _count_render(counters, text, table):
    counters["cli.rows"] += len(table.rows)
    counters["cli.bytes"] += len(text.encode("utf-8"))


# (owner inside qseal, attribute, span name, counter); the owner is a module
# or a class.  ``cli.main`` is the root span of every task.
SPANS = (
    ("linalg", "matrix_sqrt_psd", "linalg.matrix_sqrt_psd", _count_sqrt),
    ("linalg", "trace_norm", "linalg.trace_norm", _count_trace_norm),
    ("linalg", "tensor_product", "linalg.tensor_product", _count_tensor),
    ("linalg", "partial_trace", "linalg.partial_trace", _count_partial_trace),
    ("states.Povm", "__post_init__", "states.Povm", None),
    ("states.DensityMatrix", "__post_init__", "states.DensityMatrix", None),
    ("states.PureState", "__post_init__", "states.PureState", None),
    ("states", "coarse_grain", "states.coarse_grain", None),
    ("states", "helstrom_probability", "states.helstrom_probability", None),
    ("states", "densify", "states.densify", None),
    ("seal", "densify", "states.densify", None),
    ("gentle", "random_instance", "gentle.random_instance", None),
    ("gentle", "verify_instance", "gentle.verify_instance", _count_gentle),
    ("seal", "load_scheme", "seal.load_scheme", None),
    ("seal.SealScheme", "__post_init__", "seal.SealScheme", None),
    ("seal", "promise_probability", "seal.promise_probability", None),
    ("seal", "coarse_cheat_state", "seal.coarse_cheat_state", None),
    ("seal", "p_dist_numeric", "seal.p_dist_numeric", None),
    ("seal", "p_nfp_numeric", "seal.p_nfp_numeric", None),
    ("seal", "evaluate_scheme", "seal.evaluate_scheme", _count_seal),
    ("naive", "majority_projector_povm", "naive.majority_projector_povm", None),
    ("naive", "states_nondisturbing", "naive.states_nondisturbing", None),
    ("naive", "dense_state", "naive.dense_state", None),
    ("naive", "simulate_qubitwise_attack", "naive.simulate_qubitwise_attack",
     _count_trials),
    ("rng", "derive_rng", "rng.derive_rng", None),
    ("cli", "derive_rng", "rng.derive_rng", None),
    ("cli.CsvTable", "render", "cli.CsvTable.render", _count_render),
    ("cli", "main", "cli.main", None),
)

COUNTERS = {
    "linalg.computed_gflop": "GFLOP",
    "linalg.max_dim": "count",
    "gentle.violations": "count",
    "seal.bound_violations": "count",
    "naive.trials": "count",
    "cli.rows": "count",
    "cli.bytes": "B",
}

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SPANS))


def _resolve(path: str):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"qseal.{module}")
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Per-name span aggregates and counters for one traced pass."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open = []  # child time accumulated by each open span
        self._restore = []

    def _call(self, name, fn, args, kwargs):
        self._open.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            children = self._open.pop()
            if self._open:
                self._open[-1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - children

    def _wrap(self, owner, attr, name, count):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self._call(name, original, args, kwargs)
            if count is not None:
                count(self.counters, result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        for path, attr, name, count in SPANS:
            self._wrap(_resolve(path), attr, name, count)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name, unit in COUNTERS.items():
            out[name] = (self.counters[name], unit)
        return out

    def layer_shares(self) -> dict:
        """Self time of each module as a share of the traced task time."""
        total = sum(self.self_s.values())
        shares = {}
        for name, value in self.self_s.items():
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + value / total
        return shares
