"""Span tracing of the package's public functions, and the per-layer metrics.

The tracer replaces a function at every module attribute of the package
that is bound to it, because callers reach most functions through a name
imported into their own module (``harness`` imports ``generate``,
``eigenlearning`` imports ``hyp2f1``, ``regression`` imports
``cho_factor``).  Patching only the defining module would miss those calls
and report zero.  A function that can no longer be found under its listed
name raises, so a rename or a move cannot go unnoticed.

Spans are kept in memory as (id, name, start, end, parent span, call id)
and written out when the run ends.  A span's self time is its duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np


def _hyp2f1_branch(counters, args, kwargs, result):
    # classified against specfun's own cuts; z == 0 returns 1.0 on no branch
    z = (args[0] if args else kwargs["args"]).z
    if z == 0.0:
        return
    specfun = sys.modules["powerlaw_ridge.specfun"]
    if z > specfun._SERIES_CUT:
        counters["specfun.hyp2f1.branch.series"] += 1
    elif z > specfun._PFAFF_CUT:
        counters["specfun.hyp2f1.branch.pfaff"] += 1
    else:
        counters["specfun.hyp2f1.branch.large"] += 1


def _generate_bytes(counters, args, kwargs, result):
    # X (p x n) plus y (n), beta_star (p) and the eigenvalues (p), float64
    model = args[0] if args else kwargs["model"]
    counters["regression.generate.bytes"] += 8 * (model.p * model.n + model.n + 2 * model.p)


def _fit_ridge_gflop(counters, args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    p, n = data.X.shape
    m, other = (n, p) if p > n else (p, n)
    # Gram or covariance product, Cholesky, two triangular solves, the
    # coefficient matvec and the training residual
    flop = 2.0 * m * m * other + m**3 / 3.0 + 2.0 * m * m + 4.0 * p * n
    counters["regression.fit_ridge.gflop"] += flop / 1e9


def _export_bytes(counters, args, kwargs, result):
    fmt = args[1] if len(args) > 1 else kwargs["fmt"]
    path = Path(args[2] if len(args) > 2 else kwargs["path"])
    files = [path]
    if fmt == "csv":
        files.append(sys.modules["powerlaw_ridge.harness"].aggregate_path(path))
    counters["harness.export.bytes"] += sum(f.stat().st_size for f in files)


# (span name, module, attribute, counter); the module is where the function
# is defined or, for scipy's Cholesky routines, where the package imports it
WRAPPED = (
    ("specfun.hyp2f1", "specfun", "hyp2f1", _hyp2f1_branch),
    ("eigenlearning.select_regularizer", "eigenlearning", "select_regularizer", None),
    ("eigenlearning.check_train_error_monotone", "eigenlearning", "check_train_error_monotone", None),
    ("eigenlearning.k_of_r", "eigenlearning", "k_of_r", None),
    ("eigenlearning.integral_i", "eigenlearning", "integral_i", None),
    ("eigenlearning.integral_j", "eigenlearning", "integral_j", None),
    ("regression.generate", "regression", "generate", _generate_bytes),
    ("regression.fit_ridge", "regression", "fit_ridge", _fit_ridge_gflop),
    ("regression.analytic_test_mse", "regression", "analytic_test_mse", None),
    ("regression.cho_factor", "regression", "cho_factor", None),
    ("regression.cho_solve", "regression", "cho_solve", None),
    ("rmt.positivity_check", "rmt", "positivity_check", None),
    ("rmt.scaled_gram_eigenvalues", "rmt", "scaled_gram_eigenvalues", None),
    ("rmt.esd_cdf", "rmt", "esd_cdf", None),
    ("rmt.limit_cdf", "rmt", "limit_cdf", None),
    ("rmt.self_consistent_residual", "rmt", "self_consistent_residual", None),
    ("harness.run_tradeoff_sweep", "harness", "run_tradeoff_sweep", None),
    ("harness.run_norm_growth_sweep", "harness", "run_norm_growth_sweep", None),
    ("harness.run_diagnostics", "harness", "run_diagnostics", None),
    ("harness.export", "harness", "export", _export_bytes),
    ("cli.main", "cli", "main", None),
)
SPAN_NAMES = tuple(name for name, *_ in WRAPPED)
HYP2F1_BRANCHES = tuple(
    f"specfun.hyp2f1.branch.{b}" for b in ("series", "pfaff", "large")
)


class TraceError(RuntimeError):
    """A listed function could not be found, so the trace would be wrong."""


class Tracer:
    """Installs span-recording wrappers for the duration of a ``with`` block.

    Spans are recorded only while ``active`` is true, so the benchmark can
    run its own output checks inside the block without tracing them.  Each
    span is six doubles in one flat array (id, name index, start, end,
    parent id, call id), appended when the span ends; ids count span starts.
    A traced theory run makes about a million spans.
    """

    FIELDS = 6

    def __init__(self) -> None:
        self.spans = array("d")
        self.counters: defaultdict = defaultdict(int)
        self.call_id = -1
        self.active = False
        self._next_id = 0
        self._stack: list[int] = [-1]
        self._patches: list = []

    def __enter__(self) -> "Tracer":
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "powerlaw_ridge" or name.startswith("powerlaw_ridge.")
        ]
        try:
            for index, (name, module, attr, counter) in enumerate(WRAPPED):
                home = importlib.import_module(f"powerlaw_ridge.{module}")
                original = getattr(home, attr, None)
                if not callable(original):
                    raise TraceError(f"powerlaw_ridge.{module}.{attr} not found ({name})")
                wrapper = self._wrap(index, original, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patches.append((mod, key, original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def _wrap(self, index: int, fn, counter):
        record, stack, clock = self.spans.extend, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            me = self._next_id
            self._next_id = me + 1
            parent = stack[-1]
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((me, index, start, end, parent, self.call_id))
            if counter is not None:
                counter(self.counters, args, kwargs, result)
            return result

        return traced

    def table(self) -> np.ndarray:
        """The spans as an (n, 6) array, in the order they ended."""
        return np.frombuffer(self.spans, dtype=float).reshape(-1, self.FIELDS)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name."""
        spans = self.table()
        ids, names, parents = (spans[:, c].astype(int) for c in (0, 1, 4))
        duration = spans[:, 3] - spans[:, 2]
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=duration[nested], minlength=self._next_id)
        own = duration - child[ids]
        width = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=duration, minlength=width)
        self_s = np.bincount(names, weights=own, minlength=width)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(SPAN_NAMES)
        }

    def write_spans(self, path: Path) -> None:
        """Write the span table and the span names as a compressed .npz file."""
        np.savez_compressed(
            path,
            spans=self.table(),
            columns=np.array(["id", "name", "start_s", "end_s", "parent", "call_id"]),
            names=np.array(SPAN_NAMES),
        )


def per_layer_metrics(tracer: Tracer, probes: dict[str, float]) -> dict[str, float]:
    """Per-layer values by metric name: from the spans and counters, plus probes.

    BENCHMARK.json chooses which of them a traced run reports as its
    metrics; the rest are recorded alongside.  ``probes`` carries the three values that do not come from spans:
    specfun.hyp2f1.max_rel_err, regression.blas_scaling and
    trace.overhead_frac.
    """
    stats = tracer.layer_stats()
    values: dict[str, float] = {}
    for name, entry in stats.items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
    for name in HYP2F1_BRANCHES + (
        "regression.generate.bytes",
        "regression.fit_ridge.gflop",
        "harness.export.bytes",
    ):
        values[name] = tracer.counters[name]
    solves = stats["eigenlearning.select_regularizer"]["calls"]
    values["eigenlearning.hyp2f1_per_solve"] = (
        stats["specfun.hyp2f1"]["calls"] / solves if solves else 0.0
    )
    fit_s = stats["regression.fit_ridge"]["total_s"]
    values["regression.fit_ridge.gflop_per_s"] = (
        tracer.counters["regression.fit_ridge.gflop"] / fit_s if fit_s else 0.0
    )
    values.update(probes)
    return values
