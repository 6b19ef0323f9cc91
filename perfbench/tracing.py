"""Per-module tracing from outside the package.

``install`` replaces each traced public function of ``opertail`` with a
wrapper, on the name that callers actually look up: ``cli`` imports
``exponent_function`` by name and ``regvar`` imports ``hill_log_sum`` by
name, so those are wrapped where they were imported too; methods are
wrapped on their class. Every wrapped call is timed; its self time is its
duration minus the time of the wrapped calls nested in it.

Hot functions (the tail-form integrand, the driving function ``g`` and
``radial_cdf``, called 1e4 to 1e6 times per job) keep aggregate counts
and self time only. Every other call also records a span: id, name,
start, end, parent span id and job name, kept in memory and written out
when the pass ends.

The tracer keeps one call stack. Jobs run one at a time, and the CLI's
thread pool (``--jobs`` is never passed, so one worker) runs while the
calling thread waits, so calls nest properly on that stack.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import Counter
from pathlib import Path

import numpy as np

# Per-layer metric -> unit. Every name is reported by a traced run.
LAYER_METRICS = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.rows_written": "count",
    "verify.run_suite.calls": "count",
    "verify.run_suite.self_s": "s",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "verify.suites_raised": "count",
    "exponent.intensity_measure.calls": "count",
    "exponent.intensity_measure.self_s": "s",
    "exponent.intensity_measure.divergent": "count",
    "exponent.exponent_function.calls": "count",
    "exponent.exponent_function.self_s": "s",
    "exponent.exponent_mixed_derivative_defect.calls": "count",
    "exponent.exponent_mixed_derivative_defect.self_s": "s",
    "exponent.orthant_convergence.calls": "count",
    "exponent.orthant_convergence.self_s": "s",
    "copulatail.form_call.calls": "count",
    "copulatail.form_call.self_s": "s",
    "copulatail.copula_density.calls": "count",
    "copulatail.copula_density.self_s": "s",
    "copulatail.empirical_tail_density.calls": "count",
    "copulatail.empirical_tail_density.self_s": "s",
    "liouville.joint_density.calls": "count",
    "liouville.joint_density.self_s": "s",
    "liouville.limiting_density.calls": "count",
    "liouville.limiting_density.self_s": "s",
    "liouville.g.calls": "count",
    "liouville.g.self_s": "s",
    "liouville.radial_cdf.calls": "count",
    "liouville.radial_cdf.self_s": "s",
    "liouville.radial_quantile.calls": "count",
    "liouville.radial_quantile.points": "count",
    "liouville.radial_quantile.self_s": "s",
    "liouville.weyl_integral.calls": "count",
    "liouville.weyl_integral.self_s": "s",
    "liouville.marginal_density.calls": "count",
    "liouville.marginal_density.self_s": "s",
    "liouville.marginal_cdf.calls": "count",
    "liouville.marginal_cdf.self_s": "s",
    "liouville.marginal_quantile.calls": "count",
    "liouville.marginal_quantile.self_s": "s",
    "liouville.marginal_quantile.cache_hit_ratio": "ratio",
    "liouville.sample.calls": "count",
    "liouville.sample.rows": "count",
    "liouville.sample.self_s": "s",
    "kernels.count_in_region.calls": "count",
    "kernels.count_in_region.rows": "count",
    "kernels.count_in_region.self_s": "s",
    "kernels.hill_log_sum.calls": "count",
    "kernels.hill_log_sum.self_s": "s",
    "regvar.hill_estimate.calls": "count",
    "regvar.hill_estimate.self_s": "s",
    # time inside a job but outside every wrapped call
    "bench.job.self_s": "s",
}

JOB = "bench.job"


class Tracer:
    """Call stack, aggregate counters and finished spans of one pass."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.spans = []
        self.job = None
        self._stack = []  # open frames: [name, span id or None, start, child time]
        self._next_id = 0

    def enter(self, name: str, hot: bool = False) -> None:
        span_id = None
        if not hot:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([name, span_id, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, span_id, start, child = self._stack.pop()
        elapsed = end - start
        self.calls[name] += 1
        self.self_s[name] += elapsed - child
        if self._stack:
            self._stack[-1][3] += elapsed
        if span_id is not None:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            self.spans.append((span_id, name, start, end, parent, self.job))

    def run_job(self, name: str, fn):
        """Run one job as the root span that all its spans share."""
        self.job = name
        self.enter(JOB)
        try:
            return fn()
        finally:
            self.exit()
            self.job = None

    def self_total(self) -> float:
        """Sum of every self time, the jobs' own included."""
        return float(sum(self.self_s.values()))

    def metrics(self) -> dict:
        out = {}
        for name in LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[base]
            elif field == "self_s":
                out[name] = self.self_s[base]
            else:
                out[name] = self.counts[name]
        mq = "liouville.marginal_quantile"
        out[mq + ".cache_hit_ratio"] = (self.counts[mq + ".hits"] / self.calls[mq]
                                        if self.calls[mq] else 0.0)
        out["verify.suites_raised"] = self.counts["verify.run_suite.raised"]
        return out

    def write_spans(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "job")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def _wrap(tracer: Tracer, name: str, fn, hot: bool = False, count=None):
    """``fn`` timed under ``name``; ``count(counts, args, result)`` runs
    after each successful call, and raised calls count as ``<name>.raised``."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name, hot)
        try:
            out = fn(*args, **kwargs)
        except Exception:
            tracer.counts[name + ".raised"] += 1
            raise
        finally:
            tracer.exit()
        if count is not None:
            count(tracer.counts, args, out)
        return out

    return traced


def _count_checks(counts, args, checks):
    counts["verify.checks"] += len(checks)
    counts["verify.checks_failed"] += sum(not c.passed for c in checks)


def _count_divergent(counts, args, result):
    counts["exponent.intensity_measure.divergent"] += result.verdict == "divergent"


def _count_quantile_points(counts, args, result):
    counts["liouville.radial_quantile.points"] += int(np.size(args[1]))


def _count_sample_rows(counts, args, result):
    counts["liouville.sample.rows"] += int(result.shape[0])


def _count_region_rows(counts, args, result):
    counts["kernels.count_in_region.rows"] += int(np.shape(args[0])[0])


class _CacheHits:
    """Hits of the per-instance quantile cache during each call; every call
    goes through the wrapper, so the growth since the last call is this one's."""

    def __init__(self):
        self._seen = weakref.WeakKeyDictionary()

    def __call__(self, counts, args, result):
        params = args[0]
        cached = getattr(params, "_marginal_quantile_cached", None)
        if cached is None:
            return
        hits = cached.cache_info().hits
        counts["liouville.marginal_quantile.hits"] += hits - self._seen.get(params, 0)
        self._seen[params] = hits


def install(tracer: Tracer, opertail) -> None:
    """Wrap every traced function of an imported ``opertail`` package."""
    cli, copulatail, exponent = opertail.cli, opertail.copulatail, opertail.exponent
    kernels, liouville, regvar, verify = (opertail.kernels, opertail.liouville,
                                          opertail.regvar, opertail.verify)

    def wrap_attr(owners, attr, name, hot=False, count=None):
        wrapped = _wrap(tracer, name, getattr(owners[0], attr), hot, count)
        for owner in owners:
            setattr(owner, attr, wrapped)

    wrap_attr([cli], "main", "cli.main")
    wrap_attr([verify], "run_suite", "verify.run_suite", count=_count_checks)
    wrap_attr([exponent], "intensity_measure", "exponent.intensity_measure",
              count=_count_divergent)
    wrap_attr([exponent, cli], "exponent_function", "exponent.exponent_function")
    for attr in ("exponent_mixed_derivative_defect", "orthant_convergence"):
        wrap_attr([exponent], attr, f"exponent.{attr}")
    wrap_attr([copulatail.TailDensityForm], "__call__", "copulatail.form_call", hot=True)
    for attr in ("copula_density", "empirical_tail_density"):
        wrap_attr([copulatail], attr, f"copulatail.{attr}")
    for cls in (liouville.InvertedDirichlet, liouville.GenericRV, liouville.Rapid):
        wrap_attr([cls], "__call__", "liouville.g", hot=True)
    params = [liouville.LiouvilleParams]
    wrap_attr(params, "radial_cdf", "liouville.radial_cdf", hot=True)
    wrap_attr(params, "radial_quantile", "liouville.radial_quantile",
              count=_count_quantile_points)
    wrap_attr(params, "sample", "liouville.sample", count=_count_sample_rows)
    wrap_attr(params, "marginal_quantile", "liouville.marginal_quantile",
              count=_CacheHits())
    for attr in ("joint_density", "limiting_density", "weyl_integral",
                 "marginal_density", "marginal_cdf"):
        wrap_attr(params, attr, f"liouville.{attr}")
    wrap_attr([kernels], "count_in_region", "kernels.count_in_region",
              count=_count_region_rows)
    wrap_attr([kernels, regvar], "hill_log_sum", "kernels.hill_log_sum")
    wrap_attr([regvar], "hill_estimate", "regvar.hill_estimate")
