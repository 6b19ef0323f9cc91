"""One pass of one workload, in a fresh interpreter.

Set-up is ``import opertail`` and ``opertail.cli`` plus building the workload's params; the
line ``ready`` on stdout marks its end, so the parent can time it from
process start. Then every job runs back to back (the timed region), peak
memory is read, and only then are outputs checked. The pass result goes
to ``<work>/result.json``; stdout carries nothing after ``ready``.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR [--traced | --setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _cli_output(jobs) -> tuple:
    """Bytes and data rows the CLI wrote (comment and header lines excluded)."""
    nbytes = rows = 0
    for job in jobs:
        if job.out_dir is None:
            continue
        for path in job.out_dir.iterdir():
            if path.name == "config.json":
                continue
            data = path.read_bytes()
            nbytes += len(data)
            if path.suffix == ".csv":
                lines = data.count(b"\n")
                rows += lines - 1 - data.startswith(b"#")
    return nbytes, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once set-up is done (an extra set-up sample)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import opertail
    import opertail.cli  # what the ``opertail`` command imports
    params = workloads.setup(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    jobs = workloads.build(args.workload, args.seed, args.work, params)
    tracer = tracing.Tracer()
    if args.traced:
        tracing.install(tracer, opertail)
    outcomes = []
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        start = time.perf_counter()
        for job in jobs:
            job_start = time.perf_counter()
            try:
                result, error = tracer.run_job(job.name, job.call), None
            except Exception as exc:  # a job that raises is a failed job
                result, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append((result, error, time.perf_counter() - job_start))
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layer = tracer.metrics() if args.traced else None
    self_sum_s = tracer.self_total()
    if args.traced:
        tracer.write_spans(args.work / "spans.json")

    records = []
    for job, (result, error, seconds) in zip(jobs, outcomes):
        ok, detail = (False, error) if error else job.check(result)
        records.append({"name": job.name, "ok": bool(ok), "detail": detail,
                        "known_failure": job.known_failure, "seconds": seconds})
    if layer is not None:
        layer["cli.bytes_written"], layer["cli.rows_written"] = _cli_output(jobs)

    result = {
        "workload": args.workload, "seed": args.seed, "traced": args.traced,
        "wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "self_sum_s": self_sum_s,
        "jobs": records, "layer": layer,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "opertail": opertail.__version__},
        "kernels_backend": opertail.kernels.BACKEND,
        "opertail_path": opertail.__file__,
    }
    (args.work / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
