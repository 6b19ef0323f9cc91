"""Run the opertail benchmark: one workload, or all of them.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each pass of a workload is a fresh child interpreter (``worker.py``): a
cold user run that pays set-up, runs the whole job list, then checks every
output against its oracle. Passes repeat until the measured job time
reaches ``--seconds``; each metric is the median over passes.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-module metrics of the
traced ones, plus the tracing overhead (traced minus untraced wall time).

Every metric is printed as ``workload metric value unit``; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A run is correct when every job either passed its check or
failed for the known baseline cause recorded with it. The exit code is
non-zero, with no JSON line, when a pass could not run or an output check
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
RUN_DEADLINE_S = 170.0  # a run of one workload must end within 180 s
MIN_SETUPS = 5  # set-up samples per untraced run; passes count, the rest are set-up only

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}
TRACE_METRICS = {"fail_frac": "ratio", "trace.wall_s": "s", "trace.untraced_wall_s": "s",
                 "trace.overhead_s": "s"}
PER_LAYER = {**tracing.LAYER_METRICS, **TRACE_METRICS}


class BenchmarkError(RuntimeError):
    """A pass or an output check could not run."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(_nproc())
    return env


def _run_pass(workload: str, seed: int, mode: str, index: int, deadline: float) -> dict:
    """One child: ``mode`` is "untraced", "traced" or "setup-only"."""
    work = RESULTS / f"work-{workload}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work)]
    if mode != "untraced":
        cmd.append("--" + mode)
    try:
        with open(work / "stderr.log", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    stdin=subprocess.DEVNULL, env=_child_env(), text=True)
            watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - start
                proc.stdout.read()
                code = proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
        if ready.strip() != "ready" or code != 0:
            log = (work / "stderr.log").read_text()[-3000:]
            raise BenchmarkError(f"{workload} pass {index} exited {code}:\n{log}")
        if mode == "setup-only":
            return {"setup_s": setup_s}
        result = json.loads((work / "result.json").read_text())
        if Path(result["opertail_path"]).resolve().parent != (ROOT / "src" / "opertail"):
            raise BenchmarkError(f"opertail imported from {result['opertail_path']}")
        if mode == "traced":
            (work / "spans.json").replace(RESULTS / f"{workload}-seed{seed}.spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = setup_s
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes until the measured job time reaches ``seconds``; a traced run
    alternates untraced and traced passes and has at least one of each.
    No optional pass starts unless twice the longest pass fits before the
    deadline, so a slow machine gives fewer passes instead of a killed run."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    passes, longest = [], 0.0
    while (not passes or (trace and not any(p["traced"] for p in passes))
           or (sum(p["wall_s"] for p in passes) < seconds
               and time.monotonic() + 2 * longest < deadline)):
        mode = "traced" if trace and len(passes) % 2 == 1 else "untraced"
        started = time.monotonic()
        passes.append(_run_pass(workload, seed, mode, len(passes), deadline))
        longest = max(longest, time.monotonic() - started)
    setups = [p["setup_s"] for p in passes]
    while (not trace and len(setups) < MIN_SETUPS
           and time.monotonic() + 2 * longest < deadline):
        setups.append(_run_pass(workload, seed, "setup-only", len(setups), deadline)["setup_s"])

    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    summary = {
        "workload": workload,
        "correct": all(j["known_failure"] for j in failed),
        "attempted": len(jobs),
        "failed": len(failed),
        "unexpected_failures": sorted({(j["name"], j["detail"]) for j in failed
                                       if not j["known_failure"]}),
        "known_failures": sorted({(j["name"], j["known_failure"]) for j in failed
                                  if j["known_failure"]}),
        "passes": passes,
        "setup_samples": setups,
    }
    untraced = [p for p in passes if not p["traced"]]
    if not trace:
        values = {"wall_s": statistics.median(p["wall_s"] for p in untraced),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
                  "pass_frac": (len(jobs) - len(failed)) / len(jobs)}
        units = END_TO_END
    else:
        traced = [p for p in passes if p["traced"]]
        values = {name: statistics.median(p["layer"][name] for p in traced)
                  for name in tracing.LAYER_METRICS}
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        untraced_wall = statistics.median(p["wall_s"] for p in untraced)
        values.update({"fail_frac": len(failed) / len(jobs), "trace.wall_s": traced_wall,
                       "trace.untraced_wall_s": untraced_wall,
                       "trace.overhead_s": traced_wall - untraced_wall})
        units = PER_LAYER
    summary["metrics"] = {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}
    return summary


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, summaries: list) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    first = summaries[0]["passes"][0]
    return {
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "nproc": _nproc(),
        "platform": platform.platform(),
        "versions": first["versions"],
        "kernels_backend": first["kernels_backend"],
        "thread_caps": {var: str(_nproc()) for var in THREAD_VARS},
        "jobs_per_pass": {s["workload"]: len(s["passes"][0]["jobs"]) for s in summaries},
        "passes": {s["workload"]: len(s["passes"]) for s in summaries},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured job time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "opertail" / "__init__.py").is_file():
        print(f"no opertail sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        summaries = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                     for name in names]
    except BenchmarkError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1

    record = {"provenance": provenance(args.seed, summaries), "workloads": summaries}
    tag = args.workload or "all"
    (RESULTS / f"{tag}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    metrics = {}
    for s in summaries:
        prefix = "" if args.workload else f"{s['workload']}:"
        for name, m in s["metrics"].items():
            print(f"{s['workload']} {name} {m['value']:.6g} {m['unit']}")
            metrics[prefix + name] = m
        for name, detail in s["unexpected_failures"]:
            print(f"{s['workload']} UNEXPECTED FAILURE {name}: {detail}")
    print(json.dumps({"correct": all(s["correct"] for s in summaries),
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": sum(s["failed"] for s in summaries),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
