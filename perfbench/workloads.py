"""The three workloads: what each job runs and how its output is checked.

Every input comes from the benchmark seed: the sample seed, and points
drawn uniformly from the boxes named below. CLI jobs call
``opertail.cli.main(argv)`` in-process with only ``--config``, ``--out``
and, for ``sample``, ``--seed``. ``--jobs`` is never passed. Verify jobs
get no ``--seed``, so their Monte Carlo checks run at the seeds the suites
pin: a random seed would fail a 3-sigma check in about 0.3% of runs for
reasons that have nothing to do with the code.

A job whose ``known_failure`` is set fails at the baseline for the cause
given. It still counts in ``failed``; it just does not make the run
incorrect, and a fix shows as a lower failure count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

ID3 = {"a": [1.0, 1.0, 1.0], "g": {"type": "inverted_dirichlet", "theta": 4.0}}
ID2 = {"a": [1.0, 1.0], "g": {"type": "inverted_dirichlet", "theta": 3.0}}
GRV = {"a": [1.0, 1.0], "g": {"type": "generic_rv", "beta": 3.0, "log_power": 1.0}}

# The distribution each workload builds during set-up, as CLI users pay it.
SETUP_PARAMS = {"io-batch": ID3, "exponent-cubature": ID2, "copula-quadrature": GRV}
WORKLOADS = tuple(SETUP_PARAMS)

KARAMATA_CAUSE = ("karamata suite exits 2: math.exp(-1000) underflows to 0, so "
                  "karamata_defect raises 'survival exhausted', reported as a config error")
DEEP_TAIL_CAUSE = ("radial CDF integrates (0, r) and loses the tail: quantiles at "
                   "1-1e-k are off by 20-57% for k=5..7 and brentq raises for k>=8")


@dataclass
class Job:
    name: str
    call: Callable[[], object]                    # the timed work
    check: Callable[[object], tuple]              # untimed: result -> (ok, detail)
    known_failure: str = ""
    out_dir: Path | None = None                   # CLI output directory


def _cli_job(work: Path, name: str, command: str, config: dict, check,
             seed: int | None = None, known_failure: str = "") -> Job:
    """``opertail <command>`` on ``config``; ``check(out_dir)`` runs on exit 0."""
    out = work / name
    out.mkdir(parents=True)
    cfg = out / "config.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]

    def call():
        from opertail import cli  # looked up per call, so a tracer's wrapper is seen
        try:
            return cli.main(argv)
        except SystemExit as exc:  # the exit code of a CLI that exits instead
            return exc.code

    def check_exit(code):
        if code != 0:
            return False, f"exit code {code}"
        return check(out)

    return Job(name, call, check_exit, known_failure, out)


def _eval_job(work, name, dist, evaluator, points, oracle, rtol, exponent=None):
    task = {"evaluator": evaluator, "points": points.tolist()}
    config = {"distribution": dist, "task": task}
    if exponent is not None:
        config["exponent"] = {"eigenvalues": exponent}
    return _cli_job(work, name, "eval", config,
                    lambda out: oracles.check_eval_csv(out / "eval.csv", points, oracle, rtol))


def _sample_job(work, name, dist, n, seed):
    from opertail import LiouvilleParams

    def check(out):
        p = LiouvilleParams.from_dict(dist)
        return oracles.check_sample_csv(out / "samples.csv", seed, dist, p.sample(n, seed))

    return _cli_job(work, name, "sample", {"distribution": dist, "task": {"n": n}},
                    check, seed=seed)


def _verify_job(work, name, suite, params=None, known_failure=""):
    task = {"suite": suite}
    if params:
        task["params"] = params
    return _cli_job(work, name, "verify", {"task": task},
                    lambda out: oracles.check_verify_report(out / "report.json", suite),
                    known_failure=known_failure)


def _io_batch(work: Path, seed: int, rng, params) -> list:
    """CSV-bound: a 5e5-row sample, two 1e4-point evaluations (one Python
    call per row) and the sampling-based verify suites. No cubature and no
    marginal quadrature."""
    pts = rng.uniform(0.25, 4.0, size=(10_000, 3))
    tail_pts = rng.uniform(0.25, 4.0, size=(10_000, 3))
    return [
        _sample_job(work, "sample-id3", ID3, 500_000, seed),
        _eval_job(work, "eval-joint-density", ID3, "joint_density", pts,
                  oracles.inverted_dirichlet_3d_density, oracles.RTOL_CLOSED),
        _eval_job(work, "eval-copula-tail", ID3, "liouville_copula_tail_density",
                  tail_pts, oracles.inverted_dirichlet_3d_copula_tail,
                  oracles.RTOL_CLOSED),
        _verify_job(work, "verify-orthant-mc", "orthant-mc"),
        _verify_job(work, "verify-marginal-hill", "marginal-hill"),
        _verify_job(work, "verify-karamata", "karamata", known_failure=KARAMATA_CAUSE),
    ]


def _exponent_cubature(work: Path, seed: int, rng, params) -> list:
    """Cubature-bound: nquad cells calling the scalar tail-form integrand."""
    pts = rng.uniform(0.5, 2.0, size=(25, 2))
    return [
        _eval_job(work, "eval-exponent-function", ID2, "exponent_function", pts,
                  oracles.inverted_dirichlet_2d_exponent, oracles.RTOL_EXPONENT,
                  exponent=[1.0, 1.0]),
        _verify_job(work, "verify-exponent-consistency", "exponent-consistency"),
        _verify_job(work, "verify-mixed-derivative", "mixed-derivative"),
        _verify_job(work, "verify-quasihom", "quasihom"),
        _verify_job(work, "verify-transform-roundtrip", "transform-roundtrip"),
    ]


def _copula_quadrature(work: Path, seed: int, rng, params) -> list:
    """Bound by the Liouville quadrature and root-finding primitives: Weyl
    integral, marginal survival and quantile, radial CDF and quantile."""
    u = rng.uniform(0.05, 0.95, size=(25, 2))
    x = rng.uniform(0.05, 20.0, size=(60, 1))

    def marginal_oracle(points):
        return np.array([oracles.generic_rv_marginal(params, v) for v in points[:, 0]])

    jobs = [
        _eval_job(work, "eval-copula-density", ID2, "copula_density", u,
                  oracles.inverted_dirichlet_2d_copula, oracles.RTOL_COPULA),
        _eval_job(work, "eval-marginal-density", GRV, "marginal_density", x,
                  marginal_oracle, oracles.RTOL_MARGINAL),
        # about 7 ms per row (one brentq on a quadrature CDF per draw)
        _sample_job(work, "sample-generic-rv", GRV, 100, seed),
        _verify_job(work, "verify-empirical-vs-closed-d2", "empirical-vs-closed",
                    {"dim": 2}),
        _verify_job(work, "verify-empirical-vs-closed-d3", "empirical-vs-closed",
                    {"dim": 3}),
    ]
    for k in range(2, 13):
        q_tail = 10.0 ** -k
        jobs.append(Job(
            f"radial-quantile-1e-{k}",
            lambda q_tail=q_tail: params.radial_quantile(1.0 - q_tail),
            lambda r, q_tail=q_tail: oracles.check_radial_quantile(q_tail, r),
            DEEP_TAIL_CAUSE if k >= 5 else ""))
    return jobs


_BUILDERS = {"io-batch": _io_batch, "exponent-cubature": _exponent_cubature,
             "copula-quadrature": _copula_quadrature}


def setup(workload: str):
    """The user's set-up step after ``import opertail``: build the params."""
    from opertail import LiouvilleParams
    return LiouvilleParams.from_dict(SETUP_PARAMS[workload])


def build(workload: str, seed: int, work: Path, params) -> list:
    """The workload's jobs, with inputs drawn from ``seed`` and every config
    written to ``work`` (nothing here is timed)."""
    return _BUILDERS[workload](work, seed, np.random.default_rng(seed), params)
