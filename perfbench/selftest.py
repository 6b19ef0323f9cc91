"""Self-tests of the benchmark itself (not collected by the repo's test run).

    python3 -m pytest perfbench/selftest.py -q

They check that every metric named in BENCHMARK.json is emitted with its
unit, that each oracle accepts the right output and rejects a perturbed
one, and that a traced run's self times add up to its wall time.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from opertail import GenericRV, InvertedDirichlet, LiouvilleParams, cli  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- metric names and units ---------------------------------------------------

def test_benchmark_json_lists_the_emitted_metrics():
    doc = _benchmark_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.workloads.WORKLOADS)


@pytest.fixture(scope="module")
def short_runs():
    """One untraced and one traced run of the quickest workload."""
    args = ["--workload", "exponent-cubature", "--seed", "5", "--seconds", "1"]
    return _run(*args, "--trace", "0"), _run(*args, "--trace", "1")


def test_every_metric_is_emitted_with_its_unit(short_runs):
    doc = _benchmark_json()
    for result, table in zip(short_runs, ("end_to_end", "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in doc[table]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_traced_self_times_sum_to_wall_time(short_runs):
    overhead = abs(short_runs[1]["metrics"]["trace.overhead_s"]["value"])
    record = json.loads((run.RESULTS / "exponent-cubature-seed5-trace1.json").read_text())
    traced = [p for p in record["workloads"][0]["passes"] if p["traced"]]
    assert traced
    for p in traced:
        assert abs(p["wall_s"] - p["self_sum_s"]) <= overhead


def test_tracer_self_time_excludes_nested_calls():
    tracer = tracing.Tracer()
    inner = tracing._wrap(tracer, "inner", lambda: time.sleep(0.02), hot=True)
    outer = tracing._wrap(tracer, "outer", lambda: (time.sleep(0.01), inner(), inner()))
    start = time.perf_counter()
    tracer.run_job("job", outer)
    elapsed = time.perf_counter() - start
    assert tracer.calls["inner"] == 2 and tracer.calls["outer"] == 1
    assert 0.04 <= tracer.self_s["inner"] < 0.06
    assert 0.01 <= tracer.self_s["outer"] < 0.03
    assert abs(tracer.self_total() - elapsed) < 1e-3
    # hot calls keep no span; the outer span's parent is the job's root span
    spans = {s[1]: s for s in tracer.spans}
    assert set(spans) == {"outer", tracing.JOB}
    assert spans["outer"][4] == spans[tracing.JOB][0] and spans["outer"][5] == "job"


# -- oracles: each accepts the right output and rejects a perturbed one --------

def _write_eval_csv(path: Path, points: np.ndarray, values: np.ndarray):
    cols = [f"w{i + 1}" for i in range(points.shape[1])]
    lines = [",".join(cols + ["value", "formula", "normalization"])]
    lines += [",".join([f"{v:.17g}" for v in pt] + [f"{val:.17g}", "f", "n"])
              for pt, val in zip(points, values)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("oracle, dim, box, rtol, rel_perturbation", [
    (oracles.inverted_dirichlet_3d_density, 3, (0.25, 4.0), oracles.RTOL_CLOSED, 1e-10),
    (oracles.inverted_dirichlet_3d_copula_tail, 3, (0.25, 4.0), oracles.RTOL_CLOSED, 1e-10),
    (oracles.inverted_dirichlet_2d_exponent, 2, (0.5, 2.0), oracles.RTOL_EXPONENT, 1e-4),
    (oracles.inverted_dirichlet_2d_copula, 2, (0.05, 0.95), oracles.RTOL_COPULA, 1e-7),
])
def test_eval_oracle_rejects_perturbed_values(tmp_path, oracle, dim, box, rtol,
                                              rel_perturbation):
    points = np.random.default_rng(0).uniform(*box, size=(20, dim))
    path = tmp_path / "eval.csv"
    _write_eval_csv(path, points, oracle(points))
    assert oracles.check_eval_csv(path, points, oracle, rtol)[0]
    bad = oracle(points)
    bad[7] *= 1.0 + rel_perturbation
    _write_eval_csv(path, points, bad)
    assert not oracles.check_eval_csv(path, points, oracle, rtol)[0]
    _write_eval_csv(path, points[::-1], oracle(points[::-1]))
    assert not oracles.check_eval_csv(path, points, oracle, rtol)[0]


def test_closed_forms_match_the_library():
    """The hand-derived forms agree with the code at one point each, so a
    negative control above is not passing against a wrong oracle."""
    from opertail import DiagExponent, copula_density, liouville_copula_tail_form
    p3 = LiouvilleParams([1.0, 1.0, 1.0], InvertedDirichlet(4.0))
    w = np.array([[0.3, 1.0, 2.5]])
    assert math.isclose(oracles.inverted_dirichlet_3d_density(w)[0],
                        p3.joint_density(w[0]), rel_tol=1e-13)
    form = liouville_copula_tail_form(p3, DiagExponent([1.0, 1.0, 1.0]))
    assert math.isclose(oracles.inverted_dirichlet_3d_copula_tail(w)[0], form(w[0]),
                        rel_tol=1e-13)
    p2 = LiouvilleParams([1.0, 1.0], InvertedDirichlet(3.0))
    u = np.array([[0.2, 0.7]])
    assert math.isclose(oracles.inverted_dirichlet_2d_copula(u)[0],
                        copula_density(p2, u[0]), rel_tol=1e-12)
    assert oracles.inverted_dirichlet_2d_exponent(np.array([[1.0, 1.0]]))[0] == 1.5


def test_marginal_oracle_rejects_perturbed_values():
    p = LiouvilleParams([1.0, 1.0], GenericRV(3.0, 1.0))
    x = np.array([0.05, 1.0, 7.3, 19.9])
    values = np.array([p.marginal_density(0, v) for v in x])
    expected = np.array([oracles.generic_rv_marginal(p, v) for v in x])
    assert oracles.check_values(values, expected, oracles.RTOL_MARGINAL)[0]
    values[2] *= 1.0 + 1e-6
    assert not oracles.check_values(values, expected, oracles.RTOL_MARGINAL)[0]
    values[2] = math.nan
    assert not oracles.check_values(values, expected, oracles.RTOL_MARGINAL)[0]


def test_radial_quantile_oracle_rejects_perturbed_quantile():
    p = LiouvilleParams([1.0, 1.0], GenericRV(3.0, 1.0))
    r = p.radial_quantile(1.0 - 1e-3)
    assert oracles.check_radial_quantile(1e-3, r)[0]
    assert not oracles.check_radial_quantile(1e-3, r * (1.0 + 1e-4))[0]
    assert not oracles.check_radial_quantile(1e-3, math.inf)[0]


def test_sample_oracle_rejects_one_flipped_bit_and_a_wrong_header(tmp_path):
    dist = {"a": [1.0, 1.0, 1.0], "g": {"type": "inverted_dirichlet", "theta": 4.0}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"distribution": dist, "task": {"n": 50}}))
    assert cli.main(["sample", "--config", str(cfg), "--out", str(tmp_path),
                     "--seed", "9"]) == 0
    path = tmp_path / "samples.csv"
    p = LiouvilleParams.from_dict(dist)
    expected = p.sample(50, 9)
    assert oracles.check_sample_csv(path, 9, dist, expected)[0]
    assert not oracles.check_sample_csv(path, 8, dist, expected)[0]
    lines = path.read_text().splitlines()
    row = [float(v) for v in lines[10].split(",")]
    row[1] = float(np.nextafter(row[1], np.inf))
    lines[10] = ",".join(f"{v:.17g}" for v in row)
    path.write_text("\n".join(lines) + "\n")
    assert not oracles.check_sample_csv(path, 9, dist, expected)[0]


def test_report_oracle_rejects_a_failed_check(tmp_path):
    path = tmp_path / "report.json"
    check = {"name": "c", "passed": True, "measured": 0.0, "tolerance": 1.0, "detail": ""}
    path.write_text(json.dumps({"suite": "quasihom", "checks": [check], "passed": True}))
    assert oracles.check_verify_report(path, "quasihom")[0]
    assert not oracles.check_verify_report(path, "karamata")[0]
    path.write_text(json.dumps({"suite": "quasihom", "checks": [dict(check, passed=False)],
                                "passed": False}))
    assert not oracles.check_verify_report(path, "quasihom")[0]
    assert not oracles.check_verify_report(tmp_path / "missing.json", "quasihom")[0]
