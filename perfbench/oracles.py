"""Independent oracles that every benchmark job output is checked against.

The closed forms below are derived by hand for the fixed parameters the
workloads use; they never call the code under test. Two checks use the
library on purpose, each through a route other than the one being checked:
the GenericRV marginal integrates ``joint_density`` over the other
coordinate (the code under test uses the Weyl integral), and the sample
check regenerates ``LiouvilleParams.sample`` to compare the CSV bitwise.

Every check returns ``(ok, detail)``. A check that cannot run raises.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate

# Relative tolerances. Each sits far above the accuracy the current code
# reaches (noted beside it) and far below the perturbations selftest.py
# uses as negative controls.
RTOL_CLOSED = 1e-12      # closed-form evaluators, matched to ~1e-15
RTOL_COPULA = 1e-9       # Weyl-quadrature copula density, ~4e-15
RTOL_MARGINAL = 1e-8     # Weyl marginal vs quad of joint_density, ~2e-14
RTOL_EXPONENT = 1e-6     # nquad cubature at epsrel 1e-8, ~3e-16
RTOL_SURVIVAL = 1e-6     # deep-tail quantile, survival matched to ~1e-13


# -- closed forms -------------------------------------------------------------

def inverted_dirichlet_3d_density(x: np.ndarray) -> np.ndarray:
    """a = (1,1,1), theta = 4: c_f = Gamma(3) / B(3, 1) = 6, f = 6 (1+sum x)^-4."""
    return 6.0 * (1.0 + x.sum(axis=1)) ** -4.0


def inverted_dirichlet_3d_copula_tail(w: np.ndarray) -> np.ndarray:
    """a = (1,1,1), theta = 4, E = I: alpha = 1 and
    lambda_C(w) = 6 (sum 1/w_i)^-4 prod w_i^-2 = 6 (w1 w2 w3)^2 / e2(w)^4,
    e2 the second elementary symmetric polynomial."""
    w1, w2, w3 = w[:, 0], w[:, 1], w[:, 2]
    e2 = w1 * w2 + w1 * w3 + w2 * w3
    return 6.0 * (w1 * w2 * w3) ** 2 / e2 ** 4


def inverted_dirichlet_2d_exponent(w: np.ndarray) -> np.ndarray:
    """a = (1,1), theta = 3: the joint survival (1+x+y)^-1 gives
    a_C(w) = w1 + w2 - w1 w2 / (w1 + w2)."""
    w1, w2 = w[:, 0], w[:, 1]
    return w1 + w2 - w1 * w2 / (w1 + w2)


def inverted_dirichlet_2d_copula(u: np.ndarray) -> np.ndarray:
    """a = (1,1), theta = 3: f = 2 (1+x+y)^-3, margins (1+x)^-2, so the
    quantile is x = u / (1-u) and c = f(x, y) / (f_1(x) f_2(y))."""
    x = u[:, 0] / (1.0 - u[:, 0])
    y = u[:, 1] / (1.0 - u[:, 1])
    return 2.0 * (1.0 + x + y) ** -3.0 / ((1.0 + x) ** -2.0 * (1.0 + y) ** -2.0)


def generic_rv_g(t: float) -> float:
    """GenericRV(beta=3, log_power=1): g(t) = (1+t)^-3 log(e+t)."""
    return (1.0 + t) ** -3.0 * math.log(math.e + t)


@functools.cache
def generic_rv_radial_norm() -> float:
    """N = int_0^inf t g(t) dt (A = 2), split at 1 with t = 1/s above."""
    low, _ = integrate.quad(lambda t: t * generic_rv_g(t), 0.0, 1.0,
                            epsabs=0.0, epsrel=1e-13, limit=200)
    high, _ = integrate.quad(lambda s: generic_rv_g(1.0 / s) / s ** 3, 0.0, 1.0,
                             epsabs=0.0, epsrel=1e-13, limit=200)
    return low + high


def generic_rv_radial_survival(r: float) -> float:
    """P(R > r) for a = (1,1), GenericRV(3, 1), integrated directly (never
    as 1 - CDF): with t = r/s on (0, 1),
    int_r^inf t g(t) dt = r^2 int_0^1 (s + r)^-3 log(e + r/s) ds."""
    val, _ = integrate.quad(lambda s: (s + r) ** -3.0 * math.log(math.e + r / s),
                            0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=400)
    return r * r * val / generic_rv_radial_norm()


def generic_rv_marginal(params, x: float) -> float:
    """f_1(x) = int_0^inf joint_density(x, y) dy."""
    val, _ = integrate.quad(lambda y: params.joint_density(np.array([x, y])),
                            0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=400)
    return val


# -- output parsing and comparison -------------------------------------------

def read_eval_csv(path: Path):
    """Points (n, d) and values (n,) from an ``opertail eval`` CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    dim = header.index("value")
    points = np.array([[float(v) for v in row[:dim]] for row in body])
    values = np.array([float(row[dim]) for row in body])
    return points.reshape(len(body), dim), values


def check_values(values: np.ndarray, expected: np.ndarray, rtol: float):
    if values.shape != expected.shape:
        return False, f"shape {values.shape} != expected {expected.shape}"
    worst = float(np.max(np.abs(values - expected) / np.abs(expected)))  # NaN fails below
    return worst <= rtol, f"worst rel err {worst:.3g} (tol {rtol:g})"


def check_eval_csv(path: Path, points: np.ndarray, oracle, rtol: float):
    """The CSV must hold exactly the requested points, each with a value
    within ``rtol`` of ``oracle(points)``."""
    if not path.is_file():
        return False, f"missing output {path.name}"
    got_points, values = read_eval_csv(path)
    if got_points.shape != points.shape or not np.array_equal(got_points, points):
        return False, "points in the CSV differ from the requested points"
    return check_values(values, oracle(points), rtol)


def check_sample_csv(path: Path, seed: int, params_dict: dict, expected: np.ndarray):
    """Header ``# seed=<seed> params=<json>``, column names, and rows that
    re-parse bitwise to ``expected``."""
    if not path.is_file():
        return False, f"missing output {path.name}"
    with open(path) as fh:
        provenance = fh.readline().rstrip("\n")
        columns = fh.readline().rstrip("\n")
    want = f"# seed={seed} params={json.dumps(params_dict)}"
    if provenance != want:
        return False, f"header {provenance!r} != {want!r}"
    want_cols = ",".join(f"x{i + 1}" for i in range(expected.shape[1]))
    if columns != want_cols:
        return False, f"columns {columns!r} != {want_cols!r}"
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    if rows.shape != expected.shape:
        return False, f"shape {rows.shape} != expected {expected.shape}"
    differ = int(np.count_nonzero(rows.view(np.uint64) != expected.view(np.uint64)))
    return differ == 0, f"{differ} values differ bitwise from sample(n, seed)"


def check_verify_report(path: Path, suite: str):
    """A report for ``suite`` whose every check passed."""
    if not path.is_file():
        return False, f"missing output {path.name}"
    report = json.loads(path.read_text())
    if report.get("suite") != suite:
        return False, f"report is for suite {report.get('suite')!r}"
    checks = report.get("checks", [])
    failed = [c["name"] for c in checks if not c["passed"]]
    ok = bool(checks) and not failed and report.get("passed") is True
    return ok, f"{len(checks)} checks, failed: {failed}"


def check_radial_quantile(q_tail: float, r: float):
    """``r`` claims P(R > r) = q_tail; compare with the survival integral."""
    if not (isinstance(r, float) and math.isfinite(r) and r > 0):
        return False, f"quantile {r!r} is not a positive finite float"
    got = generic_rv_radial_survival(r)
    rel = abs(got - q_tail) / q_tail
    return rel <= RTOL_SURVIVAL, (f"survival {got:.6g} vs {q_tail:g}, rel err {rel:.3g} "
                                  f"(tol {RTOL_SURVIVAL:g})")
