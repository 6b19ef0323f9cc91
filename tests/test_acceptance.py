"""End-to-end acceptance gate.

Each test covers one acceptance criterion at its stated tolerance and
prints a single pass/fail line to the terminal (bypassing capture), so a
full run shows nine verdict lines.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from opertail import (DiagExponent, IntegrabilityError,
                      InvertedDirichlet, LiouvilleParams,
                      NotOperatorRegularlyVarying, Rapid, Region,
                      compatibility_defect, intensity_measure,
                      liouville_copula_tail_form, verify)


@pytest.fixture(scope="module")
def p2():
    return LiouvilleParams([1.0, 1.0], InvertedDirichlet(3.0))


def report(capsys, num, name, passed, detail=""):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_empirical_vs_closed(capsys):
    t0 = time.perf_counter()
    checks = verify.run_suite("empirical-vs-closed", dim=2)
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in checks) and elapsed < 30.0
    report(capsys, 1, "empirical vs closed tail density", ok,
           f"worst rel err {checks[0].measured:.2e} (tol 1%), {elapsed:.1f}s")


def test_criterion_2_transform_roundtrip(capsys):
    t0 = time.perf_counter()
    checks = verify.run_suite("transform-roundtrip")
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in checks) and elapsed < 1.0
    worst = max(c.measured for c in checks)
    report(capsys, 2, "transform round trip", ok,
           f"worst rel err {worst:.2e} (tol 1e-12), {elapsed:.2f}s")


def test_criterion_3_quasihomogeneity(capsys):
    t0 = time.perf_counter()
    checks = verify.run_suite("quasihom")
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in checks) and elapsed < 1.0
    report(capsys, 3, "quasihomogeneity + negative control", ok,
           f"closed-form defect {checks[0].measured:.2e} (tol 1e-10), "
           f"corrupted defect {checks[1].measured:.2f} (> 0.1), {elapsed:.2f}s")


def test_criterion_4_exponent_function(capsys):
    t0 = time.perf_counter()
    checks = verify.run_suite("exponent-consistency")
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in checks) and elapsed < 10.0
    report(capsys, 4, "exponent function vs probability oracle", ok,
           f"{checks[0].detail}, {checks[1].detail}, {elapsed:.1f}s")


def test_criterion_5_mixed_derivative(capsys):
    t0 = time.perf_counter()
    checks = verify.run_suite("mixed-derivative")
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in checks) and elapsed < 20.0
    worst = max(c.measured for c in checks)
    report(capsys, 5, "mixed difference of a_C vs tail density", ok,
           f"worst defect {worst:.2%} (tol 3%), {elapsed:.1f}s")


def test_criterion_6_orthant_convergence(capsys):
    t0 = time.perf_counter()
    checks = verify.run_suite("orthant-mc", n=10 ** 6, t=100.0, seed=7)
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in checks) and elapsed < 20.0
    report(capsys, 6, "Monte Carlo orthant convergence", ok,
           f"{checks[0].detail}, {elapsed:.1f}s")


def test_criterion_7_marginal_hill(capsys):
    t0 = time.perf_counter()
    checks = verify.run_suite("marginal-hill", n=10 ** 6, k=10 ** 3, seed=11)
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in checks) and elapsed < 10.0
    report(capsys, 7, "Hill estimate of the marginal tail index", ok,
           f"{checks[0].detail} (tol 10%), {elapsed:.1f}s")


def test_criterion_8_liouville_machinery(capsys, p2):
    t0 = time.perf_counter()
    details = []
    ok = True

    # joint density integrates to 1 (d = 2 and d = 3); the semi-infinite
    # orthant is compactified by x = u/(1-u) per coordinate
    def mass(p):
        def h(*u):
            u = np.asarray(u)
            return (p.joint_density(u / (1.0 - u))
                    * float(np.prod((1.0 - u) ** -2.0)))

        val, _ = integrate.nquad(h, [(0, 1)] * p.dim,
                                 opts={"epsabs": 1e-8, "epsrel": 1e-7,
                                       "limit": 100})
        return val

    val2 = mass(p2)
    val3 = mass(LiouvilleParams([1.0, 1.0, 1.0], InvertedDirichlet(4.0)))
    ok &= abs(val2 - 1.0) < 1e-5 and abs(val3 - 1.0) < 1e-5
    details.append(f"mass d2 {val2:.8f}, d3 {val3:.8f} (tol 1e-5)")

    # Weyl-integral marginal vs the closed form (1+x)^{-2}
    xs = np.linspace(0.0, 50.0, 26)
    weyl_err = max(abs(p2.marginal_density(0, x) - (1 + x) ** -2.0)
                   for x in xs)
    ok &= weyl_err < 1e-8
    details.append(f"Weyl marginal err {weyl_err:.1e} (tol 1e-8)")

    # sampler chi-square on a 20x20 equiprobable-margin grid, n = 1e6
    n = 10 ** 6
    x = p2.sample(n, seed=29)
    qs = np.linspace(0.0, 1.0, 21)
    edges = np.concatenate([[0.0], qs[1:-1] / (1.0 - qs[1:-1]), [np.inf]])

    def joint_cdf(u, v):
        if u == 0.0 or v == 0.0:
            return 0.0
        iu = 0.0 if math.isinf(u) else 1.0 / (1.0 + u)
        iv = 0.0 if math.isinf(v) else 1.0 / (1.0 + v)
        iuv = 0.0 if math.isinf(u) or math.isinf(v) else 1.0 / (1.0 + u + v)
        return 1.0 - iu - iv + iuv

    cdf_grid = np.array([[joint_cdf(u, v) for v in edges] for u in edges])
    expected = np.diff(np.diff(cdf_grid, axis=0), axis=1)
    counts = np.histogram2d(x[:, 0], x[:, 1], bins=[edges, edges])[0]
    chi2 = float(np.sum((counts - n * expected) ** 2 / (n * expected)))
    pval = float(stats.chi2.sf(chi2, df=400 - 1))
    ok &= pval > 0.001
    details.append(f"chi-square p={pval:.3f} (level 0.001)")

    # radial CDF vs the closed form (r/(1+r))^2
    rad_err = max(abs(p2.radial_cdf(r) - (r / (1 + r)) ** 2)
                  for r in np.linspace(0.1, 100.0, 50))
    ok &= rad_err < 1e-10
    details.append(f"radial CDF err {rad_err:.1e} (tol 1e-10)")

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(capsys, 8, "Liouville machinery", ok,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_9_negative_controls(capsys, p2):
    msgs = []
    p_rapid = LiouvilleParams([1.0, 1.0], Rapid())
    with pytest.raises(NotOperatorRegularlyVarying) as e1:
        p_rapid.limiting_density(DiagExponent([1.0, 1.0]), [1.0, 1.0])
    msgs.append("not operator-regularly varying" in str(e1.value))

    with pytest.raises(IntegrabilityError) as e2:
        LiouvilleParams([1.0, 1.0], InvertedDirichlet(2.0))
    msgs.append("integrability violated" in str(e2.value))

    lam_c = liouville_copula_tail_form(p2, DiagExponent([1.0, 1.0]))
    res = intensity_measure(lam_c, Region.box_complement([1.0, 1.0]))
    msgs.append(res.verdict == "divergent")

    diag = compatibility_defect(lambda u: u ** 2,
                                lambda t: 1.0 / (1.0 + t), 1.0, 1.0,
                                np.logspace(1, 6, 6))
    msgs.append(diag.verdict == "incompatible")

    report(capsys, 9, "negative controls", all(msgs),
           f"rapid/integrability/divergent/incompatible = {msgs}")
