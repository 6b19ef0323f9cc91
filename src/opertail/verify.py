"""Named verification suites driving the cross-checks end to end.

Each suite returns a list of CheckResult records; the CLI serializes them
to a JSON report and the acceptance tests assert on them directly. Every
tolerance is pinned here, not configurable at run time, so a green report
means the same thing everywhere.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace

import numpy as np

from . import copulatail, exponent, regvar
from .exponent import Region
from .liouville import InvertedDirichlet, LiouvilleParams
from .opscale import DiagExponent


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "measured": float(self.measured),
                "tolerance": float(self.tolerance), "detail": self.detail}


# the 5 x 5 grid on [0.5, 2]^2, in "ij" order, as one (25, 2) batch
_W_GRID = np.linspace(0.5, 2.0, 5)[np.indices((5, 5)).reshape(2, -1).T]


def _id_case():
    p = LiouvilleParams([1.0, 1.0], InvertedDirichlet(3.0))
    E = DiagExponent([1.0, 1.0])
    return p, E


def suite_quasihom() -> list:
    """Quasihomogeneity of the closed forms plus a corrupted negative control."""
    p, E = _id_case()
    lam_c = copulatail.liouville_copula_tail_form(p, E)
    worst = float(max(copulatail.quasihomogeneity_defect(lam_c, t, _W_GRID).max()
                      for t in (0.5, 2.0, 10.0)))
    checks = [CheckResult("quasihom-closed-form", worst < 1e-10, worst, 1e-10)]
    corrupted = replace(lam_c, coord_powers=tuple(s + 0.3 for s in lam_c.coord_powers))
    bad = copulatail.quasihomogeneity_defect(corrupted, 2.0, np.array([1.0, 1.0]))
    checks.append(CheckResult("quasihom-negative-control", bad > 0.1, bad, 0.1,
                              detail="corrupted exponent must fail"))
    return checks


def suite_transform_roundtrip(seed: int = 0) -> list:
    """Thm-pair transforms compose to the identity; the explicit pair matches."""
    p, E = _id_case()
    lam = copulatail.liouville_limit_form(p, E)
    lam_c = copulatail.liouville_copula_tail_form(p, E)
    frame = copulatail.MarginalFrame([1.0, 1.0])
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.uniform(0.2, 5.0, size=(100, 2))
    back = copulatail.copula_tail_to_density(
        lambda w: copulatail.density_to_copula_tail(lam, frame, w), frame, x)
    worst = float((abs(back - lam(x)) / lam(x)).max())
    checks = [CheckResult("roundtrip-identity", worst < 1e-12, worst, 1e-12)]
    via = copulatail.density_to_copula_tail(lam, frame, _W_GRID)
    worst_pair = float((abs(via - lam_c(_W_GRID)) / lam_c(_W_GRID)).max())
    checks.append(CheckResult("roundtrip-explicit-pair", worst_pair < 1e-12,
                              worst_pair, 1e-12))
    return checks


def suite_empirical_vs_closed(dim: int = 2) -> list:
    """Finite-u copula limits vs the explicit tail density on a w-grid."""
    if dim == 2:
        p, E = _id_case()
        grid = _W_GRID
        tol = 0.01
        u_grid = [1e-3, 1e-4, 1e-5, 1e-6]
    elif dim == 3:
        p = LiouvilleParams([1.0, 1.0, 1.0], InvertedDirichlet(4.0))
        E = DiagExponent([1.0, 1.0, 1.0])
        grid = [np.array(w) for w in
                [(0.5, 0.5, 0.5), (0.5, 1.0, 2.0), (1.0, 1.0, 1.0),
                 (2.0, 1.0, 0.5), (2.0, 2.0, 2.0), (1.0, 2.0, 1.0),
                 (0.5, 2.0, 2.0), (2.0, 0.5, 1.0)]]
        tol = 0.02
        u_grid = [1e-3, 1e-4, 1e-5]
    else:
        raise ValueError("dim must be 2 or 3")
    r = [lambda u: u] * p.dim
    lam_c = copulatail.liouville_copula_tail_form(p, E)
    worst = 0.0
    for w in grid:
        est = copulatail.empirical_tail_density(
            lambda u: copulatail.copula_density(p, u), r, lambda u: 1.0, lam_c.kappa,
            w, u_grid)
        closed = lam_c(w)
        worst = max(worst, abs(est.limit - closed) / closed)
    return [CheckResult(f"empirical-vs-closed-d{dim}", worst < tol, worst, tol)]


def suite_exponent_consistency() -> list:
    """a_C values vs the independent probability oracle and homogeneity."""
    p, E = _id_case()
    lam_c = copulatail.liouville_copula_tail_form(p, E)
    a11 = exponent.exponent_function(lam_c, [1.0, 1.0])
    # joint survival (1+x+y)^{-1} gives upper tail-dependence limit 1/2,
    # so the probability oracle is 2 - 1/2
    checks = [CheckResult("exponent-at-(1,1)", abs(a11 - 1.5) < 0.003,
                          abs(a11 - 1.5), 0.003, detail=f"a_C={a11:.6f}")]
    a22 = exponent.exponent_function(lam_c, [2.0, 2.0])
    checks.append(CheckResult("exponent-homogeneity-(2,2)", abs(a22 - 3.0) < 0.01,
                              abs(a22 - 3.0), 0.01, detail=f"a_C={a22:.6f}"))
    a10 = exponent.exponent_function(lam_c, [1.0, 0.0])
    checks.append(CheckResult("exponent-single-margin", abs(a10 - 1.0) < 1e-6,
                              abs(a10 - 1.0), 1e-6))
    return checks


def suite_mixed_derivative() -> list:
    """|mixed finite difference of a_C| equals lambda_C within 3%."""
    p, E = _id_case()
    lam_c = copulatail.liouville_copula_tail_form(p, E)
    checks = []
    for w in ([1.0, 1.0], [1.0, 2.0]):
        res = exponent.exponent_mixed_derivative_defect(lam_c, w)
        checks.append(CheckResult(f"mixed-derivative-{tuple(w)}", res.defect < 0.03,
                                  res.defect, 0.03,
                                  detail=f"|mixed|={res.magnitude:.6f} sign={res.sign}"))
    return checks


def suite_orthant_mc(n: int = 10 ** 6, t: float = 100.0, seed: int = 7) -> list:
    """Monte Carlo P(X in tB)/U(t) within 3 binomial sigma of Lambda(B)."""
    p, E = _id_case()
    rows = exponent.orthant_convergence(p, E, Region.upper_orthant([1.0, 1.0]),
                                        [t], n, seed)
    row = rows[0]
    dev = abs(row.estimate - row.target)
    return [CheckResult("orthant-mc", dev < 3 * row.stderr, dev, 3 * row.stderr,
                        detail=f"estimate={row.estimate:.4f} "
                               f"target={row.target:.4f} se={row.stderr:.4f}")]


def suite_marginal_hill(n: int = 10 ** 6, k: int = 10 ** 3, seed: int = 11) -> list:
    """Hill estimate on the first margin recovers alpha = rho/lambda_1 = 1."""
    p, _ = _id_case()
    x = p.sample(n, seed)
    est = regvar.hill_estimate(x[:, 0], k=k)
    dev = abs(est.alpha - 1.0)
    return [CheckResult("marginal-hill", dev < 0.1, dev, 0.1,
                        detail=f"alpha_hat={est.alpha:.4f} k={k}")]


def suite_karamata() -> list:
    """Karamata relation on the explicit margin, plus a non-RV control."""
    d = regvar.karamata_defect(lambda t: (1 + t) ** -2.0, lambda t: (1 + t) ** -1.0,
                               1.0, 1e3)
    checks = [CheckResult("karamata-margin", d < 2e-3, d, 2e-3)]
    # at t = 100 the control's survival exp(-t) is still a normal double
    bad = regvar.karamata_defect(lambda t: math.exp(-t), lambda t: math.exp(-t),
                                 1.0, 100.0)
    checks.append(CheckResult("karamata-non-rv-control", bad > 10.0, bad, 10.0,
                              detail="t f(t)/Fbar(t) must blow up"))
    return checks


SUITES: dict = {
    "quasihom": suite_quasihom,
    "transform-roundtrip": suite_transform_roundtrip,
    "empirical-vs-closed": suite_empirical_vs_closed,
    "exponent-consistency": suite_exponent_consistency,
    "mixed-derivative": suite_mixed_derivative,
    "orthant-mc": suite_orthant_mc,
    "marginal-hill": suite_marginal_hill,
    "karamata": suite_karamata,
}


def run_suite(name: str, **kwargs) -> list:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    suite = SUITES[name]
    try:
        inspect.signature(suite).bind(**kwargs)
    except TypeError as e:
        raise ValueError(f"suite {name!r}: {e}") from None
    return suite(**kwargs)
