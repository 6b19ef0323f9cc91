"""Parametric regularly-varying functions and asymptotic diagnostics.

The working family is V(t) = c * t^rho * log(e + t)^gamma, which is closed
under the pointwise products arising in the tail-normalizer constructions
and covers every slowly varying factor used by the closed forms (constants
and log powers). Regular variation *at zero* is represented through the
substitution t -> 1/u: a function r with r(u) ~ u^kappa * slowly-varying
as u -> 0 is ``at_zero(RVSpec(c, -kappa, gamma))``.

Also provides finite-t defect diagnostics (ratio limits, Karamata's
relation) and a Hill estimator used as the sample-based tail-index oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import hill_log_sum


@dataclass(frozen=True)
class RVSpec:
    """V(t) = c * t^rho * log(e + t)^gamma, regularly varying with index rho."""

    c: float = 1.0
    rho: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError(f"scale c must be positive and finite, got {self.c}")
        if not (math.isfinite(self.rho) and math.isfinite(self.gamma)):
            raise ValueError("rho and gamma must be finite")

    def __call__(self, t):
        return eval_rv(self, t)


@dataclass(frozen=True)
class TailIndexEstimate:
    """Hill point estimate from the top-k order statistics of an n-sample."""

    alpha: float
    k: int
    n: int

    def __post_init__(self):
        if not (1 <= self.k < self.n):
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")


@dataclass(frozen=True)
class DefectDiagnostics:
    """Finite-t defect sequence plus a convergence verdict."""

    defects: np.ndarray
    verdict: str


def eval_rv(spec: RVSpec, t):
    """Evaluate V(t) = c * t^rho * log(e + t)^gamma for t > 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("eval_rv requires t > 0")
    out = spec.c * t ** spec.rho * np.log(np.e + t) ** spec.gamma
    return float(out) if out.ndim == 0 else out


def at_zero(spec: RVSpec) -> Callable[[float], float]:
    """The same spec read at zero: r(u) = V(1/u), so r in RV_{-rho}(0).

    ``at_zero(RVSpec(rho=-kappa))`` gives the canonical r(u) = u^kappa.
    """
    return lambda u: eval_rv(spec, 1.0 / np.asarray(u, dtype=float))


def ratio_limit_defect(V: Callable[[float], float], rho: float, x: float,
                       t_grid: Sequence[float], tol: float = 0.05) -> DefectDiagnostics:
    """Defects |V(t x)/V(t) - x^rho| along t_grid with an RV_rho verdict.

    The default tolerance accommodates log-type slowly varying factors,
    whose defect decays only like 1/log t; pure powers sit at rounding
    level and can be checked with a much tighter tol.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be increasing with at least two points")
    defects = np.empty_like(t_grid)
    for i, t in enumerate(t_grid):
        num, den = float(V(t * x)), float(V(t))
        if not (math.isfinite(num) and math.isfinite(den)) or den == 0:
            return DefectDiagnostics(defects[:i], "not RV")
        defects[i] = abs(num / den - x ** rho)
    eventually_down = defects[-1] <= defects[0] + tol
    if defects[-1] < tol and eventually_down:
        verdict = f"consistent with RV_{rho:g}"
    else:
        verdict = "not RV"
    return DefectDiagnostics(defects, verdict)


def karamata_defect(density: Callable[[float], float],
                    survival: Callable[[float], float],
                    alpha: float, t: float) -> float:
    """Defect |t f(t) / (alpha Fbar(t)) - 1| of the Karamata tail relation."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    s = float(survival(t))
    if s <= 0:
        raise ValueError("survival exhausted: survival(t) must be positive")
    return abs(t * float(density(t)) / (alpha * s) - 1.0)


def hill_estimate(sample: Sequence[float], k: int | None = None) -> TailIndexEstimate:
    """Hill estimator alpha_hat = k / sum_{j<=k} log(X_(n-j+1) / X_(n-k)).

    Defaults k to ceil(n^0.6) as a desk-scale bias/variance compromise.
    Operates on a private sorted copy of the sample.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    n = len(x)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("all sample values must be positive and finite")
    if k is None:
        k = int(math.ceil(n ** 0.6))
    if not (n >= k + 1 >= 2):
        raise ValueError(f"need n >= k+1 >= 2, got n={n}, k={k}")
    x = np.sort(x)
    pivot = x[n - k - 1]
    denom = hill_log_sum(x[n - k:], pivot)
    if denom <= 0:
        raise ValueError("degenerate sample: ties make the Hill denominator zero")
    return TailIndexEstimate(alpha=k / denom, k=k, n=n)
