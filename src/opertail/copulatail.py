"""Copula densities and operator tail densities: closed forms, Jacobian
transforms between the original and copula coordinate frames, finite-u
empirical estimation, and the scaling-compatibility check.

Closed forms are represented by the power-sum-product family

    coef * (sum_{i in S} w_i^{p_i})^q * prod_i w_i^{s_i},

which is closed under every transform appearing here and admits exact
per-coordinate exponent analysis (used by the divergence pre-check in the
intensity-measure integrator).

Sign convention for the copula-frame tail index: the marginal indices are
alpha_i = rho / lambda_i with rho = lambda_max * beta - sum_i lambda_i a_i
taken positive (the value making the tail normalizer regularly varying with
negative index). The source derivation prints the opposite sign for the
same quantity; the positive reading is the one the empirical finite-u
limits confirm, and both readings are noted here deliberately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special

from .liouville import LiouvilleParams
from .opscale import DiagExponent


@dataclass(frozen=True)
class TailDensityForm:
    """Closed-form tail density coef*(sum_{i in S} w^{p_i})^q * prod w^{s_i}.

    A copula-frame form (the limit of the copula density at the upper corner)
    carries its tail order ``kappa``; an original-frame form (the limit of the
    joint density under operator scaling) carries the operator eigenvalues
    ``lambdas`` and the index ``rho`` of the group invariance
    lambda(t^E x) = t^{-rho - tr E} lambda(x).
    """

    coef: float
    sum_indices: tuple
    sum_powers: tuple
    sum_exponent: float
    coord_powers: tuple
    kappa: Optional[tuple] = None
    lambdas: Optional[tuple] = None
    rho: Optional[float] = None

    def __post_init__(self):
        if self.coef <= 0:
            raise ValueError("coefficient must be positive")
        if len(self.sum_indices) != len(self.sum_powers) or not self.sum_indices:
            raise ValueError("sum_indices and sum_powers must align and be non-empty")

    @property
    def dim(self):
        return len(self.coord_powers)

    def __call__(self, w):
        """The density at one point ``(dim,)``, a float, or at a batch ``(..., dim)``."""
        w = np.asarray(w, dtype=float)
        if w.shape[-1:] != (self.dim,):
            raise ValueError("dimension mismatch")
        if np.any(w <= 0):
            raise ValueError("evaluation requires strictly positive coordinates")
        cols = w.T  # cols[i] is a scalar for one point: the nquad integrand stays scalar
        s = sum(cols[i] ** p for i, p in zip(self.sum_indices, self.sum_powers)).T
        out = (self.coef * s ** self.sum_exponent
               * (w ** np.asarray(self.coord_powers)).prod(axis=-1))
        return float(out) if w.ndim == 1 else out

    def integrate_out(self, j: int) -> "TailDensityForm":
        """The form integrated over w_j in (0, inf), exactly: with c the sum
        over S minus j, a = (s_j + 1)/p_j and b = -q - a,

            int_0^inf w^{s_j} (c + w^{p_j})^q dw = B(a, b) / |p_j| * c^{q + a}.

        The result's tail order and eigenvalues drop coordinate j; its rho is
        unchanged. ArithmeticError where the integral diverges:
        j outside S, p_j = 0, a <= 0, b <= 0, or S = {j}."""
        if j not in self.sum_indices:
            raise ArithmeticError(f"coordinate {j} is outside the sum set: "
                                  "its integral over (0, inf) diverges")
        k = self.sum_indices.index(j)
        p, q = self.sum_powers[k], self.sum_exponent
        if len(self.sum_indices) == 1 or p == 0:
            raise ArithmeticError(f"integral over coordinate {j} is a pure power "
                                  "over (0, inf) and diverges")
        a = (self.coord_powers[j] + 1.0) / p
        b = -q - a
        if not (a > 0 and b > 0):
            raise ArithmeticError(f"integral over coordinate {j} diverges: "
                                  f"B({a:g}, {b:g}) needs both arguments positive")

        def drop(t):
            return None if t is None else t[:j] + t[j + 1:]

        return TailDensityForm(
            coef=self.coef * math.exp(special.betaln(a, b)) / abs(p),
            sum_indices=tuple(i - (i > j) for i in self.sum_indices if i != j),
            sum_powers=self.sum_powers[:k] + self.sum_powers[k + 1:],
            sum_exponent=q + a,
            coord_powers=drop(self.coord_powers),
            kappa=drop(self.kappa), lambdas=drop(self.lambdas), rho=self.rho)


@dataclass(frozen=True)
class MarginalFrame:
    """Marginal tail indices alpha_i of the frame transforms."""

    alphas: tuple

    def __init__(self, alphas):
        al = tuple(float(v) for v in np.atleast_1d(np.asarray(alphas, dtype=float)))
        if any(v <= 0 or not math.isfinite(v) for v in al):
            raise ValueError("marginal tail indices must be positive")
        object.__setattr__(self, "alphas", al)


@dataclass(frozen=True)
class EmpiricalTailEstimate:
    """Finite-u estimates along a decreasing u-grid plus extrapolated limit."""

    u_grid: np.ndarray
    estimates: np.ndarray
    limit: float
    verdict: str


@dataclass(frozen=True)
class CompatibilityResult:
    defects: np.ndarray
    ratios: np.ndarray
    verdict: str


# ---------------------------------------------------------------------------
# copula density of a Liouville distribution

def copula_density(p: LiouvilleParams, u):
    """c(u) = f(F_1^{-1}(u_1), ..) / prod f_i(F_i^{-1}(u_i)) at one point
    ``(d,)``, as a float, or at each point of a batch ``(..., d)``, as an array.

    Quantiles and marginal densities, one call per column, come from the exact
    Liouville marginal law (beta-prime or gamma; radial-law quadratures for
    GenericRV), so this route is independent of the closed forms it checks.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (p.dim,):
        raise ValueError("dimension mismatch")
    if np.any((u <= 0) | (u >= 1)):
        raise ValueError("copula density requires u in the open unit cube")
    if p.dim == 1:
        return 1.0 if u.ndim == 1 else np.ones(u.shape[:-1])
    x, dens = np.empty(u.shape), np.empty(u.shape)
    for i in range(p.dim):
        x[..., i] = p.marginal_quantile(i, u[..., i])
        dens[..., i] = p.marginal_density(i, x[..., i])
    out = p.joint_density(x) / dens.prod(axis=-1)
    return float(out) if u.ndim == 1 else out


# ---------------------------------------------------------------------------
# closed forms for the Liouville family

def _liouville_alphas(p: LiouvilleParams, E: DiagExponent) -> np.ndarray:
    rho = p.tail_rv_index(E)
    if rho <= 0:
        raise ValueError(
            "operator exponent not regularly varying with negative index: "
            f"rho = lambda_max*beta - sum lambda_i a_i = {rho:g} <= 0")
    return rho / E.as_array()


def liouville_limit_form(p: LiouvilleParams, E: DiagExponent) -> TailDensityForm:
    """Original-frame limit c_f * (sum_{i in (lambda)} x_i)^{-beta} prod x^{a-1}."""
    beta = p.rv_beta()
    idx = E.argmax_set
    return TailDensityForm(
        coef=p.norm_const,
        sum_indices=idx, sum_powers=(1.0,) * len(idx), sum_exponent=-beta,
        coord_powers=tuple(v - 1.0 for v in p.a),
        lambdas=E.eigenvalues, rho=p.tail_rv_index(E))


def liouville_copula_tail_form(p: LiouvilleParams, E: DiagExponent) -> TailDensityForm:
    """Copula-frame closed form with tail order (1, ..., 1).

    Its coordinates w_i = x_i^{-alpha_i} set the margins' tail constants to 1,
    so for E = I it is the copula's upper tail density relative to r_i(u) =
    c_i u and ell = 1 / prod c_i, c_i = lim x^alpha P(X_i > x) (1 / (alpha
    B(a_i, alpha)) for the inverted Dirichlet): not relative to r_i(u) = u
    unless every c_i = 1, as at a = (1, 1), theta = 3.
    """
    beta = p.rv_beta()
    alphas = _liouville_alphas(p, E)
    idx = E.argmax_set
    coef = p.norm_const * float(np.prod(1.0 / alphas))
    return TailDensityForm(
        coef=coef,
        sum_indices=idx, sum_powers=tuple(-1.0 / alphas[i] for i in idx),
        sum_exponent=-beta,
        coord_powers=tuple(-(al + ai) / al for al, ai in zip(alphas, p.a)),
        kappa=(1.0,) * p.dim)


def liouville_marginal_frame(p: LiouvilleParams, E: DiagExponent) -> MarginalFrame:
    return MarginalFrame(_liouville_alphas(p, E))


# ---------------------------------------------------------------------------
# Jacobian transforms between frames

def _frame_point(frame: MarginalFrame, v, name: str):
    """(v, alphas) as arrays, v one point or a batch of the frame's dimension."""
    v, al = np.asarray(v, dtype=float), np.asarray(frame.alphas)
    if v.shape[-1:] != al.shape:
        raise ValueError(f"{name} of shape {v.shape} needs {len(al)} coordinates, "
                         "one per marginal tail index")
    if np.any(v <= 0):
        raise ValueError(f"{name} must be strictly positive")
    return v, al


def density_to_copula_tail(lam: Callable[[np.ndarray], float],
                           frame: MarginalFrame, w):
    """Original-frame limit -> copula-frame tail density at w, through the
    homeomorphic transform y_i = w_i^{-alpha_i}:

        lambda_C(w) = lambda(w^{-1/alpha}) * prod alpha_i^{-1} w_i^{-(alpha_i+1)/alpha_i}.

    ``lam`` takes one point ``(d,)``, giving a float, or a batch ``(..., d)``.
    """
    w, al = _frame_point(frame, w, "w")
    out = lam(w ** (-1.0 / al)) * (w ** (-(al + 1.0) / al) / al).prod(axis=-1)
    return float(out) if w.ndim == 1 else out


def copula_tail_to_density(lam_c: Callable[[np.ndarray], float],
                           frame: MarginalFrame, x):
    """Copula-frame tail density -> original-frame limit at x, one point or a
    batch as ``density_to_copula_tail``:

        lambda(x) = lambda_C(x^{-alpha}) * prod alpha_i x_i^{-alpha_i - 1}.
    """
    x, al = _frame_point(frame, x, "x")
    out = lam_c(x ** (-al)) * (al * x ** (-al - 1.0)).prod(axis=-1)
    return float(out) if x.ndim == 1 else out


# ---------------------------------------------------------------------------
# finite-u empirical estimation

# the last two estimates agree to this relative step: "converged"
_CONVERGE_TOL = 0.005

def empirical_tail_density(c: Callable[[np.ndarray], float],
                           r: Sequence[Callable[[float], float]],
                           ell: Callable[[float], float],
                           kappa: Sequence[float],
                           w,
                           u_grid: Sequence[float]) -> EmpiricalTailEstimate:
    """Estimate the upper tail density of the copula density evaluator ``c``
    at w: c(1 - r_1(u) w_1, ..., 1 - r_d(u) w_d) / (u^{1 - sum kappa_i} ell(u))
    on the u-grid, extrapolated with one first-order Richardson step on the
    two smallest u values. ``kappa`` (each kappa_i > 0), ``w`` and ``r`` take
    one entry per coordinate; ``r_i`` and ``ell`` are called once on the
    u-grid ``(m,)``, and ``c`` once on the ``(m, d)`` batch.
    """
    kappa = np.asarray(kappa, dtype=float)
    w = np.asarray(w, dtype=float)
    if not (w.ndim == 1 and kappa.shape == w.shape == (len(r),)):
        raise ValueError("kappa, w and r need one entry per coordinate")
    if not np.all((kappa > 0) & np.isfinite(kappa)):
        raise ValueError("tail orders must be positive and finite")
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.ndim != 1 or len(u_grid) < 2 or np.any(np.diff(u_grid) >= 0):
        raise ValueError("u_grid must be decreasing with at least two points")
    if np.any(u_grid <= 0):
        raise ValueError("u values must be positive")
    args = 1.0 - np.column_stack([ri(u_grid) for ri in r]) * w
    outside = np.any((args <= 0) | (args >= 1), axis=-1)
    if outside.any():
        raise ValueError(f"scaled arguments left (0,1)^d at u={u_grid[outside.argmax()]:g}")
    estimates = c(args) / (u_grid ** (1.0 - kappa.sum()) * ell(u_grid))
    u1, u2 = u_grid[-2], u_grid[-1]
    e1, e2 = estimates[-2], estimates[-1]
    limit = e2 + (e2 - e1) * u2 / (u1 - u2)
    # a persistent log-log slope in u means the assumed tail order is wrong
    with np.errstate(divide="ignore"):
        slopes = np.diff(np.log(np.abs(estimates) + 1e-300)) / np.diff(np.log(u_grid))
    if np.all(np.abs(slopes[-2:]) > 0.1):
        verdict = "tail order mismatch"
    elif abs(e2 - e1) <= _CONVERGE_TOL * abs(limit):
        verdict = "converged"
    else:
        verdict = "not converged"
    return EmpiricalTailEstimate(u_grid=u_grid, estimates=estimates,
                                 limit=float(limit), verdict=verdict)


# ---------------------------------------------------------------------------
# invariant checks

def quasihomogeneity_defect(lam_c: TailDensityForm, t: float, w) -> float:
    """Relative defect of lambda_C(t^kappa w) = t^{1 - sum kappa} lambda_C(w)."""
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    if lam_c.kappa is None:
        raise ValueError("form carries no tail order; quasihomogeneity needs kappa")
    w = np.asarray(w, dtype=float)
    kap = np.asarray(lam_c.kappa)
    base = lam_c(w)
    scaled = lam_c(t ** kap * w)
    return abs(scaled - t ** (1.0 - kap.sum()) * base) / base


def group_invariance_defect(lam: TailDensityForm, t: float, x) -> float:
    """Relative defect of lambda(t^E x) = t^{-rho - tr E} lambda(x)."""
    if lam.lambdas is None or lam.rho is None:
        raise ValueError("group invariance applies to original-frame forms "
                         "(with lambdas and rho)")
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    x = np.asarray(x, dtype=float)
    lamv = np.asarray(lam.lambdas)
    base = lam(x)
    scaled = lam(t ** lamv * x)
    return abs(scaled - t ** (-lam.rho - lamv.sum()) * base) / base


# the last ratio is within this of 1: "compatible"
_COMPAT_TOL = 1e-2


def compatibility_defect(r: Callable[[float], float],
                         survival: Callable[[float], float],
                         rho_i: float, alpha_i: float,
                         t_grid: Sequence[float]) -> CompatibilityResult:
    """Check r(1/t) ~ 1 - F(t^{rho_i/alpha_i}) along t_grid; ``r`` and
    ``survival`` are each called once, on an array.

    The tilde relation requires the ratio to tend to 1; a finite limit
    other than 1 is reported separately from outright divergence.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be increasing with at least two points")
    ratios = r(1.0 / t_grid) / survival(t_grid ** (rho_i / alpha_i))
    defects = np.abs(ratios - 1.0)
    if defects[-1] < _COMPAT_TOL:
        verdict = "compatible"
    elif (math.isfinite(ratios[-1]) and abs(ratios[-1]) > _COMPAT_TOL
          and abs(ratios[-1] - ratios[-2]) <= 1e-3 * abs(ratios[-1])):
        verdict = f"incompatible (constant {ratios[-1]:g} != 1)"
    else:
        verdict = "incompatible"
    return CompatibilityResult(defects=defects, ratios=ratios, verdict=verdict)
