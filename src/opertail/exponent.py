"""Intensity measures, exponent functions, the mixed-derivative cross-check,
and Monte Carlo verification of the orthant convergence.

All regions are axis-aligned. Every region variant is reduced by
inclusion-exclusion to product cells (intervals (0,w), (w,inf), (0,inf)
per coordinate); each cell is screened by exact exponent analysis of the
power-sum-product tail form near the axes and at infinity *before* any
cubature runs, so non-integrable integrands yield a "divergent" verdict
instead of a large meaningless number. A finite cell's (0,inf) coordinates
integrate out exactly (``TailDensityForm.integrate_out``, a Beta function),
so nquad sees only ranges (0,w) and (w,inf) with w > 0, and the strips
keep their mass at any scale of w.

The exponent function a_C(w) is implemented as the intensity measure of
the union of lower strips {x : x_i < w_i for some i} in tail-density
coordinates. The literal complement-of-box reading of the defining
integral is provably divergent for the closed copula-frame forms (the
marginal slabs carry constant mass per unit coordinate at infinity) while
the lower-strip reading reproduces the finite probability limits, so the
lower-strip orientation is the one wired in; the box complement stays
available as a region variant and reports "divergent" in that frame.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .copulatail import TailDensityForm, liouville_limit_form
from .liouville import _BLOCK_ROWS, LiouvilleParams
from .opscale import DiagExponent


class DivergentIntegralError(ArithmeticError):
    """The requested intensity integral is divergent."""


@dataclass(frozen=True)
class Region:
    """Axis-aligned region: box [0,w], upper orthant (w,inf)^d, union of
    lower strips {exists i: x_i < w_i}, or complement of the box."""

    kind: str
    w: tuple

    def __init__(self, kind: str, w: Sequence[float]):
        if kind not in kernels.KINDS:
            raise ValueError(f"unknown region kind {kind!r}")
        wt = tuple(float(v) for v in np.atleast_1d(np.asarray(w, dtype=float)))
        if any(v < 0 or not math.isfinite(v) for v in wt):
            raise ValueError("region thresholds must be finite and non-negative")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "w", wt)

    @classmethod
    def box(cls, w):
        return cls("box", w)

    @classmethod
    def upper_orthant(cls, w):
        return cls("upper_orthant", w)

    @classmethod
    def lower_union(cls, w):
        return cls("lower_union", w)

    @classmethod
    def box_complement(cls, w):
        return cls("box_complement", w)

    @property
    def dim(self):
        return len(self.w)


@dataclass(frozen=True)
class IntensityResult:
    value: Optional[float]
    verdict: str  # "finite" or "divergent"
    error: Optional[float] = None


@dataclass(frozen=True)
class MixedDerivativeResult:
    defect: float
    magnitude: float
    sign: int


@dataclass(frozen=True)
class OrthantRow:
    t: float
    estimate: float
    stderr: float
    target: float
    hits: int
    verdict: str


# ---------------------------------------------------------------------------
# cell decomposition

def _region_cells(region: Region):
    """(sign, cell) terms; cell entries are ('low', w), ('high', w), ('full', None).

    Inclusion-exclusion keeps every cell inside the region, so for the
    non-negative integrands here any divergent cell makes the region
    divergent and otherwise the signed sum is exact.
    """
    w = region.w
    d = len(w)
    if region.kind == "box":
        if any(v == 0 for v in w):
            return []
        return [(1, tuple(("low", v) for v in w))]
    if region.kind == "upper_orthant":
        return [(1, tuple(("high", v) for v in w))]
    if region.kind == "lower_union":
        active = [i for i in range(d) if w[i] > 0]
        end = "low"
    else:  # box_complement = union of {x_i > w_i}
        active = list(range(d))
        end = "high"
    terms = []
    for r in range(1, len(active) + 1):
        for T in itertools.combinations(active, r):
            cell = tuple((end, w[i]) if i in T else ("full", None)
                         for i in range(d))
            terms.append(((-1) ** (r + 1), cell))
    return terms


def _cell_divergent(form: TailDensityForm, cell) -> bool:
    """Exact corner exponent analysis of the power-sum-product form."""
    S = set(form.sum_indices)
    p = dict(zip(form.sum_indices, form.sum_powers))
    s = form.coord_powers
    q = form.sum_exponent
    inf_coords = [i for i, (k, w) in enumerate(cell) if k in ("high", "full")]
    zero_coords = [i for i, (k, w) in enumerate(cell)
                   if k in ("low", "full") or (k == "high" and w == 0)]

    def dominant(T, end):
        opts = [p[i] for i in T if i in S]
        if S - set(T):
            opts.append(0.0)
        if not opts:
            return 0.0
        return max(opts) if end == "inf" else min(opts)

    for r in range(1, len(inf_coords) + 1):
        for T in itertools.combinations(inf_coords, r):
            D = sum(s[i] for i in T) + q * dominant(T, "inf")
            if D + len(T) >= 0:
                return True
    for r in range(1, len(zero_coords) + 1):
        for T in itertools.combinations(zero_coords, r):
            D = sum(s[i] for i in T) + q * dominant(T, "zero")
            if D + len(T) <= 0:
                return True
    return False


def _integrate_cell(form: TailDensityForm, cell):
    """Every coordinate over (0, inf), "full" or "high" at 0, integrates out
    exactly (a Beta function), highest index first so that the lower indices
    stay valid; nquad gets only the "low" and "high" coordinates that remain."""
    from scipy import integrate  # here, so that importing the package skips it

    whole = [kind == "full" or (kind == "high" and w == 0) for kind, w in cell]
    for j in reversed(range(len(cell))):
        if whole[j]:
            form = form.integrate_out(j)
    ranges = [(0.0, w) if kind == "low" else (w, np.inf)
              for (kind, w), out in zip(cell, whole) if not out]

    def integrand(*coords):
        return form(np.asarray(coords, dtype=float))

    opts = [{"epsabs": 1e-10, "epsrel": 1e-8, "limit": 200}] * len(ranges)
    val, err = integrate.nquad(integrand, ranges, opts=opts)
    return val, err


def intensity_measure(form: TailDensityForm, region: Region) -> IntensityResult:
    """Lambda(B) = int_B form, or a "divergent" verdict from the pre-analysis."""
    if region.dim != form.dim:
        raise ValueError("region and form dimensions differ")
    cells = _region_cells(region)
    for _, cell in cells:
        if _cell_divergent(form, cell):
            return IntensityResult(value=None, verdict="divergent")
    total, toterr = 0.0, 0.0
    for sign, cell in cells:
        val, err = _integrate_cell(form, cell)
        total += sign * val
        toterr += err
    return IntensityResult(value=total, verdict="finite", error=toterr)


# exponent_function refuses a value whose error estimate exceeds this share of it
_EXPONENT_RTOL = 1e-3


def _lower_union(form: TailDensityForm, w) -> IntensityResult:
    """Lambda(lower strips at w), a finite measurement or DivergentIntegralError."""
    res = intensity_measure(form, Region.lower_union(w))
    if res.verdict != "finite":
        raise DivergentIntegralError("exponent integral divergent")
    return res


def exponent_function(form: TailDensityForm, w) -> float:
    """a_C(w) = Lambda(lower strips at w) for a copula-frame tail density. For
    ``liouville_copula_tail_form``, a_C(e_i) is margin i's tail constant c_i,
    not 1, as that form is relative to r_i(u) = c_i u (see there).

    ArithmeticError unless the cubature's error estimate is at most 1e-3 of
    |a_C(w)|. The unbounded strip coordinates are exact, so w = (0, 1e20) is
    right; only the box cell over (0, w) is a cubature, and near w = 0 (as at
    (1e-8, 1e-8)) it cannot resolve the point and is refused."""
    w = np.asarray(w, dtype=float)
    if np.all(w == 0):
        raise ValueError("some w_i must be positive")
    res = _lower_union(form, w)
    if not res.error <= _EXPONENT_RTOL * abs(res.value):
        raise ArithmeticError(f"exponent cubature untrustworthy at w={w.tolist()}: "
                              f"error estimate {res.error:.3g} for value {res.value:.3g}")
    return float(res.value)


def exponent_mixed_derivative_defect(form: TailDensityForm, w) -> MixedDerivativeResult:
    """d-th mixed central difference of a_C, half-step 0.05, versus the tail
    density at w.

    Under the lower-strip orientation the d=2 mixed partial is -lambda_C;
    the defect therefore compares magnitudes and reports the sign apart.
    """
    w = np.asarray(w, dtype=float)
    d, h = len(w), 0.05
    if np.any(w <= h):
        raise ValueError(f"need min(w) > the step {h}")
    total, errsum = 0.0, 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=d):
        res = _lower_union(form, w + h * np.asarray(signs))
        total += float(np.prod(signs)) * res.value
        errsum += res.error
    mixed = total / (2.0 * h) ** d
    if errsum > 0.05 * max(abs(total), 1e-300):
        raise ArithmeticError("cubature noise exceeds the mixed difference")
    lam_val = form(w)
    return MixedDerivativeResult(defect=abs(abs(mixed) - lam_val) / lam_val,
                                 magnitude=abs(mixed),
                                 sign=int(math.copysign(1.0, mixed)))


def orthant_convergence(p: LiouvilleParams, E: DiagExponent, B: Region,
                        t_grid: Sequence[float], n: int, seed: int):
    """Monte Carlo P(X in t^E B) / U(t) against the intensity target Lambda(B).

    U(t) is the canonical tail normalizer g(t^lambda_max) t^{sum lambda_i a_i}
    (unit slowly varying factors). Every t is checked, and its U(t) computed,
    before the sample is drawn: ValueError for a t that is not positive and
    finite, ArithmeticError for a U(t) that under- or overflows."""
    if n < 10 ** 5:
        raise ValueError("need n >= 1e5 for meaningful orthant estimates")
    if B.dim != p.dim:
        raise ValueError("region dimension mismatch")
    t_grid = np.asarray(t_grid, dtype=float)
    normalizers = [p.tail_normalizer(E, t) for t in t_grid]
    form = liouville_limit_form(p, E)
    res = intensity_measure(form, B)
    if res.verdict != "finite":
        raise DivergentIntegralError("target intensity Lambda(B) is divergent")
    target = float(res.value)
    x = p.sample(n, seed)
    lam = E.as_array()
    w = np.asarray(B.w, dtype=float)
    rows = []
    for t, u_t in zip(t_grid, normalizers):
        scale = t ** lam
        # rows of t^{-E} X in B, one block at a time: never the whole n x d array
        hits = sum(kernels.count_in_region(x[i:i + _BLOCK_ROWS] / scale, w, B.kind)
                   for i in range(0, n, _BLOCK_ROWS))
        phat = hits / n
        est = phat / u_t
        se = math.sqrt(phat * (1.0 - phat) / n) / u_t
        verdict = "ok" if (hits > 0 or target == 0.0) else "increase n or decrease t"
        rows.append(OrthantRow(t=float(t), estimate=est, stderr=se,
                               target=target, hits=hits, verdict=verdict))
    return rows
