"""The Liouville distribution family: density, sampling, marginals, limits.

A Liouville vector has density c_f * g(sum x_i) * prod x_i^{a_i - 1} on the
open positive orthant, driven by a non-negative function g on [0, infinity).
Three driving variants are supported:

* ``InvertedDirichlet(theta)``: g(t) = (1+t)^{-theta} (closed forms
  throughout; this is the fully explicit test bed),
* ``GenericRV(beta, log_power)``: g(t) = (1+t)^{-beta} log(e+t)^{log_power},
* ``Rapid()``: g(t) = exp(-t), the rapidly-varying negative control.

The stochastic representation X = R * D with D ~ Dirichlet(a) independent
of the radial part R (density proportional to t^{A-1} g(t), A = sum a_i)
drives the sampler. The margins are exact for the closed drivers: under
the inverted Dirichlet X_i ~ BetaPrime(a_i, theta - A), and under ``Rapid``
the X_i are independent Gamma(a_i). For ``GenericRV`` the marginal density
is a Weyl-integral quadrature and the marginal survival a quadrature of
the radial survival against the Beta(a_i, A - a_i) law of D_i.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np
from scipy import integrate, optimize, special

from .opscale import DiagExponent


class IntegrabilityError(ValueError):
    """The driving function fails integrability against t^{A-1}."""


class NotOperatorRegularlyVarying(ValueError):
    """Requested an operator tail limit for a rapidly varying driver."""


@dataclass(frozen=True)
class InvertedDirichlet:
    """g(t) = (1 + t)^{-theta}; regularly varying with index -theta."""

    theta: float

    def __post_init__(self):
        if not (self.theta > 0 and math.isfinite(self.theta)):
            raise ValueError(f"theta must be positive and finite, got {self.theta}")

    def __call__(self, t):
        return (1.0 + np.asarray(t, dtype=float)) ** (-self.theta)

    @property
    def rv_index(self):
        return self.theta

    def to_dict(self) -> dict:
        return {"type": "inverted_dirichlet", "theta": self.theta}


@dataclass(frozen=True)
class GenericRV:
    """g(t) = (1 + t)^{-beta} log(e + t)^{log_power}; RV with index -beta."""

    beta: float
    log_power: float = 0.0

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return (1.0 + t) ** (-self.beta) * np.log(np.e + t) ** self.log_power

    @property
    def rv_index(self):
        return self.beta

    def to_dict(self) -> dict:
        return {"type": "generic_rv", "beta": self.beta, "log_power": self.log_power}


@dataclass(frozen=True)
class Rapid:
    """g(t) = exp(-t); rapidly varying, not amenable to operator limits."""

    def __call__(self, t):
        return np.exp(-np.asarray(t, dtype=float))

    @property
    def rv_index(self):
        return None

    def to_dict(self) -> dict:
        return {"type": "rapid"}


DrivingFunction = Union[InvertedDirichlet, GenericRV, Rapid]

_DRIVING_TYPES = {"inverted_dirichlet": lambda d: InvertedDirichlet(float(d["theta"])),
                  "generic_rv": lambda d: GenericRV(float(d["beta"]),
                                                    float(d.get("log_power", 0.0))),
                  "rapid": lambda d: Rapid()}


def driving_from_dict(d: dict) -> DrivingFunction:
    kind = d.get("type")
    if kind not in _DRIVING_TYPES:
        raise ValueError(f"unknown driving function type {kind!r}")
    return _DRIVING_TYPES[kind](d)


class LiouvilleParams:
    """Validated parameters (a, g) with cached normalizers.

    Construction verifies integrability of t^{A-1} g(t) on (0, infinity)
    (A = sum a_i) and stores that integral; for the inverted-Dirichlet
    driver this is the Beta function B(A, theta - A), requiring theta > A.
    """

    def __init__(self, a: Sequence[float], g: DrivingFunction):
        a = tuple(float(v) for v in np.atleast_1d(np.asarray(a, dtype=float)))
        if len(a) < 1 or any(not (v > 0 and math.isfinite(v)) for v in a):
            raise ValueError("shape parameters a_i must all be positive and finite")
        self.a = a
        self.g = g
        self.dim = len(a)
        self.total_shape = float(sum(a))  # A = sum a_i
        self.radial_norm = self._radial_norm()  # integral of t^{A-1} g(t)
        # c_f = Gamma(A) / (prod Gamma(a_i) * integral)
        log_cf = (special.gammaln(self.total_shape)
                  - sum(special.gammaln(v) for v in a)
                  - math.log(self.radial_norm))
        self.norm_const = math.exp(log_cf)
        self._marginal_quantile_cached = lru_cache(maxsize=4096)(
            self._marginal_quantile_impl)

    def _radial_norm(self) -> float:
        A = self.total_shape
        if isinstance(self.g, InvertedDirichlet):
            if self.g.theta <= A:
                raise IntegrabilityError(
                    f"integrability violated: need theta > sum(a) "
                    f"({self.g.theta} <= {A})")
            return math.exp(special.betaln(A, self.g.theta - A))
        if isinstance(self.g, Rapid):
            return math.exp(special.gammaln(A))
        if isinstance(self.g, GenericRV):
            if self.g.beta < A or (self.g.beta == A and self.g.log_power >= -1):
                raise IntegrabilityError(
                    f"integrability violated: need beta > sum(a) "
                    f"({self.g.beta} vs {A})")
            val, _ = integrate.quad(lambda t: t ** (A - 1) * float(self.g(t)),
                                    0.0, np.inf, epsabs=0.0, epsrel=1e-11,
                                    limit=400)
            return val
        raise TypeError(f"unsupported driving function {self.g!r}")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {"a": list(self.a), "g": self.g.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "LiouvilleParams":
        return cls(d["a"], driving_from_dict(d["g"]))

    def __repr__(self):
        return f"LiouvilleParams(a={self.a}, g={self.g})"

    # -- joint density ----------------------------------------------------

    def normalizing_constant(self) -> float:
        return self.norm_const

    def joint_density(self, x):
        """c_f * g(sum x_i) * prod x_i^{a_i - 1} at one point ``(d,)``, as a float,
        or at each point of a batch ``(..., d)``, as an array; see ``_kernel``."""
        return self._kernel(x, slice(None), self.g)

    def _kernel(self, x, idx, h):
        """c_f * h(sum_{i in idx} x_i) * prod x_i^{a_i - 1} over the last axis of
        x >= 0. At x_i = 0 a factor is 1 if a_i = 1 (x**0 == 1), 0 if a_i > 1
        and +inf if a_i < 1; the value is +inf wherever a factor or h is."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError("dimension mismatch")
        if np.any(x < 0):
            raise ValueError("coordinates must be non-negative")
        a = np.asarray(self.a)
        with np.errstate(divide="ignore", invalid="ignore"):
            head = self.norm_const * h(x[..., idx].sum(axis=-1))
            out = head * (x ** (a - 1)).prod(axis=-1)
        out = np.where(np.isinf(head) | np.any((x == 0) & (a < 1), axis=-1), math.inf, out)
        return float(out) if x.ndim == 1 else out

    # -- radial part ------------------------------------------------------

    def radial_cdf(self, r) -> float:
        """CDF of the radial part R, density proportional to t^{A-1} g(t)."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("radial_cdf requires r > 0")
        A = self.total_shape
        if isinstance(self.g, InvertedDirichlet):
            out = special.betainc(A, self.g.theta - A, r / (1.0 + r))
        elif isinstance(self.g, Rapid):
            out = special.gammainc(A, r)
        else:
            out = np.vectorize(self._radial_cdf_quad, otypes=[float])(r)
        return float(out) if out.ndim == 0 else out

    def _radial_cdf_quad(self, r: float) -> float:
        # above r = 1 the integral over (0, r) would lose the tail mass to
        # rounding, so the CDF there is 1 - S(r) with S integrated directly
        if r > 1.0:
            return 1.0 - self._radial_survival_quad(r)
        A = self.total_shape
        val, _ = integrate.quad(lambda t: t ** (A - 1) * float(self.g(t)),
                                0.0, r, epsabs=0.0, epsrel=1e-11, limit=400)
        return min(val / self.radial_norm, 1.0)

    def _radial_survival_quad(self, r: float) -> float:
        """S(r) = P(R > r) = r^A int_0^1 s^{-A-1} g(r/s) ds / N, by t = r/s."""
        A = self.total_shape
        val, _ = integrate.quad(lambda s: s ** (-A - 1) * float(self.g(r / s)),
                                0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=400)
        return r ** A * val / self.radial_norm

    def radial_quantile(self, q) -> float:
        """Inverse radial CDF by closed form where available, else brentq."""
        q = np.asarray(q, dtype=float)
        if np.any((q <= 0) | (q >= 1)):
            raise ValueError("radial_quantile requires q in (0, 1)")
        A = self.total_shape
        if isinstance(self.g, InvertedDirichlet):
            b = special.betaincinv(A, self.g.theta - A, q)
            out = b / (1.0 - b)
        elif isinstance(self.g, Rapid):
            out = special.gammaincinv(A, q)
        else:
            out = np.vectorize(self._radial_quantile_root, otypes=[float])(
                q, self._radial_cdf_quad(1.0))
        return float(out) if out.ndim == 0 else out

    def _radial_sf_quad(self, r: float) -> float:
        """P(R > r): S(r) integrated directly above r = 1, 1 - CDF below."""
        if r > 1.0:
            return self._radial_survival_quad(r)
        return 1.0 - self._radial_cdf_quad(r)

    def _radial_quantile_root(self, q: float, cdf1: float) -> float:
        """A root of the CDF in (0, 1] when q <= cdf1 = CDF(1), to a relative
        tolerance; above, a root of S(r) = 1 - q bracketed upward from 1,
        which keeps the deep tail accurate."""
        if q <= cdf1:
            return optimize.brentq(lambda r: self._radial_cdf_quad(r) - q,
                                   1e-300, 1.0, xtol=1e-300, rtol=1e-12)
        tail = 1.0 - q
        lo = hi = 1.0
        while self._radial_survival_quad(hi) > tail:
            lo, hi = hi, 4.0 * hi
        if hi == 1.0:  # q is within rounding of CDF(1)
            return 1.0
        return optimize.brentq(lambda r: self._radial_survival_quad(r) - tail,
                               lo, hi, xtol=1e-12, rtol=1e-15)

    # -- sampling ---------------------------------------------------------

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. rows of X = R * D, D ~ Dirichlet(a), R by quantile
        inversion. Counter-based Philox stream keyed by the seed makes the
        output bitwise reproducible."""
        if n < 1:
            raise ValueError("n must be at least 1")
        rng = np.random.Generator(np.random.Philox(int(seed)))
        gam = rng.standard_gamma(np.asarray(self.a), size=(n, self.dim))
        d = gam / gam.sum(axis=1, keepdims=True)
        u = rng.random(n)
        # keep quantile arguments inside the open interval
        u = np.clip(u, 1e-16, 1.0 - 1e-16)
        r = np.asarray(self.radial_quantile(u), dtype=float)
        return r[:, None] * d

    # -- marginals: closed laws, or the Weyl fractional integral ----------

    def weyl_integral(self, order: float, x: float) -> float:
        """W^order g(x) = (1/Gamma(order)) * int_x^inf (s-x)^{order-1} g(s) ds.

        Closed for the closed drivers: Gamma(theta-m)/Gamma(theta) * (1+x)^{m-theta}
        for the inverted Dirichlet (the Beta integral; it diverges for
        m >= theta) and e^{-x} for ``Rapid``. For ``GenericRV`` it is a
        quadrature on the unit interval through s = x + u/(1-u); the endpoint
        singularity for order < 1 is absorbed into an algebraic weight.
        """
        if order == 0:
            return float(self.g(x))
        if order < 0:
            raise ValueError("order must be non-negative")
        if isinstance(self.g, InvertedDirichlet):
            theta = self.g.theta
            if order >= theta:
                raise ValueError(f"W^{order} of (1+t)^-{theta} diverges: "
                                 "need order < theta")
            return (1.0 + x) ** (order - theta) / special.poch(theta - order, order)
        if isinstance(self.g, Rapid):
            return math.exp(-x)

        def core(u):
            s = x + u / (1.0 - u)
            return float(self.g(s)) * (1.0 - u) ** (1.0 - order) / (1.0 - u) ** 2

        # deep-tail evaluations sit at the roundoff floor of the pure
        # relative tolerance; quad's best value there is still accurate
        # far beyond the tolerances used downstream
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            if order < 1:
                # pull u^{order-1} into the weight; core handles the rest
                val, _ = integrate.quad(core, 0.0, 1.0, weight="alg",
                                        wvar=(order - 1.0, 0.0),
                                        epsabs=0.0, epsrel=1e-11, limit=400)
            else:
                val, _ = integrate.quad(lambda u: u ** (order - 1.0) * core(u),
                                        0.0, 1.0, epsabs=0.0, epsrel=1e-11,
                                        limit=400)
        return val / math.exp(special.gammaln(order))

    def _marginal_norm(self, i: int) -> float:
        # kappa_i = c_f * prod_{j != i} Gamma(a_j), exact by Liouville's formula
        return self.norm_const * math.exp(
            sum(special.gammaln(v) for j, v in enumerate(self.a) if j != i))

    def marginal_density(self, i: int, x: float) -> float:
        """f_i(x) = kappa_i * W^{a^{(i)}} g(x) * x^{a_i - 1}, a^{(i)} = sum_{j != i} a_j:
        the BetaPrime(a_i, theta - A) or Gamma(a_i) density for the closed
        drivers, through the closed ``weyl_integral``."""
        self._check_margin(i)
        if x < 0:
            raise ValueError("x must be non-negative")
        ai = self.a[i]
        if x == 0:
            if ai < 1:
                return math.inf
            if ai > 1:
                return 0.0
        order = self.total_shape - ai
        pow_term = 1.0 if (x == 0 and ai == 1) else x ** (ai - 1.0)
        return self._marginal_norm(i) * self.weyl_integral(order, x) * pow_term

    def _marginal_survival(self, i: int, x: float) -> float:
        """P(X_i > x): the BetaPrime(a_i, theta - A) or Gamma(a_i) survival for
        the closed drivers (d = 1 included, where the margin is the radial
        law); for GenericRV the mixing identity X_i = R * D_i with
        D_i ~ Beta(a_i, A - a_i), a single quadrature over the beta weight."""
        if x <= 0:
            return 1.0
        ai = self.a[i]
        if isinstance(self.g, InvertedDirichlet):
            # keep the beta argument <= 1/2: for tiny x, 1/(1+x) rounds to 1
            b = self.g.theta - self.total_shape
            if x >= 1.0:
                return float(special.betainc(b, ai, 1.0 / (1.0 + x)))
            return float(special.betaincc(ai, b, x / (1.0 + x)))
        if isinstance(self.g, Rapid):
            return float(special.gammaincc(ai, x))
        m = self.total_shape - ai
        if m == 0:  # d = 1: the margin is the radial part
            return self._radial_sf_quad(x)

        def core(v):
            if v <= 0.0:  # x/v -> inf, survival vanishes there
                return 0.0
            return self._radial_sf_quad(x / v)

        val, _ = integrate.quad(core, 0.0, 1.0, weight="alg",
                                wvar=(ai - 1.0, m - 1.0),
                                epsabs=1e-13, epsrel=1e-11, limit=400)
        return val / math.exp(special.betaln(ai, m))

    def marginal_cdf(self, i: int, x: float) -> float:
        self._check_margin(i)
        if x < 0:
            raise ValueError("x must be non-negative")
        if x == 0:
            return 0.0
        return min(max(1.0 - self._marginal_survival(i, x), 0.0), 1.0)

    def marginal_quantile(self, i: int, q: float) -> float:
        self._check_margin(i)
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {q}")
        return self._marginal_quantile_cached(i, float(q))

    def _marginal_quantile_impl(self, i: int, q: float) -> float:
        """The closed inverse for the closed drivers, inverting the CDF for
        q <= 1/2 and the survival above, so that neither tail cancels;
        GenericRV roots survival(x) = 1 - q by brentq."""
        ai = self.a[i]
        if isinstance(self.g, InvertedDirichlet):
            b = self.g.theta - self.total_shape
            if q <= 0.5:
                y = special.betaincinv(ai, b, q)
                return float(y / (1.0 - y))
            z = special.betaincinv(b, ai, 1.0 - q)
            return float((1.0 - z) / z)
        if isinstance(self.g, Rapid):
            if q <= 0.5:
                return float(special.gammaincinv(ai, q))
            return float(special.gammainccinv(ai, 1.0 - q))
        s = 1.0 - q  # solve survival(x) = s; survival is decreasing
        lo, hi = 1.0, 1.0
        while self._marginal_survival(i, hi) > s:
            hi *= 8.0
            if hi > 1e300:
                raise RuntimeError("marginal quantile bracket exhausted")
        while self._marginal_survival(i, lo) < s:
            lo /= 8.0
            if lo < 1e-300:
                raise RuntimeError("marginal quantile bracket exhausted")
        return optimize.brentq(
            lambda x: self._marginal_survival(i, x) - s,
            lo, hi, xtol=1e-14, rtol=1e-15)

    def _check_margin(self, i: int):
        if not 0 <= i < self.dim:
            raise ValueError(f"margin index {i} out of range for d={self.dim}")

    # -- operator tail limit ----------------------------------------------

    def rv_beta(self) -> float:
        beta = self.g.rv_index
        if beta is None:
            raise NotOperatorRegularlyVarying(
                "not operator-regularly varying: rapid driving function")
        return float(beta)

    def limiting_density(self, E: DiagExponent, x):
        """Operator limit c_f * (sum_{i in (lambda)} x_i)^{-beta} * prod x_i^{a_i-1},
        +inf where that sum is 0; a float or an array as ``joint_density``."""
        beta = self.rv_beta()
        self._check_exponent(E)
        return self._kernel(x, list(E.argmax_set), lambda s: s ** (-beta))

    def tail_normalizer(self, E: DiagExponent, t: float) -> float:
        """V(t) = g(t^{lambda_max}) * t^{sum lambda_i a_i}, the canonical
        normalizer making joint_density(t^E x) / (t^{-tr E} V(t)) converge
        to limiting_density(x)."""
        self.rv_beta()
        self._check_exponent(E)
        if t <= 0:
            raise ValueError("t must be positive")
        lam = E.as_array()
        return float(self.g(t ** E.lam_max)) * t ** float(lam @ np.asarray(self.a))

    def tail_rv_index(self, E: DiagExponent) -> float:
        """rho = lambda_max * beta - sum lambda_i a_i; V is RV_{-rho}."""
        beta = self.rv_beta()
        self._check_exponent(E)
        lam = E.as_array()
        return E.lam_max * beta - float(lam @ np.asarray(self.a))

    def _check_exponent(self, E: DiagExponent):
        if E.dim != self.dim:
            raise ValueError("exponent dimension mismatch")
