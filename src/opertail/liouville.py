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
drives the sampler. R and every margin X_i belong to one law family per
driver, indexed by a shape s (s = A for R, s = a_i for X_i): BetaPrime(s,
theta - A) for the inverted Dirichlet and Gamma(s) for ``Rapid``, closed;
for ``GenericRV`` flat quadratures of the radial law against the Beta(s,
A - s) law of D_i. ``LiouvilleParams._law(s)`` gives that law's CDF,
survival, quantile and inverse survival, and every quantile follows one
two-sided rule: the CDF is inverted for q <= 1/2 and the survival 1 - q
above, so that neither tail cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence, Union

import numpy as np
from scipy import special

from .opscale import DiagExponent

# rows per block of ``sample`` (and of the orthant counts on a sample)
_BLOCK_ROWS = 1 << 16


def _quad(f, a, b, **kw):
    """Every Liouville quadrature: a pure relative tolerance, deep subdivision.
    scipy.integrate is imported here, so that closed-form work never loads it."""
    from scipy import integrate
    return integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-11, limit=400, **kw)


class IntegrabilityError(ValueError):
    """The driving function fails integrability against t^{A-1}."""


class NotOperatorRegularlyVarying(ArithmeticError):
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
    if not isinstance(d, dict):
        raise ValueError(f"driving function must be an object, got {d!r}")
    kind = d.get("type")
    if kind not in _DRIVING_TYPES:
        raise ValueError(f"unknown driving function type {kind!r}")
    return _DRIVING_TYPES[kind](d)


class LiouvilleParams:
    """Validated parameters (a, g) with cached normalizers.

    Construction verifies integrability of t^{A-1} g(t) on (0, infinity)
    (A = sum a_i) and stores that integral; for the inverted-Dirichlet
    driver this is the Beta function B(A, theta - A), requiring theta > A.
    Every radial and marginal CDF, survival, quantile and density takes a
    float, giving a float, or an array, giving an array of its shape.
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

    def _diverges(self, order: float) -> bool:
        """Whether int^inf s^{order-1} g(s) ds (at order A, the radial norm) diverges:
        order > beta, or order = beta with log_power >= -1; never for ``Rapid``."""
        beta, log_power = self.g.rv_index, getattr(self.g, "log_power", 0.0)
        return beta is not None and (order > beta or (order == beta and log_power >= -1))

    def _radial_norm(self) -> float:
        A = self.total_shape
        if not isinstance(self.g, (InvertedDirichlet, GenericRV, Rapid)):
            raise TypeError(f"unsupported driving function {self.g!r}")
        if self._diverges(A):
            raise IntegrabilityError(
                f"integrability violated: need sum(a) < {self.g.rv_index}, or "
                f"equality with log_power < -1 (sum(a) = {A})")
        return float(self._gamma_weyl(A, 0.0))  # N = Gamma(A) W^A g(0)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {"a": list(self.a), "g": self.g.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "LiouvilleParams":
        return cls(d["a"], driving_from_dict(d["g"]))

    def __repr__(self):
        return f"LiouvilleParams(a={self.a}, g={self.g})"

    # -- joint density ----------------------------------------------------

    def joint_density(self, x):
        """c_f * g(sum x_i) * prod x_i^{a_i - 1} at one point ``(d,)``, as a float,
        or at each point of a batch ``(..., d)``, as an array; see ``_kernel``."""
        return self._kernel(x, slice(None), self.g)

    def _kernel(self, x, idx, h):
        """c_f * h(sum_{i in idx} x_i) * prod x_i^{a_i - 1} over the last axis of
        x >= 0. A factor is +inf at x_i = 0 with a_i < 1 and at an unsummed x_i =
        inf with a_i > 1 (and 1 at 0**0). The value is +inf where h or a factor
        at 0 is, and else 0, its limit, where a summed x_i is inf and no factor is."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError("dimension mismatch")
        if np.any(x < 0):
            raise ValueError("coordinates must be non-negative")
        a, summed = np.asarray(self.a), np.zeros(self.dim, dtype=bool)
        summed[idx] = True
        with np.errstate(divide="ignore", invalid="ignore"):
            head = self.norm_const * h(x[..., idx].sum(axis=-1))
            out = head * (x ** (a - 1)).prod(axis=-1)
        zero_pole = np.any((x == 0) & (a < 1), axis=-1)
        pole = zero_pole | np.any(np.isinf(x) & ~summed & (a > 1), axis=-1)
        out = np.where(np.isinf(head) | zero_pole, math.inf, out)
        out = np.where(np.any(np.isinf(x) & summed, axis=-1) & ~pole, 0.0, out)
        return float(out) if x.ndim == 1 else out

    # -- radial part ------------------------------------------------------

    def radial_cdf(self, r):
        """CDF of the radial part R, density proportional to t^{A-1} g(t)."""
        if not np.all(np.asarray(r, dtype=float) > 0):
            raise ValueError("radial_cdf requires r > 0")
        return self._law_at(self.total_shape, 0, r)

    def radial_quantile(self, q):
        """Inverse radial CDF by the two-sided rule of ``_quantile``: closed
        for the closed drivers, a root of the quadrature CDF or survival for
        GenericRV."""
        return self._quantile(self.total_shape, q)

    # -- one law per driver: R (shape s = A) and every X_i (s = a_i) ------

    def _law(self, s: float):
        """(cdf, sf, ppf, isf) of the law with shape s, array-in: the law of R
        for s = A and of X_i for s = a_i. BetaPrime(s, theta - A) for the
        inverted Dirichlet, Gamma(s) for ``Rapid``; for GenericRV the
        quadratures of ``_quad_sides``, inverted by ``_root``."""
        if isinstance(self.g, InvertedDirichlet):
            b = self.g.theta - self.total_shape

            def ratio(u, v, t):  # Y/(1-Y) at the t-quantile of Y ~ Beta(u, v); y
                # rounds near 1, so there 1 - y is the (1-t)-quantile of Beta(v, u)
                y = special.betaincinv(u, v, t)
                one_minus_y, near = 1.0 - y, np.flatnonzero(y > 0.999)
                one_minus_y[near] = special.betaincinv(v, u, 1.0 - t[near])
                return y / one_minus_y

            def side(below, above):  # beta argument <= 1/2, so that it never rounds to 1
                return lambda x: np.where(x >= 1.0, above(b, s, 1.0 / (1.0 + x)),
                                          below(s, b, x / (1.0 + x)))

            # 1/X ~ BetaPrime(b, s), so the isf of X is 1/ppf of that law
            return (side(special.betainc, special.betaincc),
                    side(special.betaincc, special.betainc),
                    lambda q: ratio(s, b, q), lambda p: 1.0 / ratio(b, s, p))
        if isinstance(self.g, Rapid):
            return tuple(partial(f, s) for f in (special.gammainc, special.gammaincc,
                                                 special.gammaincinv, special.gammainccinv))
        cdf, sf = self._quad_sides(s)
        return tuple(np.vectorize(f, otypes=[float]) for f in (
            cdf, sf, lambda q: _root(cdf, q), lambda p: _root(lambda x: -sf(x), -p)))

    def _quad_sides(self, s: float):
        """Scalar (cdf, sf) of the GenericRV law with shape s, each integrated
        on its own side of x = 1 and one minus the other beyond it. X = R * D,
        D ~ Beta(s, m), m = A - s, independent of R (density u^{A-1} g(u) / N):
        P(X <= x) = P(R <= x) + E[betainc(s, m, x/R); R > x] and P(X > x) =
        E[betaincc(s, m, x/R); R > x]; for R (m = 0, D = 1) these are 0 and 1.
        CDF side: (0, x] with u^{A-1} as quad's weight, (x, 1] in ln u, (1, inf)
        in 1/u; survival side: u = x/v, v in (0, 1)."""
        A, m = self.total_shape, self.total_shape - s
        kappa, g = self._shape_norm(A), lambda u: float(self.g(u))
        cdf_d = partial(special.betainc, s, m)
        sf_d = (lambda v: 1.0) if m == 0 else partial(special.betaincc, s, m)

        def low(x):
            val = _quad(g, 0.0, x, weight="alg", wvar=(A - 1.0, 0.0))[0]
            if m > 0:
                val += _quad(lambda t: cdf_d(x * math.exp(-t)) * math.exp(A * t)
                             * g(math.exp(t)), math.log(x), 0.0)[0]
                val += _quad(lambda v: cdf_d(x * v) * v ** (-A - 1) * g(1.0 / v),
                             0.0, 1.0)[0]
            return min(kappa * val, 1.0)

        def high(x):
            val = _quad(lambda v: v ** (-A - 1) * g(x / v) * sf_d(v), 0.0, 1.0)[0]
            return x ** A * val / self.radial_norm

        return (lambda x: low(x) if x <= 1.0 else 1.0 - high(x),
                lambda x: high(x) if x > 1.0 else 1.0 - low(x))

    def _law_at(self, s: float, k: int, x):
        """The CDF (k = 0) or survival (k = 1) of the law with shape s at
        x >= 0, exact at x = 0 and x = inf."""
        x = np.asarray(x, dtype=float)
        if not np.all(x >= 0):  # NaN fails too
            raise ValueError("x must be non-negative")
        inner = (x > 0) & (x < math.inf)
        out = np.where(x > 0, 1.0 - k, float(k))
        out[inner] = self._law(s)[k](x[inner])
        return float(out) if out.ndim == 0 else out

    def _quantile(self, s: float, q):
        """The inverse CDF of the law with shape s by one rule: ppf(q) for
        q <= 1/2 and isf(1 - q) above, so that neither tail cancels. Each side
        is evaluated on its own entries only."""
        q = np.asarray(q, dtype=float)
        if not np.all((q > 0) & (q < 1)):
            raise ValueError("quantile levels q must lie in (0, 1)")
        _, _, ppf, isf = self._law(s)
        flat, out = q.ravel(), np.empty(q.size)
        low = flat <= 0.5
        # integer indices: boolean indexing on a random mask is ~5x slower
        idx = np.flatnonzero(low)
        out[idx] = ppf(flat[idx])
        idx = np.flatnonzero(~low)
        out[idx] = isf(1.0 - flat[idx])
        return float(out[0]) if q.ndim == 0 else out.reshape(q.shape)

    # -- sampling ---------------------------------------------------------

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. rows of X = R * D, D ~ Dirichlet(a), R by quantile
        inversion. Counter-based Philox stream keyed by the seed makes the
        output bitwise reproducible.

        The uniforms are clipped to [1e-16, 1 - 1e-16], so no radial draw lies
        beyond the 1e-16 or the 1 - 1e-16 quantile of R. The gammas are drawn
        into the returned array, which is then turned into X one block of
        ``_BLOCK_ROWS`` rows at a time: the working memory is the output,
        n * d * 8 bytes, plus one block."""
        if n < 1:
            raise ValueError("n must be at least 1")
        rng = np.random.Generator(np.random.Philox(int(seed)))
        x = rng.standard_gamma(np.asarray(self.a), size=(n, self.dim))
        # Philox gives the same uniforms block by block as in one call
        for i in range(0, n, _BLOCK_ROWS):
            block = x[i:i + _BLOCK_ROWS]
            block /= block.sum(axis=1, keepdims=True)
            u = np.clip(rng.random(len(block)), 1e-16, 1.0 - 1e-16)
            block *= self.radial_quantile(u)[:, None]
        return x

    # -- marginals: the law above, and the Weyl fractional integral -------

    def weyl_integral(self, order: float, x):
        """W^order g(x) = (1/Gamma(order)) * int_x^inf (s-x)^{order-1} g(s) ds at
        x >= 0, a float or an array. ValueError where it diverges: order > beta,
        or order = beta unless log_power < -1 (the inverted Dirichlet's beta is
        theta, its log_power 0).

        Closed: B(m, theta-m)/Gamma(m) * (1+x)^{m-theta} (inverted Dirichlet) and
        e^{-x} (``Rapid``). For ``GenericRV``, one quadrature per point over the
        whole t line, s = x + (1+x) e^t: Gamma(m) W^m g(x) = (1+x)^{m-beta} *
        int exp(m t - beta softplus(t)) log(e+s)^{log_power} dt, finite everywhere;
        within 3e-15 of B(m, beta-m) (log_power 0) up to m = beta - 0.05, x = 1e9,
        and of mpmath within 3e-13 at 300 random (beta, log_power, m, x).
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        if self._diverges(order):
            raise ValueError(f"W^{order} g diverges: need order < {self.g.rv_index}, "
                             f"or order = {self.g.rv_index} with log_power < -1")
        x = np.asarray(x, dtype=float)
        if order == 0 or isinstance(self.g, Rapid):  # W^m e^{-x} = e^{-x}
            out = self.g(x)
        else:
            out = self._gamma_weyl(order, x) / math.exp(special.gammaln(order))
        return float(out) if out.ndim == 0 else out

    def _gamma_weyl(self, order: float, x):
        """Gamma(order) * W^order g(x), order > 0: N = Gamma(A) W^A g(0) is a double
        where Gamma(A) overflows or W^A g(0) underflows (a = (75, 75), theta = 300)."""
        beta = self.g.rv_index
        if isinstance(self.g, Rapid):
            return math.exp(special.gammaln(order)) * np.exp(-x)
        if isinstance(self.g, InvertedDirichlet):
            return math.exp(special.betaln(order, beta - order)) * (1.0 + x) ** (order - beta)

        def core(t, log1p_x):
            softplus = max(t, 0.0) + math.log1p(math.exp(-abs(t)))
            log1p_s = log1p_x + softplus  # log(e+s) = log(1+s) + log1p((e-1)/(1+s))
            log_e_s = log1p_s + math.log1p((math.e - 1.0) * math.exp(-log1p_s))
            return math.exp(order * t - beta * softplus) * log_e_s ** self.g.log_power

        out = np.array([_quad(core, -math.inf, math.inf, args=(math.log1p(v),))[0]
                        for v in np.ravel(x).tolist()]).reshape(np.shape(x))
        return out * (1.0 + x) ** (order - beta)

    def _shape_norm(self, s: float) -> float:
        # kappa_s = Gamma(A) / (Gamma(s) N), exact by Liouville's formula; for
        # s = a_i it is c_f * prod_{j != i} Gamma(a_j), and 1/N for s = A
        return math.exp(special.gammaln(self.total_shape) - special.gammaln(s)
                        - math.log(self.radial_norm))

    def marginal_density(self, i: int, x):
        """f_i(x) = kappa_i * W^{a^{(i)}} g(x) * x^{a_i - 1}, a^{(i)} = sum_{j != i} a_j:
        the BetaPrime(a_i, theta - A) or Gamma(a_i) density for the closed
        drivers, through the closed ``weyl_integral``; 0, its limit, at x = inf."""
        self._check_margin(i)
        x = np.asarray(x, dtype=float)
        if not np.all(x >= 0):
            raise ValueError("x must be non-negative")
        ai, inner = self.a[i], x < math.inf
        out = np.zeros(x.shape)
        weyl = self.weyl_integral(self.total_shape - ai, x[inner])
        with np.errstate(divide="ignore"):  # 0 ** (a_i - 1) is inf for a_i < 1
            out[inner] = self._shape_norm(ai) * weyl * x[inner] ** (ai - 1.0)
        return float(out) if out.ndim == 0 else out

    def _marginal_survival(self, i: int, x):
        """P(X_i > x), the survival of the law of ``_law(a_i)``."""
        self._check_margin(i)
        return self._law_at(self.a[i], 1, x)

    def marginal_cdf(self, i: int, x):
        """P(X_i <= x), computed directly rather than as 1 - survival, so that
        small values keep their relative accuracy: ``betainc``/``gammainc``
        for the closed drivers, for GenericRV the mean over R of the Beta CDF
        of x/R (for x > 1 there, one minus the directly integrated survival)."""
        self._check_margin(i)
        return self._law_at(self.a[i], 0, x)

    def marginal_quantile(self, i: int, q):
        """Inverse of ``marginal_cdf`` by the two-sided rule of ``_quantile``:
        the CDF side for q <= 1/2, the survival side 1 - q above."""
        self._check_margin(i)
        return self._quantile(self.a[i], q)

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
        to limiting_density(x); ArithmeticError where it is not a positive double."""
        self.rv_beta()
        self._check_exponent(E)
        if not (t > 0 and math.isfinite(t)):
            raise ValueError(f"t must be positive and finite, got {t}")
        t, lam = np.float64(t), E.as_array()  # overflow gives inf, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            v = float(self.g(t ** E.lam_max) * t ** float(lam @ np.asarray(self.a)))
        if not (v > 0 and math.isfinite(v)):
            raise ArithmeticError(f"tail normalizer V(t) at t = {t:g} is {v:g}")
        return v

    def tail_rv_index(self, E: DiagExponent) -> float:
        """rho = lambda_max * beta - sum lambda_i a_i; V is RV_{-rho}."""
        beta = self.rv_beta()
        self._check_exponent(E)
        lam = E.as_array()
        return E.lam_max * beta - float(lam @ np.asarray(self.a))

    def _check_exponent(self, E: DiagExponent):
        if E.dim != self.dim:
            raise ValueError("exponent dimension mismatch")


def _root(h, y: float) -> float:
    """x > 0 with h(x) = y for an increasing h: a bracket stepped out from
    x = 1 by factors of 8, then brentq to a relative tolerance."""
    from scipy import optimize  # here, so that importing the package skips it

    f = lambda x: h(x) - y
    x, fx = 1.0, f(1.0)
    step = 8.0 if fx < 0 else 0.125
    while True:
        x_next = x * step
        f_next = f(x_next)
        if (f_next < 0) != (fx < 0):
            break
        if not 1e-300 < x_next < 1e300:
            raise RuntimeError("quantile bracket exhausted")
        x, fx = x_next, f_next
    return optimize.brentq(f, min(x, x_next), max(x, x_next), xtol=1e-300, rtol=1e-12)
