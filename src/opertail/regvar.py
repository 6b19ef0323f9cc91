"""Tail-index diagnostics for regularly varying margins.

``karamata_defect`` measures how far a density and its survival function
are from Karamata's relation t f(t) ~ alpha Fbar(t) at a finite t, and
``hill_estimate`` is the Hill estimator of a sample's tail index alpha,
the sample-based oracle for the marginal tail indices. The tail
normalizers r_i and ell of ``copulatail.empirical_tail_density`` are
plain callables, r_i(u) = u for instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import hill_log_sum


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


def karamata_defect(density: Callable[[float], float],
                    survival: Callable[[float], float],
                    alpha: float, t: float) -> float:
    """Defect |t f(t) / (alpha Fbar(t)) - 1| of the Karamata tail relation."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
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
