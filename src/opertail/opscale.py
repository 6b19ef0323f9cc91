"""Diagonal operator exponents, power matrices t^E, and the quasi-homogeneous gauge.

Diagonal exponents are the load-bearing case: every closed form downstream
assumes E = DIAG(lambda_i) with lambda_i > 0. General square matrices are
supported only by the power-matrix utility (delegating to scipy's
scaling-and-squaring matrix exponential).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm


@dataclass(frozen=True)
class DiagExponent:
    """Diagonal tail-index matrix E = DIAG(lambda_i), lambda_i > 0."""

    eigenvalues: tuple

    def __init__(self, eigenvalues: Sequence[float]):
        eig = tuple(float(v) for v in np.atleast_1d(np.asarray(eigenvalues, dtype=float)))
        if len(eig) < 1:
            raise ValueError("need at least one eigenvalue")
        for v in eig:
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"all eigenvalues must be positive and finite, got {v}")
        object.__setattr__(self, "eigenvalues", eig)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def trace(self) -> float:
        return float(sum(self.eigenvalues))

    @property
    def lam_max(self) -> float:
        return float(max(self.eigenvalues))

    @property
    def argmax_set(self) -> tuple:
        """(lambda) = indices attaining the maximal eigenvalue (within 1e-12)."""
        m = self.lam_max
        return tuple(i for i, v in enumerate(self.eigenvalues)
                     if abs(v - m) <= 1e-12 * m)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.eigenvalues, dtype=float)

    @classmethod
    def from_dict(cls, d: dict) -> "DiagExponent":
        return cls(d["eigenvalues"])


def power_matrix(E, t: float) -> np.ndarray:
    """t^E = exp(E log t); diagonal exponents get the exact entrywise form,
    any other square matrix scipy's scaling-and-squaring ``expm``."""
    if t <= 0:
        raise ValueError(f"power_matrix requires t > 0, got {t}")
    if isinstance(E, DiagExponent):
        return np.diag(float(t) ** E.as_array())
    E = np.asarray(E, dtype=float)
    if E.ndim != 2 or E.shape[0] != E.shape[1]:
        raise ValueError(f"matrix must be square, got shape {E.shape}")
    if not np.all(np.isfinite(E)):
        raise ValueError("matrix entries must be finite")
    return expm(E * math.log(t))


def gauge(E: DiagExponent, x: Sequence[float]) -> float:
    """Quasi-homogeneous gauge [x] = sum_i |x_i|^{1/lambda_i}; [t^E x] = t [x]."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != E.dim:
        raise ValueError("dimension mismatch")
    out = np.sum(np.abs(x) ** (1.0 / E.as_array()), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def gauge_decompose(E: DiagExponent, x: Sequence[float]):
    """Split x != 0 into (radius, direction) with radius = [x], [direction] = 1."""
    x = np.asarray(x, dtype=float)
    r = gauge(E, x)
    if r == 0:
        raise ValueError("gauge_decompose requires x != 0")
    direction = x / r ** E.as_array()
    return r, direction
