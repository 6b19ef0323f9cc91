"""Diagonal operator exponents E = DIAG(lambda_i), lambda_i > 0.

Every closed form downstream assumes a diagonal E; its action t^E x is the
entrywise t^lambda_i x_i, written out where it is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


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
