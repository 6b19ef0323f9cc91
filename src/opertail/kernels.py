"""Vectorised numpy kernels for the two loop-bound counts: Monte Carlo
region-hit counting over large sample matrices and Hill log-excess sums.
Everything quadrature- or special-function-bound stays in the scipy-backed
modules."""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# rows of x in each axis-aligned region at thresholds w
_INSIDE = {
    "box": lambda x, w: np.all(x <= w, axis=1),
    "upper_orthant": lambda x, w: np.all(x > w, axis=1),
    "lower_union": lambda x, w: np.any(x < w, axis=1),
    "box_complement": lambda x, w: ~np.all(x <= w, axis=1),
}
KINDS = tuple(_INSIDE)


def count_in_region(x: np.ndarray, w: np.ndarray, kind: str) -> int:
    """Count rows of ``x`` (n, d) falling in the region ``kind`` at ``w`` (d,)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.ndim != 2 or w.shape != (x.shape[1],):
        raise ValueError("x must be (n, d) and w must be (d,)")
    if kind not in _INSIDE:
        raise ValueError(f"unknown region kind {kind!r}")
    return int(np.count_nonzero(_INSIDE[kind](x, w)))


def hill_log_sum(tail: np.ndarray, pivot: float) -> float:
    """Sum of log(tail_j / pivot) over the upper order statistics."""
    return float(np.sum(np.log(np.asarray(tail, dtype=np.float64) / float(pivot))))
