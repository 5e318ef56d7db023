"""Exact min-cost assignment.

Delegates to ``scipy.optimize.linear_sum_assignment``, an O(d^3) shortest
augmenting path method (Crouse, "On implementing 2D rectangular assignment
algorithms", IEEE TAES 2016).  Entries may be negative or tie; the result
is an optimum, deterministic for a given cost matrix, but when several
assignments attain the minimum no particular one is promised.
"""

from __future__ import annotations

import numpy as np


def solve_assignment(C) -> np.ndarray:
    """Minimum-cost perfect matching on a square cost matrix.

    Returns the permutation as a 1-based rank vector: entry ``j`` is the
    column (rank) assigned to row (label) ``j``, plus one.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[0] != C.shape[1]:
        raise ValueError(f"cost matrix must be square, got {C.shape}")
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix entries must be finite")
    # Imported on first use: loading scipy.optimize is a large share of start-up.
    from scipy.optimize import linear_sum_assignment
    _, cols = linear_sum_assignment(C)
    return cols.astype(np.int64) + 1


def assignment_cost(C, sigma) -> float:
    """Cost of a rank vector under a cost matrix, summed in label order."""
    C = np.asarray(C, dtype=float)
    sigma = np.asarray(sigma, dtype=np.int64).ravel()
    # A cumulative sum adds the entries one at a time, in label order.
    return float(np.cumsum(C[np.arange(C.shape[0]), sigma - 1])[-1])
