"""Reference predictors: local (k-nearest-neighbor) risk minimization and
coordinatewise kernel ridge regression followed by Euclidean projection."""

from __future__ import annotations

import numpy as np

from .flow_opt import project_batch
from .inference import infer_from_weights
from .io import Dataset
from .kernels import KernelSpec
from .losses import LossSpec
from .model import fit, weights
from .results import SolverParams
from .spaces import OutputSpace, nonmembers

_PROJECT_GAP = 1e-6


def knn_local_risk_predict(dataset: Dataset, loss: LossSpec, space: OutputSpace, x,
                           k: int, params: SolverParams | None = None) -> np.ndarray:
    """Minimize the mean loss against the k nearest training samples.

    Shares the exact inference code path with the kernel predictor; only
    the weight vector differs (uniform over the neighborhood).
    """
    X = dataset.X
    m = X.shape[0]
    if not (1 <= k <= m):
        raise ValueError(f"k must be in 1..{m}")
    diff = X - np.asarray(x, dtype=float)[None, :]
    dist = np.einsum("ip,ip->i", diff, diff)
    # Sort by distance, breaking ties by sample index.
    order = np.lexsort((np.arange(m), dist))[:k]
    w = np.full(k, 1.0 / k)
    result = infer_from_weights(w, np.asarray(dataset.Y)[order], loss, space, params)
    return result.y_star


def krr_project_predict_batch(dataset: Dataset, space: OutputSpace, kernel: KernelSpec,
                              lam: float, Xq) -> np.ndarray:
    """Vectorized ridge-then-project over query rows."""
    if space.kind != "flow_polytope":
        raise ValueError("projection baseline is defined for flow polytopes")
    model = fit(kernel, lam, dataset.X, dataset.Y)
    W = weights(model, np.atleast_2d(np.asarray(Xq, dtype=float)))
    Yhat = W @ np.asarray(dataset.Y, dtype=float)
    todo = nonmembers(space, Yhat, tol=1e-12)[0]
    out = Yhat.copy()
    if todo.size:
        out[todo] = project_batch(Yhat[todo], space.network, gap_tol=_PROJECT_GAP)[0]
    return out
