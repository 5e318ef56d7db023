"""Reference predictors: local (k-nearest-neighbor) risk minimization and
coordinatewise kernel ridge regression followed by Euclidean projection.
The local one is ``infer_batch`` under the weight map 1/k on each query's
k nearest training rows, 0 elsewhere."""

from __future__ import annotations

import numpy as np

from .flow_opt import project_batch
from .inference import infer_batch
from .io import Dataset
from .losses import LossSpec
from .model import TrainedModel, weights
from .results import SolverParams
from .spaces import OutputSpace, nonmembers


def knn_local_risk_predict(dataset: Dataset, loss: LossSpec, space: OutputSpace, x,
                           k: int, params: SolverParams | None = None) -> np.ndarray:
    """Minimize, for each query row, the mean loss against its k nearest
    training samples (squared distance, ties to the smaller index) by one
    ``infer_batch`` call on the training labels that some row weighs, the
    kernel predictor's entry point.  One query ``x`` (p,) gives one label, a
    batch (Q, p) a (Q, d) array.
    """
    X = dataset.X
    m = X.shape[0]
    if not (1 <= k <= m):
        raise ValueError(f"k must be in 1..{m}")
    Xq = np.atleast_2d(np.asarray(x, dtype=float))
    dist = np.array([np.einsum("ip,ip->i", X - r, X - r) for r in Xq])  # no (Q, m, p) array
    near = np.argsort(dist, axis=1, kind="stable")[:, :k]
    W = np.zeros((Xq.shape[0], m))
    np.put_along_axis(W, near, 1.0 / k, axis=1)
    # A row's answer depends only on the labels it weighs; training order
    # is kept.
    cols = np.flatnonzero(W.any(axis=0))
    results = infer_batch(W[:, cols], np.asarray(dataset.Y)[cols], loss, space, params)
    Y = np.array([r.y_star for r in results])
    return Y if np.ndim(x) == 2 else Y[0]


def krr_project_predict_batch(model: TrainedModel, space: OutputSpace, Xq) -> np.ndarray:
    """Ridge-then-project over query rows: the ridge means ``W @ labels``
    of the fitted ``model``, each projected onto the flow polytope when it
    is outside it."""
    if space.kind != "flow_polytope":
        raise ValueError("projection baseline is defined for flow polytopes")
    W = weights(model, np.atleast_2d(np.asarray(Xq, dtype=float)))
    Yhat = W @ np.asarray(model.labels, dtype=float)
    todo = nonmembers(space, Yhat, tol=1e-12)[0]
    out = Yhat.copy()
    if todo.size:
        out[todo] = project_batch(Yhat[todo], space.network)[0]
    return out
