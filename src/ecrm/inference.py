"""Prediction by minimizing the estimated conditional risk over the output space.

``infer`` dispatches on the (loss, space) pair: explicit finite spaces are
minimized exhaustively, hierarchy spaces via the exact closure solver
on the additive coefficients, rankings via min-cost assignment, and flow
polytopes via the convex/heuristic continuous solvers.  The binary +/-1
zero-one case short-circuits to the classification sign rule it reduces to.
``infer_batch`` does the same for every row of a weight matrix, building the
additive coefficients of all rows at once.

Exhaustive and hierarchy argmins break ties toward the lexicographically
smallest encoding; rankings return an optimum, with no rule among tied ones.
"""

from __future__ import annotations

import numpy as np

from .assignment import assignment_cost, solve_assignment
from .closure import solve_hierarchy
from .flow_opt import solve_flow_abs, solve_flow_abs_batch, solve_flow_sq
from .losses import LossSpec, additive_coefficients, loss_value
from .model import TrainedModel, weights
from .results import EXACT, InferenceResult, SolverParams
from .spaces import OutputSpace, enumerate_space


def _is_sign_space(space: OutputSpace) -> bool:
    if space.kind != "explicit_finite" or space.dim != 1:
        return False
    vals = {m[0] for m in space.members}
    return vals == {-1.0, 1.0}


def sign_rule(w, labels) -> int:
    """Binary classification rule: predict +1 iff the weighted label sum is
    nonnegative."""
    w = np.asarray(w, dtype=float).ravel()
    lab = np.asarray(labels, dtype=float).reshape(w.shape[0], -1)[:, 0]
    return 1 if float(np.dot(w, lab)) >= 0.0 else -1


_ADDITIVE_LOSSES = {"hierarchy": ("hamming", "hierarchical"), "assignment": ("footrule",)}


def infer_from_weights(w, labels, loss: LossSpec, space: OutputSpace,
                       params: SolverParams | None = None) -> InferenceResult:
    """Minimize the weighted empirical risk ``sum_i w_i loss(y, y_i)`` over the space."""
    w = np.asarray(w, dtype=float).ravel()
    labels = np.asarray(labels)

    if space.kind == "explicit_finite":
        if loss.kind == "zero_one" and _is_sign_space(space):
            yhat = sign_rule(w, labels)
            lab = np.asarray(labels, dtype=float).reshape(w.shape[0], -1)[:, 0]
            obj = float(np.sum(w[lab != yhat]))
            return InferenceResult(y_star=np.array([float(yhat)]), objective=obj,
                                   certificate=EXACT)
        best_y, best_obj = None, np.inf
        for member in enumerate_space(space):
            obj = float(np.dot(w, [loss_value(loss, member, labels[i])
                                   for i in range(labels.shape[0])]))
            if obj < best_obj or (obj == best_obj and tuple(member) < tuple(best_y)):
                best_y, best_obj = member, obj
        return InferenceResult(y_star=best_y, objective=best_obj, certificate=EXACT)

    if space.kind in _ADDITIVE_LOSSES:
        return infer_batch(w[None, :], labels, loss, space)[0]

    if space.kind == "flow_polytope":
        if loss.kind == "square":
            return solve_flow_sq(w, labels, space.network, params)
        if loss.kind == "absolute":
            return solve_flow_abs(w, labels, space.network, params)
        raise ValueError(f"loss {loss.kind!r} is not supported on flow polytopes")

    raise ValueError(f"unsupported (loss, space) pair: ({loss.kind}, {space.kind})")


def infer_batch(W, labels, loss: LossSpec, space: OutputSpace,
                params: SolverParams | None = None) -> list[InferenceResult]:
    """``infer_from_weights`` for each row of ``W`` (Q, m).

    Additive losses get the coefficients of all rows from one
    ``additive_coefficients`` call; hierarchies then take one
    ``solve_hierarchy`` call for the batch and rankings solve per row.  The
    L1 flow solver takes the whole batch.  Other pairs run row by row.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if space.kind in _ADDITIVE_LOSSES:
        if loss.kind not in _ADDITIVE_LOSSES[space.kind]:
            raise ValueError(f"loss {loss.kind!r} is not supported on {space.kind} spaces")
        C, offsets = additive_coefficients(loss, labels, W)
        if space.kind == "hierarchy":
            Y = solve_hierarchy(C, space.hierarchy)
            objs = [c @ y + off for c, y, off in zip(C, Y, offsets)]
        else:
            Y = [solve_assignment(c) for c in C]
            objs = [assignment_cost(c, y) + off for c, y, off in zip(C, Y, offsets)]
        return [InferenceResult(y_star=y, objective=float(obj), certificate=EXACT)
                for y, obj in zip(Y, objs)]
    if space.kind == "flow_polytope" and loss.kind == "absolute":
        Y, objs, certs = solve_flow_abs_batch(W, labels, space.network, params)
        return [InferenceResult(y_star=Y[i], objective=float(objs[i]), certificate=certs[i])
                for i in range(len(W))]
    return [infer_from_weights(w, labels, loss, space, params) for w in W]


def infer(model: TrainedModel, loss: LossSpec, space: OutputSpace, x,
          params: SolverParams | None = None) -> InferenceResult:
    """Predict at ``x`` by minimizing the estimated conditional risk."""
    wv = weights(model, x)
    return infer_from_weights(wv.effective, model.labels, loss, space, params)


def brute_force_argmin(space: OutputSpace, objective, cap: int = 1_000_000) -> np.ndarray:
    """Exhaustive argmin of a callable objective over a discrete space.

    Ties resolve to the lexicographically smallest optimal encoding.
    """
    best_y, best_obj = None, np.inf
    for member in enumerate_space(space, cap=cap):
        obj = float(objective(member))
        if obj < best_obj or (obj == best_obj and tuple(member) < tuple(best_y)):
            best_y, best_obj = member, obj
    if best_y is None:
        raise ValueError("space is empty")
    return np.asarray(best_y)
