"""Prediction by minimizing the estimated conditional risk over the output space.

``infer_batch`` is the one place that picks a solver for a (loss, space)
pair, for every row of a weight matrix at once: explicit finite spaces are
minimized exhaustively over a member-by-label loss table built once per
batch, hierarchies by the exact closure solver and rankings by min-cost
assignment on the additive coefficients of all rows, and flow polytopes by
one call of the loss's batched flow solver.
``infer_from_weights`` is its one-row case, and ``infer`` computes the
weights of one query or a batch first, or for Hamming on a hierarchy the
label statistics that stand in for them.

Only the weights depend on the query: what a solver derives from the
training labels (``solver_state``) is fixed by the model.  ``infer``
builds it on a model's first call and keeps it on the model
(``model_state``); the solvers take it in place of the labels, and
build it on each call from labels passed as they are, through the same
builders, so both give the same bits.  Two label-only operands are
rebuilt per call, not kept: the hierarchical loss's float labels with
their arc products, and ``K^-1 Phi``; each would hold arrays the size of
the labels for the model's life.

Exhaustive and hierarchy argmins break ties toward the lexicographically
smallest encoding, and so does every path (vertex) answer of the flow
solvers; rankings return an optimum, with no rule among tied ones.
"""

from __future__ import annotations

import numpy as np

from .assignment import assignment_cost, solve_assignment
from .closure import solve_hierarchy
from .flow_opt import flow_labels, solve_flow_abs_batch, solve_flow_sq_batch
from .losses import (LossSpec, additive_coefficients, footrule_state, label_embedding,
                     loss_value)
from .model import TrainedModel, weights
from .results import EXACT, InferenceResult, SolverParams
from .spaces import OutputSpace

# Query rows per block: the command line runs a query file this many rows
# at a time, so its memory is O(BLOCK_ROWS * m) for m training rows (times
# the arc count a for L1 flows, whose two prefix-sum tables take
# 16 a (m + 1) bytes per row), and the surrogate's augmented risk
# minimization puts the labels of this many rows in front of the training
# labels.
BLOCK_ROWS = 256


def explicit_risks(loss: LossSpec, space: OutputSpace, labels, W):
    """Members of an explicit space in construction order and the
    (Q, members) risks ``sum_i W[q, i] loss(member, labels[i])``.

    The member-by-label loss table is built once per batch, evaluating the
    loss once per distinct label row.
    """
    members = [np.asarray(m, dtype=float) for m in space.members]
    distinct, inverse = np.unique(np.asarray(labels), axis=0, return_inverse=True)
    table = np.array([[loss_value(loss, mbr, u) for u in distinct]
                      for mbr in members])[:, inverse.ravel()]
    return members, np.array([[np.dot(w, row) for row in table] for w in W])


def _lex_argmin(members, values):
    """Smallest value, ties to the lexicographically smallest member."""
    best_y, best_obj = None, np.inf
    for member, obj in zip(members, values):
        if obj < best_obj or (obj == best_obj and tuple(member) < tuple(best_y)):
            best_y, best_obj = member, obj
    return best_y, best_obj


_ADDITIVE_LOSSES = {"hierarchy": ("hamming", "hierarchical"), "assignment": ("footrule",)}


def infer_batch(W, labels, loss: LossSpec, space: OutputSpace,
                params: SolverParams | None = None,
                embedded: bool = False) -> list[InferenceResult]:
    """Minimize the weighted empirical risk ``sum_i W[q, i] loss(y, y_i)`` over
    the space for each row of ``W`` (Q, m).

    Additive losses get the coefficients of all rows from one
    ``additive_coefficients`` call; hierarchies then take one
    ``solve_hierarchy`` call for the batch and rankings solve per row.  Flow
    polytopes take one call of the loss's batched flow solver, and explicit
    spaces one ``explicit_risks`` table, minimized row by row.  A row's
    answer depends only on the labels it weighs, up to rounding, so rows may
    share one label set.  A hierarchical loss must be defined on the
    space's hierarchy.  With ``embedded``, ``W`` holds the label statistics
    ``W @ Phi`` for the pair's ``label_embedding`` (see ``infer``) in place
    of the weights.  ``labels`` may also be the second item of the pair's
    ``solver_state``, which its solver takes in place of the raw labels.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if embedded and space.kind not in _ADDITIVE_LOSSES:
        raise ValueError(f"{space.kind} spaces take weights, not label statistics")
    if space.kind == "explicit_finite":
        members, R = explicit_risks(loss, space, labels, W)
        return [InferenceResult(y_star=y, objective=float(obj), certificate=EXACT)
                for y, obj in (_lex_argmin(members, r) for r in R)]
    if space.kind in _ADDITIVE_LOSSES:
        if loss.kind not in _ADDITIVE_LOSSES[space.kind]:
            raise ValueError(f"loss {loss.kind!r} is not supported on {space.kind} spaces")
        # Identity first: callers pass the space's own hierarchy.
        if loss.kind == "hierarchical" and not (loss.hierarchy is space.hierarchy
                                                or loss.hierarchy == space.hierarchy):
            raise ValueError("hierarchical loss is defined on another hierarchy than the space")
        C, offsets = additive_coefficients(loss, labels, W, embedded)
        if space.kind == "hierarchy":
            Y = solve_hierarchy(C, space.hierarchy)
            objs = [c @ y + off for c, y, off in zip(C, Y, offsets)]
        else:
            Y = [solve_assignment(c) for c in C]
            objs = [assignment_cost(c, y) + off for c, y, off in zip(C, Y, offsets)]
        return [InferenceResult(y_star=y, objective=float(obj), certificate=EXACT)
                for y, obj in zip(Y, objs)]
    if space.kind == "flow_polytope":
        # Looked up per call, so a rebinding of either module-level name (a
        # tracer's or a test's) takes effect.
        solver = {"absolute": solve_flow_abs_batch, "square": solve_flow_sq_batch}.get(loss.kind)
        if solver is None:
            raise ValueError(f"loss {loss.kind!r} is not supported on flow polytopes")
        Y, objs, certs = solver(W, labels, space.network, params)
        return [InferenceResult(y_star=y, objective=float(obj), certificate=cert)
                for y, obj, cert in zip(Y, objs, certs)]
    raise ValueError(f"unsupported (loss, space) pair: ({loss.kind}, {space.kind})")


def infer_from_weights(w, labels, loss: LossSpec, space: OutputSpace,
                       params: SolverParams | None = None) -> InferenceResult:
    """Minimize the weighted empirical risk ``sum_i w_i loss(y, y_i)`` over the
    space: the one-row case of ``infer_batch``."""
    return infer_batch(np.asarray(w, dtype=float).reshape(1, -1), labels, loss, space,
                       params)[0]


def infer(model: TrainedModel, loss: LossSpec, space: OutputSpace, x,
          params: SolverParams | None = None) -> InferenceResult | list[InferenceResult]:
    """Predict at ``x`` by minimizing the estimated conditional risk.

    One query ``x`` (p,) gives one ``InferenceResult``; a batch (Q, p) gives
    a list of them, one per row.

    Where the pair has a label embedding ``Phi`` (Hamming on a hierarchy),
    the weights are never formed: ``model.weights`` returns the statistics
    ``W @ Phi`` in its cheaper order.  The pair's ``solver_state``, Phi
    among it, is built on the model's first call and kept on it; the
    model's labels must not change after that.
    """
    Phi, labels = model_state(model, loss, space)
    results = infer_batch(weights(model, x, Phi), labels, loss, space, params,
                          embedded=Phi is not None)
    return results if np.ndim(x) == 2 else results[0]


def solver_state(loss: LossSpec, space: OutputSpace, labels):
    """What the pair's solvers derive from the training labels alone, as
    ``(Phi, labels)``.  ``Phi`` is the ``label_embedding`` whose statistics
    ``W @ Phi`` stand in for the weights (Hamming on a hierarchy), else
    None.  ``labels`` are what the pair's solver takes in place of the
    labels: the footrule's ``footrule_state`` and the flow solvers'
    ``flow_labels``, ranked for the absolute loss; other pairs take the
    labels as given.  Labels outside the space raise ValueError."""
    if space.kind == "hierarchy" and loss.kind == "hamming":
        return label_embedding(loss, labels), labels
    if space.kind == "assignment" and loss.kind == "footrule":
        return None, footrule_state(labels)
    if space.kind == "flow_polytope" and loss.kind in ("absolute", "square"):
        return None, flow_labels(labels, space.network, ranked=loss.kind == "absolute")
    return None, labels


def model_state(model: TrainedModel, loss: LossSpec, space: OutputSpace):
    """``solver_state`` of the model's labels, built on the first call for
    the loss kind and this space object and kept on the model, one per
    loss kind; a failed label check is not kept, so it raises on every
    call."""
    memo = model._memo
    hit = memo.get(loss.kind)
    if hit is None or hit[0] is not space:
        hit = memo[loss.kind] = (space, solver_state(loss, space, model.labels))
    return hit[1]
