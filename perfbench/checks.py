"""Output checks that use no solver code of the program under test.

* Feasibility of every output row: the hierarchy closure holds, the row is
  a permutation of 1..d, or the flow conserves mass to ``FLOW_TOL``.
* On a sample of query rows, the objective of the output matches an exact
  reference to ``REL_TOL`` relative.  Weights come from
  ``numpy.linalg.solve`` on a Gram matrix built here; hierarchies are solved
  as the totally unimodular LP relaxation with HiGHS, rankings with
  ``scipy.optimize.linear_sum_assignment``.
* Test loss: the mean loss of the outputs against held-out labels.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from .workloads import FLOW_ARCS, FLOW_B, Instance

FLOW_TOL = 1e-9
REL_TOL = 1e-9


def parse_rows(text: str) -> np.ndarray:
    return np.array([[float(t) for t in line.split()] for line in text.splitlines()])


def feasible_rows(inst: Instance, Y: np.ndarray) -> np.ndarray:
    """Boolean per output row."""
    w = inst.workload
    if Y.ndim != 2 or Y.shape[1] != w.d:
        return np.zeros(len(Y), dtype=bool)
    if w.space == "hierarchy":
        ok = np.all((Y == 0) | (Y == 1), axis=1)
        for p, c in inst.arcs:
            ok &= Y[:, c] <= Y[:, p]
        return ok
    if w.space == "assignment":
        return np.all(np.sort(Y, axis=1) == np.arange(1, w.d + 1), axis=1)
    div = np.zeros((len(Y), len(FLOW_B)))
    for a, (t, h) in enumerate(FLOW_ARCS):
        div[:, t] += Y[:, a]
        div[:, h] -= Y[:, a]
    resid = np.max(np.abs(div - np.asarray(FLOW_B)), axis=1)
    return (resid <= FLOW_TOL) & (np.min(Y, axis=1) >= -FLOW_TOL)


def _sq_dist(A, B):
    d2 = (A * A).sum(1)[:, None] + (B * B).sum(1)[None, :] - 2.0 * A @ B.T
    return np.maximum(d2, 0.0)


def reference_weights(inst: Instance, rows) -> np.ndarray:
    """``(K + m*lambda*I)^-1 v(x)`` for the given query rows, one per row."""
    w = inst.workload
    Xtr, _ = inst.train
    Xq = inst.query[0][list(rows)]
    K = np.exp(-w.gamma * _sq_dist(Xtr, Xtr))
    V = np.exp(-w.gamma * _sq_dist(Xq, Xtr))
    return np.linalg.solve(K + w.m * w.lam * np.eye(w.m), V.T).T


def _parents(inst: Instance) -> np.ndarray:
    par = np.full(inst.workload.d, -1)
    for p, c in inst.arcs:
        par[c] = p
    return par


def penalties(inst: Instance) -> np.ndarray:
    """Sibling weights: 1 at the root, a parent's weight split evenly
    among its children."""
    d = inst.workload.d
    par = _parents(inst)
    kids = np.bincount(par[par >= 0], minlength=d)
    c = np.zeros(d)
    for j in range(d):  # parents have lower ids
        c[j] = 1.0 if par[j] < 0 else c[par[j]] / kids[par[j]]
    return c


def hierarchical_loss_rows(inst: Instance, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Definition on a tree: node ``j`` costs ``c_j`` when it disagrees and
    every ancestor agrees."""
    par, c = _parents(inst), penalties(inst)
    agree = A == B
    anc_agree = np.ones_like(agree)
    for j in range(inst.workload.d):
        if par[j] >= 0:
            anc_agree[:, j] = anc_agree[:, par[j]] & agree[:, par[j]]
    return ((~agree) & anc_agree) @ c


def loss_rows(inst: Instance, P: np.ndarray, Y: np.ndarray) -> np.ndarray:
    loss = inst.workload.loss
    if loss == "hierarchical":
        return hierarchical_loss_rows(inst, P.astype(np.int64), Y.astype(np.int64))
    if loss == "hamming":
        return np.sum(P != Y, axis=1).astype(float)
    return np.sum(np.abs(P - Y), axis=1)  # footrule on ranks, L1 on flows


def mean_test_loss(inst: Instance, P: np.ndarray) -> float:
    return float(np.mean(loss_rows(inst, P, inst.query[1])))


def linear_objective(inst: Instance, wq: np.ndarray):
    """``(c, offset)`` with ``sum_i w_i loss(y, y_i) = c . y + offset`` for
    binary ``y``; the hierarchical form is the per-arc expansion of the
    definition, valid on trees."""
    Ytr = inst.train[1].astype(float)
    if inst.workload.loss == "hamming":
        return (1.0 - 2.0 * Ytr).T @ wq, float(wq @ Ytr.sum(axis=1))
    par, c = _parents(inst), penalties(inst)
    root = int(np.flatnonzero(par < 0)[0])
    coef = np.zeros(inst.workload.d)
    coef[root] = c[root] * (wq @ (1.0 - 2.0 * Ytr[:, root]))
    offset = c[root] * float(wq @ Ytr[:, root])
    for p, ch in inst.arcs:
        coef[p] += c[ch] * (wq @ Ytr[:, ch])
        coef[ch] += c[ch] * (wq @ (Ytr[:, p] - Ytr[:, p] * Ytr[:, ch] - Ytr[:, ch]))
    return coef, offset


def hierarchy_reference(inst: Instance, coef: np.ndarray) -> float:
    """Minimum of ``coef . y`` over the closure polytope by HiGHS; the
    constraint matrix is totally unimodular, so the LP vertex is binary."""
    d = inst.workload.d
    A = np.zeros((len(inst.arcs), d))
    for r, (p, ch) in enumerate(inst.arcs):
        A[r, ch], A[r, p] = 1.0, -1.0
    # Default tolerances stop up to 1e-7 short of the optimum; presolve
    # with tight tolerances can end with an unknown status.
    res = linprog(coef, A_ub=A, b_ub=np.zeros(len(inst.arcs)), bounds=(0.0, 1.0),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10,
                                           "presolve": False})
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    y = np.round(res.x)
    if np.max(np.abs(res.x - y)) > 1e-6 or np.any(A @ y > 0):
        raise RuntimeError("reference LP vertex is not a feasible binary point")
    return float(coef @ y)


def footrule_costs(inst: Instance, wq: np.ndarray) -> np.ndarray:
    """``C[j, k] = sum_i w_i |k + 1 - sigma_i(j)|``."""
    d = inst.workload.d
    S = inst.train[1]
    M = np.zeros((d, d))
    for i in range(S.shape[0]):
        M[np.arange(d), S[i] - 1] += wq[i]
    ranks = np.arange(d)
    return M @ np.abs(ranks[:, None] - ranks[None, :]).astype(float)


class Reference:
    """Exact optimal objective per sampled query row, computed once."""

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        rows = range(inst.workload.reference_rows)
        self.rows = set(rows)
        self._obj = {}
        if not self.rows:
            return
        W = reference_weights(inst, rows)
        for r in rows:
            if inst.workload.space == "assignment":
                C = footrule_costs(inst, W[r])
                i, j = linear_sum_assignment(C)
                self._obj[r] = (C, float(C[i, j].sum()))
            else:
                coef, offset = linear_objective(inst, W[r])
                self._obj[r] = ((coef, offset), hierarchy_reference(inst, coef) + offset)

    def matches(self, row: int, y: np.ndarray) -> bool:
        """Whether output ``y`` for query ``row`` attains the reference optimum."""
        data, best = self._obj[row]
        if self.inst.workload.space == "assignment":
            got = float(data[np.arange(len(y)), y.astype(np.int64) - 1].sum())
        else:
            coef, offset = data
            got = float(coef @ y) + offset
        return abs(got - best) <= REL_TOL * max(1.0, abs(best))
