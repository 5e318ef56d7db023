"""Optimization over flow polytopes with unit source/sink throughput.

The polytope of nonnegative conserving flows on an acyclic network with a
single unit source and sink is the convex hull of its s-t path indicator
vectors.  Everything here works in that vertex representation: the linear
minimization oracle is a shortest-path computation, the quadratic solver is
a pairwise Frank-Wolfe over path atoms (iterates are convex combinations of
paths, hence feasible to machine precision), and the L1 solver is projected
subgradient descent whose projection step reuses the Frank-Wolfe machinery.

The batch entry points vectorize across query weight vectors; a single
query is exactly the one-row batch, so both paths produce identical output.
"""

from __future__ import annotations

import numpy as np

from .results import EXACT, Certificate, HEURISTIC, InferenceResult, SolverParams
from .spaces import FlowNetwork, flow_residual

_LABEL_FEAS_TOL = 1e-9
_THETA_EPS = 1e-14
_PROJECT_TOL = 1e-11
_PROJECT_ITERS = 60
_LABEL_CANDIDATE_LIMIT = 1500


def enumerate_st_paths(net: FlowNetwork, cap: int = 100_000) -> np.ndarray:
    """Arc-indicator matrix of every s-t path, one row per path.

    Paths are generated by depth-first search following outgoing arcs in
    arc-index order, so the row order is deterministic.  The result is
    cached on the network.
    """
    if net._paths is not None:
        return net._paths
    if not net.is_acyclic:
        raise ValueError("path enumeration requires an acyclic network")
    s, t = net.unit_endpoints()
    out = [[] for _ in range(net.n_nodes)]
    for a, (tail, head) in enumerate(net.arcs):
        out[tail].append((a, head))
    rows: list[list[int]] = []
    # Explicit stack instead of recursion, so deep networks do not hit the
    # recursion limit; pushing arcs in reverse pops them in arc-index order.
    stack = [(s, ())]
    while stack:
        u, arcs = stack.pop()
        if u == t:
            rows.append(list(arcs))
            if len(rows) > cap:
                raise ValueError(f"more than {cap} source-sink paths")
            continue
        stack.extend((v, arcs + (a,)) for a, v in reversed(out[u]))
    if not rows:
        raise ValueError("network has no source-sink path")
    P = np.zeros((len(rows), net.n_arcs))
    for i, arcs in enumerate(rows):
        P[i, arcs] = 1.0
    object.__setattr__(net, "_paths", P)
    return P


def enumerate_path_vertices(net: FlowNetwork) -> list[np.ndarray]:
    P = enumerate_st_paths(net)
    return [P[i].copy() for i in range(P.shape[0])]


def lex_min_vertex(net: FlowNetwork) -> np.ndarray:
    P = enumerate_st_paths(net)
    best = min(range(P.shape[0]), key=lambda i: tuple(P[i]))
    return P[best].copy()


def lmo_flow(costs, net: FlowNetwork) -> np.ndarray:
    """Indicator flow of a minimum-cost s-t path (costs may be negative).

    Computed by dynamic programming in topological order; ties keep the
    earliest candidate in processing order, then by arc index.
    """
    costs = np.asarray(costs, dtype=float).ravel()
    if costs.shape[0] != net.n_arcs:
        raise ValueError(f"cost vector has {costs.shape[0]} entries for {net.n_arcs} arcs")
    order = net.topological_order()
    if order is None:
        raise ValueError("linear minimization oracle requires an acyclic network")
    s, t = net.unit_endpoints()
    out = [[] for _ in range(net.n_nodes)]
    for a, (tail, head) in enumerate(net.arcs):
        out[tail].append((a, head))
    dist = [np.inf] * net.n_nodes
    pred = [-1] * net.n_nodes
    dist[s] = 0.0
    for u in order:
        if dist[u] == np.inf:
            continue
        for a, v in out[u]:
            cand = dist[u] + costs[a]
            if cand < dist[v]:
                dist[v] = cand
                pred[v] = a
    if dist[t] == np.inf:
        raise ValueError("sink is not reachable from the source")
    y = np.zeros(net.n_arcs)
    v = t
    while v != s:
        a = pred[v]
        y[a] = 1.0
        v = net.arcs[a][0]
    return y


def _pairwise_fw(P, Z, Theta, scale, gap_tol, max_iters, track_history=False):
    """Pairwise Frank-Wolfe for ``scale_q * ||Theta_q P - Z_q||^2``, batched.

    Mutates and returns Theta together with the final duality gaps.  Rows
    whose gap reaches ``gap_tol`` stop moving.
    """
    Q = Z.shape[0]
    scale = np.broadcast_to(np.asarray(scale, dtype=float), (Q,))
    rows = np.arange(Q)
    gaps = np.full(Q, np.inf)
    history: list[float] = []
    # Fixed-order einsum reductions keep every row's arithmetic identical
    # whether it runs alone or inside a batch.
    for _ in range(max_iters):
        Y = np.einsum("qk,ka->qa", Theta, P)
        grad = 2.0 * scale[:, None] * (Y - Z)
        scores = np.einsum("qa,ka->qk", grad, P)
        fw = np.argmin(scores, axis=1)
        masked = np.where(Theta > _THETA_EPS, scores, -np.inf)
        away = np.argmax(masked, axis=1)
        gaps = np.einsum("qa,qa->q", grad, Y) - scores[rows, fw]
        if track_history:
            history.append(float(gaps[0]))
        live = gaps > gap_tol
        if not np.any(live):
            break
        d = P[fw] - P[away]
        denom = 2.0 * scale * np.einsum("qa,qa->q", d, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(denom > 0, -np.einsum("qa,qa->q", grad, d) / denom, 0.0)
        step = np.clip(step, 0.0, Theta[rows, away])
        step = np.where(live, step, 0.0)
        Theta[rows, fw] += step
        Theta[rows, away] -= step
        np.clip(Theta, 0.0, None, out=Theta)
    return Theta, gaps, history


def fw_min_quadratic(z, net: FlowNetwork, scale: float = 1.0, gap_tol: float = 1e-6,
                     max_iters: int = 10_000, theta0=None):
    """Minimize ``scale * ||y - z||^2`` over the flow polytope.

    Returns ``(y, theta, gap, gap_history)``; the gap history is the raw
    per-iteration duality gap (its running minimum is what certificates
    report).
    """
    P = enumerate_st_paths(net)
    K = P.shape[0]
    if theta0 is None:
        theta = np.full((1, K), 1.0 / K)
    else:
        theta = np.asarray(theta0, dtype=float).reshape(1, K).copy()
    z = np.asarray(z, dtype=float).reshape(1, -1)
    theta, gaps, history = _pairwise_fw(P, z, theta, scale, gap_tol, max_iters,
                                        track_history=True)
    y = (theta @ P)[0]
    return y, theta[0], float(gaps[0]), history


def _check_labels(labels, net: FlowNetwork) -> np.ndarray:
    labels = np.atleast_2d(np.asarray(labels, dtype=float))
    for i in range(labels.shape[0]):
        if flow_residual(net, labels[i]) > _LABEL_FEAS_TOL:
            raise ValueError(f"training flow {i} violates conservation")
    return labels


def solve_flow_sq(w, labels, net: FlowNetwork, params: SolverParams | None = None) -> InferenceResult:
    """Minimize ``sum_i w_i ||y - y_i||^2`` over the flow polytope.

    With nonnegative weights the optimum is the weighted label mean, which
    is itself a convex combination of feasible flows (certificate exact).
    With mixed signs but positive total weight the objective is a scaled
    squared distance to that mean, solved by Frank-Wolfe to the requested
    duality gap.  Nonpositive total weight makes the objective concave, so
    a multi-start vertex descent is used (certificate heuristic).
    """
    params = params or SolverParams()
    w = np.asarray(w, dtype=float).ravel()
    labels = _check_labels(labels, net)
    if w.shape[0] != labels.shape[0]:
        raise ValueError("weight and label counts differ")

    def objective(y):
        diff = y[None, :] - labels
        return float(w @ np.einsum("ma,ma->m", diff, diff))

    if not np.any(w != 0.0):
        y = lex_min_vertex(net)
        return InferenceResult(y_star=y, objective=0.0, certificate=EXACT)
    total = float(np.sum(w))
    if total > 0:
        ybar = (w @ labels) / total
        if np.all(w >= 0) or float(np.min(ybar)) >= 0.0:
            # ybar conserves flow by construction; nonnegativity makes it
            # the unconstrained optimum sitting inside the polytope.
            return InferenceResult(y_star=ybar, objective=objective(ybar), certificate=EXACT)
        y, _, gap, _ = fw_min_quadratic(ybar, net, scale=total,
                                        gap_tol=params.gap_tol)
        return InferenceResult(y_star=y, objective=objective(y),
                               certificate=Certificate("gap", gap=gap))

    # Concave (or affine) objective: a minimizer sits at a vertex, so sweep
    # every path vertex (chunked) and keep the lexicographically smallest
    # best one.  Labeled heuristic: the guarantee rests on concavity, which
    # degenerates when the total weight is exactly zero.
    P = enumerate_st_paths(net)
    best_y, best_val = None, np.inf
    for lo in range(0, P.shape[0], 4096):
        block = P[lo:lo + 4096]
        diff = block[:, None, :] - labels[None, :, :]
        vals = np.einsum("kma,kma,m->k", diff, diff, w)
        for i in range(block.shape[0]):
            v = float(vals[i])
            if v < best_val or (v == best_val and tuple(block[i]) < tuple(best_y)):
                best_y, best_val = block[i].copy(), v
    return InferenceResult(y_star=best_y, objective=best_val, certificate=HEURISTIC)


def solve_flow_abs_batch(W, labels, net: FlowNetwork, params: SolverParams | None = None):
    """Projected subgradient descent on ``sum_i w_i ||y - y_i||_1``, batched
    over query weight rows.

    Feasibility is maintained by a warm-started Frank-Wolfe projection after
    every step, so iterates are always convex combinations of path vertices.
    Returns ``(Y, objectives, certificates)`` with one row/entry per query.
    For rows with nonnegative weights the objective is convex and the
    certificate carries the achieved duality gap from the subgradient lower
    bound; other rows are heuristic.
    """
    params = params or SolverParams()
    W = np.atleast_2d(np.asarray(W, dtype=float))
    labels = _check_labels(labels, net)
    if W.shape[1] != labels.shape[0]:
        raise ValueError("weight and label counts differ")
    P = enumerate_st_paths(net)
    Q, K = W.shape[0], P.shape[0]
    rows = np.arange(Q)
    nonneg = np.all(W >= 0.0, axis=1)
    zero_rows = ~np.any(W != 0.0, axis=1)

    starts: list[np.ndarray] = []
    uniform = np.full(K, 1.0 / K)
    starts.append(uniform)
    for r in range(1, params.restarts):
        rng = np.random.default_rng([params.seed, r])
        onehot = np.zeros(K)
        onehot[int(rng.integers(K))] = 1.0
        starts.append(onehot)

    best_Y = np.zeros((Q, net.n_arcs))
    best_obj = np.full(Q, np.inf)
    best_lb = np.full(Q, -np.inf)

    def eval_obj_grad(Y):
        diff = Y[:, None, :] - labels[None, :, :]
        obj = np.einsum("qma,qm->q", np.abs(diff), W)
        G = np.einsum("qma,qm->qa", np.sign(diff), W)
        return obj, G

    def keep_better(obj, Y):
        improved = obj < best_obj
        best_obj[improved] = obj[improved]
        best_Y[improved] = Y[improved]

    for theta0 in starts:
        Theta = np.tile(theta0, (Q, 1))
        Y = np.einsum("qk,ka->qa", Theta, P)
        # max_iters steps; the last pass only evaluates the final iterate.
        for t in range(params.max_iters + 1):
            obj, G = eval_obj_grad(Y)
            # Subgradient lower bound: f(v) >= f(y) + g.(v - y) for all v.
            lb = obj - (np.einsum("qa,qa->q", G, Y)
                        - np.min(np.einsum("qa,ka->qk", G, P), axis=1))
            np.maximum(best_lb, lb, out=best_lb)
            keep_better(obj, Y)
            if t == params.max_iters:
                break
            eta = params.step_a / (1.0 + params.step_b * t)
            Z = Y - eta * G
            Theta, _, _ = _pairwise_fw(P, Z, Theta, 1.0, _PROJECT_TOL, _PROJECT_ITERS)
            Y = np.einsum("qk,ka->qa", Theta, P)

    # Feasible candidate sweep: every path vertex always, and every training
    # label (feasible by assumption) when the pairwise distance table is
    # affordable.  This snaps exact optima that subgradient steps only
    # approach, e.g. reproducing a lone training flow.  Each row takes its
    # first cheapest candidate if it beats the incumbent strictly.
    cands = [P]
    if labels.shape[0] <= _LABEL_CANDIDATE_LIMIT:
        cands.append(labels)
    for C in cands:
        cand_obj = np.einsum("qm,km->qk", W,
                             np.einsum("kma->km", np.abs(C[:, None, :] - labels[None, :, :])))
        pick = np.argmin(cand_obj, axis=1)
        keep_better(cand_obj[rows, pick], C[pick])

    if np.any(zero_rows):
        lexmin = lex_min_vertex(net)
        best_Y[zero_rows] = lexmin
        best_obj[zero_rows] = 0.0

    certs: list[Certificate] = []
    for q in rows:
        if zero_rows[q]:
            certs.append(EXACT)
        elif nonneg[q]:
            certs.append(Certificate("gap", gap=float(max(0.0, best_obj[q] - best_lb[q]))))
        else:
            certs.append(HEURISTIC)
    return best_Y, best_obj, certs


def solve_flow_abs(w, labels, net: FlowNetwork, params: SolverParams | None = None) -> InferenceResult:
    """Single-query wrapper around the batched L1 flow solver."""
    Y, obj, certs = solve_flow_abs_batch(np.asarray(w, dtype=float)[None, :],
                                         labels, net, params)
    return InferenceResult(y_star=Y[0], objective=float(obj[0]), certificate=certs[0])


def project_batch(Z, net: FlowNetwork, gap_tol: float = 1e-6, max_iters: int = 10_000):
    """Euclidean projection of each row of Z onto the flow polytope."""
    P = enumerate_st_paths(net)
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Theta = np.full((Z.shape[0], P.shape[0]), 1.0 / P.shape[0])
    Theta, gaps, _ = _pairwise_fw(P, Z, Theta, 1.0, gap_tol, max_iters)
    return Theta @ P, gaps
