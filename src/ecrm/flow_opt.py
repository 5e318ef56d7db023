"""Optimization over flow polytopes with unit source/sink throughput.

The polytope of nonnegative conserving flows on an acyclic network with a
single unit source and sink is the convex hull of its s-t path indicator
vectors.  Everything here works in that vertex representation: the linear
minimization oracle is a shortest-path computation, the quadratic solver is
a pairwise Frank-Wolfe over path atoms (iterates are convex combinations of
paths, hence feasible to machine precision), and the L1 solver is projected
subgradient descent whose projection step reuses the Frank-Wolfe machinery.

The L1 risk ``sum_i w_i ||y - y_i||_1`` is separable over arcs and piecewise
linear on each, with breakpoints at the training labels.  The L1 solver
sorts each arc's labels and builds per-row prefix sums of ``w`` and ``w y``
once, O(Q m a) time and two (Q, a, m + 1) arrays held for the call; every
objective and subgradient evaluation after that is a binary search per arc,
O(Q a log m), with no (Q, m, a) table.

The batch entry points vectorize across query weight vectors; a single
query is exactly the one-row batch, so both paths produce identical output.
"""

from __future__ import annotations

import numpy as np

from .results import EXACT, Certificate, HEURISTIC, InferenceResult, SolverParams
from .spaces import FlowNetwork, flow_residuals

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
    whose gap reaches ``gap_tol`` stop moving, so they leave the working
    set ``idx``.  Scores are the gradient over ``2 * scale`` against every
    path, ``(Y - Z) . P_k``, with ``Z . P_k`` computed once; the exact
    line-search step is scale-free.
    """
    Q, K = Theta.shape
    scale2 = 2.0 * np.broadcast_to(np.asarray(scale, dtype=float), (Q,))
    gaps = np.full(Q, np.inf)
    history: list[float] = []
    # Fixed-order einsum reductions keep every row's arithmetic identical
    # whether it runs alone or inside a batch.
    ZP = np.einsum("qa,ka->qk", Z, P)
    idx, T = np.arange(Q), np.ascontiguousarray(Theta)
    base = idx * K
    for _ in range(max_iters):
        scores = np.einsum("qa,ka->qk", np.einsum("qk,ka->qa", T, P), P)
        scores -= ZP
        fw = scores.argmin(axis=1)
        away = np.where(T > _THETA_EPS, scores, -np.inf).argmax(axis=1)
        flat_s, flat_t = scores.reshape(-1), T.reshape(-1)
        s_fw = flat_s[base + fw]
        live_gaps = scale2 * (np.einsum("qk,qk->q", T, scores) - s_fw)
        gaps[idx] = live_gaps
        if track_history:
            history.append(float(gaps[0]))
        live = live_gaps > gap_tol
        if not live.any():
            break
        d = P[fw] - P[away]
        norm = np.einsum("qa,qa->q", d, d)
        fw += base
        away += base
        step = np.divide(flat_s[away] - s_fw, norm, out=np.zeros(T.shape[0]),
                         where=live & (norm > 0))
        np.minimum(step, flat_t[away], out=step)
        flat_t[fw] += step
        flat_t[away] -= step
        np.maximum(T, 0.0, out=T)
        if not live.all():
            Theta[idx] = T
            idx, T, ZP, scale2 = idx[live], T[live], ZP[live], scale2[live]
            base = np.arange(T.shape[0]) * K
    Theta[idx] = T
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
    bad = np.flatnonzero(flow_residuals(net, labels) > _LABEL_FEAS_TOL)
    if bad.size:
        raise ValueError(f"training flow {bad[0]} violates conservation")
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


def _l1_breakpoints(W, labels):
    """Per-arc sorted labels with per-row prefix sums of ``W`` and ``W * y``.

    Returns ``(S, CW, CWY)``: ``S[a]`` holds arc ``a``'s labels in ascending
    (stable) order, and ``CW[q, a, r]`` / ``CWY[q, a, r]`` sum ``w_qi`` /
    ``w_qi * y_ia`` over the ``r`` smallest of them.  Built one arc at a
    time, so no (Q, m, a) temporary exists.
    """
    order = np.argsort(labels, axis=0, kind="stable")
    S = np.take_along_axis(labels, order, axis=0).T.copy()
    (m, a), Q = labels.shape, W.shape[0]
    CW = np.zeros((Q, a, m + 1))
    CWY = np.zeros((Q, a, m + 1))
    Wj = np.empty((Q, m))
    for j in range(a):
        # mode="clip" lets take write straight into Wj (indices are valid).
        np.take(W, order[:, j], axis=1, out=Wj, mode="clip")
        np.cumsum(Wj, axis=1, out=CW[:, j, 1:])
        np.cumsum(np.multiply(Wj, S[j], out=Wj), axis=1, out=CWY[:, j, 1:])
    return S, CW, CWY


def _l1_obj_grad(S, CW, CWY, Y):
    """Objective ``sum_i w_qi ||y_q - y_i||_1`` and the subgradient
    ``sum_i w_qi sign(y_q - y_i)`` of every row of Y, from breakpoints.

    Per arc, labels below ``t`` add ``w (t - y)`` and labels above it add
    ``w (y - t)``; labels equal to ``t`` add nothing (``sign(0) = 0``).  Two
    binary searches per arc, O(Q a log m); arcs are added in order, so each
    row's arithmetic does not depend on the others.
    """
    Q, a, m1 = CW.shape
    flat_w, flat_wy = CW.reshape(-1), CWY.reshape(-1)
    base = np.arange(Q) * (a * m1)
    obj = np.zeros(Q)
    G = np.empty((Q, a))
    for j in range(a):
        t = Y[:, j]
        row = base + j * m1
        lo = row + np.searchsorted(S[j], t, side="left")
        hi = row + np.searchsorted(S[j], t, side="right")
        top = row + (m1 - 1)
        g = flat_w[lo] - (flat_w[top] - flat_w[hi])
        G[:, j] = g
        obj += t * g - flat_wy[lo] + (flat_wy[top] - flat_wy[hi])
    return obj, G


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

    breakpoints = _l1_breakpoints(W, labels)

    def keep_better(obj, Y):
        improved = obj < best_obj
        best_obj[improved] = obj[improved]
        best_Y[improved] = Y[improved]

    for theta0 in starts:
        Theta = np.tile(theta0, (Q, 1))
        Y = np.einsum("qk,ka->qa", Theta, P)
        # max_iters steps; the last pass only evaluates the final iterate.
        for t in range(params.max_iters + 1):
            obj, G = _l1_obj_grad(*breakpoints, Y)
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
    # first cheapest candidate if it beats the incumbent strictly.  The
    # prefix arrays go first, and the (k, m) distance table is built one arc
    # at a time, so the sweep adds no (k, m, a) temporary.
    del breakpoints
    cands = [P]
    if labels.shape[0] <= _LABEL_CANDIDATE_LIMIT:
        cands.append(labels)
    for C in cands:
        D = np.zeros((C.shape[0], labels.shape[0]))
        for j in range(labels.shape[1]):
            D += np.abs(C[:, j, None] - labels[None, :, j])
        cand_obj = np.einsum("qm,km->qk", W, D)
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
