"""Independent reference computations the solver tests check against.

Everything here is written directly from definitions: dense linear solves
by Gaussian elimination, exhaustive enumeration of feasible sets, and
vectorized direct-definition loss evaluation.  None of it calls the solver
paths it verifies.
"""

from __future__ import annotations

import itertools

import numpy as np


def dense_weight_oracle(kernel_fn, X, lam, x) -> np.ndarray:
    """Solve (K + m*lam*I) w = v(x) with an explicit entrywise Gram build
    and plain Gaussian elimination."""
    m = X.shape[0]
    K = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            K[i, j] = kernel_fn(X[i], X[j])
    v = np.array([kernel_fn(x, X[i]) for i in range(m)])
    A = K + m * lam * np.eye(m)
    return gaussian_solve(A, v)


def gaussian_solve(A, b) -> np.ndarray:
    """Partial-pivoting Gaussian elimination, independent of LAPACK."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = A.shape[0]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(A[col:, col])))
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def enumerate_feasible(G) -> np.ndarray:
    """All hierarchy-feasible 0/1 vectors, lexicographic, by mask filtering."""
    d = G.d
    n = 1 << d
    cand = (np.arange(n, dtype=np.int64)[:, None] >> np.arange(d - 1, -1, -1)) & 1
    ok = np.ones(n, dtype=bool)
    for p, c in G.arcs:
        ok &= cand[:, c] <= cand[:, p]
    return cand[ok]


def hamming_risks(cands, labels, w) -> np.ndarray:
    """Weighted Hamming risk of every candidate row."""
    mism = (cands[:, None, :] != labels[None, :, :]).sum(axis=2)
    return mism @ np.asarray(w, dtype=float)


def hierarchical_risks_direct(cands, labels, w, G, c) -> np.ndarray:
    """Weighted hierarchical risk straight from the definition: penalize a
    disagreeing node only when all its ancestors agree."""
    eq = cands[:, None, :] == labels[None, :, :]
    total = np.zeros((cands.shape[0], labels.shape[0]))
    for j in range(G.d):
        ok = np.ones(total.shape, dtype=bool)
        for k in G.ancestors(j):
            ok &= eq[:, :, k]
        total += c[j] * (~eq[:, :, j] & ok)
    return total @ np.asarray(w, dtype=float)


def sign_rule(w, labels) -> float:
    """Binary classification rule: +1 iff the weighted sum of the +/-1
    labels is nonnegative, which the zero-one risk argmin over {-1, +1}
    reduces to away from exact ties."""
    w = np.asarray(w, dtype=float).ravel()
    lab = np.asarray(labels, dtype=float).reshape(w.shape[0], -1)[:, 0]
    return 1.0 if float(np.dot(w, lab)) >= 0.0 else -1.0


def lex_argmin(cands, values):
    """Index of the minimal value; ties go to the lexicographically smallest row."""
    best = 0
    for i in range(1, len(values)):
        if values[i] < values[best] or (
                values[i] == values[best] and tuple(cands[i]) < tuple(cands[best])):
            best = i
    return best


def lex_min_cost_path(P, c) -> np.ndarray:
    """The lexicographically smallest cheapest row of the path matrix P
    under arc costs c: every path's cost, scanned in lexsort order."""
    order = np.lexsort(P.T[::-1])
    return P[order[np.argmin(P[order] @ np.asarray(c, dtype=float))]]


def footrule_risks(perms, train_perms, w) -> np.ndarray:
    """Weighted footrule risk of every candidate permutation."""
    diffs = np.abs(perms[:, None, :] - train_perms[None, :, :]).sum(axis=2)
    return diffs @ np.asarray(w, dtype=float)


def all_permutations(d: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(1, d + 1))), dtype=np.int64)


def simplex_grid(k: int, resolution: int) -> np.ndarray:
    """All points of the k-simplex with coordinates in units of 1/resolution."""
    pts = []
    for comp in itertools.combinations(range(resolution + k - 1), k - 1):
        parts = []
        prev = -1
        for c in comp:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + k - 2 - prev)
        pts.append(parts)
    return np.array(pts, dtype=float) / resolution


def abs_flow_objective(Y, labels, w) -> np.ndarray:
    """sum_i w_i ||y - y_i||_1 for each row y of Y."""
    return np.einsum("qma,m->q", np.abs(Y[:, None, :] - labels[None, :, :]),
                     np.asarray(w, dtype=float))


def l1_flow_minimizer(P, labels, w) -> np.ndarray:
    """A minimizer of ``sum_i w_i ||y - y_i||_1``, for ``w >= 0``, over the
    convex hull of the rows of P: the linear program over path weights
    ``theta`` and one epigraph variable ``e_ia >= |y_a - y_ia|`` per label
    and arc, solved by HiGHS.  The weights are clipped at 0 and renormalized,
    so the point is a convex combination of paths to rounding."""
    from scipy.optimize import linprog
    (K, a), m = P.shape, labels.shape[0]
    T, E = np.tile(P.T, (m, 1)), -np.eye(m * a)
    res = linprog(np.concatenate([np.zeros(K), np.repeat(np.asarray(w, dtype=float), a)]),
                  A_ub=np.vstack([np.hstack([T, E]), np.hstack([-T, E])]),
                  b_ub=np.concatenate([labels.ravel(), -labels.ravel()]),
                  A_eq=np.concatenate([np.ones(K), np.zeros(m * a)])[None, :], b_eq=[1.0],
                  bounds=(0.0, None))
    if res.status != 0:
        raise AssertionError(f"L1 oracle failed: {res.message}")
    theta = np.clip(res.x[:K], 0.0, None)
    return (theta / theta.sum()) @ P


def flow_projection(P, z, M=1e4) -> np.ndarray:
    """Euclidean projection of z onto the convex hull of the rows of P.

    Nonnegative least squares on ``[P^T; M 1^T] theta = [z; M]`` picks the
    support: the weights above 1e-9.  The sum-to-one row is only a penalty
    there, which biases the weights by about 1e-7, so the weights on that
    support are then solved exactly from the bordered normal equations by
    Gaussian elimination.  Raises unless the result meets the optimality
    conditions: positive weights, and no path scoring below the projection
    itself.
    """
    from scipy.optimize import nnls
    A = np.vstack([P.T, np.full((1, P.shape[0]), M)])
    theta, _ = nnls(A, np.append(z, M))
    S = np.flatnonzero(theta > 1e-9)
    s = S.size
    B = np.zeros((s + 1, s + 1))
    B[:s, :s] = P[S] @ P[S].T
    B[:s, s] = B[s, :s] = 1.0
    sol = gaussian_solve(B, np.append(P[S] @ z, 1.0))
    y = sol[:s] @ P[S]
    g = y - z
    if np.any(sol[:s] <= 0.0) or float(g @ y - np.min(P @ g)) > 1e-12 * (1.0 + float(g @ g)):
        raise AssertionError("projection oracle could not certify its support")
    return y


def l1_obj_grad_per_arc(W, labels, Y):
    """L1 risk ``sum_i w_qi ||y_q - y_i||_1`` and subgradient ``sum_i w_qi
    sign(y_q - y_i)`` of every row of Y by one pair of binary searches per
    arc into that arc's sorted labels, with per-row prefix sums of ``w`` and
    ``w y`` built by the same stable sort and cumulative sums as the solver;
    the arc terms are added one arc at a time from zero."""
    W, labels, Y = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (W, labels, Y))
    (m, a), Q = labels.shape, W.shape[0]
    order = np.argsort(labels, axis=0, kind="stable")
    S = np.take_along_axis(labels, order, axis=0).T
    obj, G = np.zeros(Q), np.empty((Q, a))
    for j in range(a):
        Wj = W[:, order[:, j]]
        CW = np.zeros((Q, m + 1))
        CWY = np.zeros((Q, m + 1))
        np.cumsum(Wj, axis=1, out=CW[:, 1:])
        np.cumsum(Wj * S[j], axis=1, out=CWY[:, 1:])
        t, rows = Y[:, j], np.arange(Q)
        lo = np.searchsorted(S[j], t, side="left")
        hi = np.searchsorted(S[j], t, side="right")
        g = CW[rows, lo] - (CW[:, m] - CW[rows, hi])
        G[:, j] = g
        obj += t * g - CWY[rows, lo] + (CWY[:, m] - CWY[rows, hi])
    return obj, G


# The min-norm-point projection as written when it built its path set-up
# and its gap report on every call.  The solver now builds the set-up once
# per solve and reports gaps separately; both must equal this bit for bit.
def wolfe_min_norm_point(P, Z, scale, gap_tol, max_cycles=np.inf, corral=None):
    """Wolfe's min-norm-point method for ``scale_q * ||theta P - z_q||^2``
    over the simplex, batched over the rows of Z (Wolfe, "Finding the
    nearest point in a polytope", Math. Programming 11, 1976).

    Row q keeps a corral of affinely independent paths ``S[q]`` with
    positive weights ``lam[q]``; its point is ``y = lam P[S]``.  A major
    cycle computes the Frank-Wolfe gap ``2 scale ((y - z).y - min_k
    (y - z).P_k)`` and ends the row when the gap is at most ``gap_tol`` or
    the Frank-Wolfe vertex cannot enter: it is in the corral already, the
    corral is full, or ``||y - z||`` did not fall since the row's last major
    cycle.  Otherwise the vertex joins the corral with weight 0.  A minor
    cycle solves the bordered system ``[G_SS 1; 1' 0] [alpha; mu] =
    [(Z P')_S; 1]`` for the minimizer on the corral's affine hull; if every
    ``alpha > 0`` the row moves there and takes a major cycle, else it
    steps toward alpha until a weight reaches zero and drops that path.
    ``max_cycles`` caps each row's major plus minor cycles; without it the
    method is finite.

    Corrals hold at most ``cap = rank(P)`` paths: every path sends one unit
    out of the source, so linear and affine independence agree.  An empty
    slot ``c`` holds the virtual path ``K + c``, a unit vector off the arc
    space, so every corral's Gram block is ``[G_SS 0; 0 I]`` and every
    system has size ``cap + 1``, alone or in a batch.  The block is the
    product of the corral's path rows, exact because integral; no K x K
    Gram matrix is formed.  ``np.linalg.solve`` factors each matrix on its
    own and the other reductions are fixed-order einsums, so a row's
    arithmetic never depends on its batch.  The stacked Gram-block
    ``matmul`` and that ``solve`` stay on numpy, not on the scipy BLAS pool
    of the weight products (see ``kernels``): their matrices are at most
    ``(cap + 1) x (cap + 1)``, too small to wake a BLAS thread pool.

    ``corral`` is a previous call's ``(S, lam)`` to warm-start from; cold
    rows start at their nearest path.  Returns ``(Y, S, lam, gaps)``: the
    points, their corrals and the Frank-Wolfe gaps at the returned weights.
    """
    (Q, a), K = Z.shape, P.shape[0]
    cap = np.linalg.matrix_rank(P) if corral is None else corral[0].shape[1]
    slots = np.arange(cap)
    PX = np.zeros((K + cap, a + cap))
    PX[:K, :a] = P
    PX[K + slots, a + slots] = 1.0
    ZP = np.zeros((Q, K + cap))
    np.einsum("qa,ka->qk", Z, P, out=ZP[:, :K])
    scale2 = 2.0 * np.broadcast_to(np.asarray(scale, dtype=float), (Q,))
    # Rounding bound of a score difference: each score sums at most L terms
    # of size at most 1 + |z|.  A vertex that wins by less may lie on the
    # corral's affine hull, where the bordered system is singular.
    L = P.sum(axis=1).max()
    noise = (L * L * np.finfo(float).eps) * (1.0 + np.abs(Z).max(axis=1, initial=0.0))
    if corral is None:
        S = np.tile(K + slots, (Q, 1))
        lam = np.zeros((Q, cap))
        S[:, 0] = np.argmin(P.sum(axis=1) - 2.0 * ZP[:, :K], axis=1)
        lam[:, 0] = 1.0
    else:
        S, lam = (np.array(v) for v in corral)
    # Working state of the unfinished rows; a row that finishes is written
    # back to S and lam and leaves it.
    ids, s, w, zp, n = np.arange(Q), S.copy(), lam.copy(), ZP, (S < K).sum(axis=1)
    tol = np.maximum(gap_tol / scale2, noise)
    dist = np.full(Q, np.inf)       # ||y - z||^2 - ||z||^2 at the row's last major cycle
    cycles = np.zeros(Q, dtype=np.intp)
    while ids.size:
        rows = np.arange(ids.size)
        # Minor cycle: every unfinished row is off its corral's affine
        # minimizer (it just gained a path, or z is new).
        valid = s < K
        PS = PX[s]
        M = np.zeros((ids.size, cap + 1, cap + 1))
        M[:, :cap, :cap] = PS @ PS.transpose(0, 2, 1)
        M[:, :cap, cap] = M[:, cap, :cap] = valid
        rhs = np.ones((ids.size, cap + 1, 1))
        zps = rhs[:, :cap, 0]
        zps[:] = zp[rows[:, None], s]
        sol = np.linalg.solve(M, rhs)
        # At alpha every corral path scores (y - z).P_k = -mu.  Renormalizing
        # makes the weights sum to 1 to rounding, and a lone path's exactly.
        alpha, mu = sol[:, :cap, 0], sol[:, cap, 0]
        alpha /= alpha.sum(axis=1, keepdims=True)
        neg = valid & (alpha <= 0.0)
        inside = ~neg.any(axis=1)
        # Step to the first weight that alpha drives to zero; a path that
        # entered with weight 0 and gets alpha <= 0 gives a zero step.
        ratio = np.where(neg, w, np.inf)
        np.divide(ratio, w - alpha, out=ratio, where=neg & (w > 0.0))
        first = ratio.argmin(axis=1)
        beta = np.where(inside, 0.0, ratio[rows, first])
        w = np.where(inside[:, None], alpha, w + beta[:, None] * (alpha - w))
        keep = valid & (w > 0.0) & (inside[:, None] | (slots != first[:, None]))
        w *= keep
        cycles += 1
        # Major cycle for the rows now at their affine minimizer, where
        # (y - z).y = -mu.
        scores = np.einsum("qa,ka->qk", np.einsum("qc,qca->qa", w, PS[:, :, :a]), P)
        scores -= zp[:, :K]
        fw = scores.argmin(axis=1)
        gap = -mu - scores[rows, fw]
        major = inside & (cycles < max_cycles)
        d = -mu - np.einsum("qc,qc->q", w, zps)
        present = (s == fw[:, None]).any(axis=1)
        done = major & ((gap <= tol) | present | (n == cap) | (d >= dist))
        dist = np.where(major, d, dist)
        if not inside.all():
            order = np.argsort(~keep, axis=1, kind="stable")
            n = keep.sum(axis=1)
            s = np.where(slots < n[:, None], s[rows[:, None], order], K + slots)
            w = w[rows[:, None], order]
        grow = major & ~done
        s[grow, n[grow]] = fw[grow]
        n += grow
        cycles += major
        out = done | (cycles >= max_cycles)
        if out.any():
            S[ids[out]], lam[ids[out]] = s[out], w[out]
            stay = ~out
            ids, s, w, zp, n = ids[stay], s[stay], w[stay], zp[stay], n[stay]
            dist, cycles, tol = dist[stay], cycles[stay], tol[stay]
    # Report each gap from the returned weights: (y - z).y is the weighted
    # mean of the corral's scores, so a vertex or a converged row reads 0.
    Y = np.einsum("qc,qca->qa", lam, PX[S, :a])
    scores = np.zeros((Q, K + cap))     # a virtual path scores 0 and weighs 0
    np.einsum("qa,ka->qk", Y, P, out=scores[:, :K])
    scores[:, :K] -= ZP[:, :K]
    ys = np.einsum("qc,qc->q", lam, np.take_along_axis(scores, S, axis=1))
    gaps = scale2 * (ys - scores[:, :K].min(axis=1))
    return Y, S, lam, gaps


# The L1 descent as written when every step was one warm-started call of
# the min-norm-point projection above.  It reads the L1 risk through the
# solver's breakpoint evaluator, which ``tests/test_flow_opt.py`` checks
# bit for bit against ``l1_obj_grad_per_arc``.
def wolfe_l1_descent(W, labels, P, path, path_obj, params):
    """Projected subgradient descent on the L1 risk of the rows of W, then
    the feasible candidates: the best path ``path`` of each row, of risk
    ``path_obj``, and every training label the row weighs: no zero-weight
    label is a candidate.  Returns the best point of each row, its risk and
    the best subgradient lower bound, which only rows with nonnegative
    weights read: it stays ``-inf`` when the batch has none."""
    from ecrm.flow_opt import _l1_breakpoints, _l1_obj_grad
    Q, K = W.shape[0], P.shape[0]
    breakpoints, costs = _l1_breakpoints(W, labels)
    np.copyto(costs, np.inf, where=W == 0.0)
    cand = costs.argmin(axis=1)
    cand_obj = costs[np.arange(Q), cand]
    del costs
    bound = np.all(W >= 0.0, axis=1).any()

    # Start points: the mean of all paths, then seeded random paths.
    starts = [np.einsum("k,ka->a", np.full(K, 1.0 / K), P)]
    for r in range(1, params.restarts):
        rng = np.random.default_rng([params.seed, r])
        starts.append(P[int(rng.integers(K))])

    best_Y = np.zeros((Q, P.shape[1]))
    best_obj = np.full(Q, np.inf)
    best_lb = np.full(Q, -np.inf)

    def keep_better(obj, Y):
        improved = obj < best_obj
        np.copyto(best_obj, obj, where=improved)
        np.copyto(best_Y, Y, where=improved[:, None])

    for y0 in starts:
        Y = np.tile(y0, (Q, 1))
        corral = None
        # max_iters steps; the last pass only evaluates the final iterate.
        for t in range(params.max_iters + 1):
            obj, G = _l1_obj_grad(*breakpoints, Y)
            if bound:
                # Subgradient lower bound: f(v) >= f(y) + g.(v - y) for all v.
                lb = obj - (np.einsum("qa,qa->q", G, Y)
                            - np.min(np.einsum("qa,ka->qk", G, P), axis=1))
                np.maximum(best_lb, lb, out=best_lb)
            keep_better(obj, Y)
            if t == params.max_iters:
                break
            eta = params.step_a / (1.0 + params.step_b * t)
            # Exact projection of the step, warm-started from the last corral.
            Y, S, lam, _ = wolfe_min_norm_point(P, Y - eta * G, 1.0, 1e-11, corral=corral)
            corral = (S, lam)

    # The candidates are kept where strictly better, after the iterates.
    # They snap exact optima that subgradient steps only approach, e.g.
    # reproducing a lone training flow.
    keep_better(path_obj, path)
    keep_better(cand_obj, labels[cand])
    return best_Y, best_obj, best_lb
