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
