"""Optimization over flow polytopes with unit source/sink throughput.

The polytope of nonnegative conserving flows on an acyclic network with a
single unit source and sink is the convex hull of its s-t path indicator
vectors.  Two routines compute Euclidean projections onto it.

Wolfe's min-norm-point method over path atoms makes the cold projections
that carry certificates: the square-loss solver's mixed-sign rows and
``project_batch``.  It stops when the Frank-Wolfe duality gap reaches the
tolerance, and its points are convex combinations of paths, hence exact
vertices where the projection is one.  Frank-Wolfe gaps are reported by a
separate pass, which only those callers run.

The L1 solver is projected subgradient descent, and each of its steps is
projected by a semismooth Newton method on the dual over node potentials,
``_project_newton``, which walks no paths.  It runs on a reduced network,
built once per solve by ``_flow_system``: arcs on no s-t path are dropped
and chains of one-in, one-out nodes become single arcs.  Each row carries
its potentials from one step to the next, and its points conserve flow to
rounding.  What else depends only on the network and the batch is built
once per solve too: the L1 breakpoints with their index arrays, and the
paths the start points and the subgradient bound use.  What depends on
the training flows alone, their check against the network and, for L1,
each arc's sorted labels, is their ``FlowLabels``, which either solver
takes in place of the flows and ``inference`` builds once per model.
The restarts of the descent run side by side, as one lockstep batch of
restarts x Q rows (in groups when there are more restarts than one per
``_RESTART_LABELS`` training labels), with the same results as running
them one by one.

On a path both risks are linear, with arc costs ``c = sum_i w_i - 2 w.labels``,
so every vertex answer of the solvers is the cheapest path, found by one
dynamic program, ``min_cost_paths``, with ties to the lexicographically smallest.

The L1 risk ``sum_i w_i ||y - y_i||_1`` is separable over arcs and piecewise
linear on each, with breakpoints at the training labels.  The L1 solver
takes each arc's sorted labels and builds per-row prefix sums of ``w`` and
``w y`` once, O(Q m a) time and two (a, Q, m + 1) arrays held for the
call, 16 a (m + 1) bytes per row; every objective and subgradient
evaluation after that is one search over every arc's sorted labels,
O(Q a log(a m)), with no (Q, m, a) table.  The same prefix sums score
every training label as a candidate point, O(Q a m) for any m, with no
m x m table; a label of zero weight is not a candidate.

Both solvers take a batch of query weight rows and return ``(Y,
objectives, certificates)``; a single query is the one-row batch.  A row's
result depends neither on the rest of its batch nor, apart from rounding in
the weighted sums, on the labels it gives zero weight.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .results import EXACT, Certificate, HEURISTIC, SolverParams
from .spaces import DEFAULT_CONTINUOUS_TOL, FlowNetwork, flow_space, nonmembers

# Major plus minor cycles of one row of a square-loss projection.
_PROJECT_CYCLES = 10_000
_PATH_CAP = 100_000


def enumerate_st_paths(net: FlowNetwork) -> np.ndarray:
    """Arc-indicator matrix of every s-t path, one row per path.

    Paths are generated by depth-first search following outgoing arcs in
    arc-index order, so the row order is deterministic.  The result is
    cached on the network.  Raises ValueError above ``_PATH_CAP`` paths.
    """
    if net._paths is not None:
        return net._paths
    if not net.is_acyclic:
        raise ValueError("path enumeration requires an acyclic network")
    s, t = net.unit_endpoints()
    rows: list[list[int]] = []
    # Explicit stack instead of recursion, so deep networks do not hit the
    # recursion limit; pushing arcs in reverse pops them in arc-index order.
    stack = [(s, ())]
    while stack:
        u, arcs = stack.pop()
        if u == t:
            rows.append(list(arcs))
            if len(rows) > _PATH_CAP:
                raise ValueError(f"more than {_PATH_CAP} source-sink paths")
            continue
        stack.extend((v, arcs + (a,)) for a, v in reversed(net.out_arcs[u]))
    if not rows:
        raise ValueError("network has no source-sink path")
    P = np.zeros((len(rows), net.n_arcs))
    for i, arcs in enumerate(rows):
        P[i, arcs] = 1.0
    object.__setattr__(net, "_paths", P)
    return P


def min_cost_paths(net: FlowNetwork, C) -> np.ndarray:
    """Indicator of the cheapest s-t path for each row of the (Q, a) arc
    costs C, by one dynamic program in topological order (Ahuja, Magnanti &
    Orlin, *Network Flows*, 1993, ch. 4).  Each node keeps per row its
    cheapest prefix, on equal cost the lexicographically smaller; a suffix
    shares no arc with a prefix, so the result is the lexicographically
    smallest cheapest path (among path costs, summed from s, that tie
    exactly).  Rows never mix, so a row's result does not depend on its batch.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if not net.is_acyclic:
        raise ValueError("path search requires an acyclic network")
    s, t = net.unit_endpoints()
    rows = np.arange(C.shape[0])
    # Only nodes reached and not yet expanded hold a prefix: a cut, not all.
    cost, prefix = {s: np.zeros(C.shape[0])}, {s: np.zeros(C.shape, dtype=bool)}
    for u in net.topological_order():
        if u not in cost or u == t:
            continue
        for a, v in net.out_arcs[u]:
            d, cand = cost[u] + C[:, a], prefix[u].copy()
            cand[:, a] = True
            if v in cost:
                # At the first arc where the prefixes differ, the smaller is off.
                differ = cand != prefix[v]
                first = differ.argmax(axis=1)
                better = (d < cost[v]) | ((d == cost[v]) & prefix[v][rows, first])
                d, cand = np.where(better, d, cost[v]), np.where(better[:, None], cand, prefix[v])
            cost[v], prefix[v] = d, cand
        del cost[u], prefix[u]
    if t not in prefix:
        raise ValueError("network has no source-sink path")
    return prefix[t].astype(float)


class _PathAtoms(NamedTuple):
    """What every projection over a network's paths shares, built once per
    solver call by ``_path_atoms``: the (K, a) path matrix ``P``; ``PX``, P
    padded with ``cap`` virtual paths; ``cap = rank(P)``, the most paths a
    corral holds; the path ``lengths``; and ``noise = L^2 eps`` for the
    longest length L."""

    P: np.ndarray
    PX: np.ndarray
    cap: int
    lengths: np.ndarray
    noise: float


def _path_atoms(P) -> _PathAtoms:
    (K, a), cap = P.shape, int(np.linalg.matrix_rank(P))
    slots = np.arange(cap)
    PX = np.zeros((K + cap, a + cap))
    PX[:K, :a] = P
    PX[K + slots, a + slots] = 1.0
    lengths = P.sum(axis=1)
    L = lengths.max()
    return _PathAtoms(P, PX, cap, lengths, L * L * np.finfo(float).eps)


def _min_norm_point(atoms: _PathAtoms, Z, scale, gap_tol, max_cycles=np.inf):
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

    Built once per solver call and passed in: ``atoms``, the padded path
    matrix and the bounds of ``_path_atoms``.  Built on every call: ``Z
    P'``, the rounding bound of each row, one bordered system per row,
    whose every cycle overwrites all but the zero corner and the last
    right-hand side entry, 1, and the working state.  Every row starts at
    its nearest path.  Returns ``(Y, S, lam)``: the points ``Y = lam P[S]``
    and their corrals; ``_fw_gaps`` reports their gaps.
    """
    P, PX, cap = atoms.P, atoms.PX, atoms.cap
    (Q, a), K = Z.shape, P.shape[0]
    slots = np.arange(cap)
    ZP = np.zeros((Q, K + cap))
    np.einsum("qa,ka->qk", Z, P, out=ZP[:, :K])
    # Rounding bound of a score difference: each score sums at most L terms
    # of size at most 1 + |z|.  A vertex that wins by less may lie on the
    # corral's affine hull, where the bordered system is singular.
    noise = atoms.noise * (1.0 + np.abs(Z).max(axis=1, initial=0.0))
    S = np.tile(K + slots, (Q, 1))
    lam = np.zeros((Q, cap))
    S[:, 0] = np.argmin(atoms.lengths - 2.0 * ZP[:, :K], axis=1)
    lam[:, 0] = 1.0
    M, rhs = np.zeros((Q, cap + 1, cap + 1)), np.ones((Q, cap + 1, 1))
    # Working state of the unfinished rows; a row that finishes is written
    # back to S and lam and leaves it.
    ids, s, w, zp, n = np.arange(Q), S.copy(), lam.copy(), ZP, (S < K).sum(axis=1)
    tol = np.maximum(gap_tol / (2.0 * np.asarray(scale, dtype=float)), noise)
    dist = np.full(Q, np.inf)       # ||y - z||^2 - ||z||^2 at the row's last major cycle
    cycles = np.zeros(Q, dtype=np.intp)
    while ids.size:
        rows = np.arange(ids.size)
        # Minor cycle: every unfinished row is off its corral's affine
        # minimizer (it just gained a path, or z is new).
        valid = s < K
        PS = PX[s]
        Mq, rq = M[:ids.size], rhs[:ids.size]
        np.matmul(PS, PS.transpose(0, 2, 1), out=Mq[:, :cap, :cap])
        Mq[:, :cap, cap] = Mq[:, cap, :cap] = valid
        zps = rq[:, :cap, 0]
        zps[:] = zp[rows[:, None], s]
        sol = np.linalg.solve(Mq, rq)
        # At alpha every corral path scores (y - z).P_k = -mu.  Renormalizing
        # makes the weights sum to 1 to rounding, and a lone path's exactly.
        alpha, mu = sol[:, :cap, 0], sol[:, cap, 0]
        alpha /= alpha.sum(axis=1, keepdims=True)
        neg = valid & (alpha <= 0.0)
        inside = ~neg.any(axis=1)
        settled = inside.all()
        if settled:
            # Every row lands inside its corral's affine hull: no ratio test.
            w = alpha
            keep = valid & (w > 0.0)
        else:
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
        if not settled:
            order = np.argsort(~keep, axis=1, kind="stable")
            n = keep.sum(axis=1)
            s = np.where(slots < n[:, None], s[rows[:, None], order], K + slots)
            w = w[rows[:, None], order]
        grow = major & ~done
        s[grow, n[grow]] = fw[grow]
        n += grow
        cycles += major
        out = done | (cycles >= max_cycles)
        if out.all():
            S[ids], lam[ids] = s, w
            break
        if out.any():
            S[ids[out]], lam[ids[out]] = s[out], w[out]
            stay = ~out
            ids, s, w, zp, n = ids[stay], s[stay], w[stay], zp[stay], n[stay]
            dist, cycles, tol = dist[stay], cycles[stay], tol[stay]
    return np.einsum("qc,qca->qa", lam, PX[S, :a]), S, lam


def _fw_gaps(atoms: _PathAtoms, Z, scale, Y, S, lam):
    """The Frank-Wolfe gaps ``2 scale ((y - z).y - min_k (y - z).P_k)`` of
    the points ``Y``, corrals ``(S, lam)``, that ``_min_norm_point`` returned
    for Z.  ``(y - z).y`` is the weighted mean of the corral's scores, so a
    vertex or a converged row reads 0."""
    (Q, _), K = Z.shape, atoms.P.shape[0]
    ZP = np.zeros((Q, K + atoms.cap))
    np.einsum("qa,ka->qk", Z, atoms.P, out=ZP[:, :K])
    scores = np.zeros((Q, K + atoms.cap))     # a virtual path scores 0 and weighs 0
    np.einsum("qa,ka->qk", Y, atoms.P, out=scores[:, :K])
    scores[:, :K] -= ZP[:, :K]
    ys = np.einsum("qc,qc->q", lam, np.take_along_axis(scores, S, axis=1))
    return 2.0 * np.asarray(scale, dtype=float) * (ys - scores[:, :K].min(axis=1))


# A descent step longer than _STEP_MAX is refused: the projection squares it.
_STEP_MAX = 1e150
# The Newton ridge in units of the stop bound (see _project_newton), the
# Newton steps a row may take, the halvings of one step, and the share of
# the predicted rise it must reach.
_RIDGE_BOUNDS = 32.0
_NEWTON_ITERS = 200
_HALVINGS = 60
_ARMIJO = 1e-4
_EPS = np.finfo(float).eps
# The L1 descent runs at most one restart per _RESTART_LABELS training
# labels side by side: a row of its batch holds about as many bytes as the
# breakpoints of that many labels (3.1 KB against 0.4 KB on the bundled
# network), so its rows hold no more than the breakpoint arrays.
_RESTART_LABELS = 8


class _FlowSystem(NamedTuple):
    """The reduced network of ``_project_newton``, built once per L1 solve
    by ``_flow_system``.  An arc on no s-t path carries no feasible flow
    and is dropped.  A chain through nodes other than s and t with one arc
    in and one out is one super-arc of ``k`` arcs that all carry its value
    u, at squared distance ``k (u - zbar)^2`` plus a constant from z, with
    ``zbar`` their mean of z.  The sink's potential is 0; the other n' - 1
    nodes have one each.

    ``order`` lists the arcs of the super-arcs, each from its offset in
    ``starts``; ``lengths`` holds the k; ``arc_of`` maps an arc to its
    super-arc, a dropped arc to a'.  ``incidence`` is the (n' - 1, a')
    node-arc incidence, +1 at the tail, -1 at the head, no sink row;
    ``source`` is s's row.  An active super-arc adds ``entries[c]``,
    ``+-1 / k``, at the flat indices ``flat[q, c]`` of the q-th of a stack
    of ``rows`` (n' - 1)^2 Laplacians ((4, a') and (rows, 4, a'); an empty
    slot adds 0 at its Laplacian's index 0).  ``bound`` is the stop bound
    ``4 degree eps`` per unit of a row's span, with ``degree`` the most
    super-arcs at one node, and ``ridge`` is ``_RIDGE_BOUNDS * bound`` times
    the (n' - 1) identity."""

    order: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    arc_of: np.ndarray
    incidence: np.ndarray
    source: int
    entries: np.ndarray
    flat: np.ndarray
    bound: float
    ridge: np.ndarray


def _flow_system(net: FlowNetwork, rows: int = 1) -> _FlowSystem:
    if not net.is_acyclic:
        raise ValueError("flow projection requires an acyclic network")
    s, t = net.unit_endpoints()
    order = net.topological_order()
    from_s, to_t = np.zeros(net.n_nodes, dtype=bool), np.zeros(net.n_nodes, dtype=bool)
    from_s[s] = to_t[t] = True
    for u in order:
        for _, v in net.out_arcs[u]:
            from_s[v] |= from_s[u]
    for u in reversed(order):
        to_t[u] |= any(to_t[v] for _, v in net.out_arcs[u])
    if not to_t[s]:
        raise ValueError("network has no source-sink path")
    out = [[(a, v) for a, v in net.out_arcs[u] if to_t[v]] if from_s[u] else []
           for u in range(net.n_nodes)]
    n_in = np.bincount([v for arcs in out for _, v in arcs], minlength=net.n_nodes)
    series = [u not in (s, t) and n_in[u] == 1 and len(out[u]) == 1
              for u in range(net.n_nodes)]
    chains = []
    for u in order:
        if not series[u]:
            for a, v in out[u]:
                arcs = [a]
                while series[v]:
                    (a, v), = out[v]
                    arcs.append(a)
                chains.append((u, v, arcs))
    nodes = sorted({u for u, _, _ in chains} | {v for _, v, _ in chains} - {t}) + [t]
    row = {u: i for i, u in enumerate(nodes)}
    n1, A = len(nodes) - 1, len(chains)
    arc_of = np.full(net.n_arcs, A)
    incidence = np.zeros((n1 + 1, A))
    slots, signs = np.zeros((4, A), dtype=np.intp), np.zeros((4, A))
    for e, (u, v, arcs) in enumerate(chains):
        arc_of[arcs] = e
        i, j = row[u], row[v]
        incidence[i, e], incidence[j, e] = 1.0, -1.0
        touched = [(i, i, 1.0)] + ([(j, j, 1.0), (i, j, -1.0), (j, i, -1.0)] if j < n1 else [])
        for c, (x, y, sign) in enumerate(touched):
            slots[c, e], signs[c, e] = x * n1 + y, sign
    sizes = [len(arcs) for _, _, arcs in chains]
    k = np.array(sizes, dtype=float)
    bound = 4.0 * np.abs(incidence).sum(axis=1).max() * _EPS
    return _FlowSystem(np.concatenate([arcs for _, _, arcs in chains]),
                       np.cumsum([0] + sizes[:-1]), k, arc_of, incidence[:n1], row[s], signs / k,
                       (np.arange(rows) * (n1 * n1))[:, None, None] + slots, float(bound),
                       _RIDGE_BOUNDS * bound * np.eye(n1))



def _dual(system: _FlowSystem, p, zbar):
    """The projection's dual at the potentials p of each row: the super-arc
    arguments ``r = zbar + N'p / k``, whose positive part is the point u;
    the conservation residual ``g = b - N u``, the gradient; the dual value
    ``p_s - sum_e k_e u_e^2 / 2`` (a constant dropped); and the size of its
    terms, for the rounding slack.  ``p @ N`` is exact in any order, as
    each column of N holds one +1 and at most one -1."""
    r = p @ system.incidence
    r /= system.lengths
    r += zbar
    u = np.maximum(r, 0.0)
    half = 0.5 * np.einsum("qe,qe->q", u * system.lengths, u)
    g = -np.einsum("ie,qe->qi", system.incidence, u)
    g[:, system.source] += 1.0
    ps = p[:, system.source]
    return r, g, ps - half, np.abs(ps) + half


def _project_newton(system: _FlowSystem, Z, pi):
    """Euclidean projection of each row of Z onto the flow polytope ``{y >=
    0, N y = b}`` by a semismooth Newton method on its dual over node
    potentials (Qi & Sun, "A nonsmooth version of Newton's method", Math.
    Programming 58, 1993), started from the potentials ``pi``.

    On ``system``'s reduced network the point of potentials p is ``u =
    max(0, zbar + N'p / k)``, and the dual, ``p_s - sum_e k_e u_e^2 / 2``,
    is concave with gradient ``b - N u``.  A Newton step solves ``(N D N'
    + ridge I) d = b - N u`` with D the ``1 / k`` of the active super-arcs,
    u > 0: the Laplacian of the active arcs.  Where they leave s cut off
    from t the ridge alone holds d, which is then huge; so the first trial
    step moves no argument by more than ``1 + max |zbar|``, as far as a
    cold start's arguments need to go.  The trial is halved until the dual
    rises by ``_ARMIJO`` of the predicted rise, less a rounding slack.  A
    row stops once ``|b - N u|`` is within the rounding bound ``4 degree
    eps (1 + max |zbar|)`` at every node; the sink's residual is then at
    most n' - 1 times that.

    The ridge is sized from that stop rule: it is ``_RIDGE_BOUNDS = 32``
    times ``4 degree eps``.  A full step on the right active set leaves the
    residual ``ridge d``, so it ends the row whenever it moves no potential
    by more than 1/32 of the row's ``1 + max |zbar|``, as the steps of a
    warm projection mostly do: a projection whose active set holds takes
    one Newton system.  (With a ridge of 1e-12 the residual of most such
    steps was above the bound, and a second system only removed it.)  The
    ridge is still 128 times the rounding of a Laplacian pivot, ``degree
    eps``, so the singular block of nodes that the active arcs cut off
    from t meets no zero pivot; a ridge of 1e-16 does.

    ``system`` must hold ``flat`` for at least as many rows as Z has.  The
    Laplacians are summed by one ``bincount`` in row order, each is
    factored on its own by ``np.linalg.solve``, and the other sums are
    fixed-order einsums or exact, so a row's arithmetic never depends on
    its batch.

    Returns ``(Y, pi, ok)``.  A row is ok when it stopped so within
    ``_NEWTON_ITERS`` steps and its bound lets the sink conserve to
    ``DEFAULT_CONTINUOUS_TOL``.  A row that is not ok keeps its ``pi`` and
    a zero Y, so that the caller keeps its previous point.
    """
    Q, (n1, A) = Z.shape[0], system.incidence.shape
    k = system.lengths
    zbar = np.add.reduceat(Z[:, system.order], system.starts, axis=1) / k
    span = 1.0 + np.abs(zbar).max(axis=1)
    bound = system.bound
    P, U, ok = np.array(pi, dtype=float), np.zeros((Q, A + 1)), np.zeros(Q, dtype=bool)
    ids = np.flatnonzero(n1 * bound * span <= DEFAULT_CONTINUOUS_TOL)
    # Per unfinished row: its potentials, zbar and span, then the dual there.
    rows = (P[ids], zbar[ids], span[ids])
    dual = _dual(system, *rows[:2])
    for it in range(_NEWTON_ITERS + 1):
        done = np.abs(dual[1]).max(axis=1) <= bound * rows[2]
        if done.any():
            P[ids[done]], ok[ids[done]] = rows[0][done], True
            U[ids[done], :A] = np.maximum(dual[0][done], 0.0)
            if done.all():
                break
            ids, rows, dual = _keep(~done, ids, rows, dual)
        if not ids.size or it == _NEWTON_ITERS:
            break
        (p, zb, reach), (r, g, theta, size) = rows, dual
        active = (r > 0.0)[:, None, :] * system.entries
        H = np.bincount(system.flat[:ids.size].ravel(), active.ravel(),
                        minlength=ids.size * n1 * n1)
        H = H.reshape(ids.size, n1, n1)
        H += system.ridge
        d = np.linalg.solve(H, g[:, :, None])[:, :, 0]
        rise = np.einsum("qi,qi->q", g, d)
        move = np.abs((d @ system.incidence) / k).max(axis=1)
        step = reach / np.maximum(move, reach)
        # The rows still looking for a step; at first, all of them.
        q, trial = slice(None), p + step[:, None] * d
        for _ in range(_HALVINGS):
            new = _dual(system, trial, zb[q])
            accept = (new[2] - theta[q]
                      >= _ARMIJO * step[q] * rise[q] - 8.0 * _EPS * (size[q] + new[3]))
            if isinstance(q, slice):
                if accept.all():
                    rows, dual = (trial, zb, reach), new
                    break
                q = np.arange(ids.size)
            p[q[accept]] = trial[accept]
            for old, v in zip(dual, new):
                old[q[accept]] = v[accept]
            q = q[~accept]
            if not q.size:
                break
            step[q] *= 0.5
            trial = p[q] + step[q, None] * d[q]
        else:
            # No trial raised the dual: the row leaves, not ok.
            stay = np.ones(ids.size, dtype=bool)
            stay[q] = False
            ids, rows, dual = _keep(stay, ids, rows, dual)
    return U[:, system.arc_of], P, ok


def _keep(mask, ids, *groups):
    return ids[mask], *(tuple(v[mask] for v in group) for group in groups)


class L1Labels(NamedTuple):
    """The half of the L1 solver's breakpoints that the labels alone fix
    (see ``_l1_breakpoints``).  ``order`` sorts each arc's labels (stably)
    into ``S``; ``keys`` and ``ends`` are as in ``_l1_breakpoints``;
    ``lo[k, a]`` / ``hi[k, a]`` count the labels below / at most label k's
    value on arc a."""

    labels: np.ndarray
    order: np.ndarray
    S: np.ndarray
    keys: np.ndarray
    ends: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def l1_labels(labels) -> L1Labels:
    """The ``L1Labels`` of an (m, arcs) float matrix of training flows."""
    m, a = labels.shape
    order = np.argsort(labels, axis=0, kind="stable")
    S = np.take_along_axis(labels, order, axis=0)
    keys = (np.arange(a)[:, None] + 1j * S.T).ravel()
    ends = np.searchsorted(keys, keys, side="right")
    first, shift = np.searchsorted(keys, np.arange(a) + 1j * labels), np.arange(a) * m
    return L1Labels(labels, order, S, keys, ends, first - shift, ends[first] - shift)


class FlowLabels(NamedTuple):
    """Training flows checked against the network ``net``, which either
    flow solver takes in place of the flows: ``flows`` is their (m, arcs)
    float matrix and ``ranks`` their ``L1Labels``, or None where not built."""

    net: FlowNetwork
    flows: np.ndarray
    ranks: L1Labels | None


def flow_labels(labels, net: FlowNetwork, ranked: bool = False) -> FlowLabels:
    """The ``FlowLabels`` of the training flows ``labels`` on ``net``, with
    their ``L1Labels`` when ``ranked``.  Each flow must lie in ``net``'s
    flow polytope (ValueError naming the first that does not).  Given
    ``FlowLabels`` of ``net``, returns them, ranked if asked; of another
    network object, raises ValueError."""
    if isinstance(labels, FlowLabels):
        if labels.net is not net:
            raise ValueError("training flows were checked against another network")
        if ranked and labels.ranks is None:
            return labels._replace(ranks=l1_labels(labels.flows))
        return labels
    flows = np.atleast_2d(np.asarray(labels, dtype=float))
    bad, why = nonmembers(flow_space(net), flows)
    if bad.size:
        raise ValueError(f"training flow {bad[0]} {why}")
    return FlowLabels(net, flows, l1_labels(flows) if ranked else None)


def _solver_inputs(W, labels, net: FlowNetwork, params: SolverParams | None):
    """The checked inputs of either flow solver, given its checked float
    labels: ``(W, P, params)`` with W a float matrix and P the network's
    s-t paths."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.shape[1] != labels.shape[0]:
        raise ValueError("weight and label counts differ")
    return W, enumerate_st_paths(net), params or SolverParams()


def solve_flow_sq_batch(W, labels, net: FlowNetwork, params: SolverParams | None = None):
    """Minimize ``sum_i w_i ||y - y_i||^2`` over the flow polytope for each
    query weight row ``w`` of W.

    Returns ``(Y, objectives, certificates)`` with one row/entry per query.
    A row whose weighted label mean has no negative arc (as with
    nonnegative weights) takes that mean, a convex combination of feasible
    flows and the unconstrained optimum (certificate exact).  With mixed
    signs and positive total weight the objective is a scaled squared
    distance to the mean; those rows are projected together by the
    min-norm-point method to the requested Frank-Wolfe duality gap.
    Nonpositive total weight makes the objective concave (affine at zero),
    so a vertex attains its minimum: those rows take the lexicographically
    smallest cheapest path from ``min_cost_paths`` (certificate exact).

    Means are stacked one-row products, never one (Q, m) x (m, a) product,
    whose blocking would change their last bits with Q; so a row's result
    does not depend on its batch.  Objectives are taken row by row, so no
    (Q, m, a) difference array is formed.  ``labels`` are the (m, arcs)
    training flows or their ``flow_labels`` on ``net``.
    """
    labels = flow_labels(labels, net).flows
    W, P, params = _solver_inputs(W, labels, net, params)
    Q = W.shape[0]
    total = W.sum(axis=1)
    convex = total > 0.0
    mu = (W[:, None, :] @ labels)[:, 0]
    Y = np.zeros((Q, net.n_arcs))
    Y[~convex] = min_cost_paths(net, total[~convex, None] - 2.0 * mu[~convex])
    Y[convex] = mu[convex] / total[convex, None]
    # Written so that a NaN mean counts as infeasible.
    mixed = convex & ~np.all(W >= 0.0, axis=1) & ~(Y.min(axis=1) >= 0.0)
    gaps = np.zeros(Q)
    if mixed.any():
        atoms, Z = _path_atoms(P), Y[mixed]
        Ym, S, lam = _min_norm_point(atoms, Z, total[mixed], params.gap_tol, _PROJECT_CYCLES)
        gaps[mixed] = _fw_gaps(atoms, Z, total[mixed], Ym, S, lam)
        Y[mixed] = Ym
    objs = np.zeros(Q)
    for q in range(Q):
        diff = Y[q] - labels
        objs[q] = W[q] @ np.einsum("ma,ma->m", diff, diff)
    certs = [Certificate("gap", gap=float(g)) if mx else EXACT for mx, g in zip(mixed, gaps)]
    return Y, objs, certs


def _l1_breakpoints(W, ranks: L1Labels):
    """Breakpoints of the L1 risk of every row of W, and its value at every
    training label, from the labels' ``L1Labels``.

    Returns ``((keys, ends, CW, CWY, shift, top), costs)``.  ``keys`` holds
    the complex keys ``a + 1j * y_ia`` of arc ``a``'s labels in ascending
    (stable) order, after those of every earlier arc.  Both parts are
    exact, and numpy orders complex numbers lexicographically, so one search
    finds a point's rank on every arc and no rounding merges ties.  ``ends[p]`` is
    one past the last key equal to ``keys[p]``.
    ``CW[a, q, r]`` / ``CWY[a, q, r]`` sum ``w_qi`` / ``w_qi * y_ia`` over
    the ``r`` smallest labels of arc ``a``; arc-major, so that each arc's
    block is contiguous to gather from.  Key ``j m + r`` is rank ``r`` on
    arc ``j``, at flat index ``shift[q, j] + j m + r`` of row q's
    ``CW[j, q, r]``; ``top[q, j]`` is the flat index of ``CW[j, q, m]``.
    ``keys`` and ``ends`` come from ``ranks``, built once per label set;
    the other arrays are built here, once per solve, for every step.

    ``costs[q, k]`` is the risk of row q at label k.  On each arc, with
    ``t = y_ka`` and ``lo`` / ``hi`` the counts of labels below / at most
    ``t``, it adds ``t (CW[lo] - (CW[m] - CW[hi])) - CWY[lo] + (CWY[m] -
    CWY[hi])``.  The ranks depend on the labels alone, so the candidates
    cost O(Q a m) for any m, with no m x m table.  Everything is built one
    arc at a time through one (Q, m) scratch array, so no (Q, m, a)
    temporary exists.
    """
    labels, order, S, keys, ends, lo, hi = ranks
    (m, a), Q = labels.shape, W.shape[0]
    CW = np.zeros((a, Q, m + 1))
    CWY = np.zeros((a, Q, m + 1))
    Wj = np.empty((Q, m))
    costs = np.zeros((Q, m))
    for j in range(a):
        # mode="clip" lets take write straight into Wj (indices are valid).
        np.take(W, order[:, j], axis=1, out=Wj, mode="clip")
        np.cumsum(Wj, axis=1, out=CW[j, :, 1:])
        np.cumsum(np.multiply(Wj, S[:, j], out=Wj), axis=1, out=CWY[j, :, 1:])
        # The label risks on this arc, term by term through Wj, with the
        # sums above t taken as differences, as in _l1_obj_grad.
        t, cw, cwy = labels[:, j], CW[j], CWY[j]
        np.take(cw, hi[:, j], axis=1, out=Wj, mode="clip")
        costs -= np.multiply(np.subtract(cw[:, m, None], Wj, out=Wj), t, out=Wj)
        costs += np.multiply(np.take(cw, lo[:, j], axis=1, out=Wj, mode="clip"), t, out=Wj)
        costs -= np.take(cwy, lo[:, j], axis=1, out=Wj, mode="clip")
        np.take(cwy, hi[:, j], axis=1, out=Wj, mode="clip")
        costs += np.subtract(cwy[:, m, None], Wj, out=Wj)
    row = (np.arange(Q) * (m + 1))[:, None] + np.arange(a) * (Q * (m + 1))
    return (keys, ends, CW, CWY, row - np.arange(a) * m, row + m), costs


def _l1_obj_grad(keys, ends, CW, CWY, shift, top, Y):
    """Objective ``sum_i w_qi ||y_q - y_i||_1`` and the subgradient
    ``sum_i w_qi sign(y_q - y_i)`` of every row of Y, from breakpoints.

    Per arc, labels below ``t`` add ``w (t - y)`` and labels above it add
    ``w (y - t)``; labels equal to ``t`` add nothing (``sign(0) = 0``).  One
    search over every arc's keys per step, O(Q a log(a m)); a row's arc
    terms are added left to right, so its arithmetic does not depend on the
    others.
    """
    flat_w, flat_wy = CW.reshape(-1), CWY.reshape(-1)
    y = np.arange(CW.shape[0]) + 1j * Y
    first = np.searchsorted(keys, y)
    # A point past every key of its arc meets a later arc's key, or the
    # last key by clipping: unequal, so no label ties it.
    tied = keys.take(first, mode="clip") == y
    lo = shift + first
    hi = shift + np.where(tied, ends.take(first, mode="clip"), first)
    G = flat_w[lo] - (flat_w[top] - flat_w[hi])
    terms = Y * G - flat_wy[lo] + (flat_wy[top] - flat_wy[hi])
    return np.cumsum(terms, axis=1)[:, -1], G


def _l1_descent(W, ranks: L1Labels, net: FlowNetwork, P, path, path_obj,
                params: SolverParams):
    """Projected subgradient descent on the L1 risk of the rows of W, against
    the labels of ``ranks``, then
    the feasible candidates: the best path ``path`` of each row, of risk
    ``path_obj``, and every training label the row weighs: no zero-weight
    label is a candidate.  Returns the best point of each row, its risk and
    the best subgradient lower bound, which only rows with nonnegative
    weights read: it stays ``-inf`` when the batch has none.

    The restarts run side by side as one lockstep batch of restarts x Q
    rows, restart-major, in groups of at most one restart per
    ``_RESTART_LABELS`` training labels, so a block's memory does not grow
    with the restarts.  Rows never mix, so each row takes the steps it
    would take alone.  Each row keeps its best point over its steps; then
    each query takes, in restart order and where strictly better, each
    restart's best, as a sequential loop over the restarts would, so the
    results are those of that loop bit for bit.  The subgradient bound's
    product with every path is taken Q rows at a time.

    Built once here for every step: the breakpoints with their index
    arrays and the projection's reduced network.  Each row carries its
    node potentials from one projection to the next, and keeps its point
    where a projection is not ok.  A step that moves a flow by more than
    ``_STEP_MAX`` raises ValueError: the projection squares it.  The error
    names the first step at which any restart of the group overflows."""
    Q, a, labels = W.shape[0], P.shape[1], ranks.labels
    (keys, ends, CW, CWY, shift, top), costs = _l1_breakpoints(W, ranks)
    np.copyto(costs, np.inf, where=W == 0.0)
    cand = costs.argmin(axis=1)
    cand_obj = costs[np.arange(Q), cand]
    del costs
    bound = np.all(W >= 0.0, axis=1).any()
    group = max(1, min(params.restarts, labels.shape[0] // _RESTART_LABELS))
    system = _flow_system(net, group * Q)
    shift, top = np.tile(shift, (group, 1)), np.tile(top, (group, 1))

    best_Y = np.zeros((Q, a))
    best_obj = np.full(Q, np.inf)
    best_lb = np.full(Q, -np.inf)
    for first in range(0, params.restarts, group):
        n = min(group, params.restarts - first)
        rows = n * Q
        Y = np.empty((rows, a))
        for i in range(n):
            Y[i * Q:(i + 1) * Q] = _start(P, params.seed, first + i)
        pi = np.zeros((rows, system.incidence.shape[0]))
        run_Y, run_obj = np.zeros((rows, a)), np.full(rows, np.inf)
        # max_iters steps; the last pass only evaluates the final iterate.
        for t in range(params.max_iters + 1):
            obj, G = _l1_obj_grad(keys, ends, CW, CWY, shift[:rows], top[:rows], Y)
            if bound:
                # Subgradient lower bound: f(v) >= f(y) + g.(v - y) for all v.
                low = np.concatenate([np.min(np.einsum("qa,ka->qk", G[q:q + Q], P), axis=1)
                                      for q in range(0, rows, Q)])
                lb = obj - (np.einsum("qa,qa->q", G, Y) - low)
                np.maximum(best_lb, lb.reshape(n, Q).max(axis=0), out=best_lb)
            _keep_better(run_obj, run_Y, obj, Y)
            if t == params.max_iters:
                break
            eta = params.step_a / (1.0 + params.step_b * t)
            reach = eta * float(np.abs(G).max(initial=0.0))
            if not reach <= _STEP_MAX:
                raise ValueError(f"step size {eta:.6g} overflows the L1 flow descent: at step {t} "
                                 f"it moves a flow by {reach:.3g}, more than {_STEP_MAX:.0e}")
            Z, pi, ok = _project_newton(system, Y - eta * G, pi)
            Y = Z if ok.all() else np.where(ok[:, None], Z, Y)
        for q in range(0, rows, Q):
            _keep_better(best_obj, best_Y, run_obj[q:q + Q], run_Y[q:q + Q])

    # The candidates are kept where strictly better, after the iterates.
    # They snap exact optima that subgradient steps only approach, e.g.
    # reproducing a lone training flow.
    _keep_better(best_obj, best_Y, path_obj, path)
    _keep_better(best_obj, best_Y, cand_obj, labels[cand])
    return best_Y, best_obj, best_lb


def _start(P, seed, r):
    """Restart r's start point: the mean of all paths, then seeded random
    paths."""
    if r == 0:
        return np.einsum("k,ka->a", np.full(P.shape[0], 1.0 / P.shape[0]), P)
    return P[int(np.random.default_rng([seed, r]).integers(P.shape[0]))]


def _keep_better(best_obj, best_Y, obj, Y):
    """Take each row's ``obj`` and ``Y`` where ``obj`` is strictly below its best."""
    improved = obj < best_obj
    np.copyto(best_obj, obj, where=improved)
    np.copyto(best_Y, Y, where=improved[:, None])


def solve_flow_abs_batch(W, labels, net: FlowNetwork, params: SolverParams | None = None):
    """Projected subgradient descent on ``sum_i w_i ||y - y_i||_1``, batched
    over query weight rows.

    Feasibility is maintained by an exact Euclidean projection after every
    step, a Newton method on node potentials warm-started from the previous
    step's, so every iterate conserves flow to rounding.  The restarts run
    side by side as one batch of restarts x Q rows, each query keeping the
    best point of its restarts in restart order, so the result is the same
    as that of restarts run one after another.  The best path and every
    training label the row weighs are candidates too.
    Returns ``(Y, objectives, certificates)`` with one row/entry per query.
    For rows with nonnegative weights the objective is convex and the
    certificate carries the achieved duality gap from the subgradient lower
    bound.  A row with no positive weight has a concave risk, which the best
    path minimizes: it skips the descent (certificate exact).  Other rows
    are heuristic.  ``labels`` are the (m, arcs) training flows or their
    ``flow_labels`` on ``net``.
    """
    ranks = flow_labels(labels, net, ranked=True).ranks
    labels = ranks.labels
    W, P, params = _solver_inputs(W, labels, net, params)
    # On a path the risk is c.V + W.(labels 1), as labels lie in [0, 1].
    c = W.sum(axis=1)[:, None] - 2.0 * (W[:, None, :] @ labels)[:, 0]
    best_Y = min_cost_paths(net, c)
    best_obj = np.einsum("qa,qa->q", c, best_Y) + (W[:, None, :] @ labels.sum(axis=1))[:, 0]
    best_lb = np.full(W.shape[0], -np.inf)
    live = np.any(W > 0.0, axis=1)
    if live.any():
        # A boolean index copies; with every row live, W itself serves.
        best_Y[live], best_obj[live], best_lb[live] = _l1_descent(
            W if live.all() else W[live], ranks, net, P, best_Y[live], best_obj[live], params)
    nonneg = np.all(W >= 0.0, axis=1)
    certs = [EXACT if not lv else Certificate("gap", gap=float(max(0.0, f - lb))) if nn
             else HEURISTIC for lv, nn, f, lb in zip(live, nonneg, best_obj, best_lb)]
    return best_Y, best_obj, certs


def project_batch(Z, net: FlowNetwork, gap_tol: float = 1e-6):
    """Euclidean projection of each row of Z onto the flow polytope by the
    min-norm-point method, at most ``_PROJECT_CYCLES`` major plus minor
    cycles per row.  Returns the projections and their Frank-Wolfe gaps."""
    atoms = _path_atoms(enumerate_st_paths(net))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Y, S, lam = _min_norm_point(atoms, Z, 1.0, gap_tol, _PROJECT_CYCLES)
    return Y, _fw_gaps(atoms, Z, 1.0, Y, S, lam)
