"""Exact hierarchy inference: minimizing ``c . y`` over hierarchy-feasible
binary vectors.

Every row first goes through a level-wise dynamic program on the
hierarchy's spanning forest (``HierarchyDag.forest_levels``: each node
keeps its deepest parent), for a whole batch of cost rows at once.
Bottom-up, a node's best subtree value is its own cost plus the negative
parts of its children's; top-down, a node is selected when that value is
strictly negative and its parent is selected.  That is the inclusion-
minimal optimum of the forest problem, whose constraints are a subset of
the hierarchy's.  When it also keeps every arc the forest dropped it is
feasible, hence optimal, and every hierarchy optimum is a forest optimum
that contains it: it is the hierarchy's inclusion-minimal optimum too.
On a forest nothing is dropped and the program is the whole solve.

The rows whose forest answer breaks a dropped arc are solved as a
maximum-weight closure problem, the complement of the minimization.  That
reduces to a minimum s-t cut (Picard, "Maximal closure of a graph",
Management Science 1976) on the closure network: source arcs carry the
positive node weights, sink arcs the negative ones, and each dependency
arc runs from child to parent with infinite capacity.  Because the
relaxed constraint system is totally unimodular, the cut optimum matches
the linear-programming optimum and is integral, so the reduction is exact
for any real cost vector.

Dinic's algorithm runs on that network directly.  No level-graph path
uses the reverse of a source or sink arc, and a dependency arc is open
from parent to child only while it carries flow, so a row's whole state
is its residual source and sink capacity per node plus one flow value per
arc.  The moves out of each node are built once per batch; the level
search that misses the sink returns the cut.

Both paths return the inclusion-minimal optimum, which is also the
lexicographically smallest one.
"""

from __future__ import annotations

import numpy as np

from .hierarchy import HierarchyDag


def solve_hierarchy(costs, G: HierarchyDag) -> np.ndarray:
    """Exact minimizer of ``costs . y`` over hierarchy-feasible {0,1}^d.

    ``costs`` is one row (d,) or a batch (Q, d); the int64 result has the
    same shape.  Among the optima of a row the inclusion-minimal one is
    returned; optimal closures are closed under intersection, so that point
    is also the lexicographically smallest optimum.
    """
    C = np.asarray(costs, dtype=float)
    single = C.ndim < 2
    C = C.reshape(1, -1) if single else C
    if C.ndim != 2 or C.shape[1] != G.d:
        raise ValueError(f"cost length {C.shape[-1]} does not match hierarchy size {G.d}")
    if not np.all(np.isfinite(C)):
        raise ValueError("costs must be finite")
    levels = G.forest_levels
    best = C.T.copy()  # (d, Q): row j holds node j's best subtree value
    for nodes, parents in reversed(levels):
        np.add.at(best, parents, np.minimum(best[nodes], 0.0))
    on = best < 0.0  # strict: a zero-value subtree stays off
    for nodes, parents in levels:
        on[nodes] &= on[parents]
    Y = on.T.astype(np.int64, order="C")
    parents, children = G.dropped_arcs
    if parents.size:
        broken = (on[children] & ~on[parents]).any(axis=0)
        if broken.any():
            Y[broken] = _solve_dinic(C[broken], G)
    return Y[0] if single else Y


def _solve_dinic(C: np.ndarray, G: HierarchyDag) -> np.ndarray:
    """The (Q, d) rows of ``solve_hierarchy`` by Dinic's algorithm; any DAG."""
    d = G.d
    # Moves out of each node along arc k: child -> parent is always open,
    # parent -> child only while arc k carries flow.
    moves: list[list[tuple[int, int, bool]]] = [[] for _ in range(d)]
    for k, (parent, child) in enumerate(G.arcs):
        moves[child].append((k, parent, True))
        moves[parent].append((k, child, False))
    Y = np.zeros(C.shape, dtype=np.int64)
    for row, weights in enumerate((-C).tolist()):  # maximize the closure's weight
        if not any(w > 0 for w in weights):
            continue
        eps = 1e-12 * max(1.0, max(map(abs, weights)))
        src = [max(w, 0.0) for w in weights]  # residual source and sink arcs
        snk = [max(-w, 0.0) for w in weights]
        flow = [0.0] * len(G.arcs)
        while True:
            # Level search from the source; the one that misses the sink
            # leaves the source side of the inclusion-minimal cut in ``order``.
            order = [j for j in range(d) if src[j] > eps]
            level = [-1] * d
            for j in order:
                level[j] = 0
            sink = -1
            for u in order:
                if sink < 0 and snk[u] > eps:
                    sink = level[u] + 1
                for k, v, up in moves[u]:
                    if level[v] < 0 and (up or flow[k] > eps):
                        level[v] = level[u] + 1
                        order.append(v)
            if sink < 0:
                Y[row, order] = 1
                break
            # Blocking flow, one depth-first path at a time; ``it[u]`` is 0
            # while u's sink arc is untried, else 1 + the index of its move.
            it = [0] * d
            for j in range(d):
                while src[j] > eps and level[j] == 0:
                    path = [j]
                    while path:
                        u = path[-1]
                        i = it[u]
                        if i == 0:
                            if snk[u] > eps and level[u] + 1 == sink:
                                break
                            it[u] = 1
                        elif i > len(moves[u]):
                            path.pop()  # dead end: the move into u is spent
                            if path:
                                it[path[-1]] += 1
                        else:
                            k, v, up = moves[u][i - 1]
                            if level[v] == level[u] + 1 and (up or flow[k] > eps):
                                path.append(v)
                            else:
                                it[u] += 1
                    if not path:
                        break
                    steps = [moves[u][it[u] - 1] for u in path[:-1]]
                    f = min([src[j], snk[path[-1]]]
                            + [flow[k] for k, _, up in steps if not up])
                    src[j] -= f
                    snk[path[-1]] -= f
                    for k, _, up in steps:
                        flow[k] += f if up else -f
    return Y
