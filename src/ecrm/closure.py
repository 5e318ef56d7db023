"""Exact hierarchy inference: minimizing ``c . y`` over hierarchy-feasible
binary vectors.

On a forest (no node with two parents) a level-wise dynamic program solves
the problem for a whole batch of cost rows at once.  Bottom-up, a node's
best subtree value is its own cost plus the negative parts of its
children's; top-down, a node is selected when that value is strictly
negative and its parent is selected.

A multi-parent DAG is solved per row as a maximum-weight closure problem,
the complement of the minimization.  That reduces to a minimum s-t cut
(Picard, "Maximal closure of a graph", Management Science 1976): source
arcs carry the positive node weights, sink arcs the negative ones, and
dependency arcs get infinite capacity.  Because the relaxed constraint
system is totally unimodular, the cut optimum matches the
linear-programming optimum and is integral, so the reduction is exact for
any real cost vector.

Both paths return the inclusion-minimal optimum, which is also the
lexicographically smallest one.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .hierarchy import HierarchyDag


class _MaxFlow:
    """Dinic's algorithm on an adjacency-list residual graph."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.to: list[int] = []
        self.cap: list[float] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, c: float) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def _bfs(self, s: int, t: int, eps: float) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > eps and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[t] >= 0 else None

    def _augment(self, s: int, t: int, level, it, eps: float) -> float:
        """Push flow along one s-t path of the level graph, found depth-first
        without recursion; ``it[u]`` skips only arcs that led to dead ends."""
        head, to, cap = self.head, self.to, self.cap
        path: list[int] = []
        u = s
        while u != t:
            if it[u] == len(head[u]):
                if not path:
                    return 0.0
                u = to[path.pop() ^ 1]  # back up to the arc's tail; that arc is dead
                it[u] += 1
                continue
            e = head[u][it[u]]
            if cap[e] > eps and level[to[e]] == level[u] + 1:
                path.append(e)
                u = to[e]
            else:
                it[u] += 1
        f = min(cap[e] for e in path)
        for e in path:
            cap[e] -= f
            cap[e ^ 1] += f
        return f

    def max_flow(self, s: int, t: int, eps: float) -> float:
        total = 0.0
        while True:
            level = self._bfs(s, t, eps)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                f = self._augment(s, t, level, it, eps)
                if f <= 0.0:
                    break
                total += f

    def reachable_from(self, s: int, eps: float) -> list[bool]:
        seen = [False] * self.n
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > eps and not seen[v]:
                    seen[v] = True
                    q.append(v)
        return seen


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
    if levels is None:
        Y = np.array([_solve_dinic(c, G) for c in C], dtype=np.int64).reshape(C.shape)
    else:
        best = C.T.copy()  # (d, Q): row j holds node j's best subtree value
        for nodes, parents in reversed(levels):
            np.add.at(best, parents, np.minimum(best[nodes], 0.0))
        on = best < 0.0  # strict: a zero-value subtree stays off
        for nodes, parents in levels:
            on[nodes] &= on[parents]
        Y = on.T.astype(np.int64, order="C")
    return Y[0] if single else Y


def _solve_dinic(c: np.ndarray, G: HierarchyDag) -> np.ndarray:
    """One cost row of ``solve_hierarchy`` by max-flow; any DAG."""
    weights = -c  # maximize total weight of the selected closure
    if not np.any(weights > 0):
        return np.zeros(G.d, dtype=np.int64)
    scale = float(np.max(np.abs(weights)))
    eps = 1e-12 * max(1.0, scale)
    s, t = G.d, G.d + 1
    mf = _MaxFlow(G.d + 2)
    for j in range(G.d):
        if weights[j] > 0:
            mf.add_edge(s, j, weights[j])
        elif weights[j] < 0:
            mf.add_edge(j, t, -weights[j])
    for parent, child in G.arcs:
        # Selecting the child forces the parent into the closure.
        mf.add_edge(child, parent, math.inf)
    mf.max_flow(s, t, eps)
    reach = mf.reachable_from(s, eps)
    y = np.array([1 if reach[j] else 0 for j in range(G.d)], dtype=np.int64)
    return y
