"""Label hierarchies: rooted DAGs with arcs oriented parent -> child."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class HierarchyDag:
    """A directed acyclic graph over ``d`` label nodes.

    Arcs are ``(parent, child)`` pairs with 0-based node ids.  A label
    vector ``y`` in ``{0,1}^d`` is feasible when every active node has all
    of its parents active.
    """

    d: int
    arcs: tuple[tuple[int, int], ...]
    _parents: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _children: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _topo: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _roots: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _arc_index: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _levels: tuple[tuple[np.ndarray, np.ndarray], ...] = field(
        init=False, repr=False, compare=False)
    _dropped: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __init__(self, d: int, arcs) -> None:
        if d < 1:
            raise ValueError("hierarchy needs at least one node")
        arcs = tuple((int(p), int(c)) for p, c in arcs)
        for p, c in arcs:
            if not (0 <= p < d and 0 <= c < d):
                raise ValueError(f"arc ({p},{c}) references a node outside 0..{d - 1}")
            if p == c:
                raise ValueError(f"self-loop at node {p}")
        parents = [[] for _ in range(d)]
        children = [[] for _ in range(d)]
        for p, c in arcs:
            parents[c].append(p)
            children[p].append(c)
        topo = _topological_order(d, parents, children)
        if topo is None:
            raise ValueError("hierarchy contains a cycle")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "_parents", tuple(tuple(ps) for ps in parents))
        object.__setattr__(self, "_children", tuple(tuple(cs) for cs in children))
        object.__setattr__(self, "_topo", tuple(topo))
        object.__setattr__(self, "_roots", tuple(j for j in range(d) if not parents[j]))
        object.__setattr__(self, "_arc_index", tuple(
            np.array(arcs, dtype=np.intp).reshape(-1, 2).T))
        levels, dropped = _spanning_forest(d, arcs, parents, topo)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_dropped", dropped)

    def parents(self, j: int) -> tuple[int, ...]:
        return self._parents[j]

    def children(self, j: int) -> tuple[int, ...]:
        return self._children[j]

    @property
    def roots(self) -> tuple[int, ...]:
        return self._roots

    @property
    def topological_order(self) -> tuple[int, ...]:
        return self._topo

    @property
    def forest_levels(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``(nodes, parents)`` index arrays of the nodes at depth 1, 2, ...
        below the roots of the spanning forest, in which every node keeps
        one parent: its deepest (by longest path from a root), ties to the
        smallest id.  On a forest that is the hierarchy itself."""
        return self._levels

    @property
    def dropped_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(parents, children)`` index arrays of the arcs the spanning
        forest leaves out, in arc order; empty on a forest."""
        return self._dropped

    @property
    def arc_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(parents, children)`` index arrays of the arcs, in arc order."""
        return self._arc_index

    def ancestors(self, j: int) -> tuple[int, ...]:
        """All strict ancestors of ``j`` (deduplicated, unordered)."""
        seen: set[int] = set()
        stack = list(self._parents[j])
        while stack:
            k = stack.pop()
            if k not in seen:
                seen.add(k)
                stack.extend(self._parents[k])
        return tuple(sorted(seen))

    @property
    def is_arborescence(self) -> bool:
        """True when there is a single root and every other node has one parent."""
        # Every non-root node has at least one parent, so with one root the
        # in-degrees sum to d - 1 exactly when each of them has one.
        return len(self._roots) == 1 and len(self.arcs) == self.d - 1


def _topological_order(d, parents, children):
    indeg = [len(ps) for ps in parents]
    order = [j for j in range(d) if indeg[j] == 0]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    return order if len(order) == d else None


def _spanning_forest(d, arcs, parents, topo):
    """``forest_levels`` and ``dropped_arcs`` of a hierarchy."""
    longest = [0] * d  # longest path from a root
    depth = [0] * d  # depth in the forest
    keep = [-1] * d
    for j in topo:
        if parents[j]:
            keep[j] = max(parents[j], key=lambda p: (longest[p], -p))
            longest[j] = longest[keep[j]] + 1
            depth[j] = depth[keep[j]] + 1
    levels = [([], []) for _ in range(max(depth))]
    for j in range(d):
        if depth[j]:
            nodes, pars = levels[depth[j] - 1]
            nodes.append(j)
            pars.append(keep[j])
    dropped = [(p, c) for p, c in arcs if p != keep[c]]
    return (tuple((np.array(n, dtype=np.intp), np.array(p, dtype=np.intp)) for n, p in levels),
            tuple(np.array(dropped, dtype=np.intp).reshape(-1, 2).T))
