"""Structured output spaces, their membership rule and total-unimodularity tests.

``nonmembers`` is the one membership rule of every space kind: it takes a
batch of labels and returns the rows outside the space and why the first
is.  ``is_feasible``, ``enumerate_space`` and every module that checks
labels (losses, the flow solvers, the additive model, the file loader and
the command line) call it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .hierarchy import HierarchyDag, _topological_order

SPACE_KINDS = ("hierarchy", "assignment", "flow_polytope", "explicit_finite")

DEFAULT_CONTINUOUS_TOL = 1e-9
# Hierarchy candidates generated and checked at a time by enumerate_space.
_ENUM_BLOCK = 1 << 14


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network with per-node external inflows ``b``.

    A flow vector assigns one value per arc; feasibility means nonnegative
    flows whose node divergences (outflow minus inflow) equal ``b``.  The
    inflows must sum to zero.  Cycles are allowed here; path-based routines
    (LMO, simulation) require acyclic networks and check separately.
    """

    n_nodes: int
    arcs: tuple[tuple[int, int], ...]
    b: tuple[float, ...]
    out_arcs: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False,
                                                              compare=False)
    _order: tuple[int, ...] | None = field(init=False, repr=False, compare=False)
    _paths: list = field(default=None, init=False, repr=False, compare=False)
    _incidence: object = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, n_nodes: int, arcs, b) -> None:
        arcs = tuple((int(t), int(h)) for t, h in arcs)
        b = tuple(float(v) for v in b)
        if len(b) != n_nodes:
            raise ValueError(f"b has {len(b)} entries for {n_nodes} nodes")
        for t, h in arcs:
            if not (0 <= t < n_nodes and 0 <= h < n_nodes):
                raise ValueError(f"arc ({t},{h}) references a node outside 0..{n_nodes - 1}")
            if t == h:
                raise ValueError(f"self-loop at node {t}")
        if abs(sum(b)) > 1e-9:
            raise ValueError("external inflows must sum to zero")
        object.__setattr__(self, "n_nodes", n_nodes)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_paths", None)
        # Per node, its ``(arc, head)`` pairs in arc-index order.
        out = [[] for _ in range(n_nodes)]
        into = [[] for _ in range(n_nodes)]
        for a, (t, h) in enumerate(arcs):
            out[t].append((a, h))
            into[h].append(t)
        object.__setattr__(self, "out_arcs", tuple(tuple(o) for o in out))
        order = _topological_order(n_nodes, into, [[h for _, h in o] for o in out])
        object.__setattr__(self, "_order", None if order is None else tuple(order))
        # Node-arc incidence, +1 at the tail and -1 at the head; each node's
        # row lists its arcs in index order.
        ends = np.array(arcs, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "_incidence", scipy.sparse.csr_array(
            (np.tile([1.0, -1.0], len(arcs)), (ends.ravel(), np.repeat(np.arange(len(arcs)), 2))),
            shape=(n_nodes, len(arcs))))

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    def topological_order(self) -> list[int] | None:
        """Node order with all arcs forward, or None when the graph has a cycle."""
        return None if self._order is None else list(self._order)

    @property
    def is_acyclic(self) -> bool:
        return self._order is not None

    def unit_endpoints(self) -> tuple[int, int]:
        """Source and sink for a unit-throughput network (b is one +1, one -1)."""
        src = [j for j, v in enumerate(self.b) if v != 0.0 and v > 0]
        snk = [j for j, v in enumerate(self.b) if v != 0.0 and v < 0]
        if len(src) != 1 or len(snk) != 1 or self.b[src[0]] != 1.0 or self.b[snk[0]] != -1.0:
            raise ValueError("network does not have a single unit source and unit sink")
        return src[0], snk[0]

    def divergence(self, y) -> np.ndarray:
        """Node-wise outflow minus inflow for an arc vector, or for each row
        of an (m, arcs) array."""
        y = np.asarray(y, dtype=float)
        if y.ndim != 2:
            y = y.ravel()
        if y.shape[-1] != self.n_arcs:
            raise ValueError(f"flow has {y.shape[-1]} entries for {self.n_arcs} arcs")
        return (self._incidence @ y.T).T


@dataclass(frozen=True)
class OutputSpace:
    kind: str
    hierarchy: HierarchyDag | None = None
    dim: int | None = None
    network: FlowNetwork | None = None
    members: tuple | None = None


def hierarchy_space(G: HierarchyDag) -> OutputSpace:
    return OutputSpace(kind="hierarchy", hierarchy=G, dim=G.d)


def assignment_space(d: int) -> OutputSpace:
    if d < 1:
        raise ValueError("assignment space needs d >= 1")
    return OutputSpace(kind="assignment", dim=int(d))


def flow_space(net: FlowNetwork) -> OutputSpace:
    return OutputSpace(kind="flow_polytope", network=net, dim=net.n_arcs)


def explicit_space(members) -> OutputSpace:
    canon = tuple(tuple(float(v) for v in np.asarray(m).ravel()) for m in members)
    if len(set(canon)) != len(canon):
        raise ValueError("explicit space members must be duplicate-free")
    if not canon:
        raise ValueError("explicit space must be nonempty")
    dims = {len(c) for c in canon}
    if len(dims) != 1:
        raise ValueError("explicit space members must share a dimension")
    return OutputSpace(kind="explicit_finite", members=canon, dim=dims.pop())


def hierarchy_constraint_matrix(G: HierarchyDag) -> np.ndarray:
    """One row per arc, +1 on the child and -1 on the parent; the labels
    are the 0/1 points y with ``A y <= 0``."""
    A = np.zeros((len(G.arcs), G.d), dtype=np.int64)
    for r, (parent, child) in enumerate(G.arcs):
        A[r, child] = 1
        A[r, parent] = -1
    return A


def assignment_constraint_matrix(d: int) -> np.ndarray:
    """Bipartite perfect-matching rows over the d*d placement variables;
    the rankings are the 0/1 points x with ``A x = 1``."""
    A = np.zeros((2 * d, d * d), dtype=np.int64)
    for j in range(d):
        A[j, j * d:(j + 1) * d] = 1          # each label gets one rank
    for k in range(d):
        A[d + k, k::d] = 1                   # each rank gets one label
    return A


def nonmembers(space: OutputSpace, Y, tol: float | None = None) -> tuple[np.ndarray, str]:
    """The rows of the (n, dim) array Y outside the space, as ascending
    indices, and why the first of them is, as a predicate of that row ("has
    node 2 active but parent 1 inactive"), or "" when every row is inside.

    A hierarchy label is a 0/1 vector in which every active node has all of
    its parents active; a ranking is a permutation of 1..d; a flow is
    nonnegative and conserves at every node to ``tol``
    (``DEFAULT_CONTINUOUS_TOL`` when None); an explicit space holds its
    listed members.  NaN is in no space.  Raises ValueError when Y is not
    (n, dim).
    """
    Y = np.asarray(Y)
    if Y.ndim != 2 or Y.shape[1] != space.dim:
        raise ValueError(f"labels must be an (n, {space.dim}) array for this {space.kind} "
                         f"space, got shape {Y.shape}")
    if space.kind == "hierarchy":
        par, ch = space.hierarchy.arc_index
        # Byte-sized boolean gathers over the arcs; Y itself is not copied.
        on = Y == 1
        binary = (on | (Y == 0)).all(axis=1)
        bad = np.flatnonzero(~binary | (on[:, ch] > on[:, par]).any(axis=1))
        if bad.size and binary[bad[0]]:
            a = np.argmax(on[bad[0], ch] > on[bad[0], par])
            return bad, f"has node {ch[a]} active but parent {par[a]} inactive"
        return bad, "is not a 0/1 vector" if bad.size else ""
    if space.kind == "assignment":
        # A NaN sorts last and equals no rank.
        bad = np.flatnonzero(~(np.sort(Y, axis=1) == np.arange(1, space.dim + 1)).all(axis=1))
        return bad, f"is not a permutation of 1..{space.dim}" if bad.size else ""
    if space.kind == "flow_polytope":
        tol = DEFAULT_CONTINUOUS_TOL if tol is None else tol
        resid = flow_residuals(space.network, Y)
        # Written so that a NaN residual counts as a violation.
        bad = np.flatnonzero(~(resid <= tol))
        return bad, f"violates conservation by {resid[bad[0]]:.3g}" if bad.size else ""
    if space.kind == "explicit_finite":
        M = np.asarray(space.members)
        bad = np.flatnonzero(~(Y[:, None, :] == M[None]).all(axis=2).any(axis=1))
        return bad, "is not a member of the space" if bad.size else ""
    raise ValueError(f"unknown space kind {space.kind!r}")


def is_feasible(space: OutputSpace, y, tol: float | None = None) -> bool:
    """Membership test of one label, given in the encoding of ``nonmembers``
    (a ranking as its d ranks): the one-row case of ``nonmembers``."""
    return not nonmembers(space, np.reshape(y, (1, -1)), tol)[0].size


def flow_residuals(net: FlowNetwork, Y) -> np.ndarray:
    """Max absolute conservation violation, including negativity of flows,
    of each row of an (m, arcs) array."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    resid = np.abs(net.divergence(Y) - np.asarray(net.b)).max(axis=1, initial=0.0)
    # 0.0 - min keeps a zero minimum at +0.0.
    return np.maximum(resid, 0.0 - Y.min(axis=1, initial=0.0))


def flow_residual(net: FlowNetwork, y) -> float:
    """Max absolute conservation violation, including negativity of flows."""
    return float(flow_residuals(net, np.asarray(y, dtype=float).ravel()[None, :])[0])


def is_totally_unimodular(A, size_cap: int = 2_000_000) -> bool | None:
    """Exhaustively test every square submatrix determinant of the matrix A.

    Returns True/False, or None ("unknown") when the number of square
    submatrices exceeds ``size_cap``.  An entry outside {-1, 0, 1} is a 1x1
    submatrix that proves False at any size, so it is checked before the
    cap.  This is a brute-force verification utility, not part of the
    inference path.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.all(np.isin(A, (-1.0, 0.0, 1.0))):
        return False
    n, d = A.shape
    kmax = min(n, d)
    total = sum(math.comb(n, k) * math.comb(d, k) for k in range(1, kmax + 1))
    if total > size_cap:
        return None
    for k in range(2, kmax + 1):
        rows = list(itertools.combinations(range(n), k))
        cols = list(itertools.combinations(range(d), k))
        col_arr = np.array(cols)
        # Batch determinants one row-combination at a time.
        for rsel in rows:
            A_rows = A[np.array(rsel)]
            sub = A_rows[:, col_arr].transpose(1, 0, 2)  # (n_col_combos, k, k)
            dets = np.linalg.det(sub)
            if np.any(np.abs(np.abs(np.round(dets)) - np.abs(dets)) > 1e-6):
                return False
            if np.any(np.abs(np.round(dets)) > 1.5):
                return False
    return True


def enumerate_space(space: OutputSpace, cap: int = 1_000_000) -> list[np.ndarray]:
    """All members of a discrete space.

    Hierarchies and rankings come in lexicographic order of the encoding;
    an explicit space keeps its construction order, so argmin callers break
    ties by comparing member tuples.  Raises when the member count would
    exceed ``cap`` or the space is continuous.
    """
    if space.kind == "explicit_finite":
        if len(space.members) > cap:
            raise ValueError(f"space has {len(space.members)} members, cap is {cap}")
        return [np.asarray(m, dtype=float) for m in space.members]
    if space.kind == "assignment":
        d = space.dim
        if math.factorial(d) > cap:
            raise ValueError(f"space has {math.factorial(d)} members, cap is {cap}")
        return [np.array(p, dtype=np.int64) for p in itertools.permutations(range(1, d + 1))]
    if space.kind == "hierarchy":
        G = space.hierarchy
        if G.d > 24:
            raise ValueError("hierarchy too large to enumerate exhaustively")
        # Bit i of the counter is coordinate i, most significant first, so
        # candidates come out in lexicographic order, one block at a time.
        n, shifts, members, count = 1 << G.d, np.arange(G.d - 1, -1, -1), [], 0
        for lo in range(0, n, _ENUM_BLOCK):
            cand = np.arange(lo, min(lo + _ENUM_BLOCK, n), dtype=np.int64)[:, None]
            cand = (cand >> shifts) & 1
            feas = np.delete(cand, nonmembers(space, cand)[0], axis=0)
            count += feas.shape[0]
            if count <= cap:
                members.extend(feas)
        if count > cap:
            raise ValueError(f"space has {count} members, cap is {cap}")
        return members
    raise ValueError(f"cannot enumerate a {space.kind} space")
