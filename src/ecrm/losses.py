"""Loss families over structured outputs.

Each discrete loss used for exact inference decomposes additively over the
coordinates of a binary encoding; ``additive_coefficients`` turns a loss
plus weighted training labels into the per-coordinate linear objective fed
to the combinatorial solvers, together with the constant offset that makes
objective values match the estimated conditional risk.  That objective is
linear in the weights, so it takes one weight vector or a batch of them,
and each weight product runs on scipy's BLAS, on the same thread pool as
the weight solve that produced them (see ``kernels``).  Hamming's is
linear in the label statistics ``W Phi`` of ``label_embedding``'s d + 1
columns alone, and ``additive_coefficients`` takes those in place of the
weights when ``model.weights`` has computed them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flow_opt import enumerate_st_paths
from .hierarchy import HierarchyDag
from .kernels import _matmul
from .spaces import OutputSpace, assignment_space, hierarchy_space, nonmembers

LOSS_KINDS = ("zero_one", "hamming", "hierarchical", "footrule", "absolute", "square")


@dataclass(frozen=True)
class LossSpec:
    """Tagged loss family.

    ``hierarchy`` is required for the hierarchical loss only.  Its per-node
    penalties are that hierarchy's ``sibling_weights``, computed once here
    into the read-only array ``penalties`` (None for every other kind).
    """

    kind: str
    hierarchy: HierarchyDag | None = None
    penalties: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")
        if self.kind == "hierarchical":
            if self.hierarchy is None:
                raise ValueError("hierarchical loss requires a hierarchy")
            if not self.hierarchy.is_arborescence:
                raise ValueError("hierarchical loss is defined on arborescences only")
            c = sibling_weights(self.hierarchy)
            c.flags.writeable = False
            object.__setattr__(self, "penalties", c)


def hamming(y, yp) -> float:
    """Number of coordinates on which the two binary vectors disagree."""
    y = np.asarray(y).ravel()
    yp = np.asarray(yp).ravel()
    if y.shape != yp.shape:
        raise ValueError(f"length mismatch: {y.shape[0]} vs {yp.shape[0]}")
    return float(np.count_nonzero(y != yp))


def sibling_weights(G: HierarchyDag) -> np.ndarray:
    """Per-node penalties of the hierarchical loss: 1 at the root, a
    parent's weight split evenly among its children.  ``LossSpec`` holds
    them as ``penalties``."""
    if not G.is_arborescence:
        raise ValueError("sibling weights require an arborescence")
    c = np.zeros(G.d)
    root = G.roots[0]
    c[root] = 1.0
    for j in G.topological_order:
        kids = G.children(j)
        for k in kids:
            c[k] = c[j] / len(kids)
    return c


def _pair(space: OutputSpace, y, yp) -> np.ndarray:
    """The two labels as the rows of an int64 array; both must lie in the
    space, and a length that does not match raises."""
    Y = np.stack([np.asarray(y).ravel(), np.asarray(yp).ravel()])
    bad, why = nonmembers(space, Y)
    if bad.size:
        raise ValueError(f"label {why}")
    return Y.astype(np.int64)


def hierarchical_loss(G: HierarchyDag, c, y, yp) -> float:
    """Direct definition: node ``j`` is penalized by ``c_j`` when it disagrees
    and every ancestor of ``j`` agrees."""
    if not G.is_arborescence:
        raise ValueError("hierarchical loss is defined on arborescences only")
    y, yp = _pair(hierarchy_space(G), y, yp)
    c = np.asarray(c, dtype=float)
    total = 0.0
    for j in range(G.d):
        if y[j] != yp[j] and all(y[k] == yp[k] for k in G.ancestors(j)):
            total += c[j]
    return total


def hierarchical_loss_closed(G: HierarchyDag, c, y, yp) -> float:
    """Closed form of the hierarchical loss: a root term plus one term per
    arc, each affine in both labels.  Agrees with the direct definition on
    all pairs of feasible labels."""
    if not G.is_arborescence:
        raise ValueError("hierarchical loss is defined on arborescences only")
    y, yp = _pair(hierarchy_space(G), y, yp)
    c = np.asarray(c, dtype=float)
    s = G.roots[0]
    total = c[s] * (y[s] + yp[s] - 2.0 * y[s] * yp[s])
    for parent, child in G.arcs:
        total += c[child] * (
            yp[child] * y[parent]
            + (yp[parent] - yp[parent] * yp[child] - yp[child]) * y[child]
        )
    return float(total)


def footrule(sigma, sigmap) -> float:
    """Sum of absolute rank differences between two permutations of 1..d."""
    s, sp = np.asarray(sigma).ravel(), np.asarray(sigmap).ravel()
    if s.shape != sp.shape:
        raise ValueError(f"length mismatch: {s.shape[0]} vs {sp.shape[0]}")
    s, sp = _pair(assignment_space(s.shape[0]), s, sp)
    return float(np.sum(np.abs(s - sp)))


def vector_loss(kind: str, y, yp) -> float:
    """Absolute (L1) or square (squared L2) loss between real vectors."""
    y = np.asarray(y, dtype=float).ravel()
    yp = np.asarray(yp, dtype=float).ravel()
    if y.shape != yp.shape:
        raise ValueError(f"length mismatch: {y.shape[0]} vs {yp.shape[0]}")
    if kind == "absolute":
        return float(np.sum(np.abs(y - yp)))
    if kind == "square":
        d = y - yp
        return float(np.dot(d, d))
    raise ValueError(f"vector_loss expects 'absolute' or 'square', got {kind!r}")


def loss_value(spec: LossSpec, y, yp) -> float:
    """Evaluate a tagged loss on a pair of outputs."""
    if spec.kind == "zero_one":
        a = np.asarray(y).ravel()
        b = np.asarray(yp).ravel()
        return float(not np.array_equal(a, b))
    if spec.kind == "hamming":
        return hamming(y, yp)
    if spec.kind == "hierarchical":
        return hierarchical_loss_closed(spec.hierarchy, spec.penalties, y, yp)
    if spec.kind == "footrule":
        return footrule(y, yp)
    return vector_loss(spec.kind, y, yp)


def label_embedding(spec: LossSpec, labels) -> np.ndarray | None:
    """An (m, D) embedding ``Phi`` of the training labels whose weighted
    sums ``W @ Phi`` are all that ``additive_coefficients`` reads of a
    batch, or None when the loss has none narrower than the weights.

    Hamming has ``Phi = [1 - 2Y, Y 1]``, D = d + 1: the coefficients are
    the first d columns of ``W @ Phi`` and the offset the last.  The
    hierarchical loss and the footrule take the weights themselves."""
    if spec.kind != "hamming":
        return None
    Y = np.asarray(labels)
    Phi = np.empty((Y.shape[0], Y.shape[1] + 1))
    np.multiply(Y, -2.0, out=Phi[:, :-1])
    Phi[:, :-1] += 1.0
    Phi[:, -1] = Y.sum(axis=1)
    return Phi


def additive_coefficients(spec: LossSpec, labels, w, embedded: bool = False):
    """Per-coordinate linear objective of the weighted empirical risk.

    Returns ``(coeffs, offset)`` such that for every feasible binary
    encoding ``y`` the estimated risk equals ``sum(coeffs * y) + offset``.
    ``w`` is one weight vector ``(m,)`` or a batch ``(Q, m)``, one row per
    query; with ``embedded`` it is that batch's label statistics
    ``w @ label_embedding(spec, labels)`` instead, as ``model.weights``
    returns them.  Coefficient shape is ``(d,)`` for Hamming/hierarchical
    and ``(d, d)`` (label-by-rank cost matrix) for the footrule, with a
    float offset; a batch adds a leading ``Q`` axis to both and costs a
    few matrix products, not a loop over queries.
    """
    w = np.asarray(w, dtype=float)
    W = np.atleast_2d(w)
    Y = np.asarray(labels)
    if embedded and spec.kind != "hamming":
        raise ValueError(f"loss kind {spec.kind!r} has no label embedding")
    if spec.kind == "hamming":
        S = W if embedded else _matmul(W, label_embedding(spec, Y))
        coeffs, offset = S[:, :-1], S[:, -1]
    elif spec.kind == "hierarchical":
        coeffs, offset = _hierarchical_coefficients(spec, Y.astype(float), W)
    elif spec.kind == "footrule":
        coeffs, offset = footrule_cost_matrix(Y, W), np.zeros(W.shape[0])
    else:
        raise ValueError(f"loss kind {spec.kind!r} has no additive binary decomposition")
    if w.ndim == 1:
        return coeffs[0], float(offset[0])
    return coeffs, offset


def _hierarchical_coefficients(spec: LossSpec, Y, W):
    """``hierarchical_loss_closed`` summed under each weight row of ``W``:
    with ``T = W @ Y`` and ``U = W @ (Y[:, parent] * Y[:, child])``, an arc
    adds ``c_child T_child`` to the parent and ``c_child (T_parent - U -
    T_child)`` to the child."""
    G = spec.hierarchy
    c = spec.penalties
    Q, d = W.shape[0], G.d
    s = G.roots[0]
    par, ch = G.arc_index
    T = _matmul(W, Y)
    U = _matmul(W, Y[:, par] * Y[:, ch])
    # Arcs that share a parent are summed into it by one flat bincount, which
    # returns integers when it gets no entries (no queries, or no arcs).
    flat = (np.arange(Q)[:, None] * d + par[None, :]).ravel()
    coeffs = np.bincount(flat, weights=(c[ch] * T[:, ch]).ravel(),
                         minlength=Q * d).reshape(Q, d).astype(float, copy=False)
    # In an arborescence every non-root node is the child of exactly one arc.
    coeffs[:, ch] += c[ch] * (T[:, par] - U - T[:, ch])
    coeffs[:, s] += c[s] * _matmul(W, 1.0 - 2.0 * Y[:, s])
    return coeffs, c[s] * T[:, s]


def footrule_cost_matrix(sigmas, w) -> np.ndarray:
    """Assignment costs ``C[j,k] = sum_i w_i |(k+1) - sigma_i(j)|``.

    Placing label ``j`` at rank ``k+1`` contributes ``C[j,k]`` to the
    weighted footrule risk.  ``w`` is one weight vector ``(m,)``, giving
    ``(d, d)``, or a batch ``(Q, m)``, giving ``(Q, d, d)``.  Computed as
    ``M @ D``: ``M[j, r] = sum_i w_i [sigma_i(j) = r+1]`` is the weighted
    rank histogram of label ``j`` and ``D[r, k] = |k - r|``.
    """
    S = np.asarray(sigmas)
    w = np.asarray(w, dtype=float)
    W = np.atleast_2d(w)
    d = S.shape[1]
    bad, why = nonmembers(assignment_space(d), S)
    if bad.size:
        raise ValueError(f"training label {bad[0]} {why}")
    # Histogram bin of (label j, rank sigma_i(j)); sample i repeats d times.
    bins = (np.arange(d) * d + S.astype(np.int64) - 1).ravel()
    M = np.array([np.bincount(bins, weights=np.repeat(row, d), minlength=d * d)
                  for row in W], dtype=float).reshape(-1, d)
    r = np.arange(d, dtype=float)
    # All Q histograms stacked as one (Q*d, d) operand of a single product.
    C = _matmul(M, np.abs(r[None, :] - r[:, None])).reshape(-1, d, d)
    return C[0] if w.ndim == 1 else C


def loss_bound(spec: LossSpec, space: OutputSpace | None = None) -> float:
    """Finite upper bound ``sup loss``: the zero-one and hierarchical bounds
    need no space; the others take the dimension (Hamming, footrule) or the
    vertices (absolute, square) of ``space``."""
    if spec.kind == "zero_one":
        return 1.0
    if spec.kind == "hierarchical":
        return float(np.sum(spec.penalties))
    if space is None:
        raise ValueError("loss bound requires an output space for this loss kind")
    if spec.kind == "hamming":
        return float(space.dim)
    if spec.kind == "footrule":
        return float((space.dim * space.dim) // 2)
    if spec.kind in ("absolute", "square"):
        # Convex losses attain their supremum at vertex pairs.  Row sums and a
        # stacked row-by-column matmul reduce as ``vector_loss`` does (pairwise
        # sum, BLAS dot), so the cap equals its pairwise definition bit for bit.
        V = _space_vertices(space)
        best = 0.0
        for i in range(len(V) - 1):
            D = V[i] - V[i + 1:]
            vals = np.abs(D).sum(axis=1) if spec.kind == "absolute" else D[:, None] @ D[..., None]
            best = max(best, float(vals.max()))
        return best
    raise ValueError(f"no bound rule for loss kind {spec.kind!r}")


def _space_vertices(space: OutputSpace) -> np.ndarray:
    if space.kind == "explicit_finite":
        return np.asarray(space.members, dtype=float)
    if space.kind == "flow_polytope":
        return enumerate_st_paths(space.network)
    raise ValueError("loss bound for vector losses needs an explicit or flow space")
