"""Additive conditional-risk model with a joint input-output kernel.

Per-node risks are estimated jointly: the score of assigning value v to
node j at input x is a kernel expansion with one coefficient per (training
sample, node, value) triple, where a node's expansion sums over its
neighborhood in the hierarchy.  The total estimated risk is the sum of node
scores, which is affine in each label coordinate, so exact inference
reduces to the same linear objective the closure solver handles.

The fit is one exact solve at every size: diagonalizing the input Gram and
the neighborhood matrix once each diagonalizes their Kronecker system, at a
cost of O(m^3 + d^3 + m d (m + d)).  If an eigenvalue product cancels lambda
the system is singular and the fit raises ``NumericalError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .closure import solve_hierarchy
from .errors import NumericalError
from .hierarchy import HierarchyDag
from .kernels import KernelSpec, _gram_too_large, cross_gram, gram_matrix
from .results import EXACT, InferenceResult
from .spaces import hierarchy_space, nonmembers

NEIGHBOR_RULES = ("adjacent", "self")


@dataclass(frozen=True)
class JointKernelSpec:
    """Base input kernel plus the node-neighborhood rule of the joint kernel.

    ``adjacent`` couples each node with its hierarchy neighbors (parents,
    children and itself); ``self`` decouples the nodes entirely.
    """

    base: KernelSpec
    neighbors: str = "adjacent"

    def __post_init__(self) -> None:
        if self.neighbors not in NEIGHBOR_RULES:
            raise ValueError(f"neighbors must be one of {NEIGHBOR_RULES}")


@dataclass(frozen=True)
class AdditiveModel:
    """Fitted coefficients, indexed as alpha[sample, node, value]."""

    alpha: np.ndarray
    joint: JointKernelSpec
    lam: float
    hierarchy: HierarchyDag
    inputs: np.ndarray

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.hierarchy.d


def neighborhood_matrix(G: HierarchyDag, rule: str) -> np.ndarray:
    """0/1 node-coupling matrix: identity, plus adjacency for the default rule."""
    N = np.eye(G.d)
    if rule == "adjacent":
        for p, c in G.arcs:
            N[p, c] = 1.0
            N[c, p] = 1.0
    return N


def fit_additive(X, Y, G: HierarchyDag, joint: JointKernelSpec, lam: float) -> AdditiveModel:
    """Fit the per-node risk estimates by regularized least squares.

    The system ``(Kx (x) N (x) I_2 + lambda I) alpha = t`` couples the input
    Gram ``Kx`` (m x m), the neighborhood matrix ``N`` (d x d) and the
    node-wise disagreement losses ``t[i, j, v] = 1(v != Y[i, j])``.  With
    ``Kx = Ux diag(ex) Ux'`` and ``N = Un diag(en) Un'``, each value's block
    is ``Ux ((Ux' T_v Un) / (ex en' + lambda)) Un'``: O(m^3 + d^3 + m d (m + d)).
    ``N`` is indefinite, so a denominator can cancel lambda: one below
    ``max(m, d) * eps`` times the largest (the eigenvalues' rounding level)
    raises ``NumericalError``; an input Gram or eigenbasis too large to
    allocate raises ``EcrmError``.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError("lambda must be finite and positive")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y)
    m, d = X.shape[0], G.d
    if Y.shape != (m, d):
        raise ValueError(f"labels must be {m}x{d} binary vectors")
    bad, why = nonmembers(hierarchy_space(G), Y)
    if bad.size:
        raise ValueError(f"training label {bad[0]} {why}")

    # Divide and conquer: faster than the default driver, more orthogonal vectors.
    try:
        ex, Ux = scipy.linalg.eigh(gram_matrix(joint.base, X), driver="evd")
    except MemoryError as exc:
        raise _gram_too_large(m) from exc
    en, Un = scipy.linalg.eigh(neighborhood_matrix(G, joint.neighbors), driver="evd")
    # The system's eigenvalues, each once per label value.
    D = ex[:, None] * en[None, :] + lam
    if np.abs(D).min() <= np.abs(D).max() * max(m, d) * np.finfo(float).eps:
        raise NumericalError("additive system is singular; increase lambda")
    alpha = np.empty((m, d, 2))
    for v in (0, 1):
        T = (Y != v).astype(float)
        alpha[:, :, v] = Ux @ ((Ux.T @ T @ Un) / D) @ Un.T
    return AdditiveModel(alpha=alpha, joint=joint, lam=lam, hierarchy=G, inputs=X)


def node_scores(model: AdditiveModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Per-node estimated risks of the off (0) and on (1) label values: (d,)
    each for one input (p,), (Q, d) for a batch (Q, p)."""
    x = np.asarray(x, dtype=float)
    V = cross_gram(model.joint.base, np.atleast_2d(x), model.inputs)
    N = neighborhood_matrix(model.hierarchy, model.joint.neighbors)
    # N is symmetric, so each row's N @ (v @ alpha) is (v @ alpha) @ N.
    off = (V @ model.alpha[:, :, 0]) @ N
    on = (V @ model.alpha[:, :, 1]) @ N
    if x.ndim < 2:
        return off[0], on[0]
    return off, on


def additive_risk(model: AdditiveModel, x, y) -> float:
    """Estimated conditional risk: sum of node scores, affine in each y_j."""
    y = np.asarray(y).ravel()
    bad, why = nonmembers(hierarchy_space(model.hierarchy), y[None, :])
    if bad.size:
        raise ValueError(f"label {why}")
    off, on = node_scores(model, x)
    return float(np.sum(off + y * (on - off)))


def infer_additive(model: AdditiveModel, x) -> InferenceResult | list[InferenceResult]:
    """Exact risk minimizer over the hierarchy via the closure solver.

    One input (p,) gives one ``InferenceResult``; a batch (Q, p) gives a list
    of them from one closure solve.
    """
    off, on = node_scores(model, np.atleast_2d(x))
    coeffs = on - off
    Y = solve_hierarchy(coeffs, model.hierarchy)
    results = [InferenceResult(y_star=y, objective=float(np.sum(o) + c @ y), certificate=EXACT)
               for o, c, y in zip(off, coeffs, Y)]
    return results if np.ndim(x) == 2 else results[0]
