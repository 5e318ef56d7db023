"""Kernel families and Gram matrix construction.

Only two kernels are supported: the linear kernel ``k(x,x') = <x,x'>`` and
the RBF kernel ``k(x,x') = exp(-gamma * ||x - x'||^2)``.  Gram matrices are
exactly symmetric (bitwise), not merely up to round-off.

RBF blocks are level-3 BLAS products: ``||x - x'||^2 = ||x||^2 + ||x'||^2 -
2<x,x'>``, with the cross terms from one ``dsyrk`` (Gram) or ``dgemm``
(kernel vectors).  Both row sets are first centered on the training
inputs' column mean; the kernel is translation-invariant, so only the
spread of the features enters the cancellation error, not their offset.
``dsyrk`` fills the lower triangle and leaves exact zeros above it, so in
``L + L.T`` one term of every entry is 0 and the sum is symmetric bit for
bit; the norm terms are added as ``n_i + n_j``, which commutes.  The
products call scipy's BLAS rather than numpy's ``@``: the two may link
separate OpenBLAS builds, each with its own thread pool, and the Cholesky
factor and solves in ``model`` run on scipy's.  Keeping every product of
the fit and weight path on that one pool avoids the two pools contending
for the same cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dsyrk

VALID_KINDS = ("linear", "rbf")

# Entries per row block when adding squared norms to an RBF Gram; bounds
# the temporary next to the two m x m arrays.
_BLOCK_ELEMS = 1 << 18


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice plus parameters.

    gamma is the RBF bandwidth and must be positive; it is ignored for the
    linear kernel.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {VALID_KINDS}")
        if self.kind == "rbf":
            if self.gamma is None or not (self.gamma > 0):
                raise ValueError("rbf kernel requires gamma > 0")


def eval_kernel(spec: KernelSpec, x, xp) -> float:
    """Evaluate ``k(x, x')`` for two feature vectors of equal dimension."""
    x = np.asarray(x, dtype=float).ravel()
    xp = np.asarray(xp, dtype=float).ravel()
    if x.shape != xp.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {xp.shape[0]}")
    if spec.kind == "linear":
        return float(np.dot(x, xp))
    diff = x - xp
    return float(np.exp(-spec.gamma * np.dot(diff, diff)))


def cross_gram(spec: KernelSpec, A, B) -> np.ndarray:
    """Kernel matrix ``[k(a_i, b_j)]`` for row sets A (n,p) and B (m,p)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    if spec.kind == "linear":
        # einsum keeps a fixed per-entry reduction order, so K[i,j] and
        # K[j,i] are bitwise equal when A is B.
        return np.einsum("ip,jp->ij", A, B)
    mu = B.mean(axis=0)
    A, B = A - mu, B - mu
    # (m, n) in Fortran order: its transpose is the C-ordered result, and
    # cho_solve receives it back as a Fortran-ordered right-hand side.
    D = dgemm(-2.0, B.T, A.T, trans_a=1)
    D += np.einsum("ip,ip->i", B, B)[:, None]
    D += np.einsum("ip,ip->i", A, A)
    return _rbf_in_place(spec.gamma, D).T


def _rbf_in_place(gamma: float, D) -> np.ndarray:
    """``exp(-gamma * max(D, 0))`` written over the squared distances D."""
    np.maximum(D, 0.0, out=D)
    D *= -gamma
    return np.exp(D, out=D)


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Gram matrix of the training inputs; exactly symmetric."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("need at least one input row")
    if spec.kind == "linear":
        return cross_gram(spec, X, X)
    A = X - X.mean(axis=0)
    L = dsyrk(-2.0, A.T, trans=1, lower=1)
    D = L + L.T
    n = -0.5 * np.diagonal(L)
    del L
    m = D.shape[0]
    step = max(1, _BLOCK_ELEMS // m)
    for lo in range(0, m, step):
        D[lo:lo + step] += n[lo:lo + step, None] + n
    np.fill_diagonal(D, 0.0)
    return _rbf_in_place(spec.gamma, D)


def kernel_vector(spec: KernelSpec, X, x) -> np.ndarray:
    """The vector ``[k(x, x_i)]_i`` against stored training inputs."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != X.shape[1]:
        raise ValueError(f"dimension mismatch: query has {x.shape[0]} features, model has {X.shape[1]}")
    return cross_gram(spec, x[None, :], X)[0]


def kernel_sup_bound(spec: KernelSpec, X) -> float:
    """Upper bound on ``k(x,x)`` used by the generalization bound.

    Exactly 1 for RBF; for the linear kernel we use the maximum over the
    training inputs (the bound is input-domain dependent).
    """
    if spec.kind == "rbf":
        return 1.0
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return float(np.max(np.einsum("ip,ip->i", X, X)))
