"""Kernel families and Gram matrix construction.

Only two kernels are supported: the linear kernel ``k(x,x') = <x,x'>`` and
the RBF kernel ``k(x,x') = exp(-gamma * ||x - x'||^2)``.  Gram matrices are
exactly symmetric (bitwise), not merely up to round-off.

RBF blocks are level-3 BLAS products: ``||x - x'||^2 = ||x||^2 + ||x'||^2 -
2<x,x'>``, with the cross terms from one ``dsyrk`` (Gram) or ``dgemm``
(kernel vectors).  Both row sets are first centered on the training
inputs' column mean; the kernel is translation-invariant, so only the
spread of the features enters the cancellation error, not their offset.
Finite rows whose centered squared norms are too large for their squared
distances to be finite raise ValueError before the RBF pass.  Linear
kernel values are finite too: training rows are checked by their squared
norms before the Gram is formed, and each block of kernel vectors after.
The Gram is built lower triangle first, in ``dsyrk``'s own Fortran-ordered
buffer: the norm terms (added as ``n_i + n_j``), the clamp at 0, the scale
and the ``exp`` run over column blocks of the lower triangle only, the
diagonal is set to exactly 1, and the lower triangle is then copied into
the upper one in column panels.  Every upper entry is a copy of its mirror
image, so the result is symmetric bit for bit, and no second m x m array
is made.  ``model.fit`` skips the copy: its Cholesky factor reads only the
lower triangle.

The products call scipy's BLAS rather than numpy's ``@``: the two may link
separate OpenBLAS builds, each with its own thread pool, and the Cholesky
factor and solves in ``model`` run on scipy's.  Keeping the dense products
of the predict path on that one pool avoids the two pools contending for
the same cores; the weight-to-coefficient products in ``losses`` go
through ``_matmul``.  The weight products of additive models
(``additive.node_scores``) and the projection baseline still use numpy's
``@``.  So does the square-loss flow solver, on purpose: its weighted means
are stacked one-row products, ``(Q, 1, m) @ (m, a)``, which give a one-row
call's bits in any batch, where one ``(Q, m) x (m, a)`` product would not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dsyrk

from .errors import EcrmError

VALID_KINDS = ("linear", "rbf")

# Entries per column block of the elementwise RBF pass over a Gram's lower
# triangle; bounds the temporary next to the m x m array.
_BLOCK_ELEMS = 1 << 18
# Columns per panel when mirroring a Gram's lower triangle into its upper one.
_PANEL = 128


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice plus parameters.

    gamma is the RBF bandwidth and must be finite and positive; it is
    ignored for the linear kernel.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {VALID_KINDS}")
        if self.kind == "rbf":
            if self.gamma is None or not (np.isfinite(self.gamma) and self.gamma > 0):
                raise ValueError("rbf kernel requires a finite gamma > 0")


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


def cross_gram(spec: KernelSpec, A, B, terms=None) -> np.ndarray:
    """Kernel matrix ``[k(a_i, b_j)]`` for row sets A (n,p) and B (m,p).

    ``terms``, if given, is ``_training_terms(spec, B)``, kept by the
    caller so that B's side of an RBF block is not recomputed per call;
    the RBF kernel then reads only B's shape, and a ``terms`` whose
    centered rows do not have that shape raises ``ValueError``."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    if spec.kind == "linear":
        K = _linear(A, B)
        if not np.isfinite(K).all():
            raise ValueError("inputs too large for the linear kernel: their inner products "
                             "overflow")
        return K
    if terms is None:
        terms = _training_terms(spec, B)
    elif terms[1].shape != B.shape:
        raise ValueError(f"kernel terms are for {terms[1].shape[0]} x {terms[1].shape[1]} "
                         f"rows, not {B.shape[0]} x {B.shape[1]}")
    mu, B, nb = terms
    A = A - mu
    na = np.einsum("ip,ip->i", A, A)
    _check_norms(na, nb)
    # (m, n) in Fortran order: its transpose is the C-ordered result, and
    # cho_solve receives it back as a Fortran-ordered right-hand side.
    D = dgemm(-2.0, B.T, A.T, trans_a=1)
    D += nb[:, None]
    D += na
    return _rbf_in_place(spec.gamma, D).T


def _linear(A, B) -> np.ndarray:
    # einsum keeps a fixed per-entry reduction order, so K[i,j] and K[j,i]
    # are bitwise equal when A is B.
    return np.einsum("ip,jp->ij", A, B)


def _check_norms(na, nb, kind: str = "rbf") -> None:
    """Raise ValueError unless the largest (for RBF, centered) squared norms
    of the two row sets have a finite sum.  Then every inner product
    ``<a_i, b_j>`` and every squared distance ``na_i + nb_j - 2<a_i, b_j>``
    is finite, since ``|2<a_i, b_j>| <= na_i + nb_j``; otherwise the RBF
    pass would meet ``inf - inf``, and a linear Gram would hold inf."""
    # Python floats: their sum overflows to inf with no numpy warning.
    if na.size and nb.size and not np.isfinite(float(na.max()) + float(nb.max())):
        what = "squared distances" if kind == "rbf" else "inner products"
        raise ValueError(f"inputs too large for the {kind} kernel: their {what} overflow")


def _training_terms(spec: KernelSpec, B):
    """``(mu, B - mu, squared row norms of B - mu)`` for the training row set
    B of an RBF ``cross_gram``, with ``mu`` its column mean; None for the
    linear kernel, which has no such terms."""
    if spec.kind == "linear":
        return None
    B = np.atleast_2d(np.asarray(B, dtype=float))
    mu = B.mean(axis=0)
    B = B - mu
    return mu, B, np.einsum("ip,ip->i", B, B)


def _matmul(A, B) -> np.ndarray:
    """``A @ B`` on scipy's BLAS, as ``B.T @ A.T`` into a Fortran-ordered
    array whose C-ordered transpose is returned.  A is 2-D; a 1-D B gives
    the 1-D product.

    A C- or Fortran-ordered operand reaches ``dgemm`` as a view with the
    matching transpose flag, so only an operand with neither layout (say a
    column slice) is copied."""
    if B.ndim == 1:
        return _matmul(A, B[:, None])[:, 0]
    a, ta = _as_transpose(A)
    b, tb = _as_transpose(B)
    return dgemm(1.0, b, a, trans_a=tb, trans_b=ta).T


def _as_transpose(M):
    """``(X, t)`` with ``op_t(X) = M.T`` (``op_1`` transposes), where X is
    Fortran-ordered whenever M is C- or Fortran-ordered."""
    M = np.asarray(M, dtype=float)
    if M.flags.f_contiguous and not M.flags.c_contiguous:
        return M, 1
    return M.T, 0


def _rbf_in_place(gamma: float, D) -> np.ndarray:
    """``exp(-gamma * max(D, 0))`` written over the squared distances D."""
    np.maximum(D, 0.0, out=D)
    D *= -gamma
    return np.exp(D, out=D)


def gram_matrix(spec: KernelSpec, X, mirror: bool = True) -> np.ndarray:
    """Gram matrix of the training inputs; exactly symmetric.

    The RBF Gram is returned as the C-ordered transpose of a Fortran-ordered
    buffer, which ``model.fit`` factors in place.  ``mirror=False`` skips
    the copy into the other half: only the entries ``K[i, j]`` with
    ``i <= j`` (the lower triangle of the Fortran-ordered ``K.T``) are then
    set, which is all that ``fit``'s lower Cholesky factor reads."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("need at least one input row")
    if X.shape[1] < 1:
        raise ValueError("need at least one input feature")
    if spec.kind == "linear":
        n = np.einsum("ip,ip->i", X, X)
        _check_norms(n, n, "linear")
        return _linear(X, X)
    A = X - X.mean(axis=0)
    D = dsyrk(-2.0, A.T, trans=1, lower=1)
    n = -0.5 * np.diagonal(D)
    _check_norms(n, n)
    m = D.shape[0]
    # Each block spans the lower triangle of its columns plus the part of
    # the diagonal block above it, which the mirror below overwrites.
    step = max(1, _BLOCK_ELEMS // m)
    for lo in range(0, m, step):
        B = D[lo:, lo:lo + step]
        B += n[lo:, None] + n[lo:lo + step]
        _rbf_in_place(spec.gamma, B)
    np.fill_diagonal(D, 1.0)
    if not mirror:
        return D.T
    for lo in range(0, m, _PANEL):
        hi = lo + _PANEL
        diag = D[lo:hi, lo:hi]
        upper = np.triu_indices(diag.shape[0], 1)
        diag[upper] = diag.T[upper]
        D[lo:hi, hi:] = D[hi:, lo:hi].T
    return D.T


def _gram_too_large(m: int) -> EcrmError:
    """The error for m training rows whose m x m Gram matrix cannot be
    allocated, for a ``MemoryError`` where a fit builds one."""
    return EcrmError(f"{m} training rows need a {m} x {m} Gram matrix of "
                     f"{8 * m * m / 2 ** 30:.3g} GiB, which cannot be allocated")


def kernel_sup_bound(spec: KernelSpec, X) -> float:
    """Upper bound on ``k(x,x)`` used by the generalization bound.

    Exactly 1 for RBF; for the linear kernel we use the maximum over the
    training inputs (the bound is input-domain dependent).
    """
    if spec.kind == "rbf":
        return 1.0
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return float(np.max(np.einsum("ip,ip->i", X, X)))
