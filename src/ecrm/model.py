"""Training and conditional-risk estimation.

Fitting stores the inputs, the structured labels, a Cholesky factor of
``K + m*lambda*I`` and the inputs' side of every kernel vector.  The factor
is the only O(m^3) part; ``from_factor`` rebuilds a model around a factor
computed earlier (``io`` keeps one beside each model file), so a loaded
model costs no refit.  A query
``x`` yields a weight vector ``w(x) = (K + m*lambda*I)^-1 v(x)`` and the
estimated conditional risk of a candidate label ``y`` is the weighted sum
``sum_i w_i(x) loss(y, y_i)``.  A batch of queries shares one cross-Gram
build and one multi-right-hand-side solve; a single query is the one-row
batch, whose solve is two triangular solves with the stored lower factor
(BLAS-2 ``dtrsv``), so its weights can differ from its row of a batch in
the last bits.  A loss whose weighted risk reads only the label statistics
``W Phi`` of an (m, D) label embedding (Hamming, see
``losses.label_embedding``) gets those from ``weights`` directly, with the
solve on whichever side has fewer columns: the Q query rows or the D
embedding columns.

Fitting never touches the label contents: the label array is stored as
passed, so training cost is independent of the output dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dtrsv

from .errors import NumericalError
from .kernels import (KernelSpec, _gram_too_large, _matmul, _training_terms, cross_gram,
                      gram_matrix)
from .losses import LossSpec, loss_value

INTERCEPT_MODES = ("none", "centered")


@dataclass(frozen=True)
class TrainedModel:
    kernel: KernelSpec
    lam: float
    inputs: np.ndarray
    labels: np.ndarray
    intercept_mode: str = "none"
    factor: tuple = field(repr=False, compare=False, default=None)
    kernel_terms: tuple = field(repr=False, compare=False, default=None)

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    @property
    def p(self) -> int:
        return self.inputs.shape[1]


def fit(spec: KernelSpec, lam: float, X, Y, intercept_mode: str = "none") -> TrainedModel:
    """Fit the risk estimator: build the Gram matrix and factor ``K + m*lambda*I``.

    The factor is computed in the Gram matrix's own buffer: ``m*lambda`` is
    added to the diagonal of K in place and LAPACK overwrites K with the
    factor, so a refit touches one m x m array.  Only the Gram's lower
    triangle is built (``gram_matrix(..., mirror=False)``), the half the
    lower factor reads; that factor is bit-identical to the one of a
    separately built ``K + m*lambda*I``.  The
    one finiteness check is on the inputs, at O(m*p), not on the m x m
    matrix: finite inputs, lambda and gamma give a finite K unless a
    kernel value overflows, and ``_factor_shifted`` catches that.

    Raises ValueError for a non-finite or non-positive lambda, or for
    non-finite inputs, NumericalError when the regularized Gram matrix
    cannot be factored even after a single jitter retry, and EcrmError,
    naming m and the size, when the Gram matrix cannot be allocated.
    """
    X, Y = _checked(lam, intercept_mode, X, Y)
    m = X.shape[0]
    K = _lower_gram(spec, X)
    jitter = 1e-10 * float(np.trace(K)) / m
    try:
        factor = _factor_shifted(K, m * lam)
    except np.linalg.LinAlgError:
        # A failed factorization leaves K partly overwritten, so the one
        # jitter retry (scaled to the mean diagonal mass) rebuilds it.
        try:
            factor = _factor_shifted(_lower_gram(spec, X), m * lam, jitter)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "Cholesky factorization of K + m*lambda*I failed; the Gram matrix "
                "is numerically non-positive-definite"
            ) from exc
    return from_factor(spec, lam, X, Y, factor[0], intercept_mode)


def from_factor(spec: KernelSpec, lam: float, X, Y, L, intercept_mode: str = "none"
                ) -> TrainedModel:
    """The model ``fit(spec, lam, X, Y, intercept_mode)`` returns, around a
    lower Cholesky factor ``L`` of its ``K + m*lambda*I``: no Gram build and
    no factorization.  ``fit`` ends here, and ``io`` comes here with a
    factor it cached.

    ``L`` is an (m, m) array of which only the lower triangle is read;
    whether it is the factor of these inputs is the caller's to ensure.
    It is kept Fortran-ordered, the layout the BLAS and LAPACK solves in
    ``weights`` take without a copy; ``fit``'s and ``io``'s factors
    already are, and any other is copied once here.
    Raises ValueError as ``fit`` does, and for an ``L`` of another shape.
    """
    X, Y = _checked(lam, intercept_mode, X, Y)
    if np.shape(L) != (X.shape[0], X.shape[0]):
        raise ValueError(f"factor has shape {np.shape(L)}, not ({X.shape[0]}, {X.shape[0]})")
    return TrainedModel(kernel=spec, lam=lam, inputs=X, labels=Y,
                        intercept_mode=intercept_mode, factor=(np.asfortranarray(L), True),
                        kernel_terms=_training_terms(spec, X))


def _lower_gram(spec: KernelSpec, X) -> np.ndarray:
    """``gram_matrix(spec, X, mirror=False)``; an m x m array that cannot be
    allocated raises EcrmError, naming m and its size."""
    try:
        return gram_matrix(spec, X, mirror=False)
    except MemoryError as exc:
        raise _gram_too_large(X.shape[0]) from exc


def _checked(lam, intercept_mode, X, Y):
    """``(X, Y)`` as arrays, after the argument checks ``fit`` documents."""
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError("lambda must be finite and positive")
    if intercept_mode not in INTERCEPT_MODES:
        raise ValueError(f"intercept_mode must be one of {INTERCEPT_MODES}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y)
    if Y.shape[0] != X.shape[0]:
        raise ValueError(f"inputs have {X.shape[0]} rows but labels have {Y.shape[0]}")
    if not np.isfinite(X).all():
        raise ValueError("inputs must be finite")
    return X, Y


def _factor_shifted(K, *shifts) -> tuple:
    """Cholesky factor of ``K`` plus each shift on its diagonal, in K's buffer.

    ``K.T`` is the Fortran-ordered view of the symmetric C-ordered K, which
    LAPACK factors without a copy.  scipy's finiteness scan of the m x m
    matrix is skipped: ``fit`` has checked the inputs, lambda and gamma.
    A factor with a non-finite diagonal (from a Gram whose kernel values
    overflowed) is reported as a failed factorization.  Each diagonal entry
    of the factor is computed from every other entry of its row, so the
    O(m) look at the diagonal covers the whole lower factor."""
    diag = np.diag_indices(K.shape[0])
    for s in shifts:
        K[diag] += s
    factor = cho_factor(K.T, lower=True, overwrite_a=True, check_finite=False)
    if not np.isfinite(np.diagonal(factor[0])).all():
        raise np.linalg.LinAlgError("Cholesky factor has a non-finite diagonal")
    return factor


def weights(model: TrainedModel, x, embedding=None) -> np.ndarray:
    """Weights for one query ``x`` of shape ``(p,)`` or a batch ``(Q, p)``:
    an ``(m,)`` vector or a ``(Q, m)`` matrix, one row per query.

    A batch costs one cross-Gram build, from the training-side kernel terms
    that ``fit`` stored, and one multi-right-hand-side Cholesky solve; one
    query row (``x`` of shape ``(p,)`` or ``(1, p)``) takes two ``dtrsv``
    triangular solves instead, whose result can differ from the same row's
    in a batch by rounding.  Only the query is checked for finiteness, at
    O(Q*p); the stored factor is finite by construction.  With a centered
    intercept the per-target mean is subtracted before the ridge solve and
    added back afterwards; folding that through the weighted sum is
    equivalent to adding ``(1 - sum(w)) / m`` to every weight of the
    query's row.

    Given an (m, D) label embedding ``Phi`` (see
    ``losses.label_embedding``), the label statistics ``W @ Phi`` are
    returned instead, ``(D,)`` or ``(Q, D)``, in the cheaper order:
    ``(V K^-1) Phi`` when Q <= D, else ``V (K^-1 Phi)``, whose solve has D
    right-hand sides however many queries there are.  The intercept then
    adds ``(1 - sum(w)) / m`` times Phi's column sums.
    """
    if model.factor is None:
        raise ValueError("model has no stored factorization; was it fitted?")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("query inputs must be finite")
    V = cross_gram(model.kernel, np.atleast_2d(x), model.inputs, model.kernel_terms)
    centered = model.intercept_mode == "centered"
    if embedding is not None and V.shape[0] > embedding.shape[1]:
        # The last column of K^-1 [Phi, 1] gives sum(w) of each row.
        B = np.hstack([embedding, np.ones((model.m, 1))]) if centered else embedding
        S = _matmul(V, cho_solve(model.factor, B, check_finite=False))
        if centered:
            S = S[:, :-1] + ((1.0 - S[:, -1]) / model.m)[:, None] * embedding.sum(axis=0)
        return S
    if V.shape[0] == 1:
        # Half of dpotrs's time for one right-hand side at m = 2000; from
        # about 4 columns a loop of them loses to dpotrs's dtrsm.
        L = model.factor[0]
        W = dtrsv(L, dtrsv(L, V[0], lower=1, overwrite_x=1), lower=1, trans=1,
                  overwrite_x=1)[None, :]
    else:
        W = cho_solve(model.factor, V.T, overwrite_b=True, check_finite=False).T
    if centered:
        W = W + ((1.0 - W.sum(axis=1)) / model.m)[:, None]
    if embedding is not None:
        W = _matmul(W, embedding)
    return W if x.ndim == 2 else W[0]


def estimate_conditional_risk(model: TrainedModel, loss: LossSpec, y, x) -> float:
    """Estimated conditional risk of predicting ``y`` at input ``x``."""
    return risk_from_weights(weights(model, x), model.labels, loss, y)


def risk_from_weights(w, labels, loss: LossSpec, y) -> float:
    """Weighted sum of losses of ``y`` against each stored label."""
    w = np.asarray(w, dtype=float)
    vals = np.array([loss_value(loss, y, labels[i]) for i in range(len(labels))])
    return float(np.dot(w, vals))
