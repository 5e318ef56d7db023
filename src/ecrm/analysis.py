"""Surrogate-loss and generalization-bound analysis for the risk minimizer.

The margin surrogate at level ``rho`` is

    min( L,  max_{y'} [ loss(y', y) + (margin(y', x)) / rho ] )

where ``margin(y', x)`` is the (nonpositive) difference between the best
achievable estimated risk at ``x`` and the estimated risk of ``y'``, and
``L`` caps the value at the loss bound.  The inner maximization is itself a
risk minimization: ``max_{y'} [loss(y', y) - risk(y')/rho]`` is minus the
minimum of ``sum_i w'_i loss(y', y'_i)`` over the augmented sample that
prepends the label ``y`` at weight -1 to the training labels at weights
``w/rho`` (the losses used here are symmetric in their arguments).  A
dataset takes one weight solve, one ``infer_batch`` call for the risk
minima and one per block of ``inference.BLOCK_ROWS`` augmented rows, so
the surrogate is exact wherever inference is exact.  An explicit finite
space takes one ``explicit_risks`` table over its members instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import inference
from .inference import explicit_risks, infer_batch, infer_from_weights
from .losses import LossSpec, loss_bound, loss_value
from .model import TrainedModel, weights
from .results import SolverParams
from .spaces import OutputSpace


@dataclass(frozen=True)
class SurrogateConfig:
    """Parameters of the capped margin surrogate."""

    rho: float
    L: float
    space: OutputSpace

    def __post_init__(self) -> None:
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not self.L > 0:
            raise ValueError("the loss cap L must be positive")


def make_surrogate_config(rho: float, loss: LossSpec, space: OutputSpace) -> SurrogateConfig:
    return SurrogateConfig(rho=rho, L=loss_bound(loss, space), space=space)


def realized_loss(model: TrainedModel, loss: LossSpec, space: OutputSpace, x, y,
                  params: SolverParams | None = None) -> float:
    """Loss of the risk-minimizing prediction against ``y``.

    When the risk minimizer is not unique on a finite space, the minimizer
    with the highest loss is charged (the pessimistic reading used by the
    surrogate analysis).
    """
    w = weights(model, x)
    if space.kind == "explicit_finite":
        members, (risks,) = explicit_risks(loss, space, model.labels, [w])
        rmin = risks.min()
        return max(loss_value(loss, mbr, y) for mbr, r in zip(members, risks) if r == rmin)
    result = infer_from_weights(w, model.labels, loss, space, params)
    return loss_value(loss, result.y_star, y)


def surrogate_loss(model: TrainedModel, loss: LossSpec, cfg: SurrogateConfig, x, y,
                   params: SolverParams | None = None):
    """Capped margin surrogate of one sample, or an array of them for a batch."""
    return surrogate_loss_detailed(model, loss, cfg, x, y, params)[0]


def surrogate_loss_detailed(model: TrainedModel, loss: LossSpec, cfg: SurrogateConfig,
                            x, y, params: SolverParams | None = None):
    """Capped margin surrogate plus how the inner maximization was certified:
    "exact" when both risk minimizations are exact, else "heuristic".

    One sample ``x`` (p,) with its label ``y`` gives ``(value, certificate)``;
    a batch ``x`` (Q, p) with labels ``y`` (Q, d) gives a (Q,) value array
    and a list of Q certificates.
    """
    space, rho, labels = cfg.space, cfg.rho, model.labels
    W = np.atleast_2d(weights(model, x))
    Y = np.asarray(y).reshape(W.shape[0], -1)

    if space.kind == "explicit_finite":
        members, R = explicit_risks(loss, space, labels, W)
        margins = (R.min(axis=1, keepdims=True) - R) / rho
        vals = [min(cfg.L, max(loss_value(loss, mbr, yq) + g for mbr, g in zip(members, gq)))
                for gq, yq in zip(margins, Y)]
        certs = ["exact"] * len(vals)
    else:
        best = infer_batch(W, inference.model_state(model, loss, space)[1], loss, space,
                           params)
        # A block of augmented rows puts the labels of all its rows in front
        # of the training labels, each row weighting only its own.
        aug, step = [], inference.BLOCK_ROWS
        for s in range(0, W.shape[0], step):
            Wb = W[s:s + step]
            aug += infer_batch(np.hstack([-np.eye(Wb.shape[0]), Wb / rho]),
                               np.vstack([Y[s:s + step], labels]), loss, space, params)
        vals = [min(cfg.L, -a.objective + b.objective / rho) for a, b in zip(aug, best)]
        certs = ["exact" if a.certificate.kind == b.certificate.kind == "exact" else "heuristic"
                 for a, b in zip(aug, best)]
    if np.ndim(x) < 2:
        return vals[0], certs[0]
    return np.array(vals), certs


def empirical_surrogate_risk(model: TrainedModel, loss: LossSpec, cfg: SurrogateConfig,
                             X, Y, params: SolverParams | None = None) -> float:
    """Mean surrogate loss over a dataset."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return float(np.mean(surrogate_loss(model, loss, cfg, X, Y, params)))


@dataclass(frozen=True)
class BoundInputs:
    """Quantities entering the generalization bound."""

    empirical_risk: float
    L: float
    kappa: float
    lam: float
    rho: float
    delta: float
    m: int

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if not (self.lam > 0 and self.rho > 0 and self.m >= 1):
            raise ValueError("lambda, rho must be positive and m >= 1")


def stability_factor(kappa: float, lam: float) -> float:
    """The kernel/regularization factor ``kappa/lambda + (kappa/lambda)^1.5``."""
    r = kappa / lam
    return r + r ** 1.5


def generalization_bound_terms(b: BoundInputs) -> tuple[float, float, float, float]:
    """(empirical risk, stability term, confidence term, total bound)."""
    nu = stability_factor(b.kappa, b.lam)
    stability = 4.0 * b.L * nu / (b.rho * b.m)
    confidence = b.L * (8.0 * nu / b.rho + 1.0) * math.sqrt(math.log(1.0 / b.delta) / (2.0 * b.m))
    return b.empirical_risk, stability, confidence, b.empirical_risk + stability + confidence


def generalization_bound(b: BoundInputs) -> float:
    """High-probability upper bound on the expected risk of the predictor."""
    return generalization_bound_terms(b)[3]
