"""Result and parameter types shared by the inference solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Certificate:
    """Optimality status of an inference result.

    ``kind`` is one of ``exact`` (provably optimal), ``gap`` (convex solve
    with duality gap at most ``gap``), or ``heuristic`` (no guarantee).
    """

    kind: str
    gap: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "gap", "heuristic"):
            raise ValueError(f"bad certificate kind {self.kind!r}")
        if self.kind == "gap" and self.gap is None:
            raise ValueError("gap certificate needs a gap value")


EXACT = Certificate("exact")
HEURISTIC = Certificate("heuristic")


@dataclass(frozen=True)
class InferenceResult:
    y_star: np.ndarray
    objective: float
    certificate: Certificate


@dataclass(frozen=True)
class SolverParams:
    """Knobs for the iterative flow solvers.

    The subgradient step at iteration t is ``step_a / (1 + step_b * t)``.
    """

    max_iters: int = 500
    step_a: float = 1.0
    step_b: float = 0.1
    gap_tol: float = 1e-6
    restarts: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        # Each message starts with the one field it rejects.
        for name in ("max_iters", "restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("step_a", "step_b", "gap_tol"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
