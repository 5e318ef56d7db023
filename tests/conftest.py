"""Shared random-instance generators and acceptance reporting hooks."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import ecrm
from ecrm import HierarchyDag, KernelSpec, fit

# The real-process command-line tests run ``python -m ecrm``, which must import
# the package these tests import, also when pytest's ``pythonpath`` setting
# rather than PYTHONPATH put it on the path.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(ecrm.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]))

# One line per acceptance criterion, filled by tests/test_acceptance.py and
# echoed after the run so the verdicts appear without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_tree(rng, d: int) -> HierarchyDag:
    """Arborescence rooted at 0: each node attaches to a uniform earlier node."""
    arcs = [(int(rng.integers(j)), j) for j in range(1, d)]
    return HierarchyDag(d=d, arcs=arcs)


def random_dag(rng, d: int, extra: int = 2) -> HierarchyDag:
    """Tree plus a few forward arcs; stays acyclic, may have multi-parent nodes."""
    arcs = set((int(rng.integers(j)), j) for j in range(1, d))
    for _ in range(extra):
        j = int(rng.integers(1, d))
        p = int(rng.integers(j))
        arcs.add((p, j))
    return HierarchyDag(d=d, arcs=sorted(arcs))


def random_feasible_label(rng, G: HierarchyDag, p_on: float = 0.6) -> np.ndarray:
    """Sample a hierarchy-feasible 0/1 vector by a top-down walk."""
    y = np.zeros(G.d, dtype=np.int64)
    for j in G.topological_order:
        if all(y[k] == 1 for k in G.parents(j)):
            y[j] = int(rng.random() < p_on)
    return y


def random_kernel(rng) -> KernelSpec:
    if rng.random() < 0.5:
        return KernelSpec("linear")
    return KernelSpec("rbf", gamma=float(rng.uniform(0.2, 2.0)))


def random_model(rng, m: int, p: int, labels, lam: float | None = None,
                 kernel: KernelSpec | None = None):
    X = rng.normal(size=(m, p))
    kernel = kernel or random_kernel(rng)
    lam = lam if lam is not None else float(rng.uniform(0.05, 1.0))
    return fit(kernel, lam, X, labels), X


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
