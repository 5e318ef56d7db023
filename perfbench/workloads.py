"""Seeded input generators for the four benchmark workloads.

Each workload has a fixed structure (hierarchy, label-generating model,
network) drawn from a constant key, so every seed exercises the same
layers at the same cost.  The seed draws the samples: inputs, label noise
and the train/query split.  Labels depend on the inputs, so the held-out
test loss measures prediction quality, not noise.

Everything is written in the command line's plain-text formats; the
program under test receives only these files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Key of the structure stream; never derived from the seed.
_STRUCTURE_KEY = 20161122
# The query rows are also written as this many files of equal size, one
# per timed ``predict`` call, so that a run holds several predict samples.
CHUNKS = 4


@dataclass(frozen=True)
class Workload:
    """Sizes, model flags and solver flags of one workload.

    ``space`` and ``loss`` are the command-line values; ``solver`` holds
    ``SolverParams`` fields passed as ``predict`` flags.  ``query_prefix``
    is the number of query rows timed one by one through the library,
    ``warmup_rows`` the query rows predicted during set-up and
    ``reference_rows`` the query rows checked against an exact reference.
    """

    name: str
    index: int
    space: str
    loss: str
    d: int
    m: int
    p: int
    q: int
    gamma: float
    lam: float
    query_prefix: int
    warmup_rows: int
    reference_rows: int
    solver: tuple = ()
    extra_arcs: int = 0

    def scaled(self, scale: float) -> "Workload":
        """The same workload with ``d``, ``m`` and ``q`` multiplied by
        ``scale``, for quick self-tests.  The flow network stays fixed."""
        def s(v, lo):
            return max(lo, int(round(v * scale)))
        d = self.d if self.space == "flow" else s(self.d, 4)
        q = CHUNKS * s(self.q // CHUNKS, 1)
        return replace(self, d=d, m=s(self.m, 8), q=q,
                       query_prefix=min(self.query_prefix, q),
                       warmup_rows=min(self.warmup_rows, q),
                       reference_rows=min(self.reference_rows, q),
                       extra_arcs=min(self.extra_arcs, d // 2))


WORKLOADS = {
    w.name: w for w in (
        Workload("hier-tree", 1, "hierarchy", "hierarchical", d=1000, m=200, p=10, q=200,
                 gamma=0.1, lam=0.01, query_prefix=40, warmup_rows=4, reference_rows=8),
        Workload("dag-large-m", 2, "hierarchy", "hamming", d=60, m=2000, p=20, q=400,
                 gamma=0.05, lam=0.001, query_prefix=60, warmup_rows=4, reference_rows=8,
                 extra_arcs=30),
        Workload("rank-footrule", 3, "assignment", "footrule", d=100, m=300, p=10, q=40,
                 gamma=0.1, lam=0.01, query_prefix=40, warmup_rows=2, reference_rows=8),
        Workload("flow-l1", 4, "flow", "absolute", d=10, m=500, p=20, q=500,
                 gamma=0.5, lam=0.01, query_prefix=8, warmup_rows=4, reference_rows=0,
                 solver=(("max_iters", 100), ("restarts", 1))),
    )
}

# The bundled 6-node network: unit source 0, unit sink 5, ten arcs.
FLOW_ARCS = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (1, 4), (2, 3), (3, 4), (3, 5), (4, 5))
FLOW_B = (1.0, 0.0, 0.0, 0.0, 0.0, -1.0)


@dataclass(frozen=True)
class Instance:
    """Generated arrays plus the structure needed to check predictions."""

    workload: Workload
    X: np.ndarray            # (m + q, p): training rows first
    Y: np.ndarray            # (m + q, d): labels in file encoding
    arcs: tuple              # hierarchy arcs, or network arcs for flows

    @property
    def train(self):
        m = self.workload.m
        return self.X[:m], self.Y[:m]

    @property
    def query(self):
        m = self.workload.m
        return self.X[m:], self.Y[m:]


def _rngs(w: Workload, seed: int):
    return (np.random.default_rng([_STRUCTURE_KEY, w.index]),
            np.random.default_rng([int(seed), w.index]))


def _tree_arcs(rs, d: int, extra: int) -> tuple:
    """Random recursive tree on ``d`` nodes rooted at 0, plus ``extra``
    forward arcs that give some nodes a second parent."""
    arcs = {(int(rs.integers(j)), j) for j in range(1, d)}
    while extra > 0:
        j = int(rs.integers(2, d))
        p = int(rs.integers(j))
        if (p, j) not in arcs:
            arcs.add((p, j))
            extra -= 1
    return tuple(sorted(arcs, key=lambda a: (a[1], a[0])))


def _hierarchy_labels(rs, rd, arcs, d, X) -> np.ndarray:
    """Top-down threshold model: node ``j`` is on when all parents are on
    and its noisy linear score of ``x`` is positive.  The root is always
    on: otherwise its unit penalty dominates the hierarchical loss and the
    held-out loss varies more between seeds than any regression to catch."""
    p = X.shape[1]
    A = rs.normal(size=(d, p)) / np.sqrt(p)
    b = rs.uniform(0.0, 0.8, size=d)
    score = X @ A.T + b + 0.15 * rd.normal(size=(X.shape[0], d))
    score[:, 0] = 1.0
    parents = [[] for _ in range(d)]
    for par, ch in arcs:
        parents[ch].append(par)
    Y = np.zeros((X.shape[0], d), dtype=np.int64)
    # Arcs go from lower to higher ids, so ascending id is a topological order.
    for j in range(d):
        on = score[:, j] > 0
        for par in parents[j]:
            on &= Y[:, par] == 1
        Y[:, j] = on
    return Y


def _rank_labels(rs, rd, d, X) -> np.ndarray:
    """Rank of each item under a noisy linear score; 1 is the best rank."""
    p = X.shape[1]
    B = rs.normal(size=(d, p)) / np.sqrt(p)
    score = X @ B.T + 0.3 * rd.normal(size=(X.shape[0], d))
    order = np.argsort(-score, axis=1, kind="stable")
    Y = np.empty_like(order)
    rows = np.arange(X.shape[0])[:, None]
    Y[rows, order] = np.arange(1, d + 1)[None, :]
    return Y.astype(np.int64)


def _st_paths(arcs, n_nodes: int, s: int, t: int) -> np.ndarray:
    """Arc-indicator rows of every s-t path of an acyclic network."""
    out = [[] for _ in range(n_nodes)]
    for a, (tail, head) in enumerate(arcs):
        out[tail].append((a, head))
    rows, stack = [], [(s, ())]
    while stack:
        u, used = stack.pop()
        if u == t:
            rows.append(used)
            continue
        for a, v in out[u]:
            stack.append((v, used + (a,)))
    P = np.zeros((len(rows), len(arcs)))
    for i, used in enumerate(sorted(rows)):
        P[i, list(used)] = 1.0
    return P


def _flow_labels(rs, rd, X, tau: float = 1.0) -> np.ndarray:
    """Softmax path-choice model: linear path utilities plus Gumbel noise
    at temperature ``tau``; arc flows are the summed path shares."""
    P = _st_paths(FLOW_ARCS, len(FLOW_B), 0, len(FLOW_B) - 1)
    theta = rs.standard_normal((P.shape[0], X.shape[1]))
    z = X @ theta.T / tau + rd.gumbel(size=(X.shape[0], P.shape[0]))
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return (e / e.sum(axis=1, keepdims=True)) @ P


def generate(w: Workload, seed: int) -> Instance:
    """Deterministic instance for ``(workload, seed)``."""
    rs, rd = _rngs(w, seed)
    n = w.m + w.q
    if w.space == "flow":
        X = rd.uniform(size=(n, w.p))
        return Instance(w, X, _flow_labels(rs, rd, X), FLOW_ARCS)
    X = rd.uniform(-1.0, 1.0, size=(n, w.p))
    if w.space == "assignment":
        return Instance(w, X, _rank_labels(rs, rd, w.d, X), ())
    arcs = _tree_arcs(rs, w.d, w.extra_arcs)
    return Instance(w, X, _hierarchy_labels(rs, rd, arcs, w.d, X), arcs)


def _fmt(v) -> str:
    return repr(float(v))


def _write_matrix(path: Path, M: np.ndarray) -> None:
    if np.issubdtype(M.dtype, np.integer):
        text = "\n".join(" ".join(str(int(v)) for v in row) for row in M)
    else:
        text = "\n".join(" ".join(_fmt(v) for v in row) for row in M)
    path.write_text(text + "\n", encoding="ascii")


@dataclass(frozen=True)
class Files:
    train_x: Path
    train_y: Path
    query_x: Path           # all query rows
    query_chunks: tuple     # CHUNKS files of query rows, in row order
    warmup_x: Path
    structure: Path | None


def write_files(inst: Instance, directory: Path) -> Files:
    """Write the instance in the command line's formats under ``directory``."""
    w = inst.workload
    directory.mkdir(parents=True, exist_ok=True)
    Xtr, Ytr = inst.train
    Xq, _ = inst.query
    files = Files(directory / "train_x.txt", directory / "train_y.txt",
                  directory / "query_x.txt",
                  tuple(directory / f"query_x{k}.txt" for k in range(CHUNKS)),
                  directory / "warmup_x.txt",
                  None if w.space == "assignment" else directory / "structure.txt")
    _write_matrix(files.train_x, Xtr)
    _write_matrix(files.train_y, Ytr)
    _write_matrix(files.query_x, Xq)
    for path, rows in zip(files.query_chunks, np.split(Xq, CHUNKS)):
        _write_matrix(path, rows)
    _write_matrix(files.warmup_x, Xq[:w.warmup_rows])
    if w.space == "hierarchy":
        files.structure.write_text("".join(f"{p} {c}\n" for p, c in inst.arcs), encoding="ascii")
    elif w.space == "flow":
        lines = [f"nodes {len(FLOW_B)} arcs {len(FLOW_ARCS)}"]
        lines += [f"{t} {h}" for t, h in FLOW_ARCS]
        lines += [f"{j} {_fmt(b)}" for j, b in enumerate(FLOW_B)]
        files.structure.write_text("\n".join(lines) + "\n", encoding="ascii")
    return files


def _space_flags(w: Workload, files: Files) -> list[str]:
    flags = ["--space", w.space]
    if w.space == "hierarchy":
        flags += ["--hierarchy", str(files.structure)]
    elif w.space == "flow":
        flags += ["--network", str(files.structure)]
    else:
        flags += ["--dim", str(w.d)]
    return flags


def train_argv(w: Workload, files: Files, model: Path) -> list[str]:
    return (["train", "--x", str(files.train_x), "--labels", str(files.train_y)]
            + _space_flags(w, files)
            + ["--kernel", "rbf", "--gamma", repr(w.gamma), "--lambda", repr(w.lam),
               "--out", str(model)])


def predict_argv(w: Workload, files: Files, model: Path, x: Path) -> list[str]:
    solver = [t for k, v in w.solver for t in ("--" + k.replace("_", "-"), str(v))]
    return (["predict", "--model", str(model), "--x", str(x), "--loss", w.loss]
            + _space_flags(w, files) + solver)
