"""Plain-text file formats: matrices, hierarchies, networks, and model files.

All numeric output uses shortest round-trip decimal representation so that
written files are stable and diffable.  Loaders fail with the path and
1-based line number of the offending record.

Beside a base model file ``F``, ``save_model`` writes the binary factor
cache ``F.factor`` that ``load_model`` reads in place of refitting; only
this module knows its format.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .additive import AdditiveModel, JointKernelSpec
from .errors import DataFormatError
from .hierarchy import HierarchyDag
from .kernels import KernelSpec
from .model import TrainedModel, fit, from_factor
from .spaces import FlowNetwork, OutputSpace


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    Y: np.ndarray
    space: OutputSpace


def fmt(value) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read file: {exc}") from exc


def _read_lines(path, raw=None) -> list[str]:
    """The lines of the ASCII file at ``path``, or of its bytes ``raw``."""
    try:
        return (_read_bytes(path) if raw is None else raw).decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not an ASCII file: {exc}") from exc


def load_matrix(path, dtype=float) -> np.ndarray:
    """One sample per line, space-separated numbers, rectangular."""
    lines = _read_lines(path)
    if not lines:
        raise DataFormatError(f"{path}:1: file is empty")
    M = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            raise DataFormatError(f"{path}:{lineno}: blank line in matrix file")
        try:
            row = np.array(line.split(), dtype=dtype)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if M is None:
            M = np.empty((len(lines), row.shape[0]), dtype=dtype)
        elif row.shape[0] != M.shape[1]:
            raise DataFormatError(
                f"{path}:{lineno}: expected {M.shape[1]} columns, found {row.shape[0]}")
        M[lineno - 1] = row
    return _finite_rows(path, 1, M)


def _finite_rows(path, first_lineno, M) -> np.ndarray:
    """M itself, after checking that every entry is finite; the first row
    holding a NaN or infinity is reported by its line number."""
    bad = np.flatnonzero(~np.isfinite(M).all(axis=1))
    if bad.size:
        raise DataFormatError(f"{path}:{first_lineno + bad[0]}: non-finite value")
    return M


def load_features(path) -> np.ndarray:
    return load_matrix(path, dtype=float)


def load_flows(path) -> np.ndarray:
    return load_matrix(path, dtype=float)


def load_binary_labels(path) -> np.ndarray:
    M = load_matrix(path, dtype=float)
    if not np.all(np.isin(M, (0.0, 1.0))):
        bad = int(np.argmax(~np.isin(M, (0.0, 1.0)).all(axis=1))) + 1
        raise DataFormatError(f"{path}:{bad}: binary labels must be 0/1")
    return M.astype(np.int64)


def load_permutations(path) -> np.ndarray:
    M = load_matrix(path, dtype=float)
    P = M.astype(np.int64)
    if np.any(P != M):
        bad = int(np.argmax((P != M).any(axis=1))) + 1
        raise DataFormatError(f"{path}:{bad}: permutation ranks must be integers")
    d = P.shape[1]
    want = np.arange(1, d + 1)
    for i in range(P.shape[0]):
        if not np.array_equal(np.sort(P[i]), want):
            raise DataFormatError(f"{path}:{i + 1}: row is not a permutation of 1..{d}")
    return P


def _write_rows(fh, M) -> None:
    """One line per row of M: integers in decimal, anything else as ``fmt``
    writes it, each row formatted from its own Python values so that only
    one row at a time is held as Python objects."""
    M = np.atleast_2d(np.asarray(M))
    if np.issubdtype(M.dtype, np.integer):
        fh.writelines(" ".join(map(str, r.tolist())) + "\n" for r in M)
    else:
        # repr of a Python float is exactly ``fmt``'s string.
        fh.writelines(" ".join(map(repr, r.tolist())) + "\n" for r in M.astype(float, copy=False))


def save_matrix(path, M) -> None:
    with open(path, "w", encoding="ascii") as fh:
        _write_rows(fh, M)


def load_hierarchy(path) -> HierarchyDag:
    """One arc per line as ``parent child`` (0-based); d = 1 + max id."""
    lines = _read_lines(path)
    arcs = []
    max_id = -1
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        toks = line.split()
        if len(toks) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 'parent child'")
        try:
            p, c = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if p < 0 or c < 0:
            raise DataFormatError(f"{path}:{lineno}: node ids must be nonnegative")
        if p == c:
            raise DataFormatError(f"{path}:{lineno}: self-loop arc ({p},{c})")
        arcs.append((p, c))
        max_id = max(max_id, p, c)
    if not arcs:
        raise DataFormatError(f"{path}:1: hierarchy file has no arcs")
    try:
        return HierarchyDag(d=max_id + 1, arcs=arcs)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def save_hierarchy(path, G: HierarchyDag) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for p, c in G.arcs:
            fh.write(f"{p} {c}\n")


def load_network(path, require_acyclic: bool = True) -> FlowNetwork:
    """Header ``nodes N arcs M``, then M ``tail head`` lines, then N ``node b`` lines."""
    lines = _read_lines(path)
    if not lines:
        raise DataFormatError(f"{path}:1: file is empty")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "nodes" or head[2] != "arcs":
        raise DataFormatError(f"{path}:1: expected header 'nodes N arcs M'")
    try:
        n_nodes, n_arcs = int(head[1]), int(head[3])
    except ValueError as exc:
        raise DataFormatError(f"{path}:1: {exc}") from exc
    if len(lines) < 1 + n_arcs + n_nodes:
        raise DataFormatError(f"{path}: expected {1 + n_arcs + n_nodes} lines, found {len(lines)}")
    arcs = []
    for i in range(n_arcs):
        lineno = 2 + i
        toks = lines[1 + i].split()
        if len(toks) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 'tail head'")
        try:
            t, h = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if t == h:
            raise DataFormatError(f"{path}:{lineno}: self-loop arc ({t},{h})")
        arcs.append((t, h))
    b = [0.0] * n_nodes
    seen = [False] * n_nodes
    for i in range(n_nodes):
        lineno = 2 + n_arcs + i
        toks = lines[1 + n_arcs + i].split()
        if len(toks) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 'node b_value'")
        try:
            node = int(toks[0])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        val = _finite_float(path, lineno, toks[1])
        if not (0 <= node < n_nodes) or seen[node]:
            raise DataFormatError(f"{path}:{lineno}: bad or repeated node id {node}")
        seen[node] = True
        b[node] = val
    if abs(sum(b)) > 1e-9:
        raise DataFormatError(f"{path}: external inflows sum to {sum(b)}, expected 0")
    try:
        net = FlowNetwork(n_nodes=n_nodes, arcs=arcs, b=b)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    if require_acyclic and not net.is_acyclic:
        raise DataFormatError(f"{path}: cycle detected in network")
    return net


def save_network(path, net: FlowNetwork) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"nodes {net.n_nodes} arcs {net.n_arcs}\n")
        for t, h in net.arcs:
            fh.write(f"{t} {h}\n")
        for j, v in enumerate(net.b):
            fh.write(f"{j} {fmt(v)}\n")


MODEL_MAGIC = "ECRM-MODEL 1"
FACTOR_MAGIC = "ECRM-FACTOR 1"


def _kernel_line(spec: KernelSpec) -> str:
    if spec.kind == "rbf":
        return f"kernel rbf {fmt(spec.gamma)}"
    return "kernel linear"


def _parse_kernel_line(path, lineno, line) -> KernelSpec:
    toks = line.split()
    if len(toks) >= 2 and toks[0] == "kernel" and toks[1] == "linear":
        return KernelSpec(kind="linear")
    if len(toks) == 3 and toks[0] == "kernel" and toks[1] == "rbf":
        return KernelSpec(kind="rbf", gamma=_finite_float(path, lineno, toks[2]))
    raise DataFormatError(f"{path}:{lineno}: bad kernel line {line!r}")


def _finite_float(path, lineno, token) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    if not np.isfinite(value):
        raise DataFormatError(f"{path}:{lineno}: non-finite value")
    return value


def save_model(path, model: TrainedModel) -> None:
    """Write the plain-text model file and, for a model that holds its
    factorization, the factor cache ``<path>.factor`` beside it.

    The cache is one ASCII header line, ``ECRM-FACTOR 1 <m> <f8 <sha256>``
    with the SHA-256 of the model file's bytes, then the lower Cholesky
    factor column by column from the diagonal down: m(m+1)/2 little-endian
    doubles.  ``load_model`` uses it only when the header names the model
    file it sits beside and the size is exact; in every other case it
    refits, so a missing or stale cache costs time, never a wrong answer.
    A model without a factor writes no cache, and an old one left beside
    it no longer matches the file's digest.  Raises DataFormatError when the
    cache cannot be written."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(MODEL_MAGIC + "\n")
        fh.write(_kernel_line(model.kernel) + "\n")
        fh.write(f"lambda {fmt(model.lam)} m {model.m} p {model.p} "
                 f"intercept {model.intercept_mode}\n")
        _write_rows(fh, model.inputs)
        _write_rows(fh, model.labels)
    if model.factor is not None:
        _save_factor(path, model.factor)


def _factor_path(path) -> str:
    return os.fspath(path) + ".factor"


def _factor_header(raw: bytes, m: int) -> bytes:
    """The cache header for a model file of bytes ``raw`` with m samples."""
    return f"{FACTOR_MAGIC} {m} <f8 {hashlib.sha256(raw).hexdigest()}\n".encode("ascii")


def _save_factor(path, factor) -> None:
    c, lower = factor
    L = c if lower else c.T
    cache = _factor_path(path)
    try:
        # Columns are 8 to 8m bytes; a 1 MiB buffer turns the m writes into
        # one system call per MiB.
        with open(cache, "wb", buffering=1 << 20) as fh:
            fh.write(_factor_header(_read_bytes(path), L.shape[0]))
            for j in range(L.shape[0]):
                fh.write(np.ascontiguousarray(L[j:, j], dtype="<f8"))
    except OSError as exc:
        raise DataFormatError(f"{cache}: cannot write factor cache: {exc}") from exc


def _load_factor(path, raw: bytes, m: int):
    """The lower factor cached beside the model file at ``path`` of bytes
    ``raw``, as an (m, m) Fortran-ordered array whose upper triangle is
    never written; None when the cache is missing, stale, truncated or
    malformed, or its diagonal is not finite and positive."""
    try:
        with open(_factor_path(path), "rb") as fh:
            header = _factor_header(raw, m)
            if (fh.readline(len(header)) != header
                    or os.fstat(fh.fileno()).st_size != len(header) + 4 * m * (m + 1)):
                return None
            L = np.empty((m, m), dtype="<f8", order="F")
            for j in range(m):
                if fh.readinto(L[j:, j]) != 8 * (m - j):
                    return None
    except OSError:
        return None
    diag = np.diagonal(L)
    return L if np.isfinite(diag).all() and (diag > 0).all() else None


def save_additive_model(path, model: AdditiveModel) -> None:
    """Additive variant: header, neighbor rule, hierarchy arcs, inputs, then
    per-sample coefficient rows (all on-values then all off-values)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(MODEL_MAGIC + "\n")
        fh.write("variant additive\n")
        fh.write(_kernel_line(model.joint.base) + "\n")
        fh.write(f"lambda {fmt(model.lam)} m {model.m} d {model.d}\n")
        fh.write(f"neighbors {model.joint.neighbors}\n")
        fh.write(f"hierarchy {len(model.hierarchy.arcs)}\n")
        for p, c in model.hierarchy.arcs:
            fh.write(f"{p} {c}\n")
        fh.write(f"p {model.inputs.shape[1]}\n")
        _write_rows(fh, model.inputs)
        _write_rows(fh, np.concatenate([model.alpha[:, :, 1], model.alpha[:, :, 0]], axis=1))


def load_model(path):
    """Load either model variant; returns TrainedModel or AdditiveModel.

    A base model takes its factorization from the factor cache beside it
    when that cache matches (see ``save_model``) and is refitted otherwise;
    on the machine that wrote the cache the two factors are bit-identical.
    Additive models have no cache."""
    raw = _read_bytes(path)
    lines = _read_lines(path, raw)
    if not lines or lines[0] != MODEL_MAGIC:
        raise DataFormatError(f"{path}:1: not a model file (missing '{MODEL_MAGIC}')")
    if len(lines) >= 2 and lines[1] == "variant additive":
        return _load_additive(path, lines)
    return _load_base(path, raw, lines)


def _floats(path, lineno, line, count) -> np.ndarray:
    toks = line.split()
    if len(toks) != count:
        raise DataFormatError(f"{path}:{lineno}: expected {count} values, found {len(toks)}")
    try:
        return np.array(toks, dtype=float)
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: {exc}") from exc


def _float_rows(path, first_lineno, lines, count) -> np.ndarray:
    M = np.empty((len(lines), count))
    for i, line in enumerate(lines):
        M[i] = _floats(path, first_lineno + i, line, count)
    return _finite_rows(path, first_lineno, M)


def _load_base(path, raw, lines) -> TrainedModel:
    if len(lines) < 3:
        raise DataFormatError(f"{path}: truncated model file")
    spec = _parse_kernel_line(path, 2, lines[1])
    toks = lines[2].split()
    if len(toks) != 8 or toks[0] != "lambda" or toks[2] != "m" or toks[4] != "p" or toks[6] != "intercept":
        raise DataFormatError(f"{path}:3: bad parameter line {lines[2]!r}")
    lam, m, p, intercept = _finite_float(path, 3, toks[1]), int(toks[3]), int(toks[5]), toks[7]
    if m < 1:
        raise DataFormatError(f"{path}:3: model must have at least one sample, found m {m}")
    if len(lines) < 3 + 2 * m:
        raise DataFormatError(f"{path}: expected {3 + 2 * m} lines, found {len(lines)}")
    X = _float_rows(path, 4, lines[3:3 + m], p)
    label_lines = lines[3 + m:3 + 2 * m]
    Y = _float_rows(path, 4 + m, label_lines, len(label_lines[0].split()))
    if np.all(Y == np.round(Y)):
        Y = Y.astype(np.int64)
    L = _load_factor(path, raw, m)
    if L is None:
        return fit(spec, lam, X, Y, intercept_mode=intercept)
    return from_factor(spec, lam, X, Y, L, intercept_mode=intercept)


def _load_additive(path, lines) -> AdditiveModel:
    if len(lines) < 6:
        raise DataFormatError(f"{path}: truncated model file")
    spec = _parse_kernel_line(path, 3, lines[2])
    toks = lines[3].split()
    if len(toks) != 6 or toks[0] != "lambda" or toks[2] != "m" or toks[4] != "d":
        raise DataFormatError(f"{path}:4: bad parameter line {lines[3]!r}")
    lam, m, d = _finite_float(path, 4, toks[1]), int(toks[3]), int(toks[5])
    if m < 1:
        raise DataFormatError(f"{path}:4: model must have at least one sample, found m {m}")
    ntoks = lines[4].split()
    if len(ntoks) != 2 or ntoks[0] != "neighbors":
        raise DataFormatError(f"{path}:5: bad neighbors line {lines[4]!r}")
    htoks = lines[5].split()
    if len(htoks) != 2 or htoks[0] != "hierarchy":
        raise DataFormatError(f"{path}:6: bad hierarchy line {lines[5]!r}")
    n_arcs = int(htoks[1])
    if n_arcs < 0:
        raise DataFormatError(f"{path}:6: bad hierarchy line {lines[5]!r}")
    if len(lines) < 7 + n_arcs + 2 * m:
        raise DataFormatError(
            f"{path}: expected {7 + n_arcs + 2 * m} lines, found {len(lines)}")
    arcs = []
    for i in range(n_arcs):
        lineno = 7 + i
        t = lines[6 + i].split()
        if len(t) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 'parent child'")
        arcs.append((int(t[0]), int(t[1])))
    ptoks = lines[6 + n_arcs].split()
    if len(ptoks) != 2 or ptoks[0] != "p":
        raise DataFormatError(f"{path}:{7 + n_arcs}: bad feature-dim line")
    p = int(ptoks[1])
    base = 7 + n_arcs
    X = _float_rows(path, base + 1, lines[base:base + m], p)
    vals = _float_rows(path, base + m + 1, lines[base + m:base + 2 * m], 2 * d)
    alpha = np.stack([vals[:, d:], vals[:, :d]], axis=2)
    G = HierarchyDag(d=d, arcs=arcs)
    return AdditiveModel(alpha=alpha, joint=JointKernelSpec(base=spec, neighbors=ntoks[1]),
                         lam=lam, hierarchy=G, inputs=X)
