"""Plain-text file formats: matrices, hierarchies, networks, and model files.

All numeric output uses shortest round-trip decimal representation so that
written files are stable and diffable.  One helper does each job:
``_rows`` reads rows of numbers, ``_arcs`` node-id pairs and ``_header``
``name value ...`` lines, and ``write_rows`` writes every matrix file,
model block and row of predict or baseline output.  A loader error names
the path and the 1-based line number of the offending record
(``path:line:``), or the path alone (``path:``) for a fault of the whole
structure, such as a cycle.  Networks must be acyclic.

Beside a base model file ``F``, ``save_model`` writes the binary factor
cache ``F.factor``: the training inputs and the Cholesky factor, as
bytes.  ``load_model`` takes both from it in place of parsing the input
block and refitting, and still parses the labels from text; only this
module knows the cache format.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from .additive import NEIGHBOR_RULES, AdditiveModel, JointKernelSpec
from .errors import DataFormatError
from .hierarchy import HierarchyDag
from .kernels import KernelSpec
from .model import INTERCEPT_MODES, TrainedModel, fit, from_factor
from .spaces import FlowNetwork, OutputSpace, nonmembers


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
    """The lines of the ASCII file at ``path``, or of its bytes ``raw``; a
    non-ASCII byte is an error on its line."""
    raw = _read_bytes(path) if raw is None else raw
    try:
        return raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        # Lines as splitlines counts them: the ASCII bytes before the first
        # bad one, and a stand-in for it.
        lineno = len((raw[:exc.start].decode("ascii") + "?").splitlines())
        raise DataFormatError(f"{path}:{lineno}: not an ASCII file: {exc}") from exc


def _int(token) -> int:
    """The nonnegative decimal integer ``token``; ValueError otherwise."""
    value = int(token)
    if value < 0:
        raise ValueError(f"expected a nonnegative integer, found {token!r}")
    return value


def _float(token) -> float:
    """The finite number ``token``; ValueError otherwise."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError("non-finite value")
    return value


def _one_of(*words):
    """A reader, for ``_header``, of a token that must be one of ``words``."""
    def word(token) -> str:
        if token not in words:
            raise ValueError(f"expected one of {', '.join(words)}")
        return token
    return word


def _rows(path, first_lineno, lines, count=None) -> np.ndarray:
    """The (len(lines), count) float matrix of the nonempty ``lines``, the
    first of which is line ``first_lineno`` of ``path``: ``count`` finite
    numbers per line, as many as on the first line when count is None."""
    # Sized by the first line, not by a count read from a header, so that
    # a wrong count fails on that line rather than in the allocation.
    M = np.empty((len(lines), len(lines[0].split())))
    count = M.shape[1] if count is None else count
    try:
        for i, line in enumerate(lines):
            toks = line.split()
            if len(toks) != count or not toks:
                raise ValueError(f"expected {count} values, found {len(toks)}" if toks
                                 else "blank line")
            M[i] = toks
    except ValueError as exc:
        raise DataFormatError(f"{path}:{first_lineno + i}: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(M).all(axis=1))
    if bad.size:
        raise DataFormatError(f"{path}:{first_lineno + bad[0]}: non-finite value")
    return M


def _arcs(path, numbered, width=None) -> list[tuple[int, int]]:
    """The ``a b`` node-id pairs of the (1-based line number, line) pairs
    ``numbered``: two distinct nonnegative integers per line, each below
    ``width`` when it is given."""
    arcs = []
    try:
        for lineno, line in numbered:
            toks = line.split()
            if len(toks) != 2:
                raise ValueError(f"expected two node ids, found {len(toks)} values")
            a, b = _int(toks[0]), _int(toks[1])
            if a == b:
                raise ValueError(f"self-loop arc ({a},{b})")
            if width is not None and max(a, b) >= width:
                raise ValueError(f"node id {max(a, b)} does not fit labels of {width} entries")
            arcs.append((a, b))
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return arcs


def _header(path, lineno, line, what, *fields) -> list:
    """The values of ``line``, line ``lineno`` of ``path``, which must read
    ``name value ...`` for the ``(name, read)`` pairs ``fields`` in order;
    each value is what its ``read`` (``_int``, ``_float``, ``_one_of``)
    returns."""
    toks = line.split()
    try:
        if len(toks) != 2 * len(fields) or toks[::2] != [name for name, _ in fields]:
            raise ValueError("expected " + " ".join(f"{name} <value>" for name, _ in fields))
        return [read(tok) for (_, read), tok in zip(fields, toks[1::2])]
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: bad {what} line {line!r}: {exc}") from exc


def _built(path, make, *args):
    """``make(*args)``; a ValueError it raises is a fault of the whole
    structure read from ``path``, such as a cycle, and names the path."""
    try:
        return make(*args)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def load_matrix(path) -> np.ndarray:
    """One sample per line, space-separated numbers, rectangular."""
    lines = _read_lines(path)
    if not lines:
        raise DataFormatError(f"{path}:1: file is empty")
    return _rows(path, 1, lines)


def load_labels(path, space: OutputSpace, M=None) -> np.ndarray:
    """One label per line, each a member of ``space`` (see
    ``spaces.nonmembers``); int64 for hierarchies and rankings, float
    otherwise.  ``M`` is the file's ``load_matrix`` when the caller has
    read it already."""
    M = load_matrix(path) if M is None else M
    if M.shape[1] != space.dim:
        raise DataFormatError(f"{path}:1: expected {space.dim} values, found {M.shape[1]}")
    bad, why = nonmembers(space, M)
    if bad.size:
        raise DataFormatError(f"{path}:{bad[0] + 1}: label {why}")
    return M.astype(np.int64) if space.kind in ("hierarchy", "assignment") else M


def write_rows(fh, M) -> None:
    """One line per row of M to the text stream ``fh``: integers in decimal
    when M's dtype is an integer type, anything else as ``fmt`` writes it.
    Each row is formatted from its own Python values, so that only one row
    at a time is held as Python objects."""
    M = np.atleast_2d(np.asarray(M))
    if np.issubdtype(M.dtype, np.integer):
        fh.writelines(" ".join(map(str, r.tolist())) + "\n" for r in M)
    else:
        # repr of a Python float is exactly ``fmt``'s string.
        fh.writelines(" ".join(map(repr, r.tolist())) + "\n" for r in M.astype(float, copy=False))


def save_matrix(path, M) -> None:
    with open(path, "w", encoding="ascii") as fh:
        write_rows(fh, M)


def load_hierarchy(path, width=None) -> HierarchyDag:
    """One arc per line as ``parent child`` (0-based); d = 1 + max id.
    Blank lines are skipped.  Given the ``width`` of the labels the
    hierarchy is for, the first arc with a node id of at least ``width``
    is an error, so an id never sizes the graph beyond its labels."""
    lines = _read_lines(path)
    arcs = _arcs(path, ((n, line) for n, line in enumerate(lines, start=1) if line.strip()),
                 width)
    if not arcs:
        raise DataFormatError(f"{path}:1: hierarchy file has no arcs")
    return _built(path, HierarchyDag, 1 + max(map(max, arcs)), arcs)


def save_hierarchy(path, G: HierarchyDag) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for p, c in G.arcs:
            fh.write(f"{p} {c}\n")


def load_network(path) -> FlowNetwork:
    """Header ``nodes N arcs M``, then M ``tail head`` lines, then N ``node b``
    lines; the network must be acyclic."""
    lines = _read_lines(path)
    if not lines:
        raise DataFormatError(f"{path}:1: file is empty")
    n_nodes, n_arcs = _header(path, 1, lines[0], "network header", ("nodes", _int),
                              ("arcs", _int))
    if len(lines) < 1 + n_arcs + n_nodes:
        raise DataFormatError(f"{path}: expected {1 + n_arcs + n_nodes} lines, found {len(lines)}")
    arcs = _arcs(path, enumerate(lines[1:1 + n_arcs], start=2))
    b = [None] * n_nodes
    try:
        for lineno, line in enumerate(lines[1 + n_arcs:1 + n_arcs + n_nodes], start=2 + n_arcs):
            toks = line.split()
            if len(toks) != 2:
                raise ValueError("expected 'node b_value'")
            node = _int(toks[0])
            if node >= n_nodes or b[node] is not None:
                raise ValueError(f"bad or repeated node id {node}")
            b[node] = _float(toks[1])
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    net = _built(path, FlowNetwork, n_nodes, arcs, b)
    if not net.is_acyclic:
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
FACTOR_MAGIC = "ECRM-FACTOR 2"


def _kernel_line(spec: KernelSpec) -> str:
    if spec.kind == "rbf":
        return f"kernel rbf {fmt(spec.gamma)}"
    return "kernel linear"


def _parse_kernel_line(path, lineno, line) -> KernelSpec:
    toks = line.split()
    try:
        if toks == ["kernel", "linear"]:
            return KernelSpec(kind="linear")
        if len(toks) == 3 and toks[:2] == ["kernel", "rbf"]:
            return KernelSpec(kind="rbf", gamma=_float(toks[2]))
        raise ValueError("expected 'kernel linear' or 'kernel rbf <gamma>'")
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: bad kernel line {line!r}: {exc}") from exc


def save_model(path, model: TrainedModel) -> None:
    """Write the plain-text model file and, for a model that holds its
    factorization, the factor cache ``<path>.factor`` beside it.

    The cache is one ASCII header line, ``ECRM-FACTOR 2 <m> <p> <f8
    <sha256>`` with the SHA-256 of the model file's bytes, then the inputs
    row by row (m*p little-endian doubles), then the lower Cholesky factor
    column by column from the diagonal down (m(m+1)/2 little-endian
    doubles).  ``load_model`` uses it only when the header names the model
    file it sits beside and the size is exact; in every other case it
    parses the inputs and refits, so a missing, stale or older-format
    cache costs time, never a wrong answer.  A model without a factor
    writes no cache and removes an old one left beside it.  Raises
    DataFormatError when the cache cannot be written or removed."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(MODEL_MAGIC + "\n")
        fh.write(_kernel_line(model.kernel) + "\n")
        fh.write(f"lambda {fmt(model.lam)} m {model.m} p {model.p} "
                 f"intercept {model.intercept_mode}\n")
        write_rows(fh, model.inputs)
        write_rows(fh, model.labels)
    if model.factor is None:
        _remove_factor(path)
    else:
        # Every model holds ``from_factor``'s lower ``(L, True)`` pair.
        _save_factor(path, model.inputs, model.factor[0])


def _factor_path(path) -> str:
    return os.fspath(path) + ".factor"


def _factor_header(raw: bytes, m: int, p: int) -> bytes:
    """The cache header for a model file of bytes ``raw`` with m samples of
    p features."""
    return f"{FACTOR_MAGIC} {m} {p} <f8 {hashlib.sha256(raw).hexdigest()}\n".encode("ascii")


def _save_factor(path, X, L) -> None:
    cache = _factor_path(path)
    try:
        # Columns are 8 to 8m bytes; a 1 MiB buffer turns the m writes into
        # one system call per MiB.
        with open(cache, "wb", buffering=1 << 20) as fh:
            fh.write(_factor_header(_read_bytes(path), *X.shape))
            fh.write(np.ascontiguousarray(X, dtype="<f8"))
            for j in range(L.shape[0]):
                fh.write(np.ascontiguousarray(L[j:, j], dtype="<f8"))
    except OSError as exc:
        raise DataFormatError(f"{cache}: cannot write factor cache: {exc}") from exc


def _remove_factor(path) -> None:
    """Remove the factor cache beside the model file at ``path``, if any."""
    cache = _factor_path(path)
    try:
        os.remove(cache)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise DataFormatError(f"{cache}: cannot remove stale factor cache: {exc}") from exc


def _load_factor(path, raw: bytes, m: int, p: int):
    """``(X, L)`` cached beside the model file at ``path`` of bytes ``raw``:
    the (m, p) inputs and the lower factor, an (m, m) Fortran-ordered
    array whose upper triangle holds no meaning.  None when the cache is
    missing, stale, truncated, malformed or of the older format without
    inputs, or when X is not finite or L's diagonal not finite and
    positive."""
    packed = m * (m + 1) // 2
    try:
        with open(_factor_path(path), "rb") as fh:
            header = _factor_header(raw, m, p)
            if (fh.readline(len(header)) != header
                    or os.fstat(fh.fileno()).st_size
                    != len(header) + 8 * m * p + 8 * packed):
                return None
            X = np.empty((m, p), dtype="<f8")
            L = np.empty((m, m), dtype="<f8", order="F")
            flat = L.reshape(-1, order="F")  # a view: L is Fortran-ordered
            if fh.readinto(X) != 8 * m * p or fh.readinto(flat[:packed]) != 8 * packed:
                return None
    except OSError:
        return None
    # The packed column j starts at j*m - j*(j-1)/2 and belongs at j*m + j,
    # never earlier.  Moving the last column first, no column is written
    # over before it has moved.
    for j in range(m - 1, 0, -1):
        start = j * m - j * (j - 1) // 2
        L[j:, j] = flat[start:start + m - j]
    diag = np.diagonal(L)
    if not (np.isfinite(X).all() and np.isfinite(diag).all() and (diag > 0).all()):
        return None
    return X, L


def save_additive_model(path, model: AdditiveModel) -> None:
    """Additive variant: header, neighbor rule, hierarchy arcs, inputs, then
    per-sample coefficient rows (all on-values then all off-values).  It
    has no factor cache and removes an old one beside ``path``."""
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
        write_rows(fh, model.inputs)
        write_rows(fh, np.concatenate([model.alpha[:, :, 1], model.alpha[:, :, 0]], axis=1))
    _remove_factor(path)


def load_model(path):
    """Load either model variant; returns TrainedModel or AdditiveModel.

    A base model takes its inputs and factorization from the factor cache
    beside it when that cache matches (see ``save_model``), and parses only
    its labels from text.  Otherwise it parses the inputs too and is
    refitted; the cached inputs are the bytes the text parses to, and on
    the machine that wrote the cache the two factors are bit-identical.
    Additive models have no cache."""
    raw = _read_bytes(path)
    lines = _read_lines(path, raw)
    if not lines or lines[0] != MODEL_MAGIC:
        raise DataFormatError(f"{path}:1: not a model file (missing '{MODEL_MAGIC}')")
    if len(lines) >= 2 and lines[1] == "variant additive":
        return _load_additive(path, lines)
    return _load_base(path, raw, lines)


def _load_base(path, raw, lines) -> TrainedModel:
    if len(lines) < 3:
        raise DataFormatError(f"{path}: truncated model file")
    spec = _parse_kernel_line(path, 2, lines[1])
    lam, m, p, intercept = _header(path, 3, lines[2], "parameter", ("lambda", _float),
                                   ("m", _int), ("p", _int),
                                   ("intercept", _one_of(*INTERCEPT_MODES)))
    if m < 1:
        raise DataFormatError(f"{path}:3: model must have at least one sample, found m {m}")
    if len(lines) < 3 + 2 * m:
        raise DataFormatError(f"{path}: expected {3 + 2 * m} lines, found {len(lines)}")
    cached = _load_factor(path, raw, m, p)
    X = _rows(path, 4, lines[3:3 + m], p) if cached is None else cached[0]
    Y = _rows(path, 4 + m, lines[3 + m:3 + 2 * m])
    if np.all(Y == np.round(Y)):
        Y = Y.astype(np.int64)
    if cached is None:
        return _built(path, fit, spec, lam, X, Y, intercept)
    return _built(path, from_factor, spec, lam, X, Y, cached[1], intercept)


def _load_additive(path, lines) -> AdditiveModel:
    if len(lines) < 6:
        raise DataFormatError(f"{path}: truncated model file")
    spec = _parse_kernel_line(path, 3, lines[2])
    lam, m, d = _header(path, 4, lines[3], "parameter", ("lambda", _float), ("m", _int),
                        ("d", _int))
    if m < 1:
        raise DataFormatError(f"{path}:4: model must have at least one sample, found m {m}")
    (neighbors,) = _header(path, 5, lines[4], "neighbors",
                           ("neighbors", _one_of(*NEIGHBOR_RULES)))
    (n_arcs,) = _header(path, 6, lines[5], "hierarchy", ("hierarchy", _int))
    if len(lines) < 7 + n_arcs + 2 * m:
        raise DataFormatError(
            f"{path}: expected {7 + n_arcs + 2 * m} lines, found {len(lines)}")
    arcs = _arcs(path, enumerate(lines[6:6 + n_arcs], start=7))
    base = 7 + n_arcs
    (p,) = _header(path, base, lines[base - 1], "feature-dim", ("p", _int))
    X = _rows(path, base + 1, lines[base:base + m], p)
    vals = _rows(path, base + m + 1, lines[base + m:base + 2 * m], 2 * d)
    # Built once the coefficient rows hold 2d values each, so that a d
    # larger than the file holds never sizes the graph.
    G = _built(path, HierarchyDag, d, arcs)
    alpha = np.stack([vals[:, d:], vals[:, :d]], axis=2)
    return AdditiveModel(alpha=alpha, joint=JointKernelSpec(base=spec, neighbors=neighbors),
                         lam=lam, hierarchy=G, inputs=X)
