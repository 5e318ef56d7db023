"""Command-line front end.

Exit codes: 0 on success, 2 on usage or input errors, 3 on numerical
failure.  All randomness is derived from --seed; identical invocations
produce byte-identical output.  Commands that take a query file run it in
blocks of ``inference.BLOCK_ROWS`` rows, one library call per block.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial

import numpy as np

from . import inference, io
from .additive import AdditiveModel, JointKernelSpec, fit_additive, infer_additive
from .analysis import (BoundInputs, generalization_bound_terms, make_surrogate_config,
                       surrogate_loss)
from .baselines import knn_local_risk_predict, krr_project_predict_batch
from .errors import DataFormatError, EcrmError, NumericalError
from .inference import infer
from .io import Dataset, fmt
from .kernels import KernelSpec, kernel_sup_bound
from .losses import LossSpec, loss_value
from .model import fit
from .results import SolverParams
from .simulate import FlowGeneratorSpec, default_flow_network, simulate_flow_data
from .spaces import (assignment_space, flow_space, hierarchy_space, is_totally_unimodular,
                     nonmembers)

SPACES = ("hierarchy", "assignment", "flow")
LOSSES = ("hamming", "hierarchical", "footrule", "absolute", "square")


def _kernel_from_args(args) -> KernelSpec:
    """The kernel of --kernel and --gamma; also checks --lambda, read with it."""
    if not (np.isfinite(args.lam) and args.lam > 0):
        raise DataFormatError(f"--lambda must be finite and positive, got {args.lam}")
    if args.kernel == "rbf":
        if args.gamma is None:
            raise DataFormatError("rbf kernel requires --gamma")
        if not (np.isfinite(args.gamma) and args.gamma > 0):
            raise DataFormatError(f"--gamma must be finite and positive, got {args.gamma}")
        return KernelSpec(kind="rbf", gamma=args.gamma)
    return KernelSpec(kind="linear")


def _space_from_args(args, width):
    """The space of --space and its flags, for labels of ``width`` entries,
    a bound on a hierarchy's node ids."""
    if args.space == "hierarchy":
        if not args.hierarchy:
            raise DataFormatError("--space hierarchy requires --hierarchy FILE")
        G = io.load_hierarchy(args.hierarchy, width)
        return hierarchy_space(G)
    if args.space == "assignment":
        if args.dim is None:
            raise DataFormatError("--space assignment requires --dim D")
        return assignment_space(args.dim)
    if not args.network:
        raise DataFormatError("--space flow requires --network FILE")
    return flow_space(io.load_network(args.network))


def _model_space(args, model):
    """The requested output space, which must hold every stored label."""
    width = model.labels.shape[1]
    space = _space_from_args(args, width)
    if width != space.dim:
        raise DataFormatError(f"{args.model}: model labels have {width} entries but the "
                              f"{space.kind} space has dimension {space.dim}")
    bad, why = nonmembers(space, model.labels)
    if bad.size:
        raise DataFormatError(f"{args.model}: model label {bad[0] + 1} {why}")
    return space


def _queries(path, inputs) -> np.ndarray:
    """The query rows of ``path``, which must be as wide as the training
    ``inputs``."""
    X = io.load_matrix(path)
    if X.shape[1] != inputs.shape[1]:
        raise DataFormatError(f"{path}:1: expected {inputs.shape[1]} values, found {X.shape[1]}")
    return X


def _labels_of(X, x_path, labels_path, space, M=None) -> np.ndarray:
    """The labels file that goes row for row with the inputs ``X`` of
    ``x_path``; ``M`` is its matrix when already read."""
    Y = io.load_labels(labels_path, space, M)
    if Y.shape[0] != X.shape[0]:
        raise DataFormatError(f"{x_path} has {X.shape[0]} rows but {labels_path} has {Y.shape[0]}")
    return Y


def _training_set(args, x_path, labels_path):
    """The inputs, labels and output space of a training set.  The labels
    file is read before the space, so that its width bounds the node ids
    of a hierarchy."""
    X = io.load_matrix(x_path)
    M = io.load_matrix(labels_path)
    space = _space_from_args(args, M.shape[1])
    return X, _labels_of(X, x_path, labels_path, space, M), space


def _loss_from_args(args, space) -> LossSpec:
    if args.loss == "hierarchical":
        if space.kind != "hierarchy":
            raise DataFormatError("hierarchical loss requires --space hierarchy")
        return LossSpec(kind="hierarchical", hierarchy=space.hierarchy)
    return LossSpec(kind=args.loss)


def _solver_params(args) -> SolverParams:
    return SolverParams(max_iters=args.max_iters, step_a=args.step_a,
                        step_b=args.step_b, gap_tol=args.gap_tol,
                        restarts=args.restarts, seed=args.seed)


def _blocks(run, X, x_path, m, *aligned):
    """The results of ``run`` on each block of ``inference.BLOCK_ROWS``
    rows of the query rows ``X``, read from ``x_path``, and of each
    row-aligned array in ``aligned``, in order.  One block is held at a
    time, so memory is O(BLOCK_ROWS * m) for m training rows; a block that
    cannot be allocated raises EcrmError, naming its rows and m."""
    step = inference.BLOCK_ROWS
    for s in range(0, X.shape[0], step):
        e = min(s + step, X.shape[0])
        try:
            out = run(X[s:e], *(A[s:e] for A in aligned))
        except MemoryError as exc:
            raise EcrmError(f"{x_path}: rows {s + 1}-{e}: a block of {e - s} query rows "
                            f"against {m} training rows cannot be allocated") from exc
        yield out


def _predict_rows(model, loss, space, X, params):
    if isinstance(model, AdditiveModel):
        return [r.y_star for r in infer_additive(model, X)]
    return [r.y_star for r in infer(model, loss, space, X, params)]


def _model_queries_space(args):
    """The stored model, the query rows and the output space; an additive
    model brings its own hierarchy."""
    model = io.load_model(args.model)
    X = _queries(args.x, model.inputs)
    if isinstance(model, AdditiveModel):
        return model, X, hierarchy_space(model.hierarchy)
    return model, X, _model_space(args, model)


def _surrogate_values(args, what: str):
    """Base model, surrogate config and the per-row surrogate losses of the
    dataset, shared by the surrogate and bound analyses."""
    model = io.load_model(args.model)
    if isinstance(model, AdditiveModel):
        raise DataFormatError(f"{what} analysis expects a base model")
    space = _model_space(args, model)
    loss = _loss_from_args(args, space)
    X = _queries(args.x, model.inputs)
    Y = _labels_of(X, args.x, args.labels, space)
    cfg = make_surrogate_config(args.rho, loss, space)
    run = partial(surrogate_loss, model, loss, cfg, params=_solver_params(args))
    return model, cfg, np.concatenate(list(_blocks(run, X, args.x, model.m, Y)))


def cmd_train(args) -> int:
    kernel = _kernel_from_args(args)
    X, Y, space = _training_set(args, args.x, args.labels)
    if args.variant == "additive":
        if space.kind != "hierarchy":
            raise DataFormatError("--variant additive requires --space hierarchy")
        model = fit_additive(X, Y, space.hierarchy,
                             JointKernelSpec(base=kernel, neighbors=args.neighbors),
                             args.lam)
        io.save_additive_model(args.out, model)
    else:
        model = fit(kernel, args.lam, X, Y, intercept_mode=args.intercept)
        io.save_model(args.out, model)
    return 0


def cmd_predict(args) -> int:
    model, X, space = _model_queries_space(args)
    # The additive model minimizes its own risk estimate; --loss plays no part.
    loss = None if isinstance(model, AdditiveModel) else _loss_from_args(args, space)
    run = partial(_predict_rows, model, loss, space, params=_solver_params(args))
    for rows in _blocks(run, X, args.x, model.m):
        # sys.stdout is looked up per call, so a redirection of it takes effect.
        io.write_rows(sys.stdout, rows)
    return 0


def cmd_eval(args) -> int:
    model, X, space = _model_queries_space(args)
    loss = _loss_from_args(args, space)
    Y = _labels_of(X, args.x, args.labels, space)
    params = _solver_params(args)

    def losses(Xb, Yb):
        return [loss_value(loss, r, y)
                for r, y in zip(_predict_rows(model, loss, space, Xb, params), Yb)]

    vals = [v for block in _blocks(losses, X, args.x, model.m, Y) for v in block]
    print(f"mean_loss {fmt(np.mean(vals))}")
    return 0


def cmd_surrogate(args) -> int:
    _, _, vals = _surrogate_values(args, "surrogate")
    print("\n".join(fmt(v) for v in vals))
    print(f"mean {fmt(np.mean(vals))}")
    return 0


def cmd_bound(args) -> int:
    model, cfg, vals = _surrogate_values(args, "bound")
    b = BoundInputs(empirical_risk=float(np.mean(vals)), L=cfg.L,
                    kappa=kernel_sup_bound(model.kernel, model.inputs),
                    lam=model.lam, rho=args.rho, delta=args.delta, m=len(vals))
    emp, stab, conf, total = generalization_bound_terms(b)
    print(f"empirical {fmt(emp)}")
    print(f"stability {fmt(stab)}")
    print(f"confidence {fmt(conf)}")
    print(f"bound {fmt(total)}")
    return 0


def cmd_simulate_flow(args) -> int:
    net = io.load_network(args.network) if args.network else default_flow_network()
    spec = FlowGeneratorSpec.create(seed=args.seed, network=net, p=args.p, tau=args.tau)
    data = simulate_flow_data(spec, args.m)
    io.save_matrix(args.out_x, data.X)
    io.save_matrix(args.out_y, data.Y)
    return 0


def cmd_bench(args) -> int:
    """Training time against label-vector size; fit cost is label-size free."""
    try:
        dims = [int(t) for t in args.dims.split(",")]
    except ValueError:
        dims = [0]
    if min(dims) < 1:
        raise DataFormatError(f"--dims must be positive integers separated by commas, "
                              f"got {args.dims!r}")
    if args.repeats < 1:
        raise DataFormatError(f"--repeats must be at least 1, got {args.repeats}")
    kernel = _kernel_from_args(args)
    rng = np.random.default_rng(args.seed)
    try:
        X = rng.uniform(size=(args.m, args.p))
    except MemoryError as exc:
        raise DataFormatError(f"--m {args.m} --p {args.p}: cannot hold the inputs: {exc}"
                              ) from exc
    # All-roots-off labels, feasible in any hierarchy, built before any
    # output so that a size too large to hold prints nothing.
    Ys = []
    for d in dims:
        try:
            Ys.append(np.zeros((args.m, d), dtype=np.int64))
        except (MemoryError, ValueError) as exc:
            raise DataFormatError(f"--dims {d}: cannot hold {args.m} x {d} labels: {exc}"
                                  ) from exc
    fit(kernel, args.lam, X, np.zeros((args.m, 1)))  # warm up BLAS paths
    print("d,train_seconds")
    # The sizes are timed round-robin, so a burst of machine load is spread
    # over all of them.
    best = [np.inf] * len(dims)
    for _ in range(args.repeats):
        for i, Y in enumerate(Ys):
            t0 = time.perf_counter()
            fit(kernel, args.lam, X, Y)
            best[i] = min(best[i], time.perf_counter() - t0)
    for d, t in zip(dims, best):
        print(f"{d},{fmt(t)}")
    return 0


def cmd_tu_check(args) -> int:
    verdict = is_totally_unimodular(io.load_matrix(args.matrix), size_cap=args.cap)
    print("unknown" if verdict is None else ("true" if verdict else "false"))
    return 0


def cmd_baseline(args) -> int:
    X_train, Y_train, space = _training_set(args, args.train_x, args.train_labels)
    Xq = _queries(args.x, X_train)
    if args.method == "knn":
        run = partial(knn_local_risk_predict, Dataset(X=X_train, Y=Y_train, space=space),
                      _loss_from_args(args, space), space, k=args.k,
                      params=_solver_params(args))
    else:
        # One fit; each block only projects.
        model = fit(_kernel_from_args(args), args.lam, X_train, Y_train)
        run = partial(krr_project_predict_batch, model, space)
    for rows in _blocks(run, Xq, args.x, X_train.shape[0]):
        io.write_rows(sys.stdout, rows)
    return 0


def _add_space_flags(p) -> None:
    p.add_argument("--space", choices=SPACES, required=True)
    p.add_argument("--hierarchy", help="hierarchy arc file (for --space hierarchy)")
    p.add_argument("--network", help="network file (for --space flow)")
    p.add_argument("--dim", type=int, help="label count (for --space assignment)")


def _add_solver_flags(p) -> None:
    p.add_argument("--max-iters", type=int, default=500,
                   help="subgradient steps per restart of the L1 flow solver (--loss absolute)")
    p.add_argument("--restarts", type=int, default=5,
                   help="starts of the L1 flow solver: the mean of all paths, then random paths")
    p.add_argument("--gap-tol", type=float, default=1e-6,
                   help="Frank-Wolfe gap at which the square-loss flow projection stops")
    p.add_argument("--step-a", type=float, default=1.0,
                   help="L1 flow solver: step t has size a / (1 + b t); this sets a")
    p.add_argument("--step-b", type=float, default=0.1,
                   help="L1 flow solver: step t has size a / (1 + b t); this sets b")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the L1 flow solver's random restart paths")


def _add_kernel_flags(p) -> None:
    p.add_argument("--kernel", choices=("linear", "rbf"), default="rbf")
    p.add_argument("--gamma", type=float)
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ecrm",
                                 description="Structured prediction by estimated "
                                             "conditional risk minimization")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write it to a file")
    p.add_argument("--x", required=True)
    p.add_argument("--labels", required=True)
    _add_space_flags(p)
    _add_kernel_flags(p)
    p.add_argument("--intercept", choices=("none", "centered"), default="none")
    p.add_argument("--variant", choices=("base", "additive"), default="base")
    p.add_argument("--neighbors", choices=("adjacent", "self"), default="adjacent")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="one prediction line per input row")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--loss", choices=LOSSES, default="hamming")
    _add_space_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="mean loss of predictions against labels")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--loss", choices=LOSSES, required=True)
    _add_space_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("surrogate", help="per-sample surrogate loss and its mean")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--loss", choices=LOSSES, required=True)
    p.add_argument("--rho", type=float, required=True)
    _add_space_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_surrogate)

    p = sub.add_parser("bound", help="generalization-bound terms on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--loss", choices=LOSSES, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_space_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate-flow", help="write synthetic flow data files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--p", type=int, default=20)
    p.add_argument("--network")
    p.add_argument("--out-x", required=True)
    p.add_argument("--out-y", required=True)
    p.set_defaults(func=cmd_simulate_flow)

    p = sub.add_parser("bench", help="CSV of training seconds per hierarchy size")
    p.add_argument("--m", type=int, default=500)
    p.add_argument("--dims", default="10,100,1000")
    p.add_argument("--p", type=int, default=10)
    p.add_argument("--repeats", type=int, default=3)
    _add_kernel_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("tu-check", help="total unimodularity of a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--cap", type=int, default=2_000_000)
    p.set_defaults(func=cmd_tu_check)

    p = sub.add_parser("baseline", help="nearest-neighbor or ridge-projection predictions")
    p.add_argument("--method", choices=("knn", "krr-project"), required=True)
    p.add_argument("--train-x", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--loss", choices=LOSSES, default="absolute")
    p.add_argument("--k", type=int, default=5)
    _add_space_flags(p)
    _add_kernel_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_baseline)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, EcrmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
