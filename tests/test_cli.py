"""End-to-end command-line checks: formats, determinism, exit codes.

Commands run in-process through ``ecrm.cli.main``, where an exception that
escapes ``main`` fails the test.  ``TestRealProcess`` and
``test_import_leaves_scipy_optimize_unloaded`` start ``python -m ecrm`` for
what only a fresh process shows: its exit codes and stderr, its output
under another hash seed, and the modules its import loads.
"""

import contextlib
import functools
import io
import os
import subprocess
import sys

import numpy as np
import pytest

import ecrm.cli
from ecrm import (FlowGeneratorSpec, HierarchyDag, default_flow_network, hamming,
                  simulate_flow_data)
from ecrm.io import load_matrix, save_hierarchy, save_matrix, save_network
from conftest import random_feasible_label, random_tree


def run_cli(*args):
    """``ecrm.cli.main`` on ``args``, in-process, as a finished process:
    the exit code (argparse's ``SystemExit`` for ``--help`` or a bad flag
    becomes it) and everything written to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ecrm.cli.main(list(map(str, args)))
        except SystemExit as exc:
            code = exc.code or 0
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_process(*args, **env):
    """``python -m ecrm`` on ``args`` in a fresh process, with ``env`` added
    to its environment."""
    return subprocess.run([sys.executable, "-m", "ecrm", *map(str, args)],
                          capture_output=True, text=True, env={**os.environ, **env})


@pytest.fixture
def hierarchy_fixture(tmp_path, rng):
    G = HierarchyDag(4, [(0, 1), (0, 2), (2, 3)])
    hpath = tmp_path / "h.txt"
    save_hierarchy(hpath, G)
    X = rng.normal(size=(6, 3))
    Y = np.array([[1, 1, 0, 0], [1, 0, 1, 1], [0, 0, 0, 0],
                  [1, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 1]])
    xpath, ypath = tmp_path / "x.txt", tmp_path / "y.txt"
    save_matrix(xpath, X)
    save_matrix(ypath, Y)
    return tmp_path, hpath, xpath, ypath, X, Y


class TestTrainPredictEval:
    def test_train_writes_model_file(self, hierarchy_fixture):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        out = tmp / "model.ecrm"
        r = run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                    "--hierarchy", hpath, "--kernel", "rbf", "--gamma", 0.5,
                    "--lambda", 0.1, "--out", out)
        assert r.returncode == 0, r.stderr
        assert out.read_text().splitlines()[0] == "ECRM-MODEL 1"

    def test_predictions_are_feasible_and_deterministic(self, hierarchy_fixture):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        out = tmp / "model.ecrm"
        run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                "--hierarchy", hpath, "--kernel", "rbf", "--gamma", 0.5,
                "--lambda", 0.1, "--out", out)
        args = ("predict", "--model", out, "--x", xpath, "--space", "hierarchy",
                "--hierarchy", hpath, "--loss", "hamming", "--seed", 7)
        r1, r2 = run_cli(*args), run_cli(*args)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        G_parents = {c: p for p, c in [(0, 1), (0, 2), (2, 3)]}
        for line in r1.stdout.splitlines():
            y = [int(t) for t in line.split()]
            for c, p in G_parents.items():
                assert not (y[c] == 1 and y[p] == 0)

    def test_additive_variant_round_trip(self, hierarchy_fixture):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        out = tmp / "madd.ecrm"
        r = run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                    "--hierarchy", hpath, "--kernel", "rbf", "--gamma", 0.5,
                    "--lambda", 0.5, "--variant", "additive", "--out", out)
        assert r.returncode == 0, r.stderr
        assert out.read_text().splitlines()[1] == "variant additive"
        r = run_cli("predict", "--model", out, "--x", xpath, "--space", "hierarchy",
                    "--hierarchy", hpath, "--loss", "hamming")
        assert r.returncode == 0, r.stderr
        G_parents = {1: 0, 2: 0, 3: 2}
        for line in r.stdout.splitlines():
            y = [int(t) for t in line.split()]
            for c, p in G_parents.items():
                assert not (y[c] == 1 and y[p] == 0)

    def test_additive_train_is_byte_identical(self, hierarchy_fixture):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        outs = (tmp / "a1.ecrm", tmp / "a2.ecrm")
        for out in outs:
            r = run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                        "--hierarchy", hpath, "--kernel", "rbf", "--gamma", 0.5,
                        "--lambda", 0.5, "--variant", "additive", "--out", out)
            assert r.returncode == 0, r.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_additive_model_commands(self, hierarchy_fixture):
        # predict and eval use the model's own hierarchy and predict ignores
        # --loss; the analyses reject an additive model.
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        out = tmp / "madd.ecrm"
        r = run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                    "--hierarchy", hpath, "--kernel", "rbf", "--gamma", 0.5,
                    "--lambda", 0.5, "--variant", "additive", "--out", out)
        assert r.returncode == 0, r.stderr
        flags = ("--model", out, "--x", xpath, "--space", "hierarchy", "--hierarchy", hpath)
        hamming_run = run_cli("predict", *flags, "--loss", "hamming")
        footrule_run = run_cli("predict", *flags, "--loss", "footrule")
        assert hamming_run.returncode == footrule_run.returncode == 0
        assert footrule_run.stdout == hamming_run.stdout
        assert len(hamming_run.stdout.splitlines()) == X.shape[0]
        pred = np.array([[int(t) for t in line.split()]
                         for line in hamming_run.stdout.splitlines()])
        r = run_cli("eval", *flags, "--labels", ypath, "--loss", "hamming")
        assert r.returncode == 0, r.stderr
        expect = np.mean([hamming(p, y) for p, y in zip(pred, Y)])
        assert float(r.stdout.split()[1]) == pytest.approx(expect, abs=1e-12)
        for command, extra in (("surrogate", ()), ("bound", ("--delta", 0.1))):
            r = run_cli(command, *flags, "--labels", ypath, "--loss", "hamming",
                        "--rho", 1.0, *extra)
            assert r.returncode == 2
            assert r.stdout == ""
            assert r.stderr == f"error: {command} analysis expects a base model\n"

    def test_eval_matches_hand_computed_mean(self, tmp_path, rng):
        # Three-sample fixture with duplicated training points: predictions
        # are known, so the mean Hamming loss is computable by hand.
        G = HierarchyDag(2, [(0, 1)])
        hpath = tmp_path / "h.txt"
        save_hierarchy(hpath, G)
        X = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]])
        Y = np.array([[1, 1], [1, 0], [0, 0]])
        save_matrix(tmp_path / "x.txt", X)
        save_matrix(tmp_path / "y.txt", Y)
        out = tmp_path / "m.ecrm"
        r = run_cli("train", "--x", tmp_path / "x.txt", "--labels", tmp_path / "y.txt",
                    "--space", "hierarchy", "--hierarchy", hpath, "--kernel", "rbf",
                    "--gamma", 2.0, "--lambda", 0.01, "--out", out)
        assert r.returncode == 0, r.stderr
        pred = run_cli("predict", "--model", out, "--x", tmp_path / "x.txt",
                       "--space", "hierarchy", "--hierarchy", hpath,
                       "--loss", "hamming")
        rows = [[int(t) for t in line.split()] for line in pred.stdout.splitlines()]
        expected = np.mean([hamming(rows[i], Y[i]) for i in range(3)])
        ev = run_cli("eval", "--model", out, "--x", tmp_path / "x.txt", "--labels",
                     tmp_path / "y.txt", "--space", "hierarchy", "--hierarchy", hpath,
                     "--loss", "hamming")
        assert ev.returncode == 0, ev.stderr
        tag, value = ev.stdout.split()
        assert tag == "mean_loss"
        assert float(value) == pytest.approx(expected, abs=1e-12)


class TestAnalysisCommands:
    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_bound_matches_library(self, hierarchy_fixture, kernel):
        from ecrm import (BoundInputs, KernelSpec, LossSpec, fit,
                          empirical_surrogate_risk, generalization_bound_terms,
                          hierarchy_space, make_surrogate_config)
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        # sup k(x, x): 1 for the RBF kernel, the largest squared training
        # norm for the linear one.
        spec, kappa = ((KernelSpec("rbf", gamma=0.5), 1.0) if kernel == "rbf"
                       else (KernelSpec("linear"), float(max(x @ x for x in X))))
        out = tmp / "model.ecrm"
        r = run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                    "--hierarchy", hpath, "--kernel", kernel, "--gamma", 0.5,
                    "--lambda", 0.1, "--out", out)
        assert r.returncode == 0, r.stderr
        r = run_cli("bound", "--model", out, "--x", xpath, "--labels", ypath,
                    "--space", "hierarchy", "--hierarchy", hpath, "--loss", "hamming",
                    "--rho", 0.1, "--delta", 0.05)
        assert r.returncode == 0, r.stderr
        got = dict(line.split() for line in r.stdout.splitlines())
        from ecrm.io import load_hierarchy
        G = load_hierarchy(hpath)
        space = hierarchy_space(G)
        loss = LossSpec("hamming")
        model = fit(spec, 0.1, X, Y)
        cfg = make_surrogate_config(0.1, loss, space)
        emp = empirical_surrogate_risk(model, loss, cfg, X, Y)
        b = BoundInputs(empirical_risk=emp, L=4.0, kappa=kappa, lam=0.1, rho=0.1,
                        delta=0.05, m=6)
        emp2, stab, conf, total = generalization_bound_terms(b)
        assert float(got["empirical"]) == pytest.approx(emp2, abs=1e-10)
        assert float(got["stability"]) == pytest.approx(stab, abs=1e-10)
        assert float(got["confidence"]) == pytest.approx(conf, abs=1e-10)
        assert float(got["bound"]) == pytest.approx(total, abs=1e-10)

    def test_surrogate_prints_values_and_mean(self, hierarchy_fixture):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        out = tmp / "model.ecrm"
        run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                "--hierarchy", hpath, "--kernel", "rbf", "--gamma", 0.5,
                "--lambda", 0.1, "--out", out)
        r = run_cli("surrogate", "--model", out, "--x", xpath, "--labels", ypath,
                    "--space", "hierarchy", "--hierarchy", hpath, "--loss", "hamming",
                    "--rho", 0.5)
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert len(lines) == 7
        vals = [float(v) for v in lines[:6]]
        tag, mean = lines[6].split()
        assert tag == "mean"
        assert float(mean) == pytest.approx(np.mean(vals), abs=1e-12)

    def test_bound_empirical_equals_surrogate_mean(self, hierarchy_fixture):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        out = tmp / "model.ecrm"
        run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                "--hierarchy", hpath, "--kernel", "rbf", "--gamma", 0.5,
                "--lambda", 0.1, "--out", out)
        flags = ("--model", out, "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                 "--hierarchy", hpath, "--loss", "hierarchical", "--rho", 0.3)
        sur = run_cli("surrogate", *flags)
        bnd = run_cli("bound", *flags, "--delta", 0.05)
        assert sur.returncode == bnd.returncode == 0, sur.stderr + bnd.stderr
        lines = sur.stdout.splitlines()
        vals = [float(v) for v in lines[:-1]]
        got = dict(line.split() for line in bnd.stdout.splitlines())
        assert got["empirical"] == lines[-1].split()[1]
        assert float(got["empirical"]) == np.mean(vals)

    @pytest.mark.parametrize("space", ["hierarchy", "flow"])
    @pytest.mark.parametrize("command", ["surrogate", "bound"])
    def test_one_weight_solve_and_one_risk_minimization_per_block(
            self, monkeypatch, capsys, tmp_path, rng, command, space):
        # Q = 10 rows in blocks of 4: each of the 3 blocks takes one weight
        # solve, one risk minimization and one augmented one.
        import ecrm.analysis
        import ecrm.cli
        import ecrm.inference
        import ecrm.model
        if space == "hierarchy":
            G = HierarchyDag(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
            save_hierarchy(tmp_path / "h.txt", G)
            Y = np.array([[1, 1, 0, 0, 0], [1, 0, 1, 1, 0], [0, 0, 0, 0, 0], [1, 1, 1, 0, 1],
                          [1, 0, 1, 0, 0], [1, 1, 1, 1, 1], [1, 0, 0, 0, 0], [1, 1, 1, 0, 0],
                          [1, 0, 1, 0, 1], [0, 0, 0, 0, 0]])
            X = rng.normal(size=(10, 3))
            flags = ["--space", "hierarchy", "--hierarchy", str(tmp_path / "h.txt")]
            loss = ["--loss", "hamming"]
        else:
            save_network(tmp_path / "net.txt", default_flow_network())
            data = simulate_flow_data(FlowGeneratorSpec.create(seed=5, tau=1.0, p=3), 10)
            X, Y = data.X, data.Y
            flags = ["--space", "flow", "--network", str(tmp_path / "net.txt")]
            loss = ["--loss", "absolute", "--max-iters", "20", "--restarts", "1"]
        save_matrix(tmp_path / "x.txt", X)
        save_matrix(tmp_path / "y.txt", Y)
        assert ecrm.cli.main(["train", "--x", str(tmp_path / "x.txt"),
                              "--labels", str(tmp_path / "y.txt"), *flags, "--kernel", "rbf",
                              "--gamma", "0.5", "--out", str(tmp_path / "m.ecrm")]) == 0
        calls = {"weights": 0, "infer_batch": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, mods in (("weights", (ecrm.model, ecrm.inference, ecrm.analysis)),
                           ("infer_batch", (ecrm.inference, ecrm.analysis))):
            wrapper = counted(name, getattr(mods[0], name))
            for mod in mods:
                monkeypatch.setattr(mod, name, wrapper)
        monkeypatch.setattr(ecrm.inference, "BLOCK_ROWS", 4)
        extra = ["--delta", "0.1"] if command == "bound" else []
        assert ecrm.cli.main([command, "--model", str(tmp_path / "m.ecrm"),
                              "--x", str(tmp_path / "x.txt"), "--labels", str(tmp_path / "y.txt"),
                              *flags, *loss, "--rho", "0.5", *extra]) == 0
        assert calls == {"weights": 3, "infer_batch": 3 + 3}
        capsys.readouterr()


class TestSimulateAndBench:
    def test_simulate_flow_reproducible(self, tmp_path):
        args = ("simulate-flow", "--seed", 3, "--m", 20, "--tau", 1.0, "--p", 6,
                "--out-x", tmp_path / "X1.txt", "--out-y", tmp_path / "Y1.txt")
        assert run_cli(*args).returncode == 0
        x1 = (tmp_path / "X1.txt").read_bytes()
        y1 = (tmp_path / "Y1.txt").read_bytes()
        args2 = ("simulate-flow", "--seed", 3, "--m", 20, "--tau", 1.0, "--p", 6,
                 "--out-x", tmp_path / "X2.txt", "--out-y", tmp_path / "Y2.txt")
        assert run_cli(*args2).returncode == 0
        assert (tmp_path / "X2.txt").read_bytes() == x1
        assert (tmp_path / "Y2.txt").read_bytes() == y1
        spec = FlowGeneratorSpec.create(seed=3, tau=1.0, p=6)
        data = simulate_flow_data(spec, 20)
        np.testing.assert_array_equal(load_matrix(tmp_path / "X1.txt"), data.X)

    def test_bench_emits_csv(self):
        r = run_cli("bench", "--m", 40, "--dims", "5,20", "--p", 4, "--repeats", 2,
                    "--kernel", "rbf", "--gamma", 1.0, "--lambda", 0.1)
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert lines[0] == "d,train_seconds"
        assert len(lines) == 3
        for line in lines[1:]:
            d, secs = line.split(",")
            assert float(secs) > 0

    @pytest.mark.parametrize("args", [
        ("bench", "--p", 0, "--dims", 10, "--m", 20, "--gamma", 1),
        ("bench", "--repeats", 0, "--dims", 10, "--m", 20, "--gamma", 1),
        # 4e15 bytes of inputs, beyond any address space.
        ("bench", "--p", 10 ** 13, "--dims", 10, "--m", 50, "--gamma", 1),
        ("simulate-flow", "--m", 5, "--p", 0),
        ("simulate-flow", "--m", 5, "--tau", "nan"),
    ], ids=["bench-p0", "bench-repeats0", "bench-p-too-large", "simulate-p0",
            "simulate-tau-nan"])
    def test_bad_input_exits_2(self, tmp_path, args):
        if args[0] == "simulate-flow":
            args += ("--out-x", tmp_path / "X.txt", "--out-y", tmp_path / "Y.txt")
        r = run_cli(*args)
        assert r.returncode == 2
        assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    # Sizes whose labels cannot be allocated: 4e15 bytes at m = 50, beyond
    # any address space, and more entries than an array index can count.
    TOO_LARGE = ("10,10000000000000", "10000000000000000000")

    @pytest.mark.parametrize("dims", ["-5", "0", "10,,20", "abc", *TOO_LARGE])
    def test_bad_dims_exit_2_before_any_output(self, dims):
        r = run_cli("bench", "--dims", dims, "--m", 50, "--gamma", 1)
        assert (r.returncode, r.stdout) == (2, "")
        if dims in self.TOO_LARGE:
            big = dims.split(",")[-1]
            assert len(r.stderr.splitlines()) == 1
            assert r.stderr.startswith(f"error: --dims {big}: cannot hold 50 x {big} labels: ")
        else:
            assert r.stderr == ("error: --dims must be positive integers separated by "
                                f"commas, got {dims!r}\n")


class TestTuCheckAndBaseline:
    def test_tu_check_verdicts(self, tmp_path):
        f = tmp_path / "A.txt"
        f.write_text("1 0\n0 1\n")
        assert run_cli("tu-check", "--matrix", f).stdout.strip() == "true"
        f.write_text("1 1\n1 -1\n")
        assert run_cli("tu-check", "--matrix", f).stdout.strip() == "false"
        f.write_text("1 1\n1 -1\n")
        assert run_cli("tu-check", "--matrix", f, "--cap", 1).stdout.strip() == "unknown"

    def test_baselines_run_on_flow_data(self, tmp_path):
        net_path = tmp_path / "net.txt"
        save_network(net_path, default_flow_network())
        spec = FlowGeneratorSpec.create(seed=5, tau=1.0, p=4)
        data = simulate_flow_data(spec, 15)
        save_matrix(tmp_path / "xtr.txt", data.X)
        save_matrix(tmp_path / "ytr.txt", data.Y)
        save_matrix(tmp_path / "xq.txt", data.X[:3])
        for method, extra in (("knn", ("--k", 3, "--loss", "absolute")),
                              ("krr-project", ("--kernel", "rbf", "--gamma", 1.0,
                                               "--lambda", 0.1))):
            r = run_cli("baseline", "--method", method, "--train-x", tmp_path / "xtr.txt",
                        "--train-labels", tmp_path / "ytr.txt", "--x", tmp_path / "xq.txt",
                        "--space", "flow", "--network", net_path,
                        "--max-iters", 60, "--restarts", 2, *extra)
            assert r.returncode == 0, r.stderr
            assert len(r.stdout.splitlines()) == 3


class TestAssignmentPredict:
    def test_assignment_round_trip_outputs_permutations(self, tmp_path, rng):
        d = 4
        X = rng.normal(size=(8, 3))
        Y = np.array([rng.permutation(d) + 1 for _ in range(8)])
        save_matrix(tmp_path / "x.txt", X)
        save_matrix(tmp_path / "y.txt", Y)
        out = tmp_path / "m.ecrm"
        r = run_cli("train", "--x", tmp_path / "x.txt", "--labels", tmp_path / "y.txt",
                    "--space", "assignment", "--dim", d, "--kernel", "rbf",
                    "--gamma", 0.5, "--lambda", 0.1, "--out", out)
        assert r.returncode == 0, r.stderr
        r = run_cli("predict", "--model", out, "--x", tmp_path / "x.txt",
                    "--space", "assignment", "--dim", d, "--loss", "footrule")
        assert r.returncode == 0, r.stderr
        for line in r.stdout.splitlines():
            ranks = sorted(int(t) for t in line.split())
            assert ranks == list(range(1, d + 1))


class TestBatchEqualsSingle:
    """``predict`` solves its query rows in blocks; its output must be
    ``save_matrix``'s text of the library's single-query ``infer`` (or
    ``infer_additive``) rows, so the rows' dtype decides the format:
    integers for hierarchies and rankings, floats for flows."""

    def _check(self, capsys, tmp_path, X, Y, space_flags, space, loss, integral,
               solver_flags=(), params=None, variant="base"):
        import ecrm.cli
        from ecrm import infer, infer_additive, load_model

        save_matrix(tmp_path / "x.txt", X)
        save_matrix(tmp_path / "y.txt", Y)
        Xq = np.vstack([X, np.random.default_rng(3).normal(size=(6, X.shape[1]))])
        save_matrix(tmp_path / "xq.txt", Xq)
        out = tmp_path / "m.ecrm"
        assert ecrm.cli.main(["train", "--x", str(tmp_path / "x.txt"),
                              "--labels", str(tmp_path / "y.txt"), *space_flags,
                              "--kernel", "rbf", "--gamma", "0.5", "--lambda", "0.1",
                              "--variant", variant, "--out", str(out)]) == 0
        capsys.readouterr()
        assert ecrm.cli.main(["predict", "--model", str(out), "--x", str(tmp_path / "xq.txt"),
                              *space_flags, "--loss", loss.kind, *solver_flags]) == 0
        printed = capsys.readouterr().out
        model = load_model(out)
        rows = [infer_additive(model, x).y_star if variant == "additive"
                else infer(model, loss, space, x, params).y_star for x in Xq]
        save_matrix(tmp_path / "rows.txt", np.array(rows))
        assert printed == (tmp_path / "rows.txt").read_text()
        assert ("." in printed) != integral

    @pytest.mark.parametrize("kind", ["hamming", "hierarchical"])
    def test_hierarchy(self, capsys, hierarchy_fixture, kind):
        from ecrm import LossSpec, hierarchy_space
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        G = HierarchyDag(4, [(0, 1), (0, 2), (2, 3)])
        loss = LossSpec(kind, hierarchy=G if kind == "hierarchical" else None)
        self._check(capsys, tmp, X, Y, ["--space", "hierarchy", "--hierarchy", str(hpath)],
                    hierarchy_space(G), loss, integral=True)

    def test_additive(self, capsys, hierarchy_fixture):
        from ecrm import LossSpec, hierarchy_space
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        G = HierarchyDag(4, [(0, 1), (0, 2), (2, 3)])
        self._check(capsys, tmp, X, Y, ["--space", "hierarchy", "--hierarchy", str(hpath)],
                    hierarchy_space(G), LossSpec("hamming"), integral=True, variant="additive")

    def test_assignment(self, capsys, tmp_path, rng):
        from ecrm import LossSpec, assignment_space
        d = 5
        X = rng.normal(size=(8, 3))
        Y = np.array([rng.permutation(d) + 1 for _ in range(8)])
        self._check(capsys, tmp_path, X, Y, ["--space", "assignment", "--dim", str(d)],
                    assignment_space(d), LossSpec("footrule"), integral=True)

    def test_flow_absolute(self, capsys, tmp_path):
        from ecrm import LossSpec, SolverParams, flow_space
        net = default_flow_network()
        save_network(tmp_path / "net.txt", net)
        data = simulate_flow_data(FlowGeneratorSpec.create(seed=17, tau=1.0, p=4), 20)
        self._check(capsys, tmp_path, data.X, data.Y,
                    ["--space", "flow", "--network", str(tmp_path / "net.txt")],
                    flow_space(net), LossSpec("absolute"), integral=False,
                    solver_flags=["--max-iters", "40", "--restarts", "2"],
                    params=SolverParams(max_iters=40, restarts=2))


class TestDeepHierarchy:
    def test_chain_of_3000_nodes_predicts(self, tmp_path, rng):
        # Full-depth labels put the closure's augmenting paths 3000 arcs deep.
        d = 3000
        G = HierarchyDag(d, [(j, j + 1) for j in range(d - 1)])
        hpath = tmp_path / "h.txt"
        save_hierarchy(hpath, G)
        X = rng.normal(size=(4, 2))
        Y = np.zeros((4, d), dtype=np.int64)
        Y[:3] = 1
        Y[3, 0] = 1
        save_matrix(tmp_path / "x.txt", X)
        save_matrix(tmp_path / "y.txt", Y)
        out = tmp_path / "m.ecrm"
        r = run_cli("train", "--x", tmp_path / "x.txt", "--labels", tmp_path / "y.txt",
                    "--space", "hierarchy", "--hierarchy", hpath, "--kernel", "rbf",
                    "--gamma", 0.5, "--lambda", 0.01, "--out", out)
        assert r.returncode == 0, r.stderr
        r = run_cli("predict", "--model", out, "--x", tmp_path / "x.txt", "--space",
                    "hierarchy", "--hierarchy", hpath, "--loss", "hierarchical")
        assert r.returncode == 0, r.stderr
        rows = [[int(t) for t in line.split()] for line in r.stdout.splitlines()]
        assert len(rows) == 4
        for row in rows:
            assert len(row) == d and row == sorted(row, reverse=True)


@pytest.fixture
def flow_fixture(tmp_path):
    """A flow model trained from the command line on 30 simulated rows."""
    net = default_flow_network()
    net_path = tmp_path / "net.txt"
    save_network(net_path, net)
    spec = FlowGeneratorSpec.create(seed=17, tau=1.0, p=4)
    data = simulate_flow_data(spec, 30)
    save_matrix(tmp_path / "x.txt", data.X)
    save_matrix(tmp_path / "y.txt", data.Y)
    out = tmp_path / "m.ecrm"
    r = run_cli("train", "--x", tmp_path / "x.txt", "--labels", tmp_path / "y.txt",
                "--space", "flow", "--network", net_path, "--kernel", "rbf",
                "--gamma", 0.8, "--lambda", 0.05, "--out", out)
    assert r.returncode == 0, r.stderr
    return tmp_path, net, net_path, out


class TestFlowPredict:
    def test_flow_predictions_feasible_and_deterministic(self, flow_fixture):
        tmp_path, net, net_path, out = flow_fixture
        args = ("predict", "--model", out, "--x", tmp_path / "x.txt", "--space", "flow",
                "--network", net_path, "--loss", "absolute", "--max-iters", 60,
                "--restarts", 2, "--seed", 5)
        r1, r2 = run_cli(*args), run_cli(*args)
        assert r1.returncode == 0, r1.stderr
        assert r1.stdout == r2.stdout
        from ecrm.spaces import flow_residual
        for line in r1.stdout.splitlines():
            y = np.array([float(t) for t in line.split()])
            assert flow_residual(net, y) <= 1e-9

    def test_square_loss_predict_matches_library(self, flow_fixture):
        from ecrm import LossSpec, flow_space, infer
        from ecrm.io import fmt, load_model
        from ecrm.spaces import flow_residual
        tmp_path, net, net_path, out = flow_fixture
        # Training rows have exact means, stretched ones need projecting, and
        # far ones get all-zero weights.
        X = load_matrix(tmp_path / "x.txt")[:8]
        save_matrix(tmp_path / "q.txt", np.vstack([X, 3.0 * X, X + 40.0]))
        args = ("predict", "--model", out, "--x", tmp_path / "q.txt", "--space", "flow",
                "--network", net_path, "--loss", "square")
        r1, r2 = run_cli(*args), run_cli(*args)
        assert r1.returncode == 0, r1.stderr
        assert r1.stdout == r2.stdout
        expect = infer(load_model(out), LossSpec("square"), flow_space(net),
                       load_matrix(tmp_path / "q.txt"))
        assert {r.certificate.kind for r in expect} == {"exact", "gap"}
        lines = r1.stdout.splitlines()
        assert lines == [" ".join(fmt(v) for v in r.y_star) for r in expect]
        for line in lines:
            assert flow_residual(net, np.array([float(t) for t in line.split()])) <= 1e-9

    def test_square_loss_surrogate_matches_library(self, flow_fixture):
        from ecrm import LossSpec, SolverParams, flow_space, make_surrogate_config, surrogate_loss
        from ecrm.io import fmt, load_model
        tmp_path, net, net_path, out = flow_fixture
        # At rho = 2 the augmented minimizations have negative total weight,
        # which the square-loss solver answers by its vertex sweep.
        args = ("surrogate", "--model", out, "--x", tmp_path / "x.txt",
                "--labels", tmp_path / "y.txt", "--space", "flow", "--network", net_path,
                "--loss", "square", "--rho", 2.0)
        r1, r2 = run_cli(*args), run_cli(*args)
        assert r1.returncode == 0, r1.stderr
        assert r1.stdout == r2.stdout
        loss, space = LossSpec("square"), flow_space(net)
        vals = surrogate_loss(load_model(out), loss, make_surrogate_config(2.0, loss, space),
                              load_matrix(tmp_path / "x.txt"),
                              load_matrix(tmp_path / "y.txt"), SolverParams())
        assert r1.stdout == "".join(f"{fmt(v)}\n" for v in vals) + f"mean {fmt(np.mean(vals))}\n"

    def test_help_available_per_subcommand(self):
        for sub in ("train", "predict", "eval", "surrogate", "bound",
                    "simulate-flow", "bench", "tu-check", "baseline"):
            r = run_cli(sub, "--help")
            assert r.returncode == 0
            assert sub in r.stdout


class TestRealProcess:
    """``python -m ecrm`` in a fresh process."""

    def test_exit_codes_0_2_3_without_traceback(self, tmp_path):
        (tmp_path / "A.txt").write_text("1 0\n0 1\n")
        # One sample and a 5-node star at lambda 1: a singular additive system.
        save_hierarchy(tmp_path / "h.txt", HierarchyDag(5, [(0, j) for j in range(1, 5)]))
        save_matrix(tmp_path / "x.txt", np.zeros((1, 2)))
        save_matrix(tmp_path / "y.txt", np.zeros((1, 5), dtype=np.int64))
        cases = [
            (0, "true\n", ("tu-check", "--matrix", tmp_path / "A.txt")),
            (2, "", ("tu-check", "--matrix", tmp_path / "absent.txt")),
            (3, "", ("train", "--x", tmp_path / "x.txt", "--labels", tmp_path / "y.txt",
                     "--space", "hierarchy", "--hierarchy", tmp_path / "h.txt",
                     "--gamma", 1.0, "--lambda", 1.0, "--variant", "additive",
                     "--out", tmp_path / "m.ecrm")),
        ]
        for code, stdout, args in cases:
            r = run_process(*args)
            assert (r.returncode, r.stdout) == (code, stdout), r.stderr
            assert "Traceback" not in r.stderr
            if code:
                assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")
            else:
                assert r.stderr == ""

    @pytest.mark.parametrize("space", ["hierarchy", "flow"])
    def test_predict_stdout_identical_under_two_hash_seeds(self, request, space):
        if space == "hierarchy":
            tmp, hpath, xpath, ypath, X, Y = request.getfixturevalue("hierarchy_fixture")
            out = tmp / "m.ecrm"
            assert run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                           "--hierarchy", hpath, "--kernel", "rbf", "--gamma", 0.5,
                           "--lambda", 0.1, "--out", out).returncode == 0
            flags = ("--space", "hierarchy", "--hierarchy", hpath, "--loss", "hamming")
        else:
            tmp, net, net_path, out = request.getfixturevalue("flow_fixture")
            xpath = tmp / "x.txt"
            flags = ("--space", "flow", "--network", net_path, "--loss", "absolute",
                     "--max-iters", 60, "--restarts", 2, "--seed", 5)
        runs = [run_process("predict", "--model", out, "--x", xpath, *flags,
                            PYTHONHASHSEED=seed) for seed in ("0", "4242")]
        assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
        assert runs[0].stdout and runs[0].stdout == runs[1].stdout


def test_import_leaves_scipy_optimize_unloaded():
    # Only the assignment solver needs it, so the program does not pay for
    # it on every start.
    r = subprocess.run([sys.executable, "-c",
                        "import sys, ecrm; print('scipy.optimize' in sys.modules)"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"


class TestExitCodes:
    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, rng):
        # Force the factorization to break to exercise the numeric exit path.
        import ecrm.cli
        import ecrm.model
        from ecrm.errors import NumericalError

        def broken_fit(*args, **kwargs):
            raise NumericalError("factorization failed")

        monkeypatch.setattr(ecrm.cli, "fit", broken_fit)
        X = rng.normal(size=(3, 2))
        save_matrix(tmp_path / "x.txt", X)
        save_matrix(tmp_path / "y.txt", np.zeros((3, 2), dtype=np.int64))
        hpath = tmp_path / "h.txt"
        hpath.write_text("0 1\n")
        code = ecrm.cli.main(["train", "--x", str(tmp_path / "x.txt"),
                              "--labels", str(tmp_path / "y.txt"),
                              "--space", "hierarchy", "--hierarchy", str(hpath),
                              "--kernel", "linear", "--lambda", "0.1",
                              "--out", str(tmp_path / "m.ecrm")])
        assert code == 3

    def test_missing_file_is_usage_error(self, tmp_path):
        r = run_cli("tu-check", "--matrix", tmp_path / "absent.txt")
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_bad_flag_is_usage_error(self):
        r = run_cli("train", "--bogus", "x")
        assert r.returncode == 2

    def test_footrule_on_labels_that_are_not_permutations(self, hierarchy_fixture):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        out = tmp / "m.ecrm"
        r = run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                    "--hierarchy", hpath, "--kernel", "rbf", "--gamma", 0.5,
                    "--lambda", 0.1, "--out", out)
        assert r.returncode == 0, r.stderr
        r = run_cli("predict", "--model", out, "--x", xpath, "--space", "assignment",
                    "--dim", 4, "--loss", "footrule")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: {out}: model label 1 is not a permutation of 1..4\n"

    # case -> (space, the 0-based row it breaks, the broken row made from the
    # good one).  The last row is broken too, so the error must name the first.
    BAD_LABELS = {
        "child_on_parent_off": ("hierarchy", 1, lambda y: [1, 0, 0, 1]),
        "entry_not_0_or_1": ("hierarchy", 2, lambda y: [1, 2, 0, 0]),
        "repeated_rank": ("assignment", 1, lambda y: [1, 2, 2, 4]),
        "non_integer_rank": ("assignment", 3, lambda y: [1, 2.5, 3, 4]),
        "flow_off_conservation_by_1e-6": ("flow", 2, lambda y: y + 1e-6 * np.eye(y.size)[0]),
    }

    @staticmethod
    def _labelled_space(kind, tmp, rng):
        """Space flags, a loss for it, an input file of six rows and six labels
        in the space."""
        X = rng.normal(size=(6, 3))
        if kind == "hierarchy":
            save_hierarchy(tmp / "h.txt", HierarchyDag(4, [(0, 1), (0, 2), (2, 3)]))
            flags, loss = ("--space", "hierarchy", "--hierarchy", tmp / "h.txt"), "hamming"
            Y = np.array([[1, 1, 0, 0], [1, 0, 1, 1], [0, 0, 0, 0],
                          [1, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 1]])
        elif kind == "assignment":
            flags, loss = ("--space", "assignment", "--dim", 4), "footrule"
            Y = np.array([rng.permutation(4) + 1 for _ in range(6)])
        else:
            save_network(tmp / "net.txt", default_flow_network())
            flags, loss = ("--space", "flow", "--network", tmp / "net.txt"), "absolute"
            data = simulate_flow_data(FlowGeneratorSpec.create(seed=3, tau=1.0, p=3), 6)
            X, Y = data.X, data.Y
        save_matrix(tmp / "x.txt", X)
        return flags, loss, tmp / "x.txt", Y

    @staticmethod
    def _main(capsys, *argv):
        """Exit code, stdout and stderr of one in-process run."""
        import ecrm.cli
        code = ecrm.cli.main(list(map(str, argv)))
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("case", list(BAD_LABELS))
    def test_labels_outside_the_space_name_their_line(self, capsys, tmp_path, rng, case):
        kind, i, broken = self.BAD_LABELS[case]
        flags, loss, xpath, Y = self._labelled_space(kind, tmp_path, rng)
        good, bad, model = tmp_path / "y.txt", tmp_path / "bad.txt", tmp_path / "m.ecrm"
        save_matrix(good, Y)
        rows = [list(y) for y in Y]
        rows[i], rows[-1] = broken(Y[i]), broken(Y[-1])
        save_matrix(bad, np.array(rows))
        train = ("train", "--x", xpath, *flags, "--kernel", "linear", "--lambda", 0.1)
        assert self._main(capsys, *train, "--labels", good, "--out", model) == (0, "", "")
        analysis = ("--model", model, "--x", xpath, "--labels", bad, "--loss", loss, *flags)
        commands = {
            "train": (*train, "--labels", bad, "--out", tmp_path / "bad.ecrm"),
            "eval": ("eval", *analysis),
            "surrogate": ("surrogate", *analysis, "--rho", 1.0),
            "bound": ("bound", *analysis, "--rho", 1.0, "--delta", 0.1),
            "baseline knn": ("baseline", "--method", "knn", "--train-x", xpath,
                             "--train-labels", bad, "--x", xpath, "--loss", loss, *flags),
        }
        if kind == "hierarchy":
            commands["train additive"] = (*commands["train"], "--variant", "additive")
        for name, argv in commands.items():
            code, out, err = self._main(capsys, *argv)
            assert (code, out) == (2, ""), name
            assert len(err.splitlines()) == 1, name
            assert err.startswith(f"error: {bad}:{i + 1}: label "), (name, err)

    @pytest.mark.parametrize("command", ["train", "train additive", "eval", "surrogate",
                                         "bound", "baseline knn"])
    def test_row_counts_of_paired_files_must_agree(self, capsys, hierarchy_fixture, command):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        model, xs, ys = tmp / "m.ecrm", tmp / "x3.txt", tmp / "y2.txt"
        save_matrix(xs, X[:3])
        save_matrix(ys, Y[:2])
        flags = ("--space", "hierarchy", "--hierarchy", hpath)
        train = ("train", *flags, "--kernel", "linear", "--lambda", 0.1)
        assert self._main(capsys, *train, "--x", xpath, "--labels", ypath,
                          "--out", model) == (0, "", "")
        analysis = ("--model", model, "--x", xs, "--labels", ys, "--loss", "hamming", *flags)
        argv = {
            "train": (*train, "--x", xs, "--labels", ys, "--out", tmp / "short.ecrm"),
            "train additive": (*train, "--x", xs, "--labels", ys, "--variant", "additive",
                               "--out", tmp / "short.ecrm"),
            "eval": ("eval", *analysis),
            "surrogate": ("surrogate", *analysis, "--rho", 1.0),
            "bound": ("bound", *analysis, "--rho", 1.0, "--delta", 0.1),
            "baseline knn": ("baseline", "--method", "knn", "--train-x", xs,
                             "--train-labels", ys, "--x", xpath, "--loss", "hamming", *flags),
        }[command]
        assert self._main(capsys, *argv) == (2, "", f"error: {xs} has 3 rows but {ys} has 2\n")

    @pytest.mark.parametrize("command", ["predict", "predict additive", "eval", "surrogate",
                                         "bound", "baseline knn"])
    def test_query_width_must_match_the_training_inputs(self, capsys, hierarchy_fixture,
                                                        command):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        model, wide = tmp / "m.ecrm", tmp / "wide.txt"
        save_matrix(wide, np.zeros((2, X.shape[1] + 2)))
        flags = ("--space", "hierarchy", "--hierarchy", hpath)
        train = ("train", *flags, "--kernel", "linear", "--lambda", 0.1, "--x", xpath,
                 "--labels", ypath, "--out", model)
        if command == "predict additive":
            train += ("--variant", "additive")
        assert self._main(capsys, *train) == (0, "", "")
        analysis = ("--model", model, "--x", wide, "--labels", ypath, "--loss", "hamming",
                    *flags)
        argv = {
            "predict": ("predict", "--model", model, "--x", wide, *flags),
            "predict additive": ("predict", "--model", model, "--x", wide, *flags),
            "eval": ("eval", *analysis),
            "surrogate": ("surrogate", *analysis, "--rho", 1.0),
            "bound": ("bound", *analysis, "--rho", 1.0, "--delta", 0.1),
            "baseline knn": ("baseline", "--method", "knn", "--train-x", xpath,
                             "--train-labels", ypath, "--x", wide, "--loss", "hamming", *flags),
        }[command]
        assert self._main(capsys, *argv) == (
            2, "", f"error: {wide}:1: expected {X.shape[1]} values, found {X.shape[1] + 2}\n")

    @pytest.mark.parametrize("command", ["train", "train additive", "bench"])
    def test_gram_too_large_to_allocate_exits_2(self, capsys, monkeypatch, hierarchy_fixture,
                                                command):
        # gram_matrix raises MemoryError as it would for an m x m array beyond
        # memory; no test allocates one for real.
        import ecrm.additive
        import ecrm.model

        def no_room(spec, X, mirror=True):
            raise MemoryError(f"Unable to allocate an array of {len(X)} x {len(X)}")

        monkeypatch.setattr(ecrm.model, "gram_matrix", no_room)
        monkeypatch.setattr(ecrm.additive, "gram_matrix", no_room)
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        train = ("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                 "--hierarchy", hpath, "--gamma", 1.0, "--out", tmp / "m.ecrm")
        argv, m = {
            "train": (train, len(X)),
            "train additive": ((*train, "--variant", "additive"), len(X)),
            "bench": (("bench", "--m", 30, "--dims", 4, "--p", 2, "--gamma", 1,
                       "--repeats", 1), 30),
        }[command]
        code, out, err = self._main(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: {m} training rows need a {m} x {m} Gram matrix of "
                       f"{8 * m * m / 2 ** 30:.3g} GiB, which cannot be allocated\n")
        assert not (tmp / "m.ecrm").exists()

    def test_singular_additive_system_exits_3(self, capsys, tmp_path):
        # One sample and a 5-node star at lambda 1: see
        # test_additive.py::TestFitAdditive::test_singular_system_raises.
        save_hierarchy(tmp_path / "h.txt", HierarchyDag(5, [(0, j) for j in range(1, 5)]))
        save_matrix(tmp_path / "x.txt", np.zeros((1, 2)))
        save_matrix(tmp_path / "y.txt", np.zeros((1, 5), dtype=np.int64))
        assert self._main(capsys, "train", "--x", tmp_path / "x.txt", "--labels",
                          tmp_path / "y.txt", "--space", "hierarchy", "--hierarchy",
                          tmp_path / "h.txt", "--gamma", 1.0, "--lambda", 1.0, "--variant",
                          "additive", "--out", tmp_path / "m.ecrm") == (
            3, "", "error: additive system is singular; increase lambda\n")

    @pytest.mark.parametrize("command", ["predict", "eval", "surrogate", "bound"])
    def test_model_labels_outside_the_requested_hierarchy(self, capsys, hierarchy_fixture,
                                                          command):
        # The fixture's second label, 1 0 1 1, has the right width for a 4-node
        # chain but node 2 on with its chain parent 1 off.
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        model, chain = tmp / "m.ecrm", tmp / "chain.txt"
        save_hierarchy(chain, HierarchyDag(4, [(0, 1), (1, 2), (2, 3)]))
        assert self._main(capsys, "train", "--x", xpath, "--labels", ypath, "--space",
                          "hierarchy", "--hierarchy", hpath, "--kernel", "linear",
                          "--lambda", 0.1, "--out", model) == (0, "", "")
        extra = {"predict": (), "eval": ("--labels", ypath),
                 "surrogate": ("--labels", ypath, "--rho", 1.0),
                 "bound": ("--labels", ypath, "--rho", 1.0, "--delta", 0.1)}[command]
        assert self._main(capsys, command, "--model", model, "--x", xpath, "--space",
                          "hierarchy", "--hierarchy", chain, "--loss", "hierarchical",
                          *extra) == (2, "", f"error: {model}: model label 2 has node 2 "
                                             "active but parent 1 inactive\n")

    @staticmethod
    def _swap(i, old, new):
        """An edit of a file's lines that replaces ``old`` by ``new`` on line i + 1."""
        def edit(lines):
            assert old in lines[i]
            return [*lines[:i], lines[i].replace(old, new), *lines[i + 1:]]
        return edit

    # case -> (variant of the trained file, edit of its lines, the line the
    # error names, or the start of its message for a fault of the whole
    # file).  The fixture's base file has 15 lines: inputs at 4-9, labels at
    # 10-15.  Its additive file has its parameter line at 4, neighbors at 5,
    # "hierarchy 3" at 6 and the arcs "0 1", "0 2", "2 3" at 7-9.
    MALFORMED = {
        "additive_header_only": ("additive", lambda lines: lines[:2], ""),
        "additive_cut_after_arcs": ("additive", lambda lines: lines[:9], ""),
        "additive_with_m_0": ("additive", _swap(3, " m 6 ", " m 0 "), "4"),
        "base_cut_to_2_lines": ("base", lambda lines: lines[:2], "truncated model file"),
        "base_cut_before_labels": ("base", lambda lines: lines[:9],
                                   "expected 15 lines, found 9"),
        "base_kernel_cubic": ("base", _swap(1, "kernel linear", "kernel cubic"), "2"),
        "base_with_m_0": ("base", _swap(2, " m 6 ", " m 0 "), "3"),
        "base_m_not_an_integer": ("base", _swap(2, " m 6 ", " m six "), "3"),
        "base_bad_intercept": ("base", _swap(2, "intercept none", "intercept sideways"), "3"),
        "base_lambda_0": ("base", _swap(2, "lambda 0.1 ", "lambda 0 "), ""),
        "base_p_too_large_to_allocate": ("base", _swap(2, " p 3 ", " p 99999999999 "), "4"),
        "additive_arc_count_not_an_integer": ("additive", _swap(5, "hierarchy 3",
                                                                "hierarchy two"), "6"),
        "additive_arc_not_an_integer": ("additive", _swap(6, "0 1", "0 x"), "7"),
        "additive_bad_neighbors": ("additive", _swap(4, "adjacent", "many"), "5"),
        "additive_cyclic_arcs": ("additive", _swap(8, "2 3", "2 0"), ""),
        "additive_arc_out_of_range": ("additive", _swap(8, "2 3", "2 9"), ""),
        # A d the coefficient rows do not hold fails on the first of them
        # (line 17), before any graph of d nodes is built.
        "additive_d_too_large": ("additive", _swap(3, " d 4", " d 1000000000000"), "17"),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_model_file(self, hierarchy_fixture, case):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        variant, edit, line = self.MALFORMED[case]
        good, bad = tmp / "good.ecrm", tmp / "bad.ecrm"
        r = run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                    "--hierarchy", hpath, "--kernel", "linear", "--lambda", 0.1,
                    "--variant", variant, "--out", good)
        assert r.returncode == 0, r.stderr
        bad.write_text("".join(edit(good.read_text().splitlines(keepends=True))))
        r = run_cli("predict", "--model", bad, "--x", xpath, "--space", "hierarchy",
                    "--hierarchy", hpath)
        assert r.returncode == 2
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith(f"error: {bad}:{line}:" if line.isdigit()
                                   else f"error: {bad}: {line}")

    def test_negative_arc_count_names_hierarchy_line(self, hierarchy_fixture):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        good, bad = tmp / "good.ecrm", tmp / "bad.ecrm"
        r = run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                    "--hierarchy", hpath, "--kernel", "linear", "--lambda", 0.1,
                    "--variant", "additive", "--out", good)
        assert r.returncode == 0, r.stderr
        lines = good.read_text().splitlines(keepends=True)
        assert lines[5] == "hierarchy 3\n"
        bad.write_text("".join([*lines[:5], "hierarchy -3\n", *lines[6:]]))
        r = run_cli("predict", "--model", bad, "--x", xpath, "--space", "hierarchy",
                    "--hierarchy", hpath)
        assert r.returncode == 2
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith(f"error: {bad}:6: bad hierarchy line")

    @pytest.mark.parametrize("where, bad", [
        ("train-features", "nan"), ("train-labels", "nan"), ("train-labels", "inf"),
        ("predict-features", "-inf"), ("model-label", "nan"), ("model-lambda", "inf"),
        ("network-b", "nan")])
    def test_non_finite_input_names_its_line(self, tmp_path, where, bad):
        net_path = tmp_path / "net.txt"
        save_network(net_path, default_flow_network())
        data = simulate_flow_data(FlowGeneratorSpec.create(seed=3, tau=1.0, p=3), 8)
        xpath, ypath, model = tmp_path / "x.txt", tmp_path / "y.txt", tmp_path / "m.ecrm"
        save_matrix(xpath, data.X)
        save_matrix(ypath, data.Y)
        train = ("train", "--x", xpath, "--labels", ypath, "--space", "flow",
                 "--network", net_path, "--gamma", 0.5, "--out", model)
        predict = ("predict", "--model", model, "--x", xpath, "--space", "flow",
                   "--network", net_path, "--loss", "absolute", "--max-iters", 20)
        if not where.startswith("train"):
            assert run_cli(*train).returncode == 0
        # (file, 1-based line, token index on that line)
        target = {"train-features": (xpath, 4, 1), "train-labels": (ypath, 5, 2),
                  "predict-features": (xpath, 2, 0), "model-label": (model, 3 + 8 + 6, 2),
                  "model-lambda": (model, 3, 1), "network-b": (net_path, 2 + 10 + 5, 1)}
        path, line, tok = target[where]
        lines = path.read_text().splitlines(keepends=True)
        toks = lines[line - 1].split()
        toks[tok] = bad
        lines[line - 1] = " ".join(toks) + "\n"
        path.write_text("".join(lines))
        r = run_cli(*(train if where.startswith("train") else predict))
        assert r.returncode == 2
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith(f"error: {path}:{line}: ")

    @pytest.mark.parametrize("flag", ["--gamma", "--lambda"])
    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_kernel_flag_is_named(self, hierarchy_fixture, flag, bad):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        values = {"--gamma": 0.5, "--lambda": 0.1, flag: bad}
        out = tmp / "m.ecrm"
        r = run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                    "--hierarchy", hpath, "--kernel", "rbf", *sum(values.items(), ()),
                    "--out", out)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: {flag} must be finite and positive, got {bad}\n"
        assert not out.exists()

    def test_malformed_labels_rejected(self, hierarchy_fixture):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        bad = tmp / "bad.txt"
        bad.write_text("1 2 3 nope\n")
        r = run_cli("train", "--x", xpath, "--labels", bad, "--space", "hierarchy",
                    "--hierarchy", hpath, "--kernel", "linear", "--lambda", 0.1,
                    "--out", tmp / "m.ecrm")
        assert r.returncode == 2
        assert str(bad) in r.stderr

    def test_ranking_model_with_smaller_dim(self, tmp_path, rng):
        X = rng.normal(size=(6, 3))
        save_matrix(tmp_path / "x.txt", X)
        save_matrix(tmp_path / "y.txt", np.array([rng.permutation(5) + 1 for _ in range(6)]))
        out = tmp_path / "m.ecrm"
        r = run_cli("train", "--x", tmp_path / "x.txt", "--labels", tmp_path / "y.txt",
                    "--space", "assignment", "--dim", 5, "--kernel", "linear",
                    "--lambda", 0.1, "--out", out)
        assert r.returncode == 0, r.stderr
        r = run_cli("predict", "--model", out, "--x", tmp_path / "x.txt",
                    "--space", "assignment", "--dim", 3, "--loss", "footrule")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == (f"error: {out}: model labels have 5 entries but the "
                            "assignment space has dimension 3\n")

    @pytest.mark.parametrize("command", ["train", "baseline", "predict", "eval"])
    def test_huge_hierarchy_node_id_names_its_line(self, hierarchy_fixture, command):
        # A node id sizes the hierarchy, so one beyond the labels' width
        # (the labels file's for train and baseline, the model's otherwise)
        # is an error on its line, before any graph of that size is built.
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        out, huge = tmp / "m.ecrm", tmp / "huge.txt"
        huge.write_text("0 1\n0 1000000000000\n")
        train = ("train", "--x", xpath, "--labels", ypath, "--kernel", "linear",
                 "--lambda", 0.1, "--out", out)
        if command in ("predict", "eval"):
            assert run_cli(*train, "--space", "hierarchy", "--hierarchy", hpath).returncode == 0
        argv = {"train": train,
                "baseline": ("baseline", "--method", "knn", "--train-x", xpath,
                             "--train-labels", ypath, "--x", xpath, "--loss", "hamming"),
                "predict": ("predict", "--model", out, "--x", xpath),
                "eval": ("eval", "--model", out, "--x", xpath, "--labels", ypath,
                         "--loss", "hamming")}[command]
        r = run_cli(*argv, "--space", "hierarchy", "--hierarchy", huge)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == (f"error: {huge}:2: node id 1000000000000 does not fit labels "
                            "of 4 entries\n")

    @pytest.mark.parametrize("command", ["predict", "eval", "surrogate", "bound"])
    def test_hierarchy_model_with_smaller_hierarchy(self, hierarchy_fixture, command):
        tmp, hpath, xpath, ypath, X, Y = hierarchy_fixture
        out = tmp / "m.ecrm"
        r = run_cli("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                    "--hierarchy", hpath, "--kernel", "linear", "--lambda", 0.1,
                    "--out", out)
        assert r.returncode == 0, r.stderr
        small = tmp / "small.txt"
        save_hierarchy(small, HierarchyDag(3, [(0, 1), (0, 2)]))
        extra = {"predict": (), "eval": ("--labels", ypath),
                 "surrogate": ("--labels", ypath, "--rho", 1.0),
                 "bound": ("--labels", ypath, "--rho", 1.0, "--delta", 0.1)}[command]
        r = run_cli(command, "--model", out, "--x", xpath, "--space", "hierarchy",
                    "--hierarchy", small, "--loss", "hamming", *extra)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == (f"error: {out}: model labels have 4 entries but the "
                            "hierarchy space has dimension 3\n")


class TestFactorCache:
    """``train`` writes the model's Cholesky factor beside it and ``predict``
    reads it; a cache that does not fit the model costs one refit and
    changes no output."""

    @staticmethod
    def _main(capsys, monkeypatch, *argv):
        """Exit code, stdout, stderr and ``fit`` calls of one in-process run."""
        import ecrm
        import ecrm.cli
        import ecrm.io
        import ecrm.model

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return ecrm.model.fit(*args, **kwargs)

        with monkeypatch.context() as mp:
            for mod in (ecrm, ecrm.cli, ecrm.io):
                mp.setattr(mod, "fit", counted)
            code = ecrm.cli.main(list(map(str, argv)))
        out, err = capsys.readouterr()
        return code, out, err, len(calls)

    @staticmethod
    def _train(main, fixture, out, *extra, gamma=0.5):
        tmp, hpath, xpath, ypath, X, Y = fixture
        return main("train", "--x", xpath, "--labels", ypath, "--space", "hierarchy",
                    "--hierarchy", hpath, "--kernel", "rbf", "--gamma", gamma,
                    "--lambda", 0.1, "--out", out, *extra)

    @pytest.mark.parametrize("case", ["present", "deleted", "other_model", "truncated",
                                      "garbage_header", "nan_diagonal", "nan_inputs",
                                      "v1_cache"])
    def test_predict_output_is_the_same_with_any_cache(self, capsys, monkeypatch,
                                                        hierarchy_fixture, case):
        tmp, hpath, xpath = hierarchy_fixture[:3]
        main = functools.partial(self._main, capsys, monkeypatch)
        out, cache = tmp / "m.ecrm", tmp / "m.ecrm.factor"
        predict = ("predict", "--model", out, "--x", xpath, "--space", "hierarchy",
                   "--hierarchy", hpath)
        assert self._train(main, hierarchy_fixture, out) == (0, "", "", 1)
        code, expected, err, fits = main(*predict)
        assert (code, err, fits) == (0, "", 0)
        body = cache.read_bytes()
        header_end = body.index(b"\n") + 1
        # The header reads ECRM-FACTOR 2 <m> <p> <f8 <sha256>; the m*p inputs
        # come before the factor's columns.
        m, p = map(int, body[:header_end].split()[2:4])
        inputs_end = header_end + 8 * m * p
        nan = np.array([np.nan]).tobytes()
        if case == "deleted":
            cache.unlink()
        elif case == "other_model":
            # Same inputs and m, another gamma: a valid cache of another file.
            assert self._train(main, hierarchy_fixture, tmp / "o.ecrm", gamma=0.9)[0] == 0
            cache.write_bytes((tmp / "o.ecrm.factor").read_bytes())
        elif case == "truncated":
            cache.write_bytes(body[:-8])
        elif case == "garbage_header":
            cache.write_bytes(b"garbage\n" + body[header_end:])
        elif case == "nan_diagonal":
            cache.write_bytes(body[:inputs_end] + nan + body[inputs_end + 8:])
        elif case == "nan_inputs":
            cache.write_bytes(body[:header_end] + nan + body[header_end + 8:])
        elif case == "v1_cache":
            # The layout before the cache held the inputs: no p, no inputs.
            digest = body[:header_end].split()[-1]
            cache.write_bytes(b"ECRM-FACTOR 1 %d <f8 %s\n" % (m, digest) + body[inputs_end:])
        code, got, err, fits = main(*predict)
        assert (code, err) == (0, "")
        assert got == expected
        assert fits == (0 if case == "present" else 1)

    def test_unwritable_cache_exits_2(self, capsys, monkeypatch, hierarchy_fixture):
        tmp = hierarchy_fixture[0]
        (tmp / "m.ecrm.factor").mkdir()
        main = functools.partial(self._main, capsys, monkeypatch)
        code, out, err, _ = self._train(main, hierarchy_fixture, tmp / "m.ecrm")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {tmp / 'm.ecrm.factor'}: cannot write factor cache")

    def test_additive_train_writes_no_cache(self, capsys, monkeypatch, hierarchy_fixture):
        tmp = hierarchy_fixture[0]
        main = functools.partial(self._main, capsys, monkeypatch)
        code = self._train(main, hierarchy_fixture, tmp / "m.ecrm", "--variant", "additive")[0]
        assert code == 0
        assert not (tmp / "m.ecrm.factor").exists()


class TestQueryBlocks:
    """Commands that take a query file run it in blocks of
    ``inference.BLOCK_ROWS`` rows.  With a small block the output must be
    what one call on the whole file prints (flow values and hierarchy
    surrogates to 1e-12), memory must not grow with the number of blocks,
    and an allocation failure in a block exits 2.  No test allocates a
    large array."""

    @staticmethod
    def _dataset(kind, tmp, rng, m=20, q=13, p=3):
        """Space and loss flags, then a training set of m rows and a labelled
        query set of q rows, as files."""
        if kind == "flow":
            save_network(tmp / "net.txt", default_flow_network())
            flags = ["--space", "flow", "--network", tmp / "net.txt"]
            loss = ["--loss", "absolute", "--max-iters", 20, "--restarts", 1]
            train = simulate_flow_data(FlowGeneratorSpec.create(seed=5, tau=1.0, p=p), m)
            query = simulate_flow_data(FlowGeneratorSpec.create(seed=6, tau=1.0, p=p), q)
            sets = [(train.X, train.Y), (query.X, query.Y)]
        else:
            if kind == "assignment":
                flags, loss = ["--space", "assignment", "--dim", 5], ["--loss", "footrule"]

                def label():
                    return rng.permutation(5) + 1
            else:
                G = random_tree(rng, 7)
                save_hierarchy(tmp / "h.txt", G)
                flags = ["--space", "hierarchy", "--hierarchy", tmp / "h.txt"]
                loss = ["--loss", kind]

                def label():
                    return random_feasible_label(rng, G)
            sets = [(rng.normal(size=(n, p)), np.array([label() for _ in range(n)]))
                    for n in (m, q)]
        paths = []
        for name, (X, Y) in zip(("train", "query"), sets):
            save_matrix(tmp / f"{name}_x.txt", X)
            save_matrix(tmp / f"{name}_y.txt", Y)
            paths += [tmp / f"{name}_x.txt", tmp / f"{name}_y.txt"]
        model = tmp / "m.ecrm"
        assert run_cli("train", "--x", paths[0], "--labels", paths[1], *flags, "--gamma", 0.5,
                       "--lambda", 0.1, "--out", model).returncode == 0
        return flags, loss, model, *paths

    @staticmethod
    def _argv(command, flags, loss, model, train_x, train_y, query_x, query_y):
        analysis = ("--model", model, "--x", query_x, "--labels", query_y, *loss, *flags)
        return {
            "predict": ("predict", "--model", model, "--x", query_x, *loss, *flags),
            "eval": ("eval", *analysis),
            "surrogate": ("surrogate", *analysis, "--rho", 0.5),
            "bound": ("bound", *analysis, "--rho", 0.5, "--delta", 0.1),
            "baseline knn": ("baseline", "--method", "knn", "--train-x", train_x,
                             "--train-labels", train_y, "--x", query_x, "--k", 3, *loss,
                             *flags),
            "baseline krr-project": ("baseline", "--method", "krr-project", "--train-x",
                                     train_x, "--train-labels", train_y, "--x", query_x,
                                     "--gamma", 0.5, *flags),
        }[command]

    @pytest.mark.parametrize("kind", ["hamming", "hierarchical", "assignment", "flow"])
    @pytest.mark.parametrize("command", ["predict", "eval", "surrogate", "bound"])
    def test_blocks_print_what_one_batch_prints(self, monkeypatch, tmp_path, rng, kind,
                                                command):
        # The reference runs the whole file as one library call; the block
        # size also sets the surrogate's augmented blocks, which both runs
        # share.  Labels print the same bytes.  Flows, and the surrogate
        # values of hierarchies, may move in the last bits.
        import ecrm.inference

        def one_batch(run, X, x_path, m, *aligned):
            yield run(X, *aligned)

        argv = self._argv(command, *self._dataset(kind, tmp_path, rng))
        for rows in (4, 1):
            monkeypatch.setattr(ecrm.inference, "BLOCK_ROWS", rows)
            with monkeypatch.context() as mp:
                mp.setattr(ecrm.cli, "_blocks", one_batch)
                whole = run_cli(*argv)
            split = run_cli(*argv)
            assert (whole.returncode, whole.stderr, split.returncode, split.stderr) == (
                0, "", 0, "")
            if kind != "flow" and not (kind in ("hamming", "hierarchical")
                                       and command in ("surrogate", "bound")):
                assert split.stdout == whole.stdout
                continue
            a, b = ([float(t) for t in r.stdout.split() if not t[0].isalpha()]
                    for r in (split, whole))
            assert len(a) == len(b)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("command", ["predict", "eval", "surrogate", "bound",
                                         "baseline knn"])
    def test_empty_query_file_exits_2(self, monkeypatch, tmp_path, rng, command):
        import ecrm.inference
        monkeypatch.setattr(ecrm.inference, "BLOCK_ROWS", 4)
        flags, loss, model, train_x, train_y, query_x, query_y = self._dataset(
            "hamming", tmp_path, rng)
        query_x.write_text("")
        r = run_cli(*self._argv(command, flags, loss, model, train_x, train_y, query_x,
                                query_y))
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {query_x}:1: file is "
                                                               f"empty\n")

    @pytest.mark.parametrize("command", ["predict", "eval", "surrogate", "bound",
                                         "baseline knn", "baseline krr-project"])
    def test_block_that_cannot_be_allocated_exits_2(self, monkeypatch, tmp_path, rng,
                                                    command):
        # The second block's first allocation raises MemoryError, as numpy
        # does for an array beyond memory.
        import ecrm.baselines
        import ecrm.inference
        import ecrm.model
        kind = "flow" if command == "baseline krr-project" else "hamming"
        files = self._dataset(kind, tmp_path, rng, m=20, q=10)
        argv = self._argv(command, *files)
        monkeypatch.setattr(ecrm.inference, "BLOCK_ROWS", 4)
        first_block = "".join(run_cli(*argv).stdout.splitlines(keepends=True)[:4])
        calls = []

        def no_room_the_second_time(real):
            def call(*args, **kwargs):
                calls.append(1)
                if len(calls) == 2:
                    raise MemoryError("Unable to allocate 305. MiB for an array with shape "
                                      "(2000, 20000) and data type float64")
                return real(*args, **kwargs)
            return call

        if command == "baseline knn":
            monkeypatch.setattr(ecrm.baselines, "infer_batch",
                                no_room_the_second_time(ecrm.baselines.infer_batch))
        else:
            monkeypatch.setattr(ecrm.model, "cross_gram",
                                no_room_the_second_time(ecrm.model.cross_gram))
        r = run_cli(*argv)
        query_x = files[5]
        assert (r.returncode, r.stderr) == (
            2, f"error: {query_x}: rows 5-8: a block of 4 query rows against 20 training "
               f"rows cannot be allocated\n")
        assert r.stdout == (first_block if command in ("predict", "baseline knn",
                                                       "baseline krr-project") else "")

    def test_krr_project_baseline_fits_once(self, monkeypatch, tmp_path, rng):
        import ecrm.inference
        argv = self._argv("baseline krr-project", *self._dataset("flow", tmp_path, rng, q=10))
        monkeypatch.setattr(ecrm.inference, "BLOCK_ROWS", 4)
        fits, real_fit = [], ecrm.cli.fit

        def counted_fit(*args, **kwargs):
            fits.append(1)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(ecrm.cli, "fit", counted_fit)
        r = run_cli(*argv)
        assert (r.returncode, len(r.stdout.splitlines()), len(fits)) == (0, 10, 1)

    @pytest.mark.parametrize("kind", ["hamming", "flow"])
    def test_peak_memory_does_not_grow_with_the_block_count(self, monkeypatch, tmp_path,
                                                            kind):
        # m = 200 training rows, blocks of 32: 8 blocks must peak within
        # 1.25 times one block, where one batch of all 256 rows holds 8
        # times the block's (Q, m) weights (and an L1 flow's (a, Q, m + 1)
        # prefix sums).
        import tracemalloc

        import ecrm.inference
        flags, loss, model, *_ = self._dataset(kind, tmp_path, np.random.default_rng(9),
                                               m=200, q=1)
        monkeypatch.setattr(ecrm.inference, "BLOCK_ROWS", 32)
        rng = np.random.default_rng(10)
        peaks = []
        for q in (32, 32, 256):   # the first run only warms up
            save_matrix(tmp_path / "xq.txt", rng.normal(size=(q, 3)))
            argv = ["predict", "--model", model, "--x", tmp_path / "xq.txt", *loss, *flags]
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                tracemalloc.start()
                try:
                    assert ecrm.cli.main(list(map(str, argv))) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[2] <= 1.25 * peaks[1], peaks
