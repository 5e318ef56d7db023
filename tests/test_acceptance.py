"""Acceptance suite: twelve numbered criteria, one test each.

Every test enforces its stated tolerance and wall-clock budget and prints a
single ``criterion NN [...]: PASS/FAIL`` line (visible with ``pytest -s``).
Criteria 9 and 10 record the conservation residual of every prediction they
produce; criterion 11 asserts over those plus a fresh solver battery.
"""

import functools
import subprocess
import sys
import time

import numpy as np
from scipy.linalg import cho_solve

from ecrm import (BoundInputs, FlowGeneratorSpec, KernelSpec, LossSpec,
                  SolverParams, SurrogateConfig, estimate_conditional_risk, explicit_space,
                  fit, flow_space, generalization_bound, hierarchy_space, infer,
                  infer_from_weights, loss_bound, loss_value, realized_loss,
                  sample_conditional, simulate_flow_data, surrogate_loss,
                  weights)
from ecrm.assignment import solve_assignment
from ecrm.baselines import knn_local_risk_predict, krr_project_predict_batch
from ecrm.additive import JointKernelSpec, additive_risk, fit_additive, infer_additive, node_scores
from ecrm.flow_opt import enumerate_st_paths, solve_flow_abs_batch
from ecrm.kernels import cross_gram, eval_kernel, gram_matrix
from ecrm.losses import footrule_cost_matrix, hierarchical_loss, hierarchical_loss_closed, sibling_weights
from ecrm.model import risk_from_weights
from ecrm.spaces import flow_residual
from conftest import random_feasible_label, random_tree
from _oracles import (all_permutations, enumerate_feasible, footrule_risks,
                      gaussian_solve, hamming_risks, hierarchical_risks_direct)

RESIDUALS: list[float] = []
_RESIDUALS_FED = {"done": False}


def criterion(number, name, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            from conftest import ACCEPTANCE_LINES
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = (f"criterion {number:02d} [{name}]: FAIL "
                        f"({time.perf_counter() - t0:.2f}s)")
                print("\n" + line)
                ACCEPTANCE_LINES.append(line)
                raise
            elapsed = time.perf_counter() - t0
            line = (f"criterion {number:02d} [{name}]: PASS "
                    f"({elapsed:.2f}s, budget {budget_s}s)")
            print("\n" + line)
            ACCEPTANCE_LINES.append(line)
            assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"
        return wrapper
    return deco


@criterion(1, "per-label ridge identity", 1.0)
def test_criterion_01_ridge_identity():
    rng = np.random.default_rng(101)
    for trial in range(50):
        m = int(rng.integers(1, 11))
        p = int(rng.integers(1, 6))
        d = 4
        spec = KernelSpec("linear") if trial % 2 else KernelSpec("rbf", gamma=float(rng.uniform(0.3, 2.0)))
        lam = float(rng.uniform(0.05, 1.0))
        labels = rng.integers(0, 2, size=(m, d))
        X = rng.normal(size=(m, p))
        model = fit(spec, lam, X, labels)
        x = rng.normal(size=p)
        y = rng.integers(0, 2, size=d)
        got = estimate_conditional_risk(model, LossSpec("hamming"), y, x)
        L_y = np.array([float(np.sum(y != labels[i])) for i in range(m)])
        K = np.array([[eval_kernel(spec, X[i], X[j]) for j in range(m)] for i in range(m)])
        v = np.array([eval_kernel(spec, x, X[i]) for i in range(m)])
        alpha = gaussian_solve(K + m * lam * np.eye(m), L_y)
        assert abs(got - float(alpha @ v)) <= 1e-8


@criterion(2, "binary sign-rule equivalence", 1.0)
def test_criterion_02_sign_rule():
    rng = np.random.default_rng(202)
    m = 25
    labels = rng.choice([-1.0, 1.0], size=m)
    X = rng.normal(size=(m, 4))
    spec = KernelSpec("rbf", gamma=0.8)
    lam = 0.2
    model = fit(spec, lam, X, labels)
    space = explicit_space([[-1.0], [1.0]])
    loss = LossSpec("zero_one")
    queries = rng.normal(size=(1000, 4))
    # Independent weight computation: LAPACK general solve on the full system.
    K = gram_matrix(spec, X)
    V = cross_gram(spec, queries, X)
    W = np.linalg.solve(K + m * lam * np.eye(m), V.T).T
    matches = 0
    for i in range(1000):
        pred = infer(model, loss, space, queries[i]).y_star[0]
        ref = 1.0 if float(W[i] @ labels) >= 0.0 else -1.0
        matches += pred == ref
    assert matches == 1000


@criterion(3, "hierarchy inference exactness", 30.0)
def test_criterion_03_hierarchy_exactness():
    rng = np.random.default_rng(303)
    for trial in range(200):
        d = int(rng.integers(2, 16))
        G = random_tree(rng, d)
        m = int(rng.integers(1, 8))
        labels = np.array([random_feasible_label(rng, G) for _ in range(m)])
        w = rng.normal(size=m)
        space = hierarchy_space(G)
        feas = enumerate_feasible(G)
        c = sibling_weights(G)
        for loss, oracle in (
                (LossSpec("hamming"), lambda F: hamming_risks(F, labels, w)),
                (LossSpec("hierarchical", hierarchy=G),
                 lambda F: hierarchical_risks_direct(F, labels, w, G, c))):
            res = infer_from_weights(w, labels, loss, space)
            vals = oracle(feas)
            idx = int(np.flatnonzero((feas == res.y_star).all(axis=1))[0])
            assert vals[idx] == vals.min()  # same-evaluator exact equality
            assert abs(res.objective - risk_from_weights(w, labels, loss, res.y_star)) <= 1e-8


def _closed_pairs(F, G, c):
    """All-pairs closed-form values; row index is the first argument."""
    s = G.roots[0]
    ys = F[:, s].astype(float)
    out = c[s] * (ys[:, None] + ys[None, :] - 2.0 * np.outer(ys, ys))
    for p, k in G.arcs:
        yp, yk = F[:, p].astype(float), F[:, k].astype(float)
        out += c[k] * (np.outer(yp, yk) + np.outer(yk, yp - yp * yk - yk))
    return out


def _direct_pairs(F, G, c):
    """All-pairs direct-definition values, chunked over rows."""
    N = F.shape[0]
    out = np.zeros((N, N))
    for lo in range(0, N, 256):
        hi = min(lo + 256, N)
        eq = F[lo:hi, None, :] == F[None, :, :]
        for j in range(G.d):
            ok = np.ones((hi - lo, N), dtype=bool)
            for a in G.ancestors(j):
                ok &= eq[:, :, a]
            out[lo:hi] += c[j] * (~eq[:, :, j] & ok)
    return out


@criterion(4, "hierarchical closed form equals definition", 30.0)
def test_criterion_04_closed_form():
    rng = np.random.default_rng(404)
    for trial in range(50):
        d = int(rng.integers(2, 13))
        G = random_tree(rng, d)
        F = enumerate_feasible(G)
        for c, exact in ((np.ones(d), True), (sibling_weights(G), False)):
            direct = _direct_pairs(F, G, c)
            closed = _closed_pairs(F, G, c)
            if exact:
                # Integer penalties: every intermediate is a small integer,
                # so float arithmetic is exact and agreement is bitwise.
                assert np.array_equal(direct, closed)
            else:
                np.testing.assert_allclose(direct, closed, rtol=0, atol=1e-12)
            # Bind the vectorized evaluators to the library scalar functions.
            n_pairs = F.shape[0] ** 2
            if n_pairs <= 2000:
                pairs = [(i, j) for i in range(F.shape[0]) for j in range(F.shape[0])]
            else:
                pairs = list(zip(rng.integers(F.shape[0], size=200),
                                 rng.integers(F.shape[0], size=200)))
            for i, j in pairs:
                assert hierarchical_loss(G, c, F[i], F[j]) == direct[i, j]
                assert hierarchical_loss_closed(G, c, F[i], F[j]) == closed[i, j]


@criterion(5, "assignment inference exactness", 10.0)
def test_criterion_05_assignment_exactness():
    rng = np.random.default_rng(505)
    for trial in range(100):
        d = int(rng.integers(2, 8))
        m = int(rng.integers(1, 7))
        train = np.array([rng.permutation(d) + 1 for _ in range(m)])
        w = rng.normal(size=m)
        C = footrule_cost_matrix(train, w)
        sigma = solve_assignment(C)
        perms = all_permutations(d)
        vals = footrule_risks(perms, train, w)
        idx = int(np.flatnonzero((perms == sigma).all(axis=1))[0])
        assert vals[idx] == vals.min()


@criterion(6, "surrogate-loss property suite", 30.0)
def test_criterion_06_surrogate_suite():
    rng = np.random.default_rng(606)
    rho_grid = np.logspace(-3, 3, 13)
    tight_tested = 0
    for trial in range(100):
        n_members = int(rng.integers(3, 7))
        d = int(rng.integers(1, 4))
        members = []
        while len(members) < n_members:
            cand = tuple(np.round(rng.normal(size=d), 3))
            if cand not in members:
                members.append(cand)
        space = explicit_space(members)
        m = int(rng.integers(2, 7))
        labels = np.stack([np.asarray(members[i])
                           for i in rng.integers(n_members, size=m)])
        X = rng.normal(size=(m, 3))
        model = fit(KernelSpec("rbf", gamma=0.9), float(rng.uniform(0.1, 0.6)), X, labels)
        loss = LossSpec("absolute")
        L = loss_bound(loss, space)
        x = rng.normal(size=3)
        y = np.asarray(members[int(rng.integers(n_members))])
        realized = realized_loss(model, loss, space, x, y)
        vals = [surrogate_loss(model, loss, SurrogateConfig(r, L, space), x, y)
                for r in rho_grid]
        assert all(v >= realized - 1e-10 for v in vals)            # surrogacy
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))  # rho-monotone
        assert all(v <= L + 1e-12 for v in vals)                    # capped
        w = weights(model, x)
        risks = sorted(risk_from_weights(w, labels, loss, mm) for mm in members)
        gap2 = risks[1] - risks[0]
        spread = max(loss_value(loss, mm, y) for mm in members) + 1e-12
        if gap2 > rho_grid[0] * spread:
            assert vals[0] == realized                              # tightness
            tight_tested += 1
    # The exact-tie exclusion must leave the tightness assertion non-vacuous.
    assert tight_tested >= 80


@criterion(7, "generalization bound calculator", 1.0)
def test_criterion_07_bound():
    b = BoundInputs(empirical_risk=0.5, L=2.0, kappa=1.0, lam=1.0, rho=0.1,
                    delta=0.05, m=100)
    assert (b.kappa / b.lam + (b.kappa / b.lam) ** 1.5) == 2.0
    import math
    nu = 1.0 / 0.5 + (1.0 / 0.5) ** 1.5
    manual = 0.3 + 4 * 2.5 * nu / (0.2 * 400) \
        + 2.5 * (8 * nu / 0.2 + 1) * math.sqrt(math.log(1 / 0.02) / (2 * 400))
    got = generalization_bound(BoundInputs(empirical_risk=0.3, L=2.5, kappa=1.0,
                                           lam=0.5, rho=0.2, delta=0.02, m=400))
    assert abs(got - manual) <= 1e-12
    base = dict(empirical_risk=0.4, L=2.0, kappa=1.0, lam=0.5, rho=0.2, delta=0.05)
    vals_m = [generalization_bound(BoundInputs(m=m, **base)) for m in (10, 50, 200, 1000)]
    assert all(a > b2 for a, b2 in zip(vals_m, vals_m[1:]))
    basem = dict(empirical_risk=0.4, L=2.0, kappa=1.0, lam=0.5, rho=0.2, m=200)
    vals_d = [generalization_bound(BoundInputs(delta=dd, **basem))
              for dd in (0.01, 0.1, 0.5, 0.9)]
    assert all(a > b2 for a, b2 in zip(vals_d, vals_d[1:]))
    assert vals_m[0] >= 0.4 and vals_d[0] >= 0.4


@criterion(8, "training time free of label dimension", 60.0)
def test_criterion_08_training_time():
    r = subprocess.run([sys.executable, "-m", "ecrm", "bench", "--m", "500",
                        "--dims", "10,100,1000", "--p", "10", "--repeats", "5",
                        "--kernel", "rbf", "--gamma", "1.0", "--lambda", "0.1"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "d,train_seconds"
    times = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert set(times) == {10, 100, 1000}
    spread = (max(times.values()) - min(times.values())) / min(times.values())
    assert spread < 0.25, f"training time varied by {spread:.1%} across label sizes"


@criterion(9, "conditional-risk gap shrinks with sample size", 300.0)
def test_criterion_09_bayes_convergence():
    spec = FlowGeneratorSpec.create(seed=909, tau=1.0, p=20)
    net = spec.network
    space = flow_space(net)
    x0 = np.full(20, 0.75)
    Ymc = sample_conditional(spec, x0, 4000, stream=123)
    bayes = infer_from_weights(np.full(4000, 1.0 / 4000), Ymc, LossSpec("absolute"),
                               space, SolverParams(max_iters=300, restarts=2))
    RESIDUALS.append(flow_residual(net, bayes.y_star))
    kernel = KernelSpec("rbf", gamma=0.5)
    params = SolverParams(max_iters=250, restarts=2)
    gaps = {m: [] for m in (100, 300, 1000)}
    for s in range(10):
        for m in (100, 300, 1000):
            data = simulate_flow_data(spec, m, stream=s + 1)
            model = fit(kernel, 0.01, data.X, data.Y)
            w = weights(model, x0)
            res = infer_from_weights(w, data.Y, LossSpec("absolute"), flow_space(net), params)
            RESIDUALS.append(flow_residual(net, res.y_star))
            risk = float(np.abs(res.y_star[None, :] - Ymc).sum(axis=1).mean())
            gaps[m].append(risk - bayes.objective)
    means = {m: float(np.mean(v)) for m, v in gaps.items()}
    assert means[100] > means[300] > means[1000], f"not monotone: {means}"
    assert means[1000] < 0.5 * means[100], f"insufficient shrink: {means}"


@criterion(10, "risk-minimizing predictions beat ridge projection", 300.0)
def test_criterion_10_ordering():
    kernel = KernelSpec("rbf", gamma=0.5)
    lam = 0.01
    params = SolverParams(max_iters=100, restarts=1)
    ecrm_means, krr_means = [], []
    for t in range(20):
        spec = FlowGeneratorSpec.create(seed=1000 + t, tau=1.0, p=20)
        train = simulate_flow_data(spec, 500, stream=1)
        test = simulate_flow_data(spec, 500, stream=2)
        model = fit(kernel, lam, train.X, train.Y)
        V = cross_gram(kernel, test.X, model.inputs)
        W = cho_solve(model.factor, V.T).T
        Y, _, _ = solve_flow_abs_batch(W, model.labels, spec.network, params)
        for i in range(0, 500, 25):
            RESIDUALS.append(flow_residual(spec.network, Y[i]))
        ecrm_means.append(float(np.abs(Y - test.Y).sum(axis=1).mean()))
        preds = krr_project_predict_batch(model, train.space, test.X)
        for i in range(0, 500, 25):
            RESIDUALS.append(flow_residual(spec.network, preds[i]))
        krr_means.append(float(np.abs(preds - test.Y).sum(axis=1).mean()))
    _RESIDUALS_FED["done"] = True
    assert float(np.mean(ecrm_means)) <= float(np.mean(krr_means)), \
        f"ecrm {np.mean(ecrm_means):.4f} vs krr-project {np.mean(krr_means):.4f}"


@criterion(11, "continuous predictions conserve flow", 60.0)
def test_criterion_11_flow_feasibility():
    assert _RESIDUALS_FED["done"], "criteria 9/10 must feed the residual log first"
    assert RESIDUALS and max(RESIDUALS) <= 1e-9
    # Fresh battery over every continuous solver branch.
    rng = np.random.default_rng(1111)
    spec = FlowGeneratorSpec.create(seed=77, tau=1.0, p=5)
    net = spec.network
    data = simulate_flow_data(spec, 40)
    P = enumerate_st_paths(net)
    checks = []
    for trial in range(10):
        m = int(rng.integers(1, 8))
        labels = np.array([rng.dirichlet(np.ones(P.shape[0])) @ P for _ in range(m)])
        for w in (rng.uniform(0.1, 1.0, size=m), rng.normal(size=m),
                  -rng.uniform(0.1, 1.0, size=m), np.zeros(m)):
            checks.append(infer_from_weights(w, labels, LossSpec("square"),
                                             flow_space(net)).y_star)
            checks.append(infer_from_weights(w, labels, LossSpec("absolute"), flow_space(net),
                                             SolverParams(max_iters=60, restarts=2)).y_star)
    Xq = rng.uniform(size=(5, 5))
    checks.extend(knn_local_risk_predict(data, LossSpec("absolute"), Xq, k=5,
                                         params=SolverParams(max_iters=60, restarts=2)))
    checks.extend(krr_project_predict_batch(
        fit(KernelSpec("rbf", gamma=0.8), 0.05, data.X, data.Y), data.space, Xq))
    assert max(flow_residual(net, y) for y in checks) <= 1e-9


@criterion(12, "additive model: exact inference and affinity", 60.0)
def test_criterion_12_additive():
    rng = np.random.default_rng(1212)
    joint = JointKernelSpec(base=KernelSpec("rbf", gamma=1.0), neighbors="adjacent")
    for trial in range(100):
        d = int(rng.integers(2, 13))
        G = random_tree(rng, d)
        m = int(rng.integers(2, 6))
        X = rng.normal(size=(m, 3))
        Y = np.array([random_feasible_label(rng, G) for _ in range(m)])
        model = fit_additive(X, Y, G, joint, 1.0)
        x = rng.normal(size=3)
        res = infer_additive(model, x)
        feas = enumerate_feasible(G)
        off, on = node_scores(model, x)
        # Affinity: the risk function is exactly the affine form generated by
        # the node scores (bitwise identity on every feasible label).
        for i in range(feas.shape[0]):
            y = feas[i].astype(np.int64)
            assert additive_risk(model, x, y) == float(np.sum(off + y * (on - off)))
        vals = np.array([float(np.sum(off + feas[i] * (on - off)))
                         for i in range(feas.shape[0])])
        best_val = float(vals.min())
        got_val = float(np.sum(off + res.y_star * (on - off)))
        assert got_val == best_val
