"""Joint-kernel additive risk model: fitting, scoring, exact inference."""

import numpy as np
import pytest

from ecrm import (AdditiveModel, HierarchyDag, JointKernelSpec, KernelSpec,
                  additive_risk, eval_kernel, fit_additive, infer_additive)
from ecrm.additive import neighborhood_matrix, node_scores
from ecrm.errors import NumericalError
from ecrm.kernels import cross_gram
from conftest import random_dag, random_feasible_label, random_tree
from _oracles import enumerate_feasible, gaussian_solve, lex_argmin


def _joint(gamma=1.0, neighbors="adjacent"):
    return JointKernelSpec(base=KernelSpec("rbf", gamma=gamma), neighbors=neighbors)


def _oracle_fit(X, Y, G, joint, lam):
    """Entrywise construction of the joint-kernel system, solved by Gaussian
    elimination.  Index order is (sample, node, value)."""
    m, d = X.shape[0], G.d
    N = neighborhood_matrix(G, joint.neighbors)
    n = 2 * m * d

    def kfun(i, k, v, i2, k2, v2):
        base = eval_kernel(joint.base, X[i], X[i2])
        return base * (1.0 if v == v2 else 0.0) * N[k, k2]

    Gram = np.empty((n, n))
    t = np.empty(n)
    idx = lambda i, k, v: (i * d + k) * 2 + v
    for i in range(m):
        for k in range(d):
            for v in range(2):
                t[idx(i, k, v)] = float(v != Y[i, k])
                for i2 in range(m):
                    for k2 in range(d):
                        for v2 in range(2):
                            Gram[idx(i, k, v), idx(i2, k2, v2)] = kfun(i, k, v, i2, k2, v2)
    return gaussian_solve(Gram + lam * np.eye(n), t).reshape(m, d, 2)


class TestFitAdditive:
    def test_single_sample_single_node_closed_form(self, rng):
        G = HierarchyDag(1, [])
        X = rng.normal(size=(1, 3))
        Y = np.array([[1]])
        lam = 0.7
        model = fit_additive(X, Y, G, _joint(), lam)
        k11 = eval_kernel(model.joint.base, X[0], X[0])
        # Targets are loss(0, y1)=1 and loss(1, y1)=0; one-dimensional ridge.
        assert model.alpha[0, 0, 0] == pytest.approx(1.0 / (k11 + lam), abs=1e-12)
        assert model.alpha[0, 0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_entrywise_oracle(self, rng):
        # A chain, a diamond (node 3 has two parents) and a single node.
        for G in (HierarchyDag(3, [(0, 1), (1, 2)]),
                  HierarchyDag(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
                  HierarchyDag(1, [])):
            m = 3
            X = rng.normal(size=(m, 2))
            Y = np.array([random_feasible_label(rng, G) for _ in range(m)])
            lam = 1.5
            for neighbors in ("adjacent", "self"):
                model = fit_additive(X, Y, G, _joint(neighbors=neighbors), lam)
                ref = _oracle_fit(X, Y, G, _joint(neighbors=neighbors), lam)
                np.testing.assert_allclose(model.alpha, ref, atol=1e-7)

    def test_large_system_residual(self, rng):
        # 2 * 40 * 60 = 4800 unknowns.  The residual of
        # (Kx (x) N (x) I_2 + lam I) alpha = t is formed by its own
        # matrix-free product, one label value at a time.
        G = random_dag(rng, 60, extra=10)
        m, lam = 40, 0.01
        X = rng.normal(size=(m, 5))
        Y = np.array([random_feasible_label(rng, G) for _ in range(m)])
        for neighbors in ("adjacent", "self"):
            joint = _joint(gamma=0.2, neighbors=neighbors)
            alpha = fit_additive(X, Y, G, joint, lam).alpha
            Kx = np.array([[eval_kernel(joint.base, a, b) for b in X] for a in X])
            N = neighborhood_matrix(G, neighbors)
            for v in (0, 1):
                t = (Y != v).astype(float)
                r = Kx @ alpha[:, :, v] @ N + lam * alpha[:, :, v] - t
                assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(t)

    def test_singular_system_raises(self):
        # One sample with k(x, x) = 1 and a 5-node star: N has eigenvalue
        # 1 - 2 = -1, so N (x) I_2 + I is exactly singular at lambda = 1.
        G = HierarchyDag(5, [(0, j) for j in range(1, 5)])
        with pytest.raises(NumericalError, match="singular; increase lambda"):
            fit_additive(np.zeros((1, 2)), np.zeros((1, 5), dtype=int), G, _joint(), 1.0)

    def test_objective_not_worse_than_zero(self, rng):
        # The fitted coefficients must not lose to the trivial zero solution.
        for trial in range(5):
            G = random_tree(rng, int(rng.integers(2, 6)))
            m = int(rng.integers(2, 5))
            X = rng.normal(size=(m, 3))
            Y = np.array([random_feasible_label(rng, G) for _ in range(m)])
            lam = 2.0
            joint = _joint()
            model = fit_additive(X, Y, G, joint, lam)

            def objective(alpha):
                from ecrm.kernels import gram_matrix
                Kx = gram_matrix(joint.base, X)
                N = neighborhood_matrix(G, joint.neighbors)
                Gram = np.kron(Kx, np.kron(N, np.eye(2)))
                t = np.empty((m, G.d, 2))
                t[:, :, 0] = (Y != 0)
                t[:, :, 1] = (Y != 1)
                t = t.reshape(-1)
                a = alpha.reshape(-1)
                fvals = Gram @ a
                return float(np.sum((fvals - t) ** 2) + lam * a @ Gram @ a)

            assert objective(model.alpha) <= objective(np.zeros_like(model.alpha)) + 1e-9

    def test_invalid_inputs(self, rng):
        G = HierarchyDag(2, [(0, 1)])
        X = rng.normal(size=(2, 2))
        with pytest.raises(ValueError):
            fit_additive(X, np.array([[0, 1], [0, 0]]), G, _joint(), 0.5)  # infeasible
        for lam in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                fit_additive(X, np.zeros((2, 2), dtype=int), G, _joint(), lam)
        with pytest.raises(ValueError):
            fit_additive(X[:, :0], np.zeros((2, 2), dtype=int), G, _joint(), 0.5)
        X[1, 0] = np.nan
        with pytest.raises(ValueError):
            fit_additive(X, np.zeros((2, 2), dtype=int), G, _joint(), 0.5)


class TestAdditiveRisk:
    def test_zero_vector_uses_only_off_scores(self, rng):
        G = random_tree(rng, 4)
        m = 3
        X = rng.normal(size=(m, 2))
        Y = np.array([random_feasible_label(rng, G) for _ in range(m)])
        model = fit_additive(X, Y, G, _joint(), 1.0)
        x = rng.normal(size=2)
        off, on = node_scores(model, x)
        assert additive_risk(model, x, np.zeros(4, dtype=int)) == pytest.approx(
            float(off.sum()), abs=1e-12)

    def test_affine_in_each_coordinate(self, rng):
        # Flipping one coordinate changes the risk by exactly its linear
        # coefficient.
        G = HierarchyDag(3, [(0, 1), (0, 2)])
        m = 4
        X = rng.normal(size=(m, 2))
        Y = np.array([random_feasible_label(rng, G) for _ in range(m)])
        model = fit_additive(X, Y, G, _joint(), 0.8)
        x = rng.normal(size=2)
        off, on = node_scores(model, x)
        base = additive_risk(model, x, [1, 0, 0])
        for j in (1, 2):
            y = np.array([1, 0, 0])
            y[j] = 1
            assert additive_risk(model, x, y) - base == pytest.approx(
                float(on[j] - off[j]), abs=1e-12)

    def test_manual_expansion_small_case(self, rng):
        G = HierarchyDag(2, [(0, 1)])
        m = 2
        X = rng.normal(size=(m, 2))
        Y = np.array([[1, 1], [1, 0]])
        model = fit_additive(X, Y, G, _joint(), 1.2)
        x = rng.normal(size=2)
        v = np.array([eval_kernel(model.joint.base, x, X[i]) for i in range(m)])
        N = neighborhood_matrix(G, "adjacent")
        y = np.array([1, 0])
        manual = 0.0
        for j in range(2):
            for i in range(m):
                for k in range(2):
                    if N[j, k]:
                        manual += (model.alpha[i, k, 1] * y[j]
                                   + model.alpha[i, k, 0] * (1 - y[j])) * v[i]
        assert additive_risk(model, x, y) == pytest.approx(manual, abs=1e-10)

    def test_infeasible_label_rejected(self, rng):
        G = HierarchyDag(2, [(0, 1)])
        X = rng.normal(size=(2, 2))
        Y = np.array([[1, 1], [0, 0]])
        model = fit_additive(X, Y, G, _joint(), 1.0)
        with pytest.raises(ValueError):
            additive_risk(model, rng.normal(size=2), [0, 1])


class TestInferAdditive:
    def test_positive_coefficients_give_zero_vector(self, rng):
        G = random_tree(rng, 5)
        alpha = np.zeros((2, 5, 2))
        alpha[:, :, 1] = 1.0  # on-scores strictly above off-scores
        model = AdditiveModel(alpha=alpha, joint=_joint(), lam=1.0, hierarchy=G,
                              inputs=rng.normal(size=(2, 3)))
        res = infer_additive(model, rng.normal(size=3))
        np.testing.assert_array_equal(res.y_star, np.zeros(5))

    def test_single_node_threshold_rule(self, rng):
        G = HierarchyDag(1, [])
        X = rng.normal(size=(4, 2))
        Y = rng.integers(0, 2, size=(4, 1))
        model = fit_additive(X, Y, G, _joint(), 0.5)
        x = rng.normal(size=2)
        off, on = node_scores(model, x)
        res = infer_additive(model, x)
        assert res.y_star[0] == (1 if on[0] - off[0] < 0 else 0)

    def test_matches_brute_force(self, rng):
        for _ in range(15):
            d = int(rng.integers(2, 13))
            G = random_tree(rng, d)
            m = int(rng.integers(2, 6))
            X = rng.normal(size=(m, 3))
            Y = np.array([random_feasible_label(rng, G) for _ in range(m)])
            model = fit_additive(X, Y, G, _joint(), 1.0)
            x = rng.normal(size=3)
            res = infer_additive(model, x)
            feas = enumerate_feasible(G)
            vals = np.array([additive_risk(model, x, f) for f in feas])
            best = lex_argmin(feas, vals)
            np.testing.assert_array_equal(res.y_star, feas[best])
            assert res.objective == pytest.approx(float(vals[best]), abs=1e-10)

    def test_objective_matches_additive_risk(self, rng):
        G = random_tree(rng, 6)
        m = 4
        X = rng.normal(size=(m, 2))
        Y = np.array([random_feasible_label(rng, G) for _ in range(m)])
        model = fit_additive(X, Y, G, _joint(), 0.9)
        x = rng.normal(size=2)
        res = infer_additive(model, x)
        assert res.objective == pytest.approx(additive_risk(model, x, res.y_star), abs=1e-8)

    def test_batch_equals_single_rows(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 10))
            G = random_tree(rng, d)
            m = int(rng.integers(2, 6))
            X = rng.normal(size=(m, 3))
            Y = np.array([random_feasible_label(rng, G) for _ in range(m)])
            model = fit_additive(X, Y, G, _joint(), 1.0)
            Xq = rng.normal(size=(6, 3))
            off, on = node_scores(model, Xq)
            assert off.shape == on.shape == (6, d)
            batch = infer_additive(model, Xq)
            assert len(batch) == 6
            for q, res in enumerate(batch):
                single = infer_additive(model, Xq[q])
                np.testing.assert_array_equal(res.y_star, single.y_star)
                assert res.objective == pytest.approx(single.objective, abs=1e-12)


class TestNodeScoreProducts:
    def test_match_numpy_reference(self, rng):
        G = random_tree(rng, 7)
        m = 5
        X = rng.normal(size=(m, 3))
        Y = np.array([random_feasible_label(rng, G) for _ in range(m)])
        model = fit_additive(X, Y, G, _joint(), 0.8)
        N = neighborhood_matrix(G, "adjacent")
        big = rng.normal(size=(8, 3))
        # One query, a batch, a strided row slice and a transposed view.
        for x in (rng.normal(size=3), big, big[::2], np.ascontiguousarray(big.T).T):
            V = cross_gram(model.joint.base, np.atleast_2d(x), X)
            ref = [(V @ model.alpha[:, :, v]) @ N for v in (0, 1)]
            for got, want in zip(node_scores(model, x), ref):
                want = want if x.ndim == 2 else want[0]
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())


class TestDecoupledNeighborhood:
    def test_self_rule_decouples_nodes(self, rng):
        # With the self-only neighborhood, node j's coefficients depend only
        # on node j's label column.
        G = random_tree(rng, 4)
        m = 3
        X = rng.normal(size=(m, 2))
        Y = np.array([random_feasible_label(rng, G) for _ in range(m)])
        model = fit_additive(X, Y, G, _joint(neighbors="self"), 0.6)
        leaf = next(j for j in range(4) if not G.children(j))
        Y2 = Y.copy()
        Y2[:, leaf] = 0  # clearing a leaf column keeps hierarchy feasibility
        model2 = fit_additive(X, Y2, G, _joint(neighbors="self"), 0.6)
        for j in range(4):
            if j == leaf:
                continue
            np.testing.assert_allclose(model.alpha[:, j, :], model2.alpha[:, j, :],
                                       atol=1e-10)
