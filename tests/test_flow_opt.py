"""Flow-polytope machinery: path LMO, Frank-Wolfe, and the L1/L2 solvers."""

import numpy as np
import pytest

from ecrm import (FlowNetwork, SolverParams, default_flow_network,
                  enumerate_path_vertices, enumerate_st_paths, fw_min_quadratic,
                  lmo_flow, solve_flow_abs, solve_flow_abs_batch, solve_flow_sq)
from ecrm.spaces import flow_residual
from _oracles import abs_flow_objective, simplex_grid

NET = default_flow_network()


class TestPaths:
    def test_benchmark_network_has_nine_paths(self):
        P = enumerate_st_paths(NET)
        assert P.shape == (9, NET.n_arcs)

    def test_each_path_conserves(self):
        for v in enumerate_path_vertices(NET):
            assert flow_residual(NET, v) <= 1e-15

    def test_deep_chain_network_has_one_path(self):
        n = 3000
        net = FlowNetwork(n, [(j, j + 1) for j in range(n - 1)],
                          [1.0] + [0.0] * (n - 2) + [-1.0])
        np.testing.assert_array_equal(enumerate_st_paths(net), np.ones((1, n - 1)))

    def test_cyclic_network_rejected(self):
        net = FlowNetwork(3, [(0, 1), (1, 2), (2, 1)], [1.0, 0.0, -1.0])
        with pytest.raises(ValueError):
            enumerate_st_paths(net)
        with pytest.raises(ValueError):
            lmo_flow(np.zeros(3), net)


class TestLmoFlow:
    def test_uniform_costs_give_valid_path(self):
        y = lmo_flow(np.ones(NET.n_arcs), NET)
        P = enumerate_st_paths(NET)
        assert any(np.array_equal(y, P[i]) for i in range(P.shape[0]))
        hops = P.sum(axis=1)
        assert y.sum() == hops.min()

    def test_deterministic(self):
        a = lmo_flow(np.ones(NET.n_arcs), NET)
        b = lmo_flow(np.ones(NET.n_arcs), NET)
        np.testing.assert_array_equal(a, b)

    def test_negative_cost_path_chosen(self):
        costs = np.ones(NET.n_arcs)
        # Make the path 0->2->4->5 strongly negative.
        for a, arc in enumerate(NET.arcs):
            if arc in ((0, 2), (2, 4), (4, 5)):
                costs[a] = -5.0
        y = lmo_flow(costs, NET)
        expect = np.zeros(NET.n_arcs)
        for a, arc in enumerate(NET.arcs):
            if arc in ((0, 2), (2, 4), (4, 5)):
                expect[a] = 1.0
        np.testing.assert_array_equal(y, expect)

    def test_matches_path_enumeration(self, rng):
        P = enumerate_st_paths(NET)
        for _ in range(50):
            costs = rng.normal(size=NET.n_arcs)
            y = lmo_flow(costs, NET)
            assert float(costs @ y) == pytest.approx(float((P @ costs).min()), abs=1e-12)


class TestFrankWolfe:
    def test_projection_of_feasible_point_is_identity(self, rng):
        P = enumerate_st_paths(NET)
        theta = rng.dirichlet(np.ones(P.shape[0]))
        z = theta @ P
        y, _, gap, _ = fw_min_quadratic(z, NET, gap_tol=1e-12)
        assert gap <= 1e-12
        np.testing.assert_allclose(y, z, atol=1e-6)

    def test_gap_running_minimum_reaches_tolerance(self, rng):
        z = rng.normal(size=NET.n_arcs)
        y, _, gap, history = fw_min_quadratic(z, NET, gap_tol=1e-10)
        assert gap <= 1e-10
        running = np.minimum.accumulate(history)
        assert np.all(np.diff(running) <= 0)
        assert running[-1] <= 1e-10

    def test_projection_is_feasible(self, rng):
        for _ in range(10):
            z = rng.normal(size=NET.n_arcs) * 3
            y, _, _, _ = fw_min_quadratic(z, NET, gap_tol=1e-9)
            assert flow_residual(NET, y) <= 1e-9


class TestSolveFlowSq:
    def test_single_label_is_returned(self, rng):
        P = enumerate_st_paths(NET)
        label = 0.5 * P[0] + 0.5 * P[3]
        res = solve_flow_sq(np.array([1.0]), label[None, :], NET)
        np.testing.assert_allclose(res.y_star, label, atol=1e-12)
        assert res.certificate.kind == "exact"

    def test_convex_combination_weights_return_mean(self, rng):
        P = enumerate_st_paths(NET)
        labels = P[[0, 2, 5]]
        w = np.array([0.2, 0.5, 0.3])
        res = solve_flow_sq(w, labels, NET)
        np.testing.assert_allclose(res.y_star, w @ labels, atol=1e-14)
        assert res.certificate.kind == "exact"

    def test_mixed_signs_beat_vertices_within_gap(self, rng):
        P = enumerate_st_paths(NET)
        params = SolverParams(gap_tol=1e-9)
        for _ in range(10):
            m = 4
            labels = np.array([rng.dirichlet(np.ones(P.shape[0])) @ P for _ in range(m)])
            w = rng.normal(size=m) + 0.6  # mixed signs, positive total (usually)
            if w.sum() <= 0 or np.all(w >= 0):
                continue
            res = solve_flow_sq(w, labels, NET, params)
            vertex_vals = [float(w @ np.einsum("ma,ma->m", P[k] - labels, P[k] - labels))
                           for k in range(P.shape[0])]
            assert res.objective <= min(vertex_vals) + 1e-9
            assert res.certificate.kind in ("exact", "gap")
            if res.certificate.kind == "gap":
                assert res.certificate.gap <= 1e-9

    def test_nonpositive_total_weight_is_heuristic_vertex(self, rng):
        P = enumerate_st_paths(NET)
        labels = P[[1, 4]]
        w = np.array([-1.0, -0.5])
        res = solve_flow_sq(w, labels, NET)
        assert res.certificate.kind == "heuristic"
        assert flow_residual(NET, res.y_star) <= 1e-9
        # Concave objective: optimum is at some vertex; check best vertex found.
        vertex_vals = [float(w @ np.einsum("ma,ma->m", P[k] - labels, P[k] - labels))
                       for k in range(P.shape[0])]
        assert res.objective <= min(vertex_vals) + 1e-12

    def test_all_zero_weights_lexicographic_vertex(self):
        P = enumerate_st_paths(NET)
        res = solve_flow_sq(np.zeros(2), P[[0, 1]], NET)
        assert res.objective == 0.0
        lex = min((tuple(P[i]) for i in range(P.shape[0])))
        assert tuple(res.y_star) == lex

    def test_infeasible_labels_rejected(self):
        bad = np.full((1, NET.n_arcs), 0.3)
        with pytest.raises(ValueError):
            solve_flow_sq(np.array([1.0]), bad, NET)


class TestSolveFlowAbs:
    def test_single_label_recovered_exactly(self):
        P = enumerate_st_paths(NET)
        label = P[2]
        res = solve_flow_abs(np.array([1.0]), label[None, :], NET,
                             SolverParams(max_iters=100, restarts=2))
        assert res.objective == 0.0
        np.testing.assert_array_equal(res.y_star, label)
        assert res.certificate.kind == "gap"

    def test_identical_labels_nonneg_weights(self, rng):
        P = enumerate_st_paths(NET)
        label = 0.25 * P[0] + 0.75 * P[6]
        labels = np.tile(label, (3, 1))
        res = solve_flow_abs(rng.uniform(0.1, 1.0, size=3), labels, NET,
                             SolverParams(max_iters=100, restarts=2))
        assert res.objective <= 1e-12

    def test_nonneg_weights_close_to_simplex_grid_oracle(self, rng):
        P = enumerate_st_paths(NET)
        params = SolverParams(max_iters=400, restarts=3)
        for trial in range(3):
            labels = np.array([rng.dirichlet(np.ones(P.shape[0])) @ P for _ in range(3)])
            w = rng.uniform(0.2, 1.0, size=3)
            res = solve_flow_abs(w, labels, NET, params)
            grid = simplex_grid(P.shape[0], 8) @ P
            oracle = float(abs_flow_objective(grid, labels, w).min())
            assert res.objective <= oracle + 1e-4
            assert res.certificate.kind == "gap"

    def test_mixed_signs_heuristic_and_feasible(self, rng):
        labels = np.array([rng.dirichlet(np.ones(9)) @ enumerate_st_paths(NET)
                           for _ in range(4)])
        w = np.array([1.0, -0.7, 0.4, -0.2])
        res = solve_flow_abs(w, labels, NET, SolverParams(max_iters=150, restarts=3))
        assert res.certificate.kind == "heuristic"
        assert flow_residual(NET, res.y_star) <= 1e-9

    def test_batch_equals_single(self, rng):
        P = enumerate_st_paths(NET)
        labels = np.array([rng.dirichlet(np.ones(P.shape[0])) @ P for _ in range(5)])
        W = rng.normal(size=(4, 5))
        params = SolverParams(max_iters=60, restarts=2, seed=3)
        Y, obj, certs = solve_flow_abs_batch(W, labels, NET, params)
        for q in range(W.shape[0]):
            single = solve_flow_abs(W[q], labels, NET, params)
            np.testing.assert_array_equal(Y[q], single.y_star)
            assert obj[q] == single.objective
            assert certs[q].kind == single.certificate.kind

    def test_zero_weights_row(self):
        P = enumerate_st_paths(NET)
        res = solve_flow_abs(np.zeros(2), P[[0, 1]], NET, SolverParams(max_iters=20))
        assert res.objective == 0.0
        assert res.certificate.kind == "exact"

    def test_all_results_feasible(self, rng):
        P = enumerate_st_paths(NET)
        labels = np.array([rng.dirichlet(np.ones(P.shape[0])) @ P for _ in range(6)])
        W = rng.normal(size=(8, 6))
        Y, _, _ = solve_flow_abs_batch(W, labels, NET, SolverParams(max_iters=50, restarts=2))
        for q in range(Y.shape[0]):
            assert flow_residual(NET, Y[q]) <= 1e-9
