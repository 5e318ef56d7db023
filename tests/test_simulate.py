"""Synthetic flow generator and the two reference predictors."""

import numpy as np
import pytest

from ecrm import (Dataset, FlowGeneratorSpec, KernelSpec, LossSpec, SolverParams,
                  assignment_space, default_flow_network, enumerate_st_paths, fit,
                  flow_space, hierarchy_space,
                  infer_batch, infer_from_weights, knn_local_risk_predict,
                  sample_conditional, simulate_flow_data, weights)
from ecrm.baselines import krr_project_predict_batch
from ecrm.spaces import FlowNetwork, flow_residual
from _oracles import footrule_risks
from conftest import random_feasible_label, random_tree


class TestGenerator:
    def test_conservation_to_machine_precision(self):
        spec = FlowGeneratorSpec.create(seed=1, tau=0.8, p=6)
        data = simulate_flow_data(spec, 200)
        for i in range(200):
            assert flow_residual(spec.network, data.Y[i]) <= 1e-12

    def test_zero_temperature_yields_path_indicators(self):
        spec = FlowGeneratorSpec.create(seed=2, tau=0.0, p=5)
        data = simulate_flow_data(spec, 50)
        P = enumerate_st_paths(spec.network)
        for i in range(50):
            assert any(np.array_equal(data.Y[i], P[k]) for k in range(P.shape[0]))

    def test_fixed_seed_reproduces_bitwise(self):
        spec1 = FlowGeneratorSpec.create(seed=9, tau=1.0, p=8)
        spec2 = FlowGeneratorSpec.create(seed=9, tau=1.0, p=8)
        a = simulate_flow_data(spec1, 64)
        b = simulate_flow_data(spec2, 64)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)

    def test_prefix_property_matches_sharding(self):
        # Per-sample seeding: the first rows of a longer run equal a shorter run.
        spec = FlowGeneratorSpec.create(seed=4, tau=1.0, p=5)
        small = simulate_flow_data(spec, 10)
        big = simulate_flow_data(spec, 25)
        np.testing.assert_array_equal(small.X, big.X[:10])
        np.testing.assert_array_equal(small.Y, big.Y[:10])

    def test_fresh_sampling_stream_preserves_arc_means(self):
        # Same conditional law (utility matrix fixed by the generator seed),
        # fresh randomness: per-arc flow means agree to Monte-Carlo accuracy.
        m = 10_000
        spec = FlowGeneratorSpec.create(seed=100, tau=1.0, p=4)
        a = simulate_flow_data(spec, m, stream=0)
        b = simulate_flow_data(spec, m, stream=1)
        np.testing.assert_allclose(a.Y.mean(axis=0), b.Y.mean(axis=0), atol=0.02)
        c = sample_conditional(spec, np.full(4, 0.5), m, stream=0)
        d = sample_conditional(spec, np.full(4, 0.5), m, stream=1)
        np.testing.assert_allclose(c.mean(axis=0), d.mean(axis=0), atol=0.02)

    def test_conditional_sampler_feasible(self):
        spec = FlowGeneratorSpec.create(seed=3, tau=0.5, p=4)
        Y = sample_conditional(spec, np.full(4, 0.25), 100)
        for i in range(100):
            assert flow_residual(spec.network, Y[i]) <= 1e-12


def knn_weights(X, Xq, k):
    """1/k on each query row's k nearest rows of X (squared distance, ties
    to the smaller index), one row per query."""
    W = np.zeros((Xq.shape[0], X.shape[0]))
    for q, x in enumerate(Xq):
        dist = np.einsum("ip,ip->i", X - x, X - x)
        W[q, np.lexsort((np.arange(X.shape[0]), dist))[:k]] = 1.0 / k
    return W


def knn_instance(rng, kind):
    """A 15-row dataset of the space ``kind``, its loss and 8 query rows; the
    last query is at distance 0 from four training rows."""
    X = rng.normal(size=(15, 3))
    X[[6, 11, 13]] = X[2]
    Xq = np.vstack([rng.normal(size=(7, 3)), X[2]])
    if kind == "hierarchy":
        G = random_tree(rng, 9)
        Y = np.array([random_feasible_label(rng, G) for _ in range(15)])
        loss = LossSpec("hierarchical", hierarchy=G)
        return Dataset(X=X, Y=Y, space=hierarchy_space(G)), loss, Xq
    if kind == "ranking":
        Y = np.array([rng.permutation(6) + 1 for _ in range(15)])
        return Dataset(X=X, Y=Y, space=assignment_space(6)), LossSpec("footrule"), Xq
    P = enumerate_st_paths(default_flow_network())
    Y = rng.dirichlet(np.ones(P.shape[0]), size=15) @ P
    return Dataset(X=X, Y=Y, space=flow_space(default_flow_network())), LossSpec(kind), Xq


class TestKnnBaseline:
    def test_shares_the_inference_entry_point(self, rng):
        # The local predictor runs through the kernel predictor's batched
        # entry point, once per batch; only the weight map differs.
        import ecrm.baselines
        import ecrm.inference
        assert ecrm.baselines.infer_batch is ecrm.inference.infer_batch
        calls = []
        original = ecrm.inference.infer_batch

        def spy(W, labels, loss, space, params=None):
            calls.append((np.array(W), np.array(labels)))
            return original(W, labels, loss, space, params)

        data, loss, Xq = knn_instance(rng, "absolute")
        try:
            ecrm.baselines.infer_batch = spy
            knn_local_risk_predict(data, loss, Xq, k=3,
                                   params=SolverParams(max_iters=30, restarts=1))
        finally:
            ecrm.baselines.infer_batch = original
        assert len(calls) == 1
        W = knn_weights(data.X, Xq, 3)
        assert np.flatnonzero(W[-1]).tolist() == [2, 6, 11]
        # Only the training rows some query weighs, in training order.
        cols = np.flatnonzero(W.any(axis=0))
        assert cols.size < W.shape[1]
        np.testing.assert_array_equal(calls[0][0], W[:, cols])
        np.testing.assert_array_equal(calls[0][1], data.Y[cols])

    def test_k_equal_m_matches_uniform_inference(self):
        spec = FlowGeneratorSpec.create(seed=6, tau=1.0, p=4)
        data = simulate_flow_data(spec, 12)
        loss = LossSpec("absolute")
        params = SolverParams(max_iters=80, restarts=2)
        x = np.full(4, 0.5)
        got = knn_local_risk_predict(data, loss, x, k=12, params=params)
        # Uniform weights over all samples, on the labels in training order.
        ref = infer_from_weights(np.full(12, 1 / 12), data.Y, loss, data.space, params)
        np.testing.assert_array_equal(got, ref.y_star)

    @pytest.mark.parametrize("kind", ["hierarchy", "absolute", "square", "ranking"])
    def test_batch_equals_one_query_calls(self, rng, kind):
        # Each batched row equals its one-query call and its row of the
        # inference call on all training labels.  Hierarchies and L1 flows
        # are exact to the bit.  The square-loss mean and the footrule cost
        # matrix sum over all labels of the call, so zero weights move their
        # last bits; tied assignment optima may then differ, at equal risk.
        data, loss, Xq = knn_instance(rng, kind)
        params = SolverParams(max_iters=40, restarts=2)
        Y = knn_local_risk_predict(data, loss, Xq, k=3, params=params)
        W = knn_weights(data.X, Xq, 3)
        full = [r.y_star for r in infer_batch(W, data.Y, loss, data.space, params)]
        for q, x in enumerate(Xq):
            one = knn_local_risk_predict(data, loss, x, k=3, params=params)
            for ref in (one, full[q]):
                if kind == "hierarchy":
                    assert Y[q].tobytes() == ref.tobytes() and Y.dtype == ref.dtype
                elif kind == "absolute":
                    np.testing.assert_array_equal(Y[q], ref)
                elif kind == "square":
                    np.testing.assert_allclose(Y[q], ref, rtol=0, atol=1e-12)
                else:
                    risk, best = footrule_risks(np.array([Y[q], ref]), data.Y, W[q])
                    assert abs(risk - best) <= 1e-12 * max(1.0, best)

    def test_k_one_returns_nearest_label(self):
        spec = FlowGeneratorSpec.create(seed=7, tau=1.0, p=4)
        data = simulate_flow_data(spec, 20)
        x = data.X[13] + 1e-9
        got = knn_local_risk_predict(data, LossSpec("absolute"), x, k=1,
                                     params=SolverParams(max_iters=60, restarts=2))
        np.testing.assert_allclose(got, data.Y[13], atol=1e-12)

    def test_small_case_matches_brute_force_over_grid(self, rng):
        spec = FlowGeneratorSpec.create(seed=8, tau=1.0, p=4)
        data = simulate_flow_data(spec, 6)
        x = np.full(4, 0.3)
        loss = LossSpec("square")
        got = knn_local_risk_predict(data, loss, x, k=3)
        dist = np.einsum("ip,ip->i", data.X - x, data.X - x)
        order = np.lexsort((np.arange(6), dist))[:3]
        mean = data.Y[order].mean(axis=0)
        np.testing.assert_allclose(got, mean, atol=1e-10)

    def test_k_bounds(self):
        spec = FlowGeneratorSpec.create(seed=6, tau=1.0, p=4)
        data = simulate_flow_data(spec, 5)
        with pytest.raises(ValueError):
            knn_local_risk_predict(data, LossSpec("absolute"), np.zeros(4), k=6)


class TestKrrProjectBaseline:
    def test_feasible_prediction_returned_unchanged(self):
        net = FlowNetwork(2, [(0, 1)], [0.0, 0.0])
        space = flow_space(net)
        data = Dataset(X=np.array([[0.0], [1.0]]), Y=np.zeros((2, 1)), space=space)
        got = krr_project_predict_batch(fit(KernelSpec("rbf", gamma=1.0), 0.5, data.X, data.Y),
                                        space, np.array([[0.25]]))[0]
        np.testing.assert_array_equal(got, np.zeros(1))

    def test_interpolating_limit_approaches_training_flow(self):
        spec = FlowGeneratorSpec.create(seed=10, tau=1.0, p=3)
        data = simulate_flow_data(spec, 1)
        got = krr_project_predict_batch(fit(KernelSpec("rbf", gamma=1.0), 1e-9, data.X, data.Y),
                                        data.space, data.X[0][None, :])[0]
        np.testing.assert_allclose(got, data.Y[0], atol=1e-4)

    def test_projection_restores_feasibility(self):
        spec = FlowGeneratorSpec.create(seed=11, tau=1.0, p=5)
        data = simulate_flow_data(spec, 30)
        model = fit(KernelSpec("rbf", gamma=0.7), 0.05, data.X, data.Y)
        for t in range(5):
            x = np.full(5, 0.1 + 0.2 * t)
            got = krr_project_predict_batch(model, data.space, x[None, :])[0]
            assert flow_residual(data.space.network, got) <= 1e-9

    def test_ridge_mean_matches_numpy_reference(self, monkeypatch):
        # With the projection replaced by the identity, the baseline returns
        # its ridge means W @ Y.
        import ecrm.baselines

        monkeypatch.setattr(ecrm.baselines, "project_batch", lambda Y, net: (Y,))
        data = simulate_flow_data(FlowGeneratorSpec.create(seed=14, tau=1.0, p=3), 20)
        kernel = KernelSpec("rbf", gamma=0.8)
        Xq = simulate_flow_data(FlowGeneratorSpec.create(seed=15, tau=1.0, p=3), 8).X
        model = fit(kernel, 0.1, data.X, data.Y)
        ref = weights(model, Xq) @ data.Y
        for rows in (slice(0, 1), slice(0, 8), slice(0, 8, 3)):
            got = krr_project_predict_batch(model, data.space, Xq[rows])
            np.testing.assert_allclose(got, ref[rows], rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())
        np.testing.assert_allclose(
            krr_project_predict_batch(model, data.space, Xq[2][None, :])[0],
            ref[2], rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_batch_matches_single(self):
        spec = FlowGeneratorSpec.create(seed=12, tau=1.0, p=4)
        data = simulate_flow_data(spec, 25)
        Xq = simulate_flow_data(FlowGeneratorSpec.create(seed=13, tau=1.0, p=4), 6).X
        model = fit(KernelSpec("rbf", gamma=0.9), 0.1, data.X, data.Y)
        batch = krr_project_predict_batch(model, data.space, Xq)
        # A duality gap of 1e-6 pins the projection within sqrt(gap) of the
        # true nearest point, so two solves can differ by ~1e-3 per coordinate.
        for i in range(6):
            single = krr_project_predict_batch(model, data.space, Xq[i][None, :])[0]
            np.testing.assert_allclose(batch[i], single, atol=3e-3)
