"""Kernel evaluation, Gram construction, fitting and weight queries."""

import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dgemm

from ecrm import (KernelSpec, estimate_conditional_risk, eval_kernel, fit,
                  gram_matrix, LossSpec, weights)
from ecrm.kernels import _gram_too_large, _matmul, cross_gram
from ecrm.model import from_factor
from conftest import random_kernel
from _oracles import dense_weight_oracle, gaussian_solve


class TestEvalKernel:
    def test_rbf_at_identical_points_is_one(self):
        spec = KernelSpec("rbf", gamma=1.0)
        assert eval_kernel(spec, [0.3, -1.2], [0.3, -1.2]) == 1.0

    def test_linear_is_dot_product(self):
        assert eval_kernel(KernelSpec("linear"), [1, 2], [3, 4]) == 11.0

    def test_rbf_closed_form(self):
        spec = KernelSpec("rbf", gamma=0.5)
        assert eval_kernel(spec, [0, 0], [1, 1]) == pytest.approx(np.exp(-1.0), abs=0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            eval_kernel(KernelSpec("linear"), [1, 2], [1, 2, 3])

    def test_rbf_bounds_and_symmetry(self, rng):
        spec = KernelSpec("rbf", gamma=1.3)
        for _ in range(50):
            a, b = rng.normal(size=3), rng.normal(size=3)
            k = eval_kernel(spec, a, b)
            assert 0.0 < k <= 1.0
            assert k == eval_kernel(spec, b, a)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("poly")
        with pytest.raises(ValueError):
            KernelSpec("rbf", gamma=0.0)
        with pytest.raises(ValueError):
            KernelSpec("rbf")
        for gamma in (np.inf, np.nan):
            with pytest.raises(ValueError):
                KernelSpec("rbf", gamma=gamma)


class TestGramMatrix:
    def test_single_row(self):
        K = gram_matrix(KernelSpec("rbf", gamma=2.0), [[1.0, 2.0]])
        assert K.shape == (1, 1) and K[0, 0] == 1.0

    def test_zero_features_rejected(self, capfd):
        # Before any BLAS call, which would print its own message on an empty
        # operand.
        for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=1.0)):
            with pytest.raises(ValueError, match="at least one input feature"):
                fit(spec, 0.1, np.zeros((5, 0)), np.zeros((5, 2)))
        assert capfd.readouterr().err == ""

    def test_rbf_duplicate_rows_all_ones(self):
        X = np.tile([0.5, -0.25, 3.0], (4, 1))
        K = gram_matrix(KernelSpec("rbf", gamma=0.7), X)
        assert np.array_equal(K, np.ones((4, 4)))

    def test_matches_entrywise_evaluation(self, rng):
        X = rng.normal(size=(5, 3))
        for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.9)):
            K = gram_matrix(spec, X)
            ref = np.array([[eval_kernel(spec, X[i], X[j]) for j in range(5)]
                            for i in range(5)])
            np.testing.assert_allclose(K, ref, atol=1e-14)

    def test_exact_symmetry(self, rng):
        X = rng.normal(size=(40, 7))
        for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=1.1)):
            K = gram_matrix(spec, X)
            assert np.max(np.abs(K - K.T)) == 0.0

    def test_rbf_contract_beyond_one_block(self, rng):
        # m = 700 spans more than one row block of the norm additions; each
        # row appears twice, so rounding puts some squared distances below 0.
        X = np.tile(rng.normal(size=(350, 20)), (2, 1))
        K = gram_matrix(KernelSpec("rbf", gamma=0.05), X)
        assert np.array_equal(K, K.T)
        assert np.all(np.diagonal(K) == 1.0)
        assert K.min() >= 0.0 and K.max() <= 1.0

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_rbf_products_match_entrywise_at_offsets(self, rng, offset):
        spec = KernelSpec("rbf", gamma=0.3)
        X = rng.normal(size=(30, 5)) + offset
        Xq = rng.normal(size=(7, 5)) + offset
        K = gram_matrix(spec, X)
        ref = np.array([[eval_kernel(spec, a, b) for b in X] for a in X])
        np.testing.assert_allclose(K, ref, rtol=0, atol=1e-14)
        V = cross_gram(spec, Xq, X)
        ref = np.array([[eval_kernel(spec, a, b) for b in X] for a in Xq])
        np.testing.assert_allclose(V, ref, rtol=0, atol=1e-14)

    def test_rbf_overflowing_squared_distances_raise(self, rng):
        # Finite inputs whose centered squared norms, or their sums, overflow:
        # one ValueError before the RBF pass would meet inf - inf.
        spec = KernelSpec("rbf", gamma=0.5)
        small = np.array([[1e150, 0.0], [0.1, 0.2], [-0.2, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for X in ([[1e200, 0.0], [0.1, 0.2], [-0.2, 0.5]], [[1e154, 0.0], [-1e154, 0.0]]):
                with pytest.raises(ValueError, match="squared distances overflow"):
                    gram_matrix(spec, X)
            for xq in ([[1e200, 1e200]], [[0.1, 0.2], [1e200, 0.0]]):
                with pytest.raises(ValueError, match="squared distances overflow"):
                    cross_gram(spec, xq, small)
            assert cross_gram(spec, np.zeros((0, 2)), small).shape == (0, 3)
            model = fit(spec, 0.1, small, np.zeros(3))
            with pytest.raises(ValueError, match="squared distances overflow"):
                weights(model, [1e200, 1e200])


def test_gram_too_large_names_rows_and_size():
    # The sizes of a 100,000-row and a 200,000-row training set, as numpy
    # reports them for the same allocation.
    assert str(_gram_too_large(100_000)) == ("100000 training rows need a 100000 x 100000 "
                                             "Gram matrix of 74.5 GiB, which cannot be "
                                             "allocated")
    assert " of 298 GiB" in str(_gram_too_large(200_000))


class TestMatmul:
    @staticmethod
    def _layouts(M):
        """M as a C-ordered array, a Fortran-ordered one and a strided view."""
        wide = np.zeros((M.shape[0], 2 * M.shape[1]))
        wide[:, ::2] = M
        return [M, np.asfortranarray(M), wide[:, ::2]]

    def test_matches_numpy_for_every_layout(self, rng):
        A, B = rng.normal(size=(6, 9)), rng.normal(size=(9, 4))
        v = rng.normal(size=9)
        for a in self._layouts(A):
            assert a.shape == A.shape
            np.testing.assert_allclose(_matmul(a, v), A @ v, rtol=1e-13)
            for b in self._layouts(B):
                got = _matmul(a, b)
                assert got.flags.c_contiguous
                np.testing.assert_allclose(got, A @ B, rtol=1e-13)


class TestFit:
    def test_factor_equals_separately_regularized_gram(self, rng):
        X = rng.normal(size=(60, 4))
        lam = 0.02
        for spec in (KernelSpec("rbf", gamma=0.4), KernelSpec("linear")):
            got = fit(spec, lam, X, np.zeros(60)).factor
            ref = cho_factor(gram_matrix(spec, X) + 60 * lam * np.eye(60), lower=True)
            assert got[1] is True
            assert np.array_equal(np.tril(got[0]), np.tril(ref[0]))

    def test_factor_is_fortran_ordered(self, rng):
        # The solves in ``weights`` would copy any other layout per call.
        X, Y = rng.normal(size=(20, 3)), np.zeros(20)
        for spec in (KernelSpec("rbf", gamma=0.4), KernelSpec("linear")):
            L = fit(spec, 0.1, X, Y).factor[0]
            assert L.flags.f_contiguous
            C = np.ascontiguousarray(L)
            got = from_factor(spec, 0.1, X, Y, C).factor[0]
            assert got.flags.f_contiguous and got.tobytes("F") == L.tobytes("F")

    def test_jitter_retry_rebuilds_overwritten_matrix(self, rng, monkeypatch):
        import ecrm.model
        X = rng.normal(size=(6, 2))
        spec, lam = KernelSpec("rbf", gamma=0.5), 0.1
        calls = {"n": 0}

        def spoil_once(A, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                A[...] = np.nan
                raise np.linalg.LinAlgError("forced")
            return cho_factor(A, **kwargs)

        monkeypatch.setattr(ecrm.model, "cho_factor", spoil_once)
        model = fit(spec, lam, X, np.zeros(6))
        assert calls["n"] == 2
        K = gram_matrix(spec, X)
        jitter = 1e-10 * np.trace(K) / 6
        L = np.tril(model.factor[0])
        np.testing.assert_allclose(L @ L.T, K + (6 * lam + jitter) * np.eye(6),
                                   rtol=0, atol=1e-10)

    def test_single_sample_scalar_factor(self):
        # k(x1,x1) = 1, lambda = 1: the factored matrix is the scalar 2.
        model = fit(KernelSpec("rbf", gamma=1.0), 1.0, [[0.0]], [0])
        L = np.tril(model.factor[0])
        np.testing.assert_allclose(L @ L.T, [[2.0]], atol=1e-14)

    def test_identity_gram_diagonal_factor(self):
        # Orthonormal rows under the linear kernel give K = I exactly.
        X = np.eye(4)
        lam = 0.25
        model = fit(KernelSpec("linear"), lam, X, np.zeros(4))
        L = np.tril(model.factor[0])
        np.testing.assert_allclose(L @ L.T, (1 + 4 * lam) * np.eye(4), atol=1e-14)

    def test_factor_reconstructs_regularized_gram(self, rng):
        X = rng.normal(size=(8, 3))
        spec = KernelSpec("rbf", gamma=0.6)
        lam = 0.3
        model = fit(spec, lam, X, np.zeros(8))
        K = gram_matrix(spec, X)
        L = np.tril(model.factor[0])
        assert np.max(np.abs(L @ L.T - (K + 8 * lam * np.eye(8)))) <= 1e-10

    def test_preconditions(self, rng):
        X = rng.normal(size=(3, 2))
        for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.5)):
            for lam in (0.0, np.inf, np.nan):
                with pytest.raises(ValueError):
                    fit(spec, lam, X, np.zeros(3))
            with pytest.raises(ValueError):
                fit(spec, 1.0, X, np.zeros(4))
            for bad in (np.nan, np.inf, -np.inf):
                Xbad = X.copy()
                Xbad[1, 0] = bad
                with pytest.raises(ValueError):
                    fit(spec, 1.0, Xbad, np.zeros(3))

    def test_overflowing_linear_gram_is_an_input_error(self):
        # Finite inputs whose linear Gram would overflow to inf are refused
        # before the Gram is formed, as the RBF kernel refuses inputs whose
        # squared distances overflow; no Cholesky factorization is tried.
        with pytest.raises(ValueError, match="too large for the linear kernel"):
            fit(KernelSpec("linear"), 1.0, [[1e200]], [0])
        # Norms that are finite alone but not summed: no numpy warning.
        with warnings.catch_warnings(), pytest.raises(ValueError, match="linear kernel"):
            warnings.simplefilter("error")
            gram_matrix(KernelSpec("linear"), [[1e154, 0.0], [0.0, 1.0]])
        fit(KernelSpec("linear"), 1.0, [[1e150]], [0])
        # Kernel vectors whose inner products overflow are refused too.
        with pytest.raises(ValueError, match="too large for the linear kernel"):
            cross_gram(KernelSpec("linear"), [[1e200, 1e200]], [[1e150, 0.0]])

    def test_rbf_blocks_and_panels_match_full_construction(self, rng):
        # m = 1100 runs the column-block loop (_BLOCK_ELEMS // m = 238 columns)
        # five times and the 128-column mirror nine times.  The reference is
        # the full-matrix construction: dsyrk, L + L.T, row-blocked norm
        # additions, a zero diagonal, then exp over the whole matrix.
        from scipy.linalg.blas import dsyrk
        m, gamma, lam = 1100, 0.05, 0.01
        X = np.tile(rng.normal(size=(m // 2, 20)), (2, 1))
        A = X - X.mean(axis=0)
        L = dsyrk(-2.0, A.T, trans=1, lower=1)
        ref = L + L.T
        n = -0.5 * np.diagonal(L)
        for lo in range(0, m, 200):
            ref[lo:lo + 200] += n[lo:lo + 200, None] + n
        np.fill_diagonal(ref, 0.0)
        ref = np.exp(-gamma * np.maximum(ref, 0.0))
        spec = KernelSpec("rbf", gamma=gamma)
        K = gram_matrix(spec, X)
        assert np.array_equal(K, ref)
        assert np.array_equal(K, K.T)
        got = fit(spec, lam, X, np.zeros(m)).factor[0]
        want = cho_factor(ref + m * lam * np.eye(m), lower=True)[0]
        assert np.array_equal(np.tril(got), np.tril(want))

    def test_duplicate_inputs_are_fine(self, rng):
        X = np.tile(rng.normal(size=(1, 3)), (5, 1))
        model = fit(KernelSpec("rbf", gamma=1.0), 0.1, X, np.zeros(5))
        w = weights(model, X[0])
        assert np.all(np.isfinite(w))

    def test_jitter_retry_then_numerical_error(self, rng, monkeypatch):
        import ecrm.model
        from ecrm.errors import NumericalError
        from scipy.linalg import cho_factor as real_cho
        X = rng.normal(size=(4, 2))
        calls = {"n": 0}

        def fail_once(A, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise np.linalg.LinAlgError("forced")
            return real_cho(A, **kwargs)

        monkeypatch.setattr(ecrm.model, "cho_factor", fail_once)
        model = fit(KernelSpec("rbf", gamma=1.0), 0.5, X, np.zeros(4))
        assert calls["n"] == 2 and model.factor is not None

        def always_fail(A, **kwargs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(ecrm.model, "cho_factor", always_fail)
        with pytest.raises(NumericalError):
            fit(KernelSpec("rbf", gamma=1.0), 0.5, X, np.zeros(4))


class TestWeights:
    def test_non_finite_query_rejected(self, rng):
        model = fit(KernelSpec("rbf", gamma=0.5), 0.1, rng.normal(size=(4, 2)), np.zeros(4))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                weights(model, [0.0, bad])
            with pytest.raises(ValueError):
                weights(model, [[0.0, 1.0], [bad, 0.0]])

    def test_single_sample_closed_form(self, rng):
        x1 = rng.normal(size=3)
        x = rng.normal(size=3)
        spec = KernelSpec("rbf", gamma=0.8)
        lam = 0.7
        model = fit(spec, lam, [x1], [0])
        expected = eval_kernel(spec, x, x1) / (eval_kernel(spec, x1, x1) + lam)
        assert weights(model, x)[0] == pytest.approx(expected, rel=1e-12)

    def test_identity_gram_closed_form(self):
        X = np.eye(5)
        lam = 0.4
        model = fit(KernelSpec("linear"), lam, X, np.zeros(5))
        x = np.arange(5.0)
        v = cross_gram(KernelSpec("linear"), x[None, :], X)[0]
        np.testing.assert_allclose(weights(model, x), v / (1 + 5 * lam), atol=1e-12)

    def test_matches_gaussian_elimination_oracle(self, rng):
        for trial in range(10):
            X = rng.normal(size=(6, 4))
            x = rng.normal(size=4)
            spec = random_kernel(rng)
            lam = float(rng.uniform(0.1, 1.0))
            model = fit(spec, lam, X, np.zeros(6))
            ref = dense_weight_oracle(lambda a, b: eval_kernel(spec, a, b), X, lam, x)
            np.testing.assert_allclose(weights(model, x), ref, atol=1e-9)

    def test_residual_invariant(self, rng):
        X = rng.normal(size=(7, 3))
        spec = KernelSpec("rbf", gamma=1.0)
        model = fit(spec, 0.2, X, np.zeros(7))
        x = rng.normal(size=3)
        w = weights(model, x)
        K = gram_matrix(spec, X)
        v = cross_gram(spec, x[None, :], X)[0]
        resid = np.linalg.norm((K + 7 * 0.2 * np.eye(7)) @ w - v)
        assert resid <= 1e-8 * max(1.0, np.linalg.norm(v))

    def test_regularization_shrinks_weights(self, rng):
        X = rng.normal(size=(6, 3))
        x = rng.normal(size=3)
        spec = KernelSpec("rbf", gamma=0.5)
        norms = []
        for lam in (0.01, 0.1, 1.0, 10.0, 1e3, 1e6):
            model = fit(spec, lam, X, np.zeros(6))
            norms.append(np.linalg.norm(weights(model, x)))
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-6


    @pytest.mark.parametrize("intercept", ["none", "centered"])
    def test_batch_rows_equal_single_queries(self, rng, intercept):
        # A single query, of shape (p,) or (1, p), takes two triangular
        # solves; a batch one Cholesky solve.  Also for Hamming's label
        # statistics, and on a one-sample model.
        from ecrm.losses import label_embedding
        Xq = rng.normal(size=(5, 3))
        for m in (1, 9):
            X, Y = rng.normal(size=(m, 3)), rng.integers(0, 2, size=(m, 4))
            Phi = label_embedding(LossSpec("hamming"), Y)
            for spec in (KernelSpec("rbf", gamma=0.6), KernelSpec("linear")):
                model = fit(spec, 0.3, X, Y, intercept_mode=intercept)
                for emb, width in ((None, m), (Phi, 5)):
                    batch = weights(model, Xq, emb)
                    assert batch.shape == (5, width)
                    for i in range(5):
                        single = weights(model, Xq[i], emb)
                        row = weights(model, Xq[i:i + 1], emb)
                        assert single.shape == (width,) and row.shape == (1, width)
                        np.testing.assert_allclose(batch[i], single, rtol=0, atol=1e-12)
                        np.testing.assert_array_equal(row[0], single)

    def test_one_row_allocates_no_m_by_m_array(self, rng):
        import tracemalloc
        m = 600
        model = fit(KernelSpec("rbf", gamma=0.5), 0.1, rng.normal(size=(m, 3)), np.zeros(m))
        x = rng.normal(size=3)
        weights(model, x)
        tracemalloc.start()
        try:
            weights(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m // 4

    @pytest.mark.parametrize("intercept", ["none", "centered"])
    def test_label_statistics_equal_weighted_embedding(self, rng, intercept):
        # Up to 4 rows the weights are formed first, beyond that K^-1 Phi.
        X = rng.normal(size=(12, 3))
        Phi = rng.normal(size=(12, 4))
        model = fit(KernelSpec("rbf", gamma=0.6), 0.3, X, np.zeros(12), intercept_mode=intercept)
        for q in (0, 1, 4, 5, 9):
            Xq = rng.normal(size=(q, 3))
            S = weights(model, Xq, Phi)
            assert S.shape == (q, 4)
            np.testing.assert_allclose(S, weights(model, Xq) @ Phi, rtol=0, atol=1e-12)
        x = rng.normal(size=3)
        np.testing.assert_allclose(weights(model, x, Phi), weights(model, x) @ Phi,
                                   rtol=0, atol=1e-12)

    def test_stored_kernel_terms_keep_kernel_vectors_bit_identical(self, rng):
        X = rng.normal(size=(40, 5)) + 3.0
        Xq = rng.normal(size=(6, 5)) + 3.0
        spec = KernelSpec("rbf", gamma=0.4)
        model = fit(spec, 0.05, X, np.zeros(40))
        # Per-call construction: both row sets centered on X's column mean.
        mu = X.mean(axis=0)
        A, B = Xq - mu, X - mu
        D = dgemm(-2.0, B.T, A.T, trans_a=1)
        D += np.einsum("ip,ip->i", B, B)[:, None]
        D += np.einsum("ip,ip->i", A, A)
        ref = np.exp(-spec.gamma * np.maximum(D, 0.0)).T
        V = cross_gram(spec, Xq, X, model.kernel_terms)
        assert V.tobytes() == ref.tobytes() == cross_gram(spec, Xq, X).tobytes()
        W = cho_solve(model.factor, ref.T, check_finite=False).T
        assert weights(model, Xq).tobytes() == W.tobytes()
        assert fit(KernelSpec("linear"), 0.05, X, np.zeros(40)).kernel_terms is None

    def test_kernel_terms_of_other_rows_are_rejected(self, rng):
        spec = KernelSpec("rbf", gamma=0.4)
        model = fit(spec, 0.05, rng.normal(size=(40, 5)), np.zeros(40))
        with pytest.raises(ValueError, match="kernel terms"):
            cross_gram(spec, rng.normal(size=(2, 5)), rng.normal(size=(30, 5)),
                       model.kernel_terms)


class TestEstimateConditionalRisk:
    def test_zero_self_loss_single_sample(self, rng):
        y = np.array([1, 0, 1])
        model, _ = _tiny_model(rng, labels=y[None, :])
        x = rng.normal(size=model.p)
        assert estimate_conditional_risk(model, LossSpec("hamming"), y, x) == 0.0

    def test_matches_per_target_ridge_solve(self, rng):
        # The weighted loss sum must equal the ridge regression that fits the
        # loss series of the queried label directly.
        for trial in range(10):
            m, p = int(rng.integers(2, 10)), int(rng.integers(1, 5))
            d = 4
            labels = rng.integers(0, 2, size=(m, d))
            X = rng.normal(size=(m, p))
            spec = random_kernel(rng)
            lam = float(rng.uniform(0.05, 0.8))
            model = fit(spec, lam, X, labels)
            x = rng.normal(size=p)
            y = rng.integers(0, 2, size=d)
            loss = LossSpec("hamming")
            got = estimate_conditional_risk(model, loss, y, x)
            L_y = np.array([np.sum(y != labels[i]) for i in range(m)], dtype=float)
            K = np.array([[eval_kernel(spec, X[i], X[j]) for j in range(m)]
                          for i in range(m)])
            v = np.array([eval_kernel(spec, x, X[i]) for i in range(m)])
            alpha = gaussian_solve(K + m * lam * np.eye(m), L_y)
            assert got == pytest.approx(float(alpha @ v), abs=1e-8)

    def test_binary_argmin_matches_sign_rule(self, rng):
        # Zero-one risk comparison over {-1, +1} reduces to the sign of the
        # weighted label sum.
        for trial in range(50):
            m = int(rng.integers(2, 12))
            labels = rng.choice([-1.0, 1.0], size=m)
            X = rng.normal(size=(m, 3))
            model = fit(random_kernel(rng), float(rng.uniform(0.05, 1.0)), X, labels)
            x = rng.normal(size=3)
            loss = LossSpec("zero_one")
            r_plus = estimate_conditional_risk(model, loss, [1.0], x)
            r_minus = estimate_conditional_risk(model, loss, [-1.0], x)
            argmin = 1.0 if r_plus <= r_minus else -1.0
            w = weights(model, x)
            sign = 1.0 if float(w @ labels) >= 0 else -1.0
            assert argmin == sign

    def test_centered_intercept_equals_explicit_centering(self, rng):
        m, d = 6, 3
        labels = rng.integers(0, 2, size=(m, d))
        X = rng.normal(size=(m, 2))
        spec = KernelSpec("rbf", gamma=1.0)
        lam = 0.3
        plain = fit(spec, lam, X, labels, intercept_mode="none")
        centered = fit(spec, lam, X, labels, intercept_mode="centered")
        x = rng.normal(size=2)
        y = np.array([1, 0, 1])
        loss = LossSpec("hamming")
        L_y = np.array([np.sum(y != labels[i]) for i in range(m)], dtype=float)
        mu = L_y.mean()
        w_raw = weights(plain, x)
        expected = mu + float((L_y - mu) @ w_raw)
        assert estimate_conditional_risk(centered, loss, y, x) == pytest.approx(expected, abs=1e-12)


def _tiny_model(rng, labels):
    from ecrm import fit as _fit
    X = rng.normal(size=(labels.shape[0], 3))
    return _fit(KernelSpec("rbf", gamma=1.0), 0.5, X, labels), X
