"""Loss families, the hierarchical closed form, and additive coefficients."""

import numpy as np
import pytest

from ecrm import (HierarchyDag, KernelSpec, LossSpec, additive_coefficients,
                  assignment_space, fit, footrule, hamming, hierarchical_loss,
                  hierarchical_loss_closed, hierarchy_space, infer, loss_bound, loss_value,
                  sibling_weights, vector_loss)
from conftest import random_feasible_label, random_tree
from _oracles import enumerate_feasible


class TestHamming:
    def test_identity_is_zero(self):
        assert hamming([1, 0, 1], [1, 0, 1]) == 0.0

    def test_single_flip(self):
        assert hamming([1, 0, 1], [0, 0, 1]) == 1.0

    def test_complement_is_dimension(self, rng):
        y = rng.integers(0, 2, size=9)
        assert hamming(y, 1 - y) == 9.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming([1, 0], [1, 0, 1])

    def test_symmetric_nonnegative(self, rng):
        for _ in range(20):
            a = rng.integers(0, 2, size=6)
            b = rng.integers(0, 2, size=6)
            assert hamming(a, b) == hamming(b, a) >= 0.0


class TestSiblingWeights:
    def test_single_node_root_weight(self):
        G = HierarchyDag(1, [])
        np.testing.assert_array_equal(sibling_weights(G), [1.0])

    def test_root_with_two_children(self):
        G = HierarchyDag(3, [(0, 1), (0, 2)])
        np.testing.assert_array_equal(sibling_weights(G), [1.0, 0.5, 0.5])

    def test_chain_has_unit_weights(self):
        G = HierarchyDag(3, [(0, 1), (1, 2)])
        np.testing.assert_array_equal(sibling_weights(G), [1.0, 1.0, 1.0])

    def test_rejects_non_arborescence(self):
        diamond = HierarchyDag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        with pytest.raises(ValueError):
            sibling_weights(diamond)

    def test_weights_non_increasing_along_paths(self, rng):
        for _ in range(20):
            G = random_tree(rng, int(rng.integers(2, 12)))
            c = sibling_weights(G)
            for p, ch in G.arcs:
                assert c[ch] <= c[p]


class TestArborescence:
    @pytest.mark.parametrize("d, arcs, expected", [
        (3, [(0, 1), (0, 2)], True),
        (1, [], True),
        (4, [(0, 1), (2, 3)], False),
        (4, [(0, 1), (0, 2), (1, 3), (2, 3)], False),
        (3, [(0, 1), (0, 1), (1, 2)], False),
    ], ids=["one_root", "single_node", "two_roots", "two_parents", "repeated_arc"])
    def test_cases(self, d, arcs, expected):
        assert HierarchyDag(d, arcs).is_arborescence is expected

    def test_arc_index_lists_arcs_in_order(self):
        par, ch = HierarchyDag(4, [(0, 2), (2, 3), (0, 1)]).arc_index
        np.testing.assert_array_equal(par, [0, 2, 0])
        np.testing.assert_array_equal(ch, [2, 3, 1])

    def test_hundred_thousand_node_star(self):
        import time
        d = 100_000
        G = HierarchyDag(d, [(0, j) for j in range(1, d)])
        t0 = time.perf_counter()
        spec = LossSpec("hierarchical", hierarchy=G)
        assert time.perf_counter() - t0 < 10.0
        assert spec.penalties[0] == 1.0 and spec.penalties[1] == 1.0 / (d - 1)

    def test_penalties_are_the_sibling_weights_held_read_only(self, rng):
        G = random_tree(rng, 12)
        spec = LossSpec("hierarchical", hierarchy=G)
        assert spec.penalties is spec.penalties
        np.testing.assert_array_equal(spec.penalties, sibling_weights(G))
        with pytest.raises(ValueError, match="read-only"):
            spec.penalties[0] = 2.0
        assert LossSpec("hamming").penalties is None
        twin = LossSpec("hierarchical", hierarchy=G)
        assert spec == twin and hash(spec) == hash(twin)


class TestHierarchicalLoss:
    def test_identity_is_zero(self):
        G = HierarchyDag(2, [(0, 1)])
        assert hierarchical_loss(G, [1.0, 1.0], [1, 1], [1, 1]) == 0.0

    def test_child_error_with_correct_root(self):
        G = HierarchyDag(2, [(0, 1)])
        assert hierarchical_loss(G, [1.0, 1.0], [1, 1], [1, 0]) == 1.0

    def test_root_error_masks_child(self):
        # Only the root is penalized: the child's ancestor already disagrees.
        G = HierarchyDag(2, [(0, 1)])
        assert hierarchical_loss(G, [1.0, 1.0], [0, 0], [1, 1]) == 1.0

    def test_closed_form_single_node(self):
        G = HierarchyDag(1, [])
        assert hierarchical_loss_closed(G, [0.7], [1], [0]) == pytest.approx(0.7)

    def test_closed_form_matches_direct_on_two_chain(self):
        G = HierarchyDag(2, [(0, 1)])
        c = [1.0, 1.0]
        for y in ([0, 0], [1, 0], [1, 1]):
            for yp in ([0, 0], [1, 0], [1, 1]):
                assert hierarchical_loss_closed(G, c, y, yp) == hierarchical_loss(G, c, y, yp)

    def test_closed_form_matches_direct_exhaustively(self, rng):
        for _ in range(25):
            G = random_tree(rng, int(rng.integers(2, 9)))
            c = sibling_weights(G)
            feas = enumerate_feasible(G)
            for y in feas:
                for yp in feas:
                    assert hierarchical_loss_closed(G, c, y, yp) == \
                        hierarchical_loss(G, c, y, yp)

    def test_infeasible_label_rejected(self):
        G = HierarchyDag(2, [(0, 1)])
        with pytest.raises(ValueError):
            hierarchical_loss(G, [1.0, 1.0], [0, 1], [1, 1])


class TestFootrule:
    def test_identical(self):
        assert footrule([2, 1, 3], [2, 1, 3]) == 0.0

    def test_swap_of_two(self):
        assert footrule([1, 2], [2, 1]) == 2.0

    def test_full_reversal_matches_direct_sum(self):
        for d in range(2, 9):
            fwd = np.arange(1, d + 1)
            rev = fwd[::-1]
            assert footrule(fwd, rev) == float(np.sum(np.abs(fwd - rev)))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            footrule([1, 1, 3], [1, 2, 3])

    def test_symmetric(self, rng):
        for _ in range(20):
            a = rng.permutation(5) + 1
            b = rng.permutation(5) + 1
            assert footrule(a, b) == footrule(b, a)


class TestVectorLoss:
    def test_zero_on_equal(self):
        assert vector_loss("absolute", [1.0, 2.0], [1.0, 2.0]) == 0.0
        assert vector_loss("square", [1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_square_corner(self):
        assert vector_loss("absolute", [0, 0], [1, 1]) == 2.0
        assert vector_loss("square", [0, 0], [1, 1]) == 2.0

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            vector_loss("absolute", [0, 0], [1, 1, 1])


class TestAdditiveCoefficients:
    def test_hamming_single_sample(self):
        coeffs, offset = additive_coefficients(
            LossSpec("hamming"), np.array([[1, 0]]), np.array([0.5]))
        np.testing.assert_allclose(coeffs, [-0.5, 0.5])
        assert offset == 0.5

    def test_hamming_formula(self, rng):
        m, d = 5, 4
        Y = rng.integers(0, 2, size=(m, d))
        w = rng.normal(size=m)
        coeffs, offset = additive_coefficients(LossSpec("hamming"), Y, w)
        for j in range(d):
            assert coeffs[j] == pytest.approx(float(np.sum(w * (1 - 2 * Y[:, j]))), abs=1e-12)
        assert offset == pytest.approx(float(np.sum(w * Y.sum(axis=1))), abs=1e-12)

    def test_objective_reproduces_risk(self, rng):
        # coeffs . y + offset must equal the weighted loss sum on every
        # feasible label, for both decomposable hierarchy losses.
        from ecrm.model import risk_from_weights
        for _ in range(10):
            G = random_tree(rng, int(rng.integers(2, 10)))
            m = int(rng.integers(1, 6))
            labels = np.array([random_feasible_label(rng, G) for _ in range(m)])
            w = rng.normal(size=m)
            W = rng.normal(size=(3, m))
            for loss in (LossSpec("hamming"), LossSpec("hierarchical", hierarchy=G)):
                coeffs, offset = additive_coefficients(loss, labels, w)
                batch, offsets = additive_coefficients(loss, labels, W)
                assert batch.shape == (3, G.d) and offsets.shape == (3,)
                for y in enumerate_feasible(G):
                    direct = risk_from_weights(w, labels, loss, y)
                    assert float(coeffs @ y + offset) == pytest.approx(direct, abs=1e-9)
                    for q in range(3):
                        direct = risk_from_weights(W[q], labels, loss, y)
                        assert float(batch[q] @ y + offsets[q]) == pytest.approx(
                            direct, abs=1e-9)

    def test_footrule_cost_matrix(self, rng):
        m, d = 4, 5
        sig = np.array([rng.permutation(d) + 1 for _ in range(m)])
        w = rng.normal(size=m)
        C, offset = additive_coefficients(LossSpec("footrule"), sig, w)
        assert offset == 0.0
        W = rng.normal(size=(3, m))
        Cb, offsets = additive_coefficients(LossSpec("footrule"), sig, W)
        assert Cb.shape == (3, d, d)
        np.testing.assert_array_equal(offsets, np.zeros(3))
        for j in range(d):
            for k in range(d):
                assert C[j, k] == pytest.approx(
                    float(np.sum(w * np.abs((k + 1) - sig[:, j]))), abs=1e-12)
                for q in range(3):
                    assert Cb[q, j, k] == pytest.approx(
                        float(np.sum(W[q] * np.abs((k + 1) - sig[:, j]))), abs=1e-12)

    def test_footrule_rejects_labels_that_are_not_permutations(self):
        for bad in ([[1, 0, 1]], [[1, 2, 2]], [[0, 1, 2]]):
            with pytest.raises(ValueError,
                               match=r"training label 1 is not a permutation of 1\.\.3"):
                additive_coefficients(LossSpec("footrule"), np.array([[3, 1, 2], *bad]),
                                      np.ones(2))

    def test_non_additive_kinds_rejected(self):
        with pytest.raises(ValueError):
            additive_coefficients(LossSpec("zero_one"), np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            additive_coefficients(LossSpec("absolute"), np.array([[1.0]]), np.array([1.0]))


def _reference_coefficients(loss, Y, W):
    """Each additive loss's coefficients and offsets from plain numpy ``@``
    products, one arc at a time for the hierarchical loss."""
    W = np.atleast_2d(W)
    Yf = np.asarray(Y, dtype=float)
    if loss.kind == "hamming":
        return W @ (1.0 - 2.0 * Yf), W @ Yf.sum(axis=1)
    if loss.kind == "footrule":
        m, d = Y.shape
        ranks = np.arange(1, d + 1)
        A = np.abs(ranks[None, None, :] - Yf[:, :, None]).reshape(m, d * d)
        return (W @ A).reshape(-1, d, d), np.zeros(W.shape[0])
    G, c = loss.hierarchy, loss.penalties
    s = G.roots[0]
    T = W @ Yf
    C = np.zeros((W.shape[0], G.d))
    C[:, s] = c[s] * (W @ (1.0 - 2.0 * Yf[:, s]))
    for par, ch in G.arcs:
        U = W @ (Yf[:, par] * Yf[:, ch])
        C[:, par] += c[ch] * T[:, ch]
        C[:, ch] += c[ch] * (T[:, par] - U - T[:, ch])
    return C, c[s] * T[:, s]


class TestCoefficientProducts:
    """The weight-to-coefficient products against plain numpy ``@``."""

    @staticmethod
    def _cases(rng, m):
        # One query, a batch, a strided row slice and a transposed view.
        big = rng.normal(size=(10, m))
        return [rng.normal(size=m), rng.normal(size=(1, m)), rng.normal(size=(5, m)),
                big[::2], np.ascontiguousarray(big[:4].T).T]

    @staticmethod
    def _losses(rng):
        G = random_tree(rng, 12)
        Y = np.array([random_feasible_label(rng, G) for _ in range(9)])
        S = np.array([rng.permutation(6) + 1 for _ in range(9)])
        return [(LossSpec("hamming"), Y, hierarchy_space(G)),
                (LossSpec("hierarchical", hierarchy=G), Y, hierarchy_space(G)),
                (LossSpec("footrule"), S, assignment_space(6))]

    def test_match_numpy_reference(self, rng):
        for loss, Y, _ in self._losses(rng):
            for W in self._cases(rng, Y.shape[0]):
                coeffs, offset = additive_coefficients(loss, Y, W)
                ref_c, ref_o = _reference_coefficients(loss, Y, W)
                if W.ndim == 1:
                    ref_c, ref_o = ref_c[0], float(ref_o[0])
                assert np.shape(coeffs) == ref_c.shape and np.shape(offset) == np.shape(ref_o)
                scale = np.abs(ref_c).max()
                np.testing.assert_allclose(coeffs, ref_c, rtol=1e-12, atol=1e-12 * scale)
                np.testing.assert_allclose(offset, ref_o, rtol=1e-12,
                                           atol=1e-12 * np.abs(ref_o).max())

    def test_single_query_equals_its_batch_row(self, rng):
        X = rng.normal(size=(9, 3))
        Xq = rng.normal(size=(6, 3))
        for loss, Y, space in self._losses(rng):
            model = fit(KernelSpec("rbf", gamma=0.7), 0.05, X, Y)
            batch = infer(model, loss, space, Xq)
            for q in range(Xq.shape[0]):
                np.testing.assert_array_equal(infer(model, loss, space, Xq[q]).y_star,
                                              batch[q].y_star)


class TestLossBound:
    def test_discrete_bounds(self):
        G = HierarchyDag(3, [(0, 1), (0, 2)])
        assert loss_bound(LossSpec("hamming"), hierarchy_space(G)) == 3.0
        assert loss_bound(LossSpec("hamming"), hierarchy_space(HierarchyDag(6, []))) == 6.0
        assert loss_bound(LossSpec("footrule"), assignment_space(5)) == 12.0
        hier = LossSpec("hierarchical", hierarchy=G)
        assert loss_bound(hier) == pytest.approx(2.0)  # 1 + 0.5 + 0.5
        assert loss_bound(LossSpec("zero_one")) == 1.0
        for kind in ("hamming", "footrule", "absolute", "square"):
            with pytest.raises(ValueError, match="requires an output space"):
                loss_bound(LossSpec(kind))

    def test_flow_bounds_from_vertices(self):
        from ecrm import default_flow_network, flow_space
        space = flow_space(default_flow_network())
        ab = loss_bound(LossSpec("absolute"), space)
        sq = loss_bound(LossSpec("square"), space)
        assert ab >= sq > 0  # vertex coordinates are 0/1 so L1 >= L2^2

    @staticmethod
    def _pairwise_sup(kind, verts):
        best = 0.0
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                best = max(best, vector_loss(kind, verts[i], verts[j]))
        return best

    def test_vector_bounds_equal_pairwise_definition_on_explicit_spaces(self, rng):
        # The cap is printed whenever it binds, so it must equal the pairwise
        # sup bit for bit, on unrounded and on rounded coordinates alike.
        from ecrm import explicit_space
        for _ in range(150):
            n, d = int(rng.integers(2, 25)), int(rng.integers(1, 150))
            M = rng.normal(size=(n, d)) * 10 ** rng.uniform(-3, 3)
            if rng.random() < 0.5:
                M = np.round(M, int(rng.integers(0, 6)))
            M = np.unique(M, axis=0)
            space = explicit_space([tuple(r) for r in M])
            for kind in ("absolute", "square"):
                assert loss_bound(LossSpec(kind), space) == self._pairwise_sup(kind, M)

    def test_vector_bounds_equal_pairwise_definition_on_a_layered_network(self):
        # Three layers of three nodes, complete between layers: 27 paths.
        from ecrm import FlowNetwork, enumerate_st_paths, flow_space
        k, layers = 3, 3
        arcs = [(0, 1 + j) for j in range(k)]
        for l in range(layers - 1):
            arcs += [(1 + l * k + a, 1 + (l + 1) * k + b) for a in range(k) for b in range(k)]
        t = 1 + layers * k
        arcs += [(1 + (layers - 1) * k + a, t) for a in range(k)]
        net = FlowNetwork(n_nodes=t + 1, arcs=arcs, b=[1.0] + [0.0] * (t - 1) + [-1.0])
        P = enumerate_st_paths(net)
        assert P.shape[0] == 27
        for kind, expect in (("absolute", 8.0), ("square", 8.0)):
            got = loss_bound(LossSpec(kind), flow_space(net))
            assert got == self._pairwise_sup(kind, P) == expect

    def test_all_losses_zero_on_equal_pairs(self, rng):
        G = random_tree(rng, 5)
        y = random_feasible_label(rng, G)
        assert loss_value(LossSpec("hamming"), y, y) == 0.0
        assert loss_value(LossSpec("hierarchical", hierarchy=G), y, y) == 0.0
        s = rng.permutation(4) + 1
        assert loss_value(LossSpec("footrule"), s, s) == 0.0
        v = rng.normal(size=3)
        assert loss_value(LossSpec("absolute"), v, v) == 0.0
        assert loss_value(LossSpec("square"), v, v) == 0.0
        assert loss_value(LossSpec("zero_one"), [1.0], [1.0]) == 0.0
