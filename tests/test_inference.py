"""Exact combinatorial inference: closure solver, assignment solver, dispatch."""

import numpy as np
import pytest

from ecrm import (HierarchyDag, KernelSpec, LossSpec, assignment_cost,
                  assignment_space, explicit_space, fit,
                  hierarchy_space, infer, infer_batch, infer_from_weights,
                  solve_assignment, solve_hierarchy, weights)
from ecrm.closure import _solve_dinic
from ecrm.losses import footrule_cost_matrix
from ecrm.model import risk_from_weights
from ecrm.spaces import nonmembers
from conftest import random_dag, random_feasible_label, random_kernel, random_tree
from _oracles import (all_permutations, enumerate_feasible, footrule_risks,
                      hamming_risks, hierarchical_risks_direct, lex_argmin, sign_rule)


class TestSolveHierarchy:
    def test_all_positive_costs_give_zero_vector(self, rng):
        G = random_tree(rng, 6)
        y = solve_hierarchy(rng.uniform(0.1, 1.0, size=6), G)
        np.testing.assert_array_equal(y, np.zeros(6))

    def test_three_chain_example(self):
        # Closed sets of the chain are {}, {0}, {0,1}, {0,1,2} with objective
        # values 0, -1, -2, 0; the solver must pick {0,1}.
        G = HierarchyDag(3, [(0, 1), (1, 2)])
        c = np.array([-1.0, -1.0, 2.0])
        y = solve_hierarchy(c, G)
        np.testing.assert_array_equal(y, [1, 1, 0])
        assert float(c @ y) == -2.0

    def test_matches_enumeration_on_random_trees(self, rng):
        for _ in range(60):
            d = int(rng.integers(2, 16))
            G = random_tree(rng, d)
            c = rng.normal(size=d)
            y = solve_hierarchy(c, G)
            feas = enumerate_feasible(G)
            vals = feas @ c
            best = lex_argmin(feas, vals)
            assert float(c @ y) == pytest.approx(float(vals[best]), abs=1e-12)
            np.testing.assert_array_equal(y, feas[best])

    def test_matches_enumeration_on_random_dags(self, rng):
        # Small-integer rows tie often; each must still give the
        # lexicographically smallest enumerated optimum.  Dense DAGs make the
        # cut send flow back from parent to child now and then.
        multi_parent = 0
        for _ in range(200):
            d = int(rng.integers(3, 12))
            G = random_dag(rng, d, extra=d)
            multi_parent += G.dropped_arcs[0].size > 0
            feas = enumerate_feasible(G)
            C = np.array([rng.normal(size=d), rng.integers(-2, 3, size=d),
                          rng.integers(-1, 2, size=d)], dtype=float)
            for c, y in zip(C, solve_hierarchy(C, G)):
                vals = feas @ c
                np.testing.assert_array_equal(y, feas[lex_argmin(feas, vals)])
        assert multi_parent > 0

    def test_tie_break_is_lexicographic_minimum(self):
        G = HierarchyDag(2, [(0, 1)])
        # Zero cost everywhere: every feasible point optimal; want (0, 0).
        np.testing.assert_array_equal(solve_hierarchy([0.0, 0.0], G), [0, 0])
        # {0} and {0,1} tie at -1; want (1, 0).
        np.testing.assert_array_equal(solve_hierarchy([-1.0, 0.0], G), [1, 0])

    def test_result_is_feasible(self, rng):
        for _ in range(20):
            G = random_dag(rng, 10, extra=3)
            y = solve_hierarchy(rng.normal(size=10), G)
            assert nonmembers(hierarchy_space(G), y[None])[0].size == 0

    def test_deep_chain_optimum(self, rng):
        # On a chain the closed sets are the prefixes, so the optimum is the
        # shortest prefix with the least cumulative cost.  The leaf's gain
        # has to cross all 3000 levels to reach the root's sink arc.
        # The redundant arc (0, 2) keeps the closed sets but gives node 2 two
        # parents; the spanning forest keeps the chain and drops (0, 2).  The
        # cut is checked on that network too.
        d = 3000
        chain = [(j, j + 1) for j in range(d - 1)]
        sparse = np.zeros(d)
        sparse[[0, 1, d - 1]] = [-1.0, 1.0, -2.0]
        C = np.array([sparse, rng.choice([-1.0, 0.0, 1.0], size=d, p=[0.3, 0.5, 0.2])])
        prefix = np.concatenate((np.zeros((2, 1)), np.cumsum(C, axis=1)), axis=1)
        want = (np.arange(d) < np.argmin(prefix, axis=1)[:, None]).astype(np.int64)
        for G, forest in ((HierarchyDag(d, chain), True),
                          (HierarchyDag(d, chain + [(0, 2)]), False)):
            assert (G.dropped_arcs[0].size == 0) == forest
            np.testing.assert_array_equal(solve_hierarchy(C, G), want)
            np.testing.assert_array_equal(_solve_dinic(C, G), want)

    def test_star_of_3000_leaves(self, rng):
        # Root 0 with 3000 leaves: the root is on when its cost plus the
        # negative leaf costs is strictly negative, and then so is every
        # negative leaf.  Integer costs keep the tie row exact.
        d = 3001
        G = HierarchyDag(d, [(0, j) for j in range(1, d)])
        assert G.dropped_arcs[0].size == 0
        leaves = rng.choice([-1.0, 0.0, 1.0], size=d - 1)
        gain = float(np.minimum(leaves, 0.0).sum())
        C = np.array([np.concatenate(([root], leaves))
                      for root in (-gain - 1.0, -gain, -gain + 1.0)])
        for y, on in zip(solve_hierarchy(C, G), (1, 0, 0)):
            np.testing.assert_array_equal(y, np.concatenate(([on], on * (leaves < 0))))

    def test_forest_dp_matches_max_flow(self, rng):
        # Forests with several roots and isolated nodes; half the cost rows
        # are small integers, whose optima tie often.
        for trial in range(2000):
            d = int(rng.integers(1, 13))
            perm = rng.permutation(d)
            arcs = [(int(perm[rng.integers(j)]), int(perm[j]))
                    for j in range(1, d) if rng.random() < 0.8]
            G = HierarchyDag(d, arcs)
            assert G.dropped_arcs[0].size == 0
            C = (rng.integers(-2, 3, size=(3, d)).astype(float) if trial % 2
                 else rng.normal(size=(3, d)))
            Y = solve_hierarchy(C, G)
            np.testing.assert_array_equal(Y, _solve_dinic(C, G))

    def test_spanning_forest_keeps_the_deepest_parent(self):
        # Node 3's parents 1 and 2 both lie one arc below the root and 0 is
        # the root: it keeps 1, the smallest of the deepest.
        G = HierarchyDag(5, [(0, 1), (0, 2), (2, 3), (1, 3), (0, 3), (3, 4)])
        assert [(n.tolist(), p.tolist()) for n, p in G.forest_levels] == [
            ([1, 2], [0, 0]), ([3], [1]), ([4], [3])]
        assert [a.tolist() for a in G.dropped_arcs] == [[2, 0], [3, 3]]
        # A longer path beats a smaller id.
        G = HierarchyDag(4, [(0, 3), (1, 2), (2, 3)])
        assert [a.tolist() for a in G.dropped_arcs] == [[0], [3]]

    def test_forest_rows_and_repaired_rows_match_max_flow(self, rng, monkeypatch):
        # Every row of a multi-parent DAG goes through the spanning-forest
        # program, and the rows whose answer breaks a dropped arc are cut
        # again on the whole network.  Both kinds must occur, and every row
        # must equal the cut's, also on small-integer rows, which tie often.
        import ecrm.closure
        real, repaired = _solve_dinic, []

        def counted(C, G):
            repaired.append(len(C))
            return real(C, G)

        monkeypatch.setattr(ecrm.closure, "_solve_dinic", counted)
        rows = 0
        for trial in range(400):
            d = int(rng.integers(3, 14))
            G = random_dag(rng, d, extra=int(rng.integers(1, d)))
            C = (rng.integers(-2, 3, size=(4, d)).astype(float) if trial % 2
                 else rng.normal(size=(4, d)))
            np.testing.assert_array_equal(solve_hierarchy(C, G), real(C, G))
            rows += len(C)
        assert 0 < sum(repaired) < rows

    @pytest.mark.parametrize("extra", [0, 3])
    def test_batch_equals_single_rows(self, rng, extra):
        multi_parent = 0
        for _ in range(20):
            d = int(rng.integers(3, 15))
            G = random_dag(rng, d, extra=extra)
            multi_parent += G.dropped_arcs[0].size > 0
            C = rng.normal(size=(5, d))
            C[::2] = rng.integers(-2, 3, size=(3, d))
            Y = solve_hierarchy(C, G)
            assert Y.shape == (5, d) and Y.dtype == np.int64
            for c, y in zip(C, Y):
                np.testing.assert_array_equal(y, solve_hierarchy(c, G))
            assert solve_hierarchy(np.zeros((0, d)), G).shape == (0, d)
        assert (multi_parent > 0) == (extra > 0)

    def test_cost_shape_checked(self):
        G = HierarchyDag(3, [(0, 1), (1, 2)])
        for bad in (np.zeros(2), np.zeros((2, 4)), np.zeros((1, 2, 3))):
            with pytest.raises(ValueError):
                solve_hierarchy(bad, G)
        with pytest.raises(ValueError):
            solve_hierarchy([[0.0, np.nan, 0.0]], G)


class TestSolveAssignment:
    def test_reproduces_single_training_ranking(self):
        sigma1 = np.array([1, 2])
        C = footrule_cost_matrix(sigma1[None, :], np.array([1.0]))
        sigma = solve_assignment(C)
        np.testing.assert_array_equal(sigma, [1, 2])
        assert assignment_cost(C, sigma) == 0.0

    def test_zero_diagonal_prefers_identity(self):
        C = np.ones((4, 4)) - np.eye(4)
        np.testing.assert_array_equal(solve_assignment(C), [1, 2, 3, 4])

    def test_matches_brute_force(self, rng):
        # Small-integer costs tie often; only the optimal cost is promised.
        for trial in range(120):
            d = int(rng.integers(2, 8))
            C = rng.normal(size=(d, d)) if trial % 2 else rng.integers(0, 3, size=(d, d))
            sigma = solve_assignment(C)
            perms = all_permutations(d)
            costs = np.array([assignment_cost(C, p) for p in perms])
            assert assignment_cost(C, sigma) == pytest.approx(float(costs.min()), abs=1e-12)

    def test_cost_is_summed_in_label_order(self, rng):
        # Entries spanning six decades round differently in another order.
        for d in (1, 2, 7, 40, 119):
            C = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-3, 3, size=(d, d))
            sigma = rng.permutation(d) + 1
            total = 0.0
            for j in range(d):
                total += C[j, sigma[j] - 1]
            assert assignment_cost(C, sigma) == total

    def test_negative_entries_allowed(self, rng):
        C = rng.normal(size=(5, 5)) - 10.0
        sigma = solve_assignment(C)
        assert sorted(sigma) == [1, 2, 3, 4, 5]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            solve_assignment(np.zeros((2, 3)))


class TestInferDispatch:
    def test_binary_zero_one_matches_sign_rule(self, rng):
        labels = rng.choice([-1.0, 1.0], size=8)
        X = rng.normal(size=(8, 3))
        model = fit(KernelSpec("rbf", gamma=0.7), 0.2, X, labels)
        space = explicit_space([[-1.0], [1.0]])
        loss = LossSpec("zero_one")
        for _ in range(200):
            x = rng.normal(size=3)
            res = infer(model, loss, space, x)
            w = weights(model, x)
            assert res.y_star[0] == sign_rule(w, labels)
            assert res.certificate.kind == "exact"

    def test_binary_exact_tie_goes_to_lex_smallest(self):
        # Both members have risk 0.5; -1 is the lexicographically smaller,
        # whatever the order the space lists them in.
        for members in ([[1.0], [-1.0]], [[-1.0], [1.0]]):
            res = infer_batch([[0.5, 0.5]], [[1.0], [-1.0]], LossSpec("zero_one"),
                              explicit_space(members))[0]
            np.testing.assert_array_equal(res.y_star, [-1.0])
            assert res.objective == 0.5

    def test_explicit_space_exhaustive_argmin(self, rng):
        members = [rng.normal(size=3) for _ in range(5)]
        space = explicit_space(members)
        labels = np.stack([members[i] for i in rng.integers(0, 5, size=4)])
        w = rng.normal(size=4)
        loss = LossSpec("square")
        res = infer_from_weights(w, labels, loss, space)
        vals = [risk_from_weights(w, labels, loss, m) for m in members]
        assert res.objective == pytest.approx(min(vals), abs=1e-12)

    def test_hierarchy_inference_matches_brute_force(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 13))
            G = random_tree(rng, d)
            m = int(rng.integers(1, 7))
            labels = np.array([random_feasible_label(rng, G) for _ in range(m)])
            w = rng.normal(size=m)
            space = hierarchy_space(G)
            for loss_spec, oracle in (
                    (LossSpec("hamming"), hamming_risks),
                    (LossSpec("hierarchical", hierarchy=G),
                     lambda cands, lab, ww: hierarchical_risks_direct(
                         cands, lab, ww, G, loss_spec.penalties))):
                res = infer_from_weights(w, labels, loss_spec, space)
                feas = enumerate_feasible(G)
                vals = oracle(feas, labels, w)
                solver_val = oracle(res.y_star[None, :], labels, w)[0]
                assert solver_val == pytest.approx(float(vals.min()), abs=1e-10)

    def test_one_node_hierarchy_matches_brute_force(self, rng):
        # A lone root has no arcs, so its bincount of arc terms is empty.
        G = HierarchyDag(1, [])
        labels = np.array([[1], [0], [1]])
        feas = enumerate_feasible(G)
        for loss_spec, vals in (
                (LossSpec("hamming"), lambda w: hamming_risks(feas, labels, w)),
                (LossSpec("hierarchical", hierarchy=G),
                 lambda w: hierarchical_risks_direct(feas, labels, w, G, np.ones(1)))):
            for w in rng.normal(size=(10, 3)):
                res = infer_from_weights(w, labels, loss_spec, hierarchy_space(G))
                np.testing.assert_array_equal(res.y_star, feas[np.argmin(vals(w))])
                assert res.objective == pytest.approx(float(vals(w).min()), abs=1e-12)

    def test_assignment_inference_matches_brute_force(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            m = int(rng.integers(1, 6))
            train = np.array([rng.permutation(d) + 1 for _ in range(m)])
            w = rng.normal(size=m)
            res = infer_from_weights(w, train, LossSpec("footrule"), assignment_space(d))
            perms = all_permutations(d)
            vals = footrule_risks(perms, train, w)
            got = footrule_risks(res.y_star[None, :], train, w)[0]
            assert got == pytest.approx(float(vals.min()), abs=1e-10)

    def test_objective_consistency_with_risk_estimate(self, rng):
        from ecrm import estimate_conditional_risk
        G = random_tree(rng, 8)
        m = 5
        labels = np.array([random_feasible_label(rng, G) for _ in range(m)])
        X = rng.normal(size=(m, 3))
        model = fit(random_kernel(rng), 0.3, X, labels)
        space = hierarchy_space(G)
        for loss in (LossSpec("hamming"), LossSpec("hierarchical", hierarchy=G)):
            x = rng.normal(size=3)
            res = infer(model, loss, space, x)
            direct = estimate_conditional_risk(model, loss, res.y_star, x)
            assert res.objective == pytest.approx(direct, abs=1e-8)

    def test_unsupported_pairs_raise(self, rng):
        G = random_tree(rng, 3)
        with pytest.raises(ValueError):
            infer_from_weights(np.ones(1), np.array([[1, 0, 0]]),
                               LossSpec("footrule"), hierarchy_space(G))
        with pytest.raises(ValueError):
            infer_from_weights(np.ones(1), np.array([[1, 2, 3]]),
                               LossSpec("hamming"), assignment_space(3))

    def test_hierarchical_loss_on_another_hierarchy_raises(self):
        # The labels are feasible in both trees, so without the check G1's
        # coefficients would be minimized over G2's labels with no error.
        G1 = HierarchyDag(4, [(0, 1), (1, 2), (1, 3)])
        G2 = HierarchyDag(4, [(0, 1), (0, 2), (2, 3)])
        labels = np.array([[0, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]])
        W = np.array([[1.0, 0.5, -0.3], [0.2, -1.0, 0.4]])
        with pytest.raises(ValueError, match="another hierarchy"):
            infer_batch(W, labels, LossSpec("hierarchical", hierarchy=G1), hierarchy_space(G2))
        # An equal hierarchy built separately is the space's hierarchy.
        got, want = (infer_batch(W, labels, LossSpec("hierarchical", hierarchy=H),
                                 hierarchy_space(G2))
                     for H in (HierarchyDag(4, G2.arcs), G2))
        assert [r.y_star.tolist() for r in got] == [r.y_star.tolist() for r in want]


class TestInferBatch:
    """``infer`` on a (Q, p) batch returns one result per row, equal to the
    single-query ``infer`` of that row on every kind of space.  A single
    query solves for its weights by two triangular solves, so flow rows
    (``atol``) may move in the last bits; labels may not."""

    def _check(self, model, loss, space, Xq, params=None, atol=0.0):
        batch = infer(model, loss, space, Xq, params)
        assert isinstance(batch, list) and len(batch) == Xq.shape[0]
        for res, x in zip(batch, Xq):
            single = infer(model, loss, space, x, params)
            np.testing.assert_allclose(res.y_star, single.y_star, rtol=0, atol=atol)
            assert res.objective == pytest.approx(single.objective, rel=1e-12, abs=1e-12)
            assert res.certificate.kind == single.certificate.kind

    def test_explicit_sign_rule(self, rng):
        labels = rng.choice([-1.0, 1.0], size=8)
        model = fit(KernelSpec("rbf", gamma=0.7), 0.2, rng.normal(size=(8, 3)), labels)
        loss, space = LossSpec("zero_one"), explicit_space([[-1.0], [1.0]])
        Xq = rng.normal(size=(7, 3))
        self._check(model, loss, space, Xq)
        assert ([r.y_star[0] for r in infer(model, loss, space, Xq)]
                == [sign_rule(w, labels) for w in weights(model, Xq)])

    def test_explicit_general(self, rng):
        members = [rng.normal(size=2) for _ in range(5)]
        labels = np.stack([members[i] for i in rng.integers(0, 5, size=6)])
        model = fit(KernelSpec("rbf", gamma=0.7), 0.2, rng.normal(size=(6, 3)), labels)
        for loss in (LossSpec("square"), LossSpec("absolute"), LossSpec("zero_one")):
            self._check(model, loss, explicit_space(members), rng.normal(size=(7, 3)))

    def test_hierarchy(self, rng):
        G = random_tree(rng, 9)
        labels = np.array([random_feasible_label(rng, G) for _ in range(6)])
        model = fit(random_kernel(rng), 0.3, rng.normal(size=(6, 3)), labels)
        for loss in (LossSpec("hamming"), LossSpec("hierarchical", hierarchy=G)):
            self._check(model, loss, hierarchy_space(G), rng.normal(size=(7, 3)))

    @pytest.mark.parametrize("intercept", ["none", "centered"])
    def test_hamming_on_a_dag_solves_d_plus_one_columns(self, rng, monkeypatch, intercept):
        # 20 rows > d + 1 = 8: the batch's solve takes the label embedding's
        # 8 columns (9 with the intercept's); each single query solves its
        # own row by two triangular solves.
        import ecrm.model
        G = HierarchyDag(7, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 5), (4, 6), (5, 6)])
        labels = np.array([random_feasible_label(rng, G) for _ in range(30)])
        model = fit(KernelSpec("rbf", gamma=0.5), 0.05, rng.normal(size=(30, 3)), labels,
                    intercept_mode=intercept)
        solve, trsv, widths, rows = ecrm.model.cho_solve, ecrm.model.dtrsv, [], []
        monkeypatch.setattr(ecrm.model, "cho_solve",
                            lambda c, b, **kw: widths.append(b.shape[1]) or solve(c, b, **kw))
        monkeypatch.setattr(ecrm.model, "dtrsv",
                            lambda a, x, **kw: rows.append(x.shape) or trsv(a, x, **kw))
        self._check(model, LossSpec("hamming"), hierarchy_space(G), rng.normal(size=(20, 3)))
        assert widths == [8 + (intercept == "centered")]
        assert rows == [(30,)] * 40

    def test_assignment(self, rng):
        labels = np.array([rng.permutation(5) + 1 for _ in range(6)])
        model = fit(random_kernel(rng), 0.3, rng.normal(size=(6, 3)), labels)
        self._check(model, LossSpec("footrule"), assignment_space(5), rng.normal(size=(7, 3)))

    def test_one_row_takes_two_triangular_solves(self, rng, monkeypatch):
        import ecrm.model
        G = random_tree(rng, 6)
        labels = np.array([random_feasible_label(rng, G) for _ in range(12)])
        model = fit(KernelSpec("rbf", gamma=0.5), 0.1, rng.normal(size=(12, 3)), labels)
        calls = []
        for name in ("cho_solve", "dtrsv"):
            real = getattr(ecrm.model, name)
            monkeypatch.setattr(ecrm.model, name, lambda *a, _n=name, _f=real, **kw:
                                calls.append(_n) or _f(*a, **kw))
        loss, space = LossSpec("hierarchical", hierarchy=G), hierarchy_space(G)
        for x in (rng.normal(size=3), rng.normal(size=(1, 3))):
            infer(model, loss, space, x)
            assert calls == ["dtrsv", "dtrsv"]
            calls.clear()
        infer(model, loss, space, rng.normal(size=(4, 3)))
        assert calls == ["cho_solve"]

    @pytest.mark.parametrize("kind", ["square", "absolute"])
    def test_flow(self, rng, kind, monkeypatch):
        import ecrm.inference
        from ecrm import SolverParams, default_flow_network, enumerate_st_paths, flow_space
        net = default_flow_network()
        P = enumerate_st_paths(net)
        labels = np.array([rng.dirichlet(np.ones(P.shape[0])) @ P for _ in range(6)])
        model = fit(KernelSpec("rbf", gamma=0.5), 0.05, rng.normal(size=(6, 3)), labels)
        name = {"square": "solve_flow_sq_batch", "absolute": "solve_flow_abs_batch"}[kind]
        solver, calls = getattr(ecrm.inference, name), []
        monkeypatch.setattr(ecrm.inference, name,
                            lambda W, *a: calls.append(len(W)) or solver(W, *a))
        self._check(model, LossSpec(kind), flow_space(net), rng.normal(size=(5, 3)),
                    SolverParams(max_iters=30, restarts=2), atol=1e-12)
        # The batch takes one solver call; each of the 5 single queries one more.
        assert calls == [5] + [1] * 5

    @pytest.mark.parametrize("case", ["hamming", "hierarchical", "footrule",
                                      "flow-absolute", "flow-square", "explicit"])
    def test_empty_batch(self, rng, case):
        from ecrm import default_flow_network, enumerate_st_paths, flow_space
        if case in ("hamming", "hierarchical"):
            G = random_tree(rng, 7)
            labels = np.array([random_feasible_label(rng, G) for _ in range(5)])
            loss, space = LossSpec(case, hierarchy=G), hierarchy_space(G)
        elif case == "footrule":
            labels = np.array([rng.permutation(4) + 1 for _ in range(5)])
            loss, space = LossSpec("footrule"), assignment_space(4)
        elif case.startswith("flow"):
            net = default_flow_network()
            P = enumerate_st_paths(net)
            labels = rng.dirichlet(np.ones(P.shape[0]), size=5) @ P
            loss, space = LossSpec(case[5:]), flow_space(net)
        else:
            members = [rng.normal(size=2) for _ in range(3)]
            labels = np.stack([members[i] for i in (0, 1, 2, 0, 1)])
            loss, space = LossSpec("square"), explicit_space(members)
        model = fit(KernelSpec("rbf", gamma=0.5), 0.1, rng.normal(size=(5, 3)), labels)
        assert infer(model, loss, space, np.zeros((0, 3))) == []


class TestModelState:
    """``infer`` builds what a solver derives from the stored labels
    (``inference.solver_state``) on a model's first call and keeps it on
    the model; without a model, the solver builds the same state per call.
    Both must give the same bits."""

    CASES = ("footrule", "hamming", "flow-absolute", "flow-square")

    @staticmethod
    def _case(rng, case, m=12):
        from ecrm import SolverParams, default_flow_network, enumerate_st_paths, flow_space
        params = None
        if case == "footrule":
            labels = np.array([rng.permutation(6) + 1 for _ in range(m)])
            loss, space = LossSpec("footrule"), assignment_space(6)
        elif case == "hamming":
            G = random_dag(rng, 8)
            labels = np.array([random_feasible_label(rng, G) for _ in range(m)])
            loss, space = LossSpec("hamming"), hierarchy_space(G)
        else:
            net = default_flow_network()
            P = enumerate_st_paths(net)
            labels = rng.dirichlet(np.ones(P.shape[0]), size=m) @ P
            loss, space = LossSpec(case[5:]), flow_space(net)
            params = SolverParams(max_iters=30, restarts=2)
        X = rng.normal(size=(m, 3))
        return X, labels, loss, space, params

    @staticmethod
    def _same(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.y_star, b.y_star)
            assert (a.objective, a.certificate) == (b.objective, b.certificate)

    @pytest.mark.parametrize("case", CASES)
    def test_kept_state_gives_the_bits_of_a_per_call_build(self, rng, case):
        from ecrm.losses import label_embedding
        X, labels, loss, space, params = self._case(rng, case)
        model = fit(KernelSpec("rbf", gamma=0.5), 0.1, X, labels)
        Phi = label_embedding(loss, labels) if case == "hamming" else None
        for x in [*rng.normal(size=(3, 3)), rng.normal(size=(4, 3))]:
            want = infer_batch(weights(model, x, Phi), labels, loss, space, params,
                               embedded=Phi is not None)
            for _ in range(2):      # the first call builds the state, the second reads it
                got = infer(model, loss, space, x, params)
                self._same(got if x.ndim == 2 else [got], want)

    @pytest.mark.parametrize("case", CASES)
    def test_one_build_per_model(self, monkeypatch, rng, case):
        import ecrm.inference
        builds, build = [], ecrm.inference.solver_state
        monkeypatch.setattr(ecrm.inference, "solver_state",
                            lambda *a, **kw: builds.append(1) or build(*a, **kw))
        X, labels, loss, space, params = self._case(rng, case)
        model = fit(KernelSpec("rbf", gamma=0.5), 0.1, X, labels)
        for x in rng.normal(size=(100, 3)):
            infer(model, loss, space, x, params)
        assert len(builds) == 1
        # Another space object, even an equal one, gets its own build.
        other = (assignment_space(6) if case == "footrule" else
                 hierarchy_space(space.hierarchy) if case == "hamming" else
                 ecrm.flow_space(space.network))
        infer(model, loss, other, X[0], params)
        assert len(builds) == 2

    @pytest.mark.parametrize("case", ["footrule", "flow-absolute", "flow-square"])
    def test_a_failed_label_check_raises_on_every_call(self, rng, case):
        X, labels, loss, space, params = self._case(rng, case)
        if case == "footrule":
            labels[3] = labels[3][[0, 0, 2, 3, 4, 5]]
            message = "training label 3 is not a permutation of 1..6"
        else:
            labels[3, 0] += 0.5
            message = "training flow 3 violates conservation by 0.5"
        model = fit(KernelSpec("rbf", gamma=0.5), 0.1, X, labels)
        for _ in range(3):
            with pytest.raises(ValueError) as err:
                infer(model, loss, space, X[0], params)
            assert str(err.value) == message
        with pytest.raises(ValueError, match=message):
            infer_batch(weights(model, X[:2]), labels, loss, space, params)

    @pytest.mark.parametrize("case", ["footrule", "flow-absolute", "flow-square"])
    def test_labels_are_checked_on_the_first_call_only(self, monkeypatch, rng, case):
        import ecrm.flow_opt
        import ecrm.inference
        import ecrm.losses
        X, labels, loss, space, params = self._case(rng, case)
        model = fit(KernelSpec("rbf", gamma=0.5), 0.1, X, labels)
        checks = []
        for mod in (ecrm.losses, ecrm.flow_opt):
            monkeypatch.setattr(mod, "nonmembers", lambda *a, _check=mod.nonmembers, **kw:
                                checks.append(1) or _check(*a, **kw))
        for x in rng.normal(size=(20, 3)):
            infer(model, loss, space, x, params)
        assert checks == [1]
        # The solvers take the kept state in place of the labels, unchecked.
        Phi, state = ecrm.inference.model_state(model, loss, space)
        W = weights(model, X[:3])
        self._same(infer_batch(W, state, loss, space, params),
                   infer_batch(W, labels, loss, space, params))
        assert checks == [1, 1]

    def test_flow_labels_of_another_network_raise(self, rng):
        import ecrm.inference
        from ecrm import default_flow_network, flow_space
        X, labels, loss, space, params = self._case(rng, "flow-absolute")
        model = fit(KernelSpec("rbf", gamma=0.5), 0.1, X, labels)
        _, state = ecrm.inference.model_state(model, loss, space)
        other = flow_space(default_flow_network())
        with pytest.raises(ValueError, match="checked against another network"):
            infer_batch(weights(model, X[:1]), state, loss, other, params)

    def test_model_labels_are_read_only(self, rng):
        X, labels, loss, space, params = self._case(rng, "footrule")
        model = fit(KernelSpec("rbf", gamma=0.5), 0.1, X, labels)
        with pytest.raises(ValueError, match="read-only"):
            model.labels[0, 0] = 2
        np.testing.assert_array_equal(model.labels, labels)

    @pytest.mark.parametrize("case", CASES)
    def test_models_with_other_labels_share_no_state(self, rng, case):
        import dataclasses
        X, labels, loss, space, params = self._case(rng, case)
        _, labels2, *_ = self._case(rng, case)
        if case == "hamming":           # labels of the same hierarchy
            G = space.hierarchy
            labels2 = np.array([random_feasible_label(rng, G) for _ in range(len(X))])
        kernel = KernelSpec("rbf", gamma=0.5)
        one, two = fit(kernel, 0.1, X, labels), fit(kernel, 0.1, X, labels2)
        swapped = dataclasses.replace(one, labels=labels2)
        Xq = rng.normal(size=(4, 3))
        for x in Xq:
            for model, Y in ((one, labels), (two, labels2), (swapped, labels2)):
                want = infer(fit(kernel, 0.1, X, Y), loss, space, x, params)
                self._same([infer(model, loss, space, x, params)], [want])
        assert one._memo is not two._memo and swapped._memo is not one._memo
