"""Output spaces: constraint builders, feasibility, TU checks, enumeration."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ecrm import (FlowNetwork, HierarchyDag, assignment_constraint_matrix, assignment_space,
                  default_flow_network, enumerate_space, enumerate_st_paths, explicit_space,
                  flow_space, hierarchy_constraint_matrix, hierarchy_space, is_feasible,
                  is_totally_unimodular)
from ecrm.spaces import _ENUM_BLOCK, flow_residual, flow_residuals, nonmembers
from conftest import random_dag, random_tree


class TestHierarchyConstraintMatrix:
    def test_single_arc(self):
        A = hierarchy_constraint_matrix(HierarchyDag(2, [(0, 1)]))
        np.testing.assert_array_equal(A, [[-1, 1]])
        assert A.dtype == np.int64

    def test_empty_arc_set(self):
        A = hierarchy_constraint_matrix(HierarchyDag(3, []))
        assert A.shape == (0, 3)

    def test_diamond_rows_sum_to_zero(self):
        G = HierarchyDag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        A = hierarchy_constraint_matrix(G)
        assert A.shape == (4, 4)
        np.testing.assert_array_equal(A.sum(axis=1), np.zeros(4))
        assert np.all(np.sort(A, axis=1)[:, 0] == -1)
        assert np.all(np.sort(A, axis=1)[:, -1] == 1)


class TestFeasibility:
    def test_hierarchy_violation(self):
        space = hierarchy_space(HierarchyDag(2, [(0, 1)]))
        assert not is_feasible(space, [0, 1])
        assert is_feasible(space, [1, 1])
        assert is_feasible(space, [0, 0])

    def test_multi_parent_needs_all_parents(self):
        G = HierarchyDag(3, [(0, 2), (1, 2)])
        space = hierarchy_space(G)
        assert not is_feasible(space, [1, 0, 1])
        assert is_feasible(space, [1, 1, 1])

    def test_assignment_matrix_and_ranks(self):
        # A ranking is its vector of d ranks; a d x d matrix is not one.
        space = assignment_space(3)
        assert is_feasible(space, [2, 3, 1])
        assert not is_feasible(space, [1, 1, 3])
        with pytest.raises(ValueError, match=r"labels must be an \(n, 3\) array"):
            is_feasible(space, np.eye(3, dtype=int))

    def test_zero_flow_with_zero_inflows(self):
        net = FlowNetwork(3, [(0, 1), (1, 2)], [0.0, 0.0, 0.0])
        assert is_feasible(flow_space(net), [0.0, 0.0])

    def test_flow_conservation_and_nonnegativity(self):
        net = FlowNetwork(3, [(0, 1), (1, 2)], [1.0, 0.0, -1.0])
        space = flow_space(net)
        assert is_feasible(space, [1.0, 1.0], 1e-9)
        assert not is_feasible(space, [1.0, 0.5], 1e-9)
        assert not is_feasible(space, [-1.0, -1.0], 1e-9)

    def test_circulation_invariance_on_cycle(self):
        # Adding flow around a cycle leaves all divergences unchanged.
        net = FlowNetwork(3, [(0, 1), (1, 2), (2, 0), (0, 2)], [0.0, 0.0, 0.0])
        space = flow_space(net)
        y = np.zeros(4)
        assert is_feasible(space, y, 1e-9)
        circ = np.array([1.0, 1.0, 1.0, 0.0])  # cycle 0->1->2->0
        for scale in (0.5, 1.0, 7.25):
            assert is_feasible(space, y + scale * circ, 1e-9)

    def test_flow_rule_on_paths_mixtures_and_breaks(self, rng):
        net = default_flow_network()
        space = flow_space(net)
        P = enumerate_st_paths(net)
        assert P.shape[0] >= 3
        broken = np.array([2 * P[0] - P[1], P[2], P[0]])
        assert broken[0].min() < 0 and np.allclose(net.divergence(broken[0]), net.b)
        broken[1, 0] += 1e-6
        broken[2, 3] = np.nan
        Y = np.vstack([P, rng.dirichlet(np.full(len(P), 0.5), size=20) @ P, broken])
        bad, why = nonmembers(space, Y)
        np.testing.assert_array_equal(bad, len(Y) - 3 + np.arange(3))
        assert why.startswith("violates conservation by ")
        assert [is_feasible(space, y) for y in Y] == [True] * (len(Y) - 3) + [False] * 3

    def test_explicit_membership(self):
        space = explicit_space([[0.0, 1.0], [1.0, 0.0]])
        assert is_feasible(space, [1.0, 0.0])
        assert not is_feasible(space, [0.5, 0.5])


def _kahn_order(n, arcs):
    """Queue-based Kahn order: sources by id, then nodes as their last
    incoming arc is removed, scanning each node's arcs in arc order."""
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for t, h in arcs:
        indeg[h] += 1
        out[t].append(h)
    order = [v for v in range(n) if indeg[v] == 0]
    for u in order:
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    return order if len(order) == n else None


class TestFlowNetworkOrder:
    def test_matches_kahn_order_with_parallel_arcs(self, rng):
        # The path oracle's tie-breaking depends on this exact order.
        for _ in range(200):
            n = int(rng.integers(2, 9))
            perm = rng.permutation(n)
            arcs = []
            for _ in range(int(rng.integers(1, 3 * n))):
                i, j = sorted(rng.choice(n, size=2, replace=False))
                arcs.append((int(perm[i]), int(perm[j])))
                if rng.random() < 0.2:
                    arcs.append(arcs[-1])
            net = FlowNetwork(n, arcs, [0.0] * n)
            assert net.topological_order() == _kahn_order(n, arcs)

    def test_cycle_gives_none(self):
        net = FlowNetwork(3, [(0, 1), (1, 2), (2, 1)], [0.0, 0.0, 0.0])
        assert net.topological_order() is None
        assert not net.is_acyclic


def _flow_constraint_matrix(net):
    """Node-arc incidence rows of a flow network, as the network holds them
    for ``divergence``; the flows are the points y >= 0 with ``A y = b``."""
    return net._incidence.toarray().astype(np.int64)


def _divergence_by_arcs(net, y):
    """Outflow minus inflow, one arc at a time in arc order."""
    div = np.zeros(net.n_nodes)
    for a, (t, h) in enumerate(net.arcs):
        div[t] += y[a]
        div[h] -= y[a]
    return div


class TestFlowResiduals:
    def test_divergence_matches_arc_loop_bit_for_bit(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            arcs = [tuple(int(v) for v in rng.choice(n, size=2, replace=False))
                    for _ in range(int(rng.integers(1, 3 * n)))]
            arcs += arcs[:int(rng.integers(0, 3))]   # parallel arcs
            net = FlowNetwork(n, arcs, [0.0] * n)
            Y = rng.normal(size=(4, len(arcs))) * 10.0 ** rng.uniform(-3, 3)
            D = net.divergence(Y)
            assert D.shape == (4, n)
            for i in range(4):
                expect = _divergence_by_arcs(net, Y[i])
                np.testing.assert_array_equal(D[i], expect)
                np.testing.assert_array_equal(net.divergence(Y[i]), expect)

    def test_batch_residuals_equal_single(self, rng):
        net = FlowNetwork(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)], [1.0, 0.0, 0.0, -1.0])
        Y = rng.normal(size=(30, 5))
        Y[:3] = [[1, 0, 1, 0, 0], [0.5, 0.5, 0.5, 0.5, 0], [1, 0, 0, 1, 1]]
        got = flow_residuals(net, Y)
        assert got[:3].max() == 0.0
        for i in range(Y.shape[0]):
            assert got[i] == flow_residual(net, Y[i])
            neg = max(0.0, -float(Y[i].min()))
            expect = max(float(np.abs(_divergence_by_arcs(net, Y[i]) - net.b).max()), neg)
            assert got[i] == expect

    def test_constraint_matrix_is_the_incidence(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            arcs = [tuple(int(v) for v in rng.choice(n, size=2, replace=False))
                    for _ in range(int(rng.integers(1, 7)))]
            net = FlowNetwork(n, arcs, [0.0] * n)
            A = _flow_constraint_matrix(net)
            assert A.dtype == np.int64
            for a in range(len(arcs)):
                np.testing.assert_array_equal(A[:, a], _divergence_by_arcs(net, np.eye(len(arcs))[a]))
            assert is_totally_unimodular(A) is True
        assert is_totally_unimodular(_flow_constraint_matrix(default_flow_network())) is True

    def test_wrong_width_rejected(self):
        net = FlowNetwork(2, [(0, 1)], [1.0, -1.0])
        with pytest.raises(ValueError, match="flow has 2 entries for 1 arcs"):
            net.divergence(np.zeros((3, 2)))


class TestTotallyUnimodular:
    def test_identity_is_tu(self):
        assert is_totally_unimodular(np.eye(4)) is True

    def test_two_by_two_counterexample(self):
        assert is_totally_unimodular([[1, 1], [1, -1]]) is False

    def test_entries_outside_ternary_fail(self):
        assert is_totally_unimodular([[2, 0], [0, 1]]) is False
        # The 1x1 submatrix [2] decides it however many submatrices there are.
        big = np.eye(30)
        big[7, 7] = 2.0
        assert is_totally_unimodular(big, size_cap=10) is False

    def test_hierarchy_matrices_are_tu(self, rng):
        for _ in range(10):
            G = random_tree(rng, int(rng.integers(2, 7)))
            assert is_totally_unimodular(hierarchy_constraint_matrix(G)) is True
        for _ in range(5):
            G = random_dag(rng, int(rng.integers(3, 7)), extra=2)
            assert is_totally_unimodular(hierarchy_constraint_matrix(G)) is True

    def test_assignment_matrices_are_tu(self):
        for d in (2, 3, 4):
            assert is_totally_unimodular(assignment_constraint_matrix(d)) is True

    def test_size_cap_yields_unknown(self):
        assert is_totally_unimodular(np.eye(30), size_cap=10) is None


class TestEnumerate:
    def test_two_chain(self):
        space = hierarchy_space(HierarchyDag(2, [(0, 1)]))
        got = [tuple(y) for y in enumerate_space(space)]
        assert got == [(0, 0), (1, 0), (1, 1)]

    def test_assignment_count_and_order(self):
        space = assignment_space(3)
        perms = enumerate_space(space)
        assert len(perms) == math.factorial(3)
        assert [tuple(p) for p in perms] == sorted(tuple(p) for p in perms)
        # Of every vector in {1..d}^d, and of ones with a fractional or NaN
        # rank, the batched rule accepts exactly the enumerated permutations.
        for d in range(1, 5):
            space = assignment_space(d)
            Y = np.array(list(itertools.product(range(1, d + 1), repeat=d)), dtype=float)
            Y = np.vstack([Y, np.arange(1.0, d + 1) + 0.5 * np.eye(d)[0],
                           np.r_[np.arange(1.0, d), np.nan]])
            inside = np.ones(len(Y), dtype=bool)
            inside[nonmembers(space, Y)[0]] = False
            assert {tuple(y) for y in Y[inside]} == {tuple(p) for p in enumerate_space(space)}
            assert [is_feasible(space, y) for y in Y] == inside.tolist()

    def test_explicit_returns_own_list(self):
        space = explicit_space([[3.0], [1.0]])
        got = [tuple(y) for y in enumerate_space(space)]
        assert got == [(3.0,), (1.0,)]

    def test_all_outputs_feasible_no_duplicates(self, rng):
        # A forest, a diamond and random multi-parent DAGs: of every vector
        # in {0, 1, 2}^d, the batched rule accepts exactly the enumerated
        # members, and those are the 0/1 vectors whose active nodes have all
        # of their parents active.
        graphs = [HierarchyDag(6, [(0, 1), (0, 2), (3, 4), (4, 5)]),
                  HierarchyDag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])]
        graphs += [random_dag(rng, int(rng.integers(3, 7)), extra=2) for _ in range(5)]
        for G in graphs:
            space = hierarchy_space(G)
            members = enumerate_space(space)
            keys = {tuple(y) for y in members}
            assert len(keys) == len(members)
            Y = np.array(list(itertools.product((0, 1, 2), repeat=G.d)))
            inside = np.ones(len(Y), dtype=bool)
            inside[nonmembers(space, Y)[0]] = False
            want = [set(y) <= {0, 1} and all(y[p] >= y[c] for p, c in G.arcs)
                    for y in Y.tolist()]
            assert inside.tolist() == want
            assert {tuple(y) for y in Y[inside]} == keys
            assert [is_feasible(space, y) for y in Y] == want

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            enumerate_space(assignment_space(8), cap=100)

    def test_hierarchy_blocks_keep_order_and_cap(self, rng):
        # Over several blocks of candidates, the members and their order are
        # those of the whole candidate table, and the cap error counts them all.
        G = random_dag(rng, 16, extra=4)
        assert 1 << G.d > 2 * _ENUM_BLOCK
        cand = (np.arange(1 << G.d)[:, None] >> np.arange(G.d - 1, -1, -1)) & 1
        space = hierarchy_space(G)
        want = np.delete(cand, nonmembers(space, cand)[0], axis=0)
        got = enumerate_space(space)
        assert all(y.dtype == np.int64 for y in got)
        np.testing.assert_array_equal(np.array(got), want)
        with pytest.raises(ValueError, match=f"space has {len(want)} members, cap is 5$"):
            enumerate_space(space, cap=5)

    def test_twenty_node_chain_in_bounded_memory(self):
        # 2^20 candidates and 21 members.  The whole candidate table and its
        # checks would take ~240 MB; block by block they take a few MB.
        space = hierarchy_space(HierarchyDag(20, [(j, j + 1) for j in range(19)]))
        tracemalloc.start()
        try:
            members = enumerate_space(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert [y.tolist() for y in members] == [[1] * k + [0] * (20 - k) for k in range(21)]

    def test_continuous_rejected(self):
        net = FlowNetwork(2, [(0, 1)], [1.0, -1.0])
        with pytest.raises(ValueError):
            enumerate_space(flow_space(net))

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError):
            explicit_space([[1.0], [1.0]])
