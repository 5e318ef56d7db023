"""Flow-polytope machinery: path enumeration, min-norm-point projection, and
the L1/L2 solvers."""

import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from ecrm import (FlowNetwork, InferenceResult, SolverParams, default_flow_network,
                  enumerate_st_paths, solve_flow_abs_batch, solve_flow_sq_batch)
from ecrm import flow_opt
from ecrm.flow_opt import (_flow_system, _fw_gaps, _l1_breakpoints, _l1_obj_grad,
                           _min_norm_point, _path_atoms, _project_newton, l1_labels,
                           min_cost_paths, project_batch)
from ecrm.spaces import flow_residual, flow_residuals
from _oracles import (abs_flow_objective, flow_projection, l1_flow_minimizer,
                      l1_obj_grad_per_arc, lex_min_cost_path, sequential_l1_descent,
                      simplex_grid, wolfe_l1_descent, wolfe_min_norm_point)

NET = default_flow_network()


def layered_dag(seed, layers=4, width=4, p_arc=0.7):
    """Seeded DAG: a source, ``layers`` layers of ``width`` nodes and a sink;
    each arc between consecutive layers is kept with probability ``p_arc``,
    and every node keeps at least one arc in and one out."""
    rng = np.random.default_rng(seed)
    levels = [[0]] + [list(range(1 + i * width, 1 + (i + 1) * width))
                      for i in range(layers)] + [[1 + layers * width]]
    arcs = set()
    for lo, hi in zip(levels, levels[1:]):
        for u in lo:
            for v in hi:
                if rng.random() < p_arc:
                    arcs.add((u, v))
        for u in lo:
            if not any((u, v) in arcs for v in hi):
                arcs.add((u, hi[int(rng.integers(len(hi)))]))
        for v in hi:
            if not any((u, v) in arcs for u in lo):
                arcs.add((lo[int(rng.integers(len(lo)))], v))
    n = 2 + layers * width
    return FlowNetwork(n, sorted(arcs), [1.0] + [0.0] * (n - 2) + [-1.0])


DAG = layered_dag(8)


def diamond_chain(n):
    """A chain of n diamonds: 2^n s-t paths, all of length 2n.  The
    lexicographically smallest takes the second branch of every diamond and
    is enumerated last."""
    arcs = [a for u in range(0, 3 * n, 3)
            for a in ((u, u + 1), (u, u + 2), (u + 1, u + 3), (u + 2, u + 3))]
    return FlowNetwork(3 * n + 1, arcs, [1.0] + [0.0] * (3 * n - 1) + [-1.0])


# The 3000-node chain: one s-t path through every arc.
CHAIN = FlowNetwork(3000, [(j, j + 1) for j in range(2999)], [1.0] + [0.0] * 2998 + [-1.0])
# Source 0, sink 3.  Node 4 is a dead end and node 5 is unreachable from
# the source, so arcs (0,4), (1,4), (5,1) and (5,3) lie on no s-t path;
# node 6 has one arc in and one out, so (2,6), (6,3) form one super-arc.
SIDE = FlowNetwork(7, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 6), (6, 3), (0, 4), (1, 4),
                       (5, 1), (5, 3)], [1.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0])
# 50 nodes and 221 arcs, with more than 100,000 s-t paths.
WIDE = layered_dag(3, 8, 6, 0.8)


def newton_project(net, Z, pi=None):
    """``_project_newton`` on the rows of Z over ``net``, cold unless the
    potentials ``pi`` are given: ``(Y, pi, ok)``."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    system = _flow_system(net, Z.shape[0])
    if pi is None:
        pi = np.zeros((Z.shape[0], system.incidence.shape[0]))
    return _project_newton(system, Z, pi)


def conserves_to_rounding(net, Y, Z):
    """Whether each row of Y conserves flow to the rounding of its step Z."""
    return np.all(flow_residuals(net, Y) <= 1e-12 * (1.0 + np.abs(Z).max(axis=1)))


def cut_off_from_sink(net, active):
    """The nodes that the arcs flagged in ``active`` do not join to the
    sink, ignoring arc directions, among those that touch any arc."""
    joined, grew = {net.unit_endpoints()[1]}, True
    while grew:
        grew = False
        for (u, v), on in zip(net.arcs, active):
            if on and (u in joined) != (v in joined):
                joined |= {u, v}
                grew = True
    return {u for arc in net.arcs for u in arc} - joined


def random_steps(rng, net, Q):
    """Q points at distances of every order from the network's paths."""
    P = enumerate_st_paths(net)
    Z = rng.normal(size=(Q, net.n_arcs)) * rng.choice([0.1, 1.0, 10.0, 100.0], size=(Q, 1))
    Z[::4] += rng.dirichlet(np.full(P.shape[0], 0.3), size=Z[::4].shape[0]) @ P
    Z[1::8] = rng.dirichlet(np.ones(P.shape[0]), size=Z[1::8].shape[0]) @ P   # feasible
    return Z


def one_row(solver, w, labels, net, params=None):
    """A batched flow solver's result for the one-row batch ``w``."""
    Y, obj, certs = solver(np.asarray(w, dtype=float)[None, :], labels, net, params)
    return InferenceResult(y_star=Y[0], objective=obj[0], certificate=certs[0])


def min_norm_point(P, Z, scale, gap_tol, max_cycles=np.inf):
    """``_min_norm_point`` over the paths P with its gap report: ``(Y, S,
    lam, gaps)``."""
    atoms = _path_atoms(P)
    Y, S, lam = _min_norm_point(atoms, Z, scale, gap_tol, max_cycles)
    return Y, S, lam, _fw_gaps(atoms, Z, scale, Y, S, lam)


def project_one(P, z, scale=1.0, gap_tol=1e-6, max_cycles=10_000):
    """``_min_norm_point`` on the one row z: the point, its weights over the
    rows of P and its Frank-Wolfe gap."""
    Y, S, lam, gaps = min_norm_point(P, np.atleast_2d(z), scale, gap_tol, max_cycles)
    theta = np.zeros(P.shape[0])
    real = S[0] < P.shape[0]
    theta[S[0, real]] = lam[0, real]
    return Y[0], theta, float(gaps[0])


class TestPaths:
    def test_benchmark_network_has_nine_paths(self):
        P = enumerate_st_paths(NET)
        assert P.shape == (9, NET.n_arcs)

    def test_each_path_conserves(self):
        for v in enumerate_st_paths(NET):
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


class TestMinCostPaths:
    @pytest.mark.parametrize("net", [NET, DAG, layered_dag(3, layers=5, width=4, p_arc=0.8),
                                     diamond_chain(13)],
                             ids=["bundled", "layered-dag", "layered-dag-dense", "diamonds-13"])
    def test_matches_lexsort_oracle_with_ties(self, net, rng):
        # Small integral costs make every path cost exact, so ties are
        # real and the oracle must match the brute force exactly.
        P = enumerate_st_paths(net)
        C = rng.integers(-2, 3, size=(40, net.n_arcs)).astype(float)
        C[:3] = 0.0                                   # every path ties
        C[3:6] = rng.integers(0, 2, size=(3, 1))      # every path of a length ties
        Y = min_cost_paths(net, C)
        ties = 0
        for q in range(C.shape[0]):
            costs = P @ C[q]
            ties += (costs == costs.min()).sum() > 1
            np.testing.assert_array_equal(Y[q], lex_min_cost_path(P, C[q]))
        assert ties >= 6
        if net.n_arcs == 52:
            np.testing.assert_array_equal(Y[0], np.tile([0.0, 1.0, 0.0, 1.0], 13))

    def test_one_row_calls_equal_batch_rows_bit_for_bit(self, rng):
        C = rng.normal(size=(50, DAG.n_arcs))
        C[:10] = rng.integers(-1, 2, size=(10, DAG.n_arcs))
        Y = min_cost_paths(DAG, C)
        for q in range(C.shape[0]):
            np.testing.assert_array_equal(min_cost_paths(DAG, C[q])[0], Y[q])

    def test_cyclic_network_rejected(self):
        net = FlowNetwork(3, [(0, 1), (1, 2), (2, 1)], [1.0, 0.0, -1.0])
        with pytest.raises(ValueError):
            min_cost_paths(net, np.zeros((1, 3)))


class TestFrankWolfe:
    def test_projection_of_feasible_point_is_identity(self, rng):
        P = enumerate_st_paths(NET)
        theta = rng.dirichlet(np.ones(P.shape[0]))
        z = theta @ P
        y, _, gap = project_one(P, z, gap_tol=1e-12)
        assert gap <= 1e-12
        np.testing.assert_allclose(y, z, atol=1e-6)

    def test_gap_running_minimum_reaches_tolerance(self, rng):
        z = rng.normal(size=NET.n_arcs)
        _, _, gap = project_one(enumerate_st_paths(NET), z, gap_tol=1e-10)
        assert gap <= 1e-10

    def test_projection_is_feasible(self, rng):
        P = enumerate_st_paths(NET)
        for _ in range(10):
            z = rng.normal(size=NET.n_arcs) * 3
            y, _, _ = project_one(P, z, gap_tol=1e-9)
            assert flow_residual(NET, y) <= 1e-9

    def test_reported_gap_matches_returned_theta(self, rng):
        P = enumerate_st_paths(NET)
        for trial in range(20):
            z = rng.normal(size=NET.n_arcs) * 2
            scale = 1.0 if trial % 2 else float(rng.uniform(0.1, 5.0))
            y, theta, gap = project_one(P, z, scale=scale, gap_tol=1e-10)
            np.testing.assert_allclose(y, theta @ P, rtol=0, atol=1e-14)
            recomputed = 2.0 * scale * (float((y - z) @ y) - float(np.min(P @ (y - z))))
            assert abs(gap - recomputed) <= 1e-12

    def test_certified_projection_matches_nnls(self, rng):
        # Exact projection: min ||P^T theta - z||^2 over the simplex (NNLS
        # support, then the exact weights on it).  The min-norm-point method
        # ends on the optimal corral, so it is exact, not only within
        # sqrt(gap) of the projection.
        P = enumerate_st_paths(NET)
        Z = rng.normal(size=(40, NET.n_arcs)) * 2
        Z[:5] = rng.dirichlet(np.ones(P.shape[0]), size=5) @ P   # inside the polytope
        tol = 1e-10
        Y, gaps = project_batch(Z, NET, gap_tol=tol)
        assert np.all(gaps <= tol)
        for q in range(Z.shape[0]):
            assert np.linalg.norm(Y[q] - flow_projection(P, Z[q])) <= 1e-9
            assert flow_residual(NET, Y[q]) <= 1e-9

    @pytest.mark.parametrize("net", [NET, DAG], ids=["bundled", "layered-dag"])
    def test_projection_matches_oracle(self, net, rng):
        P = enumerate_st_paths(net)
        if net is DAG:
            assert P.shape[0] >= 60
        Z = rng.normal(size=(30, net.n_arcs)) * rng.choice([0.1, 1.0, 10.0], size=(30, 1))
        Z[:6] = rng.dirichlet(np.full(P.shape[0], 0.3), size=6) @ P
        Y, gaps = project_batch(Z, net, gap_tol=1e-12)
        assert np.all(gaps <= 1e-12)
        assert np.max(flow_residuals(net, Y)) <= 1e-9
        for q in range(Z.shape[0]):
            assert np.linalg.norm(Y[q] - flow_projection(P, Z[q])) <= 1e-9

    def test_degenerate_inputs_match_oracle(self, rng):
        P = enumerate_st_paths(DAG)
        K = P.shape[0]
        lengths = P.sum(axis=1)
        i = 0
        j = int(np.flatnonzero(lengths == lengths[i])[1])
        mid = 0.5 * (P[i] + P[j])
        cases = [P[0], P[K - 1], P[K // 2],                       # z is a vertex
                 rng.dirichlet(np.ones(K)) @ P,                   # z inside the polytope
                 rng.dirichlet(np.full(K, 0.1)) @ P,
                 mid, 1.5 * mid, 3.0 * mid, -mid]                 # as far from P_i as P_j
        for c in (1.5, 3.0, -1.0):
            z = c * mid
            assert np.linalg.norm(z - P[i]) == pytest.approx(np.linalg.norm(z - P[j]))
        Z = np.array(cases)
        Y, gaps = project_batch(Z, DAG, gap_tol=1e-12)
        for q in range(Z.shape[0]):
            assert np.linalg.norm(Y[q] - flow_projection(P, Z[q])) <= 1e-9
        np.testing.assert_array_equal(Y[:3], P[[0, K - 1, K // 2]])
        # The 3000-node chain has one path, so every z projects onto it.
        n = 3000
        chain = FlowNetwork(n, [(j, j + 1) for j in range(n - 1)],
                            [1.0] + [0.0] * (n - 2) + [-1.0])
        Zc = rng.normal(size=(3, n - 1))
        Yc, gc = project_batch(Zc, chain, gap_tol=1e-12)
        for q in range(3):
            assert np.linalg.norm(Yc[q] - flow_projection(enumerate_st_paths(chain), Zc[q])) <= 1e-9
        np.testing.assert_array_equal(Yc, 1.0)
        np.testing.assert_array_equal(gc, 0.0)

    def test_tolerance_below_rounding_stops_cleanly(self, rng):
        # A gap tolerance no float arithmetic reaches must not let a path
        # on the corral's affine hull enter, which makes the system singular.
        P = enumerate_st_paths(DAG)
        Z = rng.normal(size=(300, DAG.n_arcs))
        Z[:50] = rng.dirichlet(np.full(P.shape[0], 0.3), size=50) @ P
        Y, gaps = project_batch(Z, DAG, gap_tol=1e-300)
        assert np.all(gaps <= 1e-12)
        for q in range(0, Z.shape[0], 10):
            assert np.linalg.norm(Y[q] - flow_projection(P, Z[q])) <= 1e-9

    def test_batch_equals_single_bit_for_bit(self, rng):
        P = enumerate_st_paths(DAG)
        Z = rng.normal(size=(12, DAG.n_arcs)) * 2
        Z[:3] = rng.dirichlet(np.ones(P.shape[0]), size=3) @ P
        Y, gaps = project_batch(Z, DAG, gap_tol=1e-12)
        scales = rng.uniform(0.5, 4.0, size=Z.shape[0])
        _, S, lam, sgaps = min_norm_point(P, Z, scales, 1e-9, 10_000)
        for q in range(Z.shape[0]):
            y1, g1 = project_batch(Z[q], DAG, gap_tol=1e-12)
            np.testing.assert_array_equal(y1[0], Y[q])
            assert g1[0] == gaps[q]
            _, S1, lam1, g1 = min_norm_point(P, Z[q:q + 1], scales[q], 1e-9, 10_000)
            np.testing.assert_array_equal(S1[0], S[q])
            np.testing.assert_array_equal(lam1[0], lam[q])
            assert g1[0] == sgaps[q]

    @pytest.mark.parametrize("Q", [1, 40])
    @pytest.mark.parametrize("net", [NET, DAG], ids=["bundled", "layered-dag"])
    def test_equals_reference_bit_for_bit(self, net, Q, rng):
        # Cold calls on a sequence of points, each near the last answer.
        # The scale, tolerance and cycle cap of each caller, one more
        # setting, and a cap that stops rows in the middle of a minor cycle.
        P = enumerate_st_paths(net)
        atoms = _path_atoms(P)
        for scale, tol, cycles in ((1.0, 1e-11, np.inf),
                                   (rng.uniform(0.5, 4.0, size=Q), 1e-9, 10_000),
                                   (2.5, 1e-12, 3)):
            Z = rng.normal(size=(Q, net.n_arcs)) * rng.choice([0.1, 1.0, 10.0], size=(Q, 1))
            Z[::3] = rng.dirichlet(np.full(P.shape[0], 0.3), size=Z[::3].shape[0]) @ P
            for step in range(5):
                want = wolfe_min_norm_point(P, Z, scale, tol, cycles)
                Y, S, lam = _min_norm_point(atoms, Z, scale, tol, cycles)
                got = (Y, S, lam, _fw_gaps(atoms, Z, scale, Y, S, lam))
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
                Z = Y + 0.5 * rng.normal(size=Z.shape)

    def test_gap_is_recomputed_when_the_cycle_cap_stops_a_minor_cycle(self, rng):
        # A cap that lands after a minor cycle's partial step leaves weights
        # that are not their corral's affine minimizer; the reported gap must
        # still be the Frank-Wolfe gap of the returned point.
        P = enumerate_st_paths(DAG)
        mid_minor = 0
        for trial in range(20):
            z = rng.normal(size=DAG.n_arcs) * 0.5
            for cap in range(1, 16):
                y, theta, gap = project_one(P, z, scale=2.5, gap_tol=1e-12, max_cycles=cap)
                g = y - z
                assert abs(gap - 5.0 * (float(g @ y) - float(np.min(P @ g)))) <= 1e-12
                support = P[theta > 0] @ g
                mid_minor += bool(support.max() - support.min() > 1e-9)
        assert mid_minor > 0


class TestNewtonProjection:
    """``_project_newton``, the L1 descent's projection, against the NNLS
    oracle, Wolfe's method and the optimality conditions."""

    @pytest.mark.parametrize("net, potentials, superarcs, longest", [
        (NET, 5, 10, 1), (DAG, 16, 46, 2), (diamond_chain(13), 13, 26, 2), (CHAIN, 1, 1, 2999),
        (SIDE, 3, 5, 2), (WIDE, 49, 221, 1)],
        ids=["bundled", "layered-dag", "diamond-chain", "chain", "side-nodes", "wide-dag"])
    def test_reduced_network_is_no_larger_than_a_corral(self, net, potentials, superarcs,
                                                        longest):
        # Wolfe's corrals hold up to rank(P) paths; the reduced network has
        # no more potentials wherever the paths can be listed.
        system = _flow_system(net)
        assert system.incidence.shape == (potentials, superarcs)
        assert system.lengths.max() == longest
        kept = system.arc_of < superarcs
        assert system.lengths.sum() == kept.sum()
        if net is SIDE:
            np.testing.assert_array_equal(np.flatnonzero(~kept), [6, 7, 8, 9])
        if net is not WIDE:
            assert potentials <= np.linalg.matrix_rank(enumerate_st_paths(net))

    @pytest.mark.parametrize("net", [NET, DAG, diamond_chain(13), CHAIN, SIDE], ids=[
        "bundled", "layered-dag", "diamond-chain", "chain", "side-nodes"])
    def test_matches_nnls_and_wolfe(self, net, rng):
        P = enumerate_st_paths(net)
        Z = random_steps(rng, net, 40)
        Y, _, ok = newton_project(net, Z)
        assert ok.all()
        assert conserves_to_rounding(net, Y, Z)
        W = wolfe_min_norm_point(P, Z, 1.0, 1e-12, 10_000)[0]
        assert np.max(np.abs(Y - W)) <= 1e-9
        for q in range(0, Z.shape[0], 4 if P.shape[0] < 1000 else 10):
            assert np.linalg.norm(Y[q] - flow_projection(P, Z[q])) <= 1e-9
        if net is SIDE:
            np.testing.assert_array_equal(Y[:, 6:], 0.0)
            np.testing.assert_array_equal(Y[:, 4], Y[:, 5])
        if net is CHAIN:
            assert np.max(np.abs(Y - 1.0)) <= 1e-12

    def test_optimality_conditions_beyond_the_path_cap(self, rng):
        # More than 100,000 paths, so neither the oracle nor Wolfe's method
        # runs.  y is the projection of z iff it is feasible and no path p
        # has (y - z).p below (y - z).y: the cheapest path under the costs
        # y - z certifies it.
        with pytest.raises(ValueError, match="source-sink paths"):
            enumerate_st_paths(WIDE)
        Z = rng.normal(size=(200, WIDE.n_arcs)) * rng.choice([0.1, 1.0, 10.0], size=(200, 1))
        Y, _, ok = newton_project(WIDE, Z)
        assert ok.all()
        assert conserves_to_rounding(WIDE, Y, Z)
        G = Y - Z
        V = min_cost_paths(WIDE, G)
        gap = np.einsum("qa,qa->q", G, Y) - np.einsum("qa,qa->q", G, V)
        assert np.max(gap / (1.0 + np.abs(Z).max(axis=1))) <= 1e-10

    @pytest.mark.parametrize("net", [NET, DAG, diamond_chain(13), SIDE],
                             ids=["bundled", "layered-dag", "diamond-chain", "side-nodes"])
    def test_cold_and_warm_sequences_never_reach_the_cap(self, net, rng):
        # Descent-like sequences: each point a step off the last answer,
        # cold from zero potentials or warm from the last ones.  Thousands
        # of rows in all, and none may stop unconverged.
        P = enumerate_st_paths(net)
        Q = 250
        for warm in (False, True):
            Y = np.tile(P.mean(axis=0), (Q, 1))
            pi = np.zeros((Q, _flow_system(net).incidence.shape[0]))
            for step in range(8):
                Z = Y + rng.normal(size=Y.shape) * rng.choice([0.05, 0.5, 5.0], size=(Q, 1))
                Y, pi_new, ok = newton_project(net, Z, pi if warm else None)
                assert ok.all()
                assert conserves_to_rounding(net, Y, Z)
                some = slice(step % 5, None, 5)
                np.testing.assert_allclose(
                    Y[some], wolfe_min_norm_point(P, Z[some], 1.0, 1e-12, 10_000)[0],
                    rtol=0, atol=1e-9)
                pi = pi_new

    @pytest.mark.parametrize("net", [NET, DAG, diamond_chain(13), SIDE],
                             ids=["bundled", "layered-dag", "diamond-chain", "side-nodes"])
    def test_batch_equals_single_bit_for_bit(self, net, rng):
        Z = random_steps(rng, net, 24)
        pi = rng.normal(size=(24, _flow_system(net).incidence.shape[0])) * 0.5
        pi[::3] = 0.0
        Y, pi_out, ok = newton_project(net, Z, pi)
        for q in range(Z.shape[0]):
            y1, pi1, ok1 = newton_project(net, Z[q], pi[q:q + 1])
            np.testing.assert_array_equal(y1[0], Y[q])
            np.testing.assert_array_equal(pi1[0], pi_out[q])
            assert ok1[0] == ok[q]

    def test_warm_one_row_projections_take_few_newton_systems(self, monkeypatch):
        # Descent-like one-row sequences, each point a shrinking step off
        # the last answer, projected warm.  A step on the right active set
        # leaves the ridge's residual, ridge * d; it ends the row when that
        # is within the stop bound, so most projections take one system
        # (1.36 a projection here; 2.08 with a ridge of 1e-12).
        system, solves = _flow_system(NET), []
        solve = np.linalg.solve

        def counted(H, g):
            solves.append(H.shape[0])
            return solve(H, g)

        monkeypatch.setattr(np.linalg, "solve", counted)
        rng, P, projections = np.random.default_rng(3), enumerate_st_paths(NET), 0
        for _ in range(40):
            y, pi = rng.dirichlet(np.full(P.shape[0], 0.5)) @ P, np.zeros((1, 5))
            for t in range(50):
                z = y + 0.1 / (1 + 0.1 * t) * rng.uniform(-1.0, 1.0, size=y.shape)
                Y, pi, ok = _project_newton(system, z[None, :], pi)
                assert ok.all()
                assert conserves_to_rounding(NET, Y, z[None, :])
                y, projections = Y[0], projections + 1
        assert len(solves) / projections <= 1.7
        # A warm projection whose active set does not change ends after
        # exactly one system.
        rng = np.random.default_rng(4)
        for z0 in (P.mean(axis=0), 0.7 * P[0] + 0.3 * P[3] - 0.5 * (P[0] + P[3] == 0)):
            Y0, pi0, _ = _project_newton(system, z0[None, :], np.zeros((1, 5)))
            for _ in range(20):
                z = z0 + rng.uniform(-0.01, 0.01, size=z0.shape)
                solves.clear()
                Y, _, ok = _project_newton(system, z[None, :], pi0)
                assert ok.all()
                np.testing.assert_array_equal(Y > 0.0, Y0 > 0.0)
                assert solves == [1]

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_rows_whose_active_arcs_cut_nodes_off_from_the_sink(self, warm, rng):
        # Arguments at the start whose positive arcs leave node 4 alone, the
        # source alone, the pair {2, 4}, or the source's side {0, 1, 2} with
        # no active arc to the sink.  Only the ridge holds those nodes'
        # Newton steps; every row must still converge and conserve.
        pos, neg = 0.5, -1.0
        patterns = np.array([
            [pos, pos, pos, pos, neg, neg, pos, neg, pos, neg],     # node 4
            [neg, neg, pos, pos, pos, pos, pos, pos, pos, pos],     # the source
            [pos, neg, neg, pos, pos, neg, neg, neg, pos, neg],     # {2, 4}
            [pos, pos, pos, neg, neg, neg, neg, pos, pos, pos]])    # {0, 1, 2}
        cut = [{4}, {0}, {2, 4}, {0, 1, 2}]
        system = _flow_system(NET, len(patterns))
        pi = rng.normal(size=(len(patterns), 5)) if warm else np.zeros((len(patterns), 5))
        # Every super-arc of the bundled network is one arc, so the start's
        # argument of arc a is z_a plus its potential difference.
        Z = patterns - (pi @ system.incidence)[:, system.arc_of]
        for row, nodes in zip(patterns, cut):
            assert cut_off_from_sink(NET, row > 0.0) == nodes
        Y, _, ok = _project_newton(system, Z, pi)
        assert ok.all()
        assert conserves_to_rounding(NET, Y, Z)
        P = enumerate_st_paths(NET)
        for q in range(len(Z)):
            assert np.linalg.norm(Y[q] - flow_projection(P, Z[q])) <= 1e-9

    def test_rows_at_the_iteration_cap_keep_their_point(self, rng, monkeypatch):
        # With no Newton step allowed only the feasible rows finish; the
        # rest keep their potentials and return no point.
        Z = random_steps(rng, NET, 16)
        pi = rng.normal(size=(16, 5))
        pi[1::8] = 0.0          # the feasible rows, which start at their projection
        monkeypatch.setattr(flow_opt, "_NEWTON_ITERS", 0)
        Y, pi_out, ok = newton_project(NET, Z, pi)
        np.testing.assert_array_equal(np.flatnonzero(ok), [1, 9])
        np.testing.assert_array_equal(pi_out[~ok], pi[~ok])
        np.testing.assert_array_equal(Y[~ok], 0.0)
        monkeypatch.undo()
        # The descent must not take a failed row's point, even one that
        # lowers the risk: here every other row fails every other step and
        # offers its unprojected step, which leaves the polytope.
        project, calls = flow_opt._project_newton, []

        def failing(system, Z, pi):
            Y, pi, ok = project(system, Z, pi)
            calls.append(ok.size)
            if len(calls) % 2:
                ok[::2] = False
                Y[::2] = Z[::2]
            return Y, pi, ok

        monkeypatch.setattr(flow_opt, "_project_newton", failing)
        P = enumerate_st_paths(NET)
        labels = rng.dirichlet(np.ones(P.shape[0]), size=30) @ P
        W = rng.normal(size=(10, 30))
        W[::3] = np.abs(W[::3])
        Y, _, _ = solve_flow_abs_batch(W, labels, NET, SolverParams(max_iters=20, restarts=2))
        # Both restarts run as one batch of 2 x 10 rows.
        assert calls == [20] * 20
        assert np.max(flow_residuals(NET, Y)) <= 1e-12

    def test_l1_solve_on_the_long_chain_stays_small(self, rng):
        # The chain reduces to one super-arc and one potential; an
        # unreduced (Q, 2998, 2998) Newton system would take 287 MB here.
        labels = np.ones((5, CHAIN.n_arcs))
        W = rng.normal(size=(4, 5))
        W[0] = np.abs(W[0])
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            Y, obj, certs = solve_flow_abs_batch(W, labels, CHAIN,
                                                 SolverParams(max_iters=50, restarts=2))
            seconds = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
        assert seconds <= 10.0
        assert np.max(np.abs(Y - 1.0)) <= 1e-12
        assert certs[0].kind == "gap"


class TestSolveFlowSq:
    def test_single_label_is_returned(self, rng):
        P = enumerate_st_paths(NET)
        label = 0.5 * P[0] + 0.5 * P[3]
        res = one_row(solve_flow_sq_batch, np.array([1.0]), label[None, :], NET)
        np.testing.assert_allclose(res.y_star, label, atol=1e-12)
        assert res.certificate.kind == "exact"

    def test_convex_combination_weights_return_mean(self, rng):
        P = enumerate_st_paths(NET)
        labels = P[[0, 2, 5]]
        w = np.array([0.2, 0.5, 0.3])
        res = one_row(solve_flow_sq_batch, w, labels, NET)
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
            res = one_row(solve_flow_sq_batch, w, labels, NET, params)
            vertex_vals = [float(w @ np.einsum("ma,ma->m", P[k] - labels, P[k] - labels))
                           for k in range(P.shape[0])]
            assert res.objective <= min(vertex_vals) + 1e-9
            assert res.certificate.kind in ("exact", "gap")
            if res.certificate.kind == "gap":
                assert res.certificate.gap <= 1e-9

    def test_nonpositive_total_weight_is_exact_vertex(self, rng):
        P = enumerate_st_paths(NET)
        labels = P[[1, 4]]
        w = np.array([-1.0, -0.5])
        res = one_row(solve_flow_sq_batch, w, labels, NET)
        assert res.certificate.kind == "exact"
        assert flow_residual(NET, res.y_star) <= 1e-9
        # Concave objective: a vertex is optimal.  Path labels and these
        # weights make every value exact, so the best vertex is matched
        # exactly, ties to the lexicographically smallest.
        vertex_vals = np.array([float(w @ np.einsum("ma,ma->m", P[k] - labels, P[k] - labels))
                                for k in range(P.shape[0])])
        assert res.objective == vertex_vals.min()
        assert tuple(res.y_star) == min(map(tuple, P[vertex_vals == vertex_vals.min()]))

    def test_all_zero_weights_lexicographic_vertex(self):
        P = enumerate_st_paths(NET)
        res = one_row(solve_flow_sq_batch, np.zeros(2), P[[0, 1]], NET)
        assert res.objective == 0.0
        lex = min((tuple(P[i]) for i in range(P.shape[0])))
        assert tuple(res.y_star) == lex

    def test_four_branches_batch_equals_one_row_calls(self, rng):
        P = enumerate_st_paths(DAG)
        labels = rng.dirichlet(np.full(P.shape[0], 0.3), size=8) @ P
        W = rng.normal(size=(60, 8)) + rng.choice([-0.5, 0.0, 0.5], size=(60, 1))
        W[:4] = 0.0
        W[4:10] = np.abs(W[4:10])
        params = SolverParams(gap_tol=1e-9)
        Y, obj, certs = solve_flow_sq_batch(W, labels, DAG, params)
        zero = ~np.any(W != 0.0, axis=1)
        convex = W.sum(axis=1) > 0.0
        mean = [c.kind == "exact" and cv for c, cv in zip(certs, convex)]
        concave = ~convex & ~zero
        kinds = [c.kind for c in certs]
        assert zero.sum() == 4 and sum(mean) >= 6
        assert kinds.count("gap") >= 5 and concave.sum() >= 5
        for q in range(W.shape[0]):
            single = one_row(solve_flow_sq_batch, W[q], labels, DAG, params)
            np.testing.assert_array_equal(single.y_star, Y[q])
            assert single.objective == obj[q]
            assert single.certificate == certs[q]
            if not convex[q]:
                # A vertex minimizer, as good as the best path.
                vals = [float(W[q] @ np.einsum("ma,ma->m", p - labels, p - labels)) for p in P]
                assert certs[q].kind == "exact"
                assert any(np.array_equal(Y[q], p) for p in P)
                assert obj[q] == pytest.approx(min(vals), rel=0, abs=1e-12)
            if mean[q]:
                # The mean and objective of a one-row product, bit for bit.
                np.testing.assert_array_equal(Y[q], (W[q] @ labels) / W[q].sum())
                diff = Y[q] - labels
                assert obj[q] == W[q] @ np.einsum("ma,ma->m", diff, diff)

    @pytest.mark.parametrize("n", [1, 13])
    def test_tied_paths_resolve_lexicographically(self, n):
        # A label at the mean of the chain's 2^n paths, exactly as far from
        # each of them.  The tie goes to the lexicographically smallest path.
        net = diamond_chain(n)
        P = enumerate_st_paths(net)
        assert P.shape[0] == 2 ** n
        res = one_row(solve_flow_sq_batch, [-1.0], P.mean(axis=0)[None, :], net)
        np.testing.assert_array_equal(res.y_star, P[-1])
        np.testing.assert_array_equal(P[-1], np.tile([0.0, 1.0, 0.0, 1.0], n))
        assert res.objective == -float(n) and res.certificate.kind == "exact"

    def test_concave_rows_match_lexicographic_vertex_sweep(self, rng):
        # Path labels and integral weights make every value exact, so the
        # solver must match the brute force exactly, ties included.
        P = enumerate_st_paths(DAG)
        labels = P[rng.integers(P.shape[0], size=5)]
        W = -rng.integers(0, 3, size=(30, 5)).astype(float)
        W[:, 0] -= 1.0
        W[20:] = -np.abs(rng.normal(size=(10, 5)))
        labels[4] = rng.dirichlet(np.ones(P.shape[0])) @ P
        Y, obj, certs = solve_flow_sq_batch(W, labels, DAG)
        ties = 0
        for q in range(W.shape[0]):
            vals = np.array([float(W[q] @ np.einsum("ma,ma->m", p - labels, p - labels))
                             for p in P])
            assert certs[q].kind == "exact"
            if q < 20 and W[q, 4] == 0.0:
                best = vals == vals.min()
                ties += best.sum() > 1
                np.testing.assert_array_equal(Y[q], min(map(tuple, P[best])))
                assert obj[q] == vals.min()
            else:
                assert obj[q] == pytest.approx(vals.min(), rel=0, abs=1e-12)
                assert any(np.array_equal(Y[q], p) for p in P)
        assert ties > 0

    def test_gap_rows_match_oracle_projection(self, rng):
        # With positive total weight the objective is total * ||y - ybar||^2
        # plus a constant, so the answer is the projection of the mean ybar.
        P = enumerate_st_paths(DAG)
        labels = rng.dirichlet(np.full(P.shape[0], 0.3), size=8) @ P
        W = rng.normal(size=(40, 8)) + 0.4
        Y, _, certs = solve_flow_sq_batch(W, labels, DAG, SolverParams(gap_tol=1e-10))
        rows = [q for q, c in enumerate(certs) if c.kind == "gap"]
        assert len(rows) >= 5
        for q in rows:
            assert certs[q].gap <= 1e-10
            ybar = (W[q] @ labels) / W[q].sum()
            assert np.linalg.norm(Y[q] - flow_projection(P, ybar)) <= 1e-9

    def test_infeasible_labels_rejected(self):
        bad = np.full((1, NET.n_arcs), 0.3)
        with pytest.raises(ValueError):
            one_row(solve_flow_sq_batch, np.array([1.0]), bad, NET)

    def test_first_violating_label_named(self):
        P = enumerate_st_paths(NET)
        labels = P[[0, 1, 2, 3, 4]].copy()
        labels[2, 0] += 1e-6           # breaks conservation
        labels[3] = 2 * P[3] - P[0]    # conserves, but has a negative arc
        labels[4] = -P[4]              # both
        for first in (2, 3, 4):
            with pytest.raises(ValueError, match=f"training flow {first} violates conservation"):
                one_row(solve_flow_sq_batch, np.ones(5), labels, NET)
            with pytest.raises(ValueError, match=f"training flow {first} violates conservation"):
                solve_flow_abs_batch(np.ones((2, 5)), labels, NET)
            labels[first] = P[first]
        one_row(solve_flow_sq_batch, np.ones(5), labels, NET)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_label_rejected(self, bad):
        # A NaN residual must count as a violation, not slip past "> tol".
        P = enumerate_st_paths(NET)
        labels = P[[0, 1, 2]].copy()
        labels[1, 3] = bad
        with pytest.raises(ValueError, match="training flow 1 violates conservation"):
            one_row(solve_flow_sq_batch, np.ones(3), labels, NET)
        with pytest.raises(ValueError, match="training flow 1 violates conservation"):
            solve_flow_abs_batch(np.ones((2, 3)), labels, NET)


class TestSolveFlowAbs:
    def test_single_label_recovered_exactly(self):
        P = enumerate_st_paths(NET)
        label = P[2]
        res = one_row(solve_flow_abs_batch, np.array([1.0]), label[None, :], NET,
                      SolverParams(max_iters=100, restarts=2))
        assert res.objective == 0.0
        np.testing.assert_array_equal(res.y_star, label)
        assert res.certificate.kind == "gap"

    def test_identical_labels_nonneg_weights(self, rng):
        P = enumerate_st_paths(NET)
        label = 0.25 * P[0] + 0.75 * P[6]
        labels = np.tile(label, (3, 1))
        res = one_row(solve_flow_abs_batch, rng.uniform(0.1, 1.0, size=3), labels, NET,
                      SolverParams(max_iters=100, restarts=2))
        assert res.objective <= 1e-12

    def test_nonneg_weights_close_to_simplex_grid_oracle(self, rng):
        P = enumerate_st_paths(NET)
        params = SolverParams(max_iters=400, restarts=3)
        for trial in range(3):
            labels = np.array([rng.dirichlet(np.ones(P.shape[0])) @ P for _ in range(3)])
            w = rng.uniform(0.2, 1.0, size=3)
            res = one_row(solve_flow_abs_batch, w, labels, NET, params)
            grid = simplex_grid(P.shape[0], 8) @ P
            oracle = float(abs_flow_objective(grid, labels, w).min())
            assert res.objective <= oracle + 1e-4
            assert res.certificate.kind == "gap"

    def test_mixed_signs_heuristic_and_feasible(self, rng):
        labels = np.array([rng.dirichlet(np.ones(9)) @ enumerate_st_paths(NET)
                           for _ in range(4)])
        w = np.array([1.0, -0.7, 0.4, -0.2])
        res = one_row(solve_flow_abs_batch, w, labels, NET,
                      SolverParams(max_iters=150, restarts=3))
        assert res.certificate.kind == "heuristic"
        assert flow_residual(NET, res.y_star) <= 1e-9

    def test_batch_equals_single(self, rng):
        # Rows with no positive weight skip the descent the others take.
        # Rows with nonnegative weights, mixed among the others, carry a gap
        # from the subgradient bound, which a batch without them skips.
        P = enumerate_st_paths(NET)
        labels = np.array([rng.dirichlet(np.ones(P.shape[0])) @ P for _ in range(5)])
        W = rng.normal(size=(6, 5))
        W[1], W[4] = -np.abs(W[1]), 0.0
        W = np.insert(W, [2, 5], np.abs(rng.normal(size=(2, 5))), axis=0)
        params = SolverParams(max_iters=60, restarts=2, seed=3)
        Y, obj, certs = solve_flow_abs_batch(W, labels, NET, params)
        assert [c.kind for c in certs].count("gap") == 2
        for q in range(W.shape[0]):
            single = one_row(solve_flow_abs_batch, W[q], labels, NET, params)
            np.testing.assert_array_equal(Y[q], single.y_star)
            assert obj[q] == single.objective
            assert certs[q].kind == single.certificate.kind
            assert certs[q] == single.certificate

    def test_outputs_keep_their_recorded_bits(self, monkeypatch):
        # The Newton projection moves last bits against the Wolfe descent
        # it replaced (``wolfe_l1_descent``, which still gives the bits
        # recorded for it): points and objectives must agree within 1e-12
        # and certificate kinds exactly.  The second SHA-256 pins the new
        # bits (numpy 2.4, OpenBLAS, x86-64).
        rng = np.random.default_rng(2021)
        P = enumerate_st_paths(NET)
        labels = rng.dirichlet(np.ones(P.shape[0]), size=60) @ P
        W = rng.normal(size=(40, 60))
        W[::4] = np.abs(W[::4])
        params = SolverParams(max_iters=100, restarts=2)
        Y, obj, certs = solve_flow_abs_batch(W, labels, NET, params)
        assert [c.kind for c in certs] == ["gap", "heuristic", "heuristic", "heuristic"] * 10
        monkeypatch.setattr(flow_opt, "_l1_descent", lambda W, ranks, net, *rest:
                            wolfe_l1_descent(W, ranks, *rest))
        Yw, objw, certsw = solve_flow_abs_batch(W, labels, NET, params)
        assert np.max(np.abs(Y - Yw)) <= 1e-12
        assert np.max(np.abs(obj - objw)) <= 1e-12
        assert [c.kind for c in certs] == [c.kind for c in certsw]
        assert hashlib.sha256(Yw.tobytes() + objw.tobytes()).hexdigest() == (
            "dfab8b45705dc5d1a2d322237de1bdd6703183c5374b0ea044afa447db704278")
        assert hashlib.sha256(Y.tobytes() + obj.tobytes()).hexdigest() == (
            "38fc13bc04ded6ceb6f14a463fc688b986f069ccd2d198ffd0649d5ea9dfe4ce")

    @pytest.mark.parametrize("restarts", [1, 2, 5])
    @pytest.mark.parametrize("net", [NET, DAG, SIDE], ids=["bundled", "layered-dag",
                                                          "side-nodes"])
    def test_restarts_in_one_batch_equal_sequential_restarts(self, net, restarts, rng,
                                                             monkeypatch):
        # The restarts run side by side, at most one per 8 labels: with 24
        # labels five restarts run as batches of 3 and 2.  Every bit must
        # match the restarts run one after another (``sequential_l1_descent``),
        # for nonnegative rows (which read the bound), mixed rows and rows
        # with no positive weight (which skip the descent), in a batch and
        # one row at a time.
        P = enumerate_st_paths(net)
        labels = rng.dirichlet(np.ones(P.shape[0]), size=24) @ P
        W = rng.normal(size=(9, 24))
        W[::3] = np.abs(W[::3])
        W[1], W[5] = -np.abs(W[1]), 0.0
        params = SolverParams(max_iters=40, restarts=restarts, seed=7)
        project, start, rows, starts = flow_opt._project_newton, flow_opt._start, set(), []

        def counted(system, Z, pi):
            rows.add(Z.shape[0])
            return project(system, Z, pi)

        def started(P, seed, r):
            starts.append(r)
            return start(P, seed, r)

        monkeypatch.setattr(flow_opt, "_project_newton", counted)
        monkeypatch.setattr(flow_opt, "_start", started)
        batched = [solve_flow_abs_batch(W, labels, net, params)]
        assert starts == list(range(restarts))
        batched += [solve_flow_abs_batch(W[q:q + 1], labels, net, params) for q in (0, 2)]
        sizes = (3, 2) if restarts == 5 else (restarts,)
        assert rows == {7 * n for n in sizes} | set(sizes)
        monkeypatch.setattr(flow_opt, "_l1_descent", sequential_l1_descent)
        sequential = [solve_flow_abs_batch(W, labels, net, params)]
        sequential += [solve_flow_abs_batch(W[q:q + 1], labels, net, params) for q in (0, 2)]
        for (Y, obj, certs), (Ys, objs, certss) in zip(batched, sequential):
            np.testing.assert_array_equal(Y, Ys)
            np.testing.assert_array_equal(obj, objs)
            assert certs == certss
        kinds = [c.kind for c in batched[0][2]]
        assert kinds == ["gap", "exact", "heuristic", "gap", "heuristic", "exact", "gap",
                         "heuristic", "heuristic"]

    def test_labels_a_row_does_not_weigh_change_nothing(self, rng):
        # Each row's optimum, stacked in front at zero weight with one more
        # feasible label, beats what two descent steps reach; it must not
        # become the row's answer, as it would were it a candidate.
        P = enumerate_st_paths(NET)
        labels = rng.dirichlet(np.ones(P.shape[0]), size=4) @ P
        W = rng.uniform(0.1, 1.0, size=(2, 4))
        optima = np.array([l1_flow_minimizer(P, labels, w) for w in W])
        params = SolverParams(max_iters=2, restarts=1)
        Y, obj, certs = solve_flow_abs_batch(W, labels, NET, params)
        for q in range(W.shape[0]):
            assert abs_flow_objective(optima[q:q + 1], labels, W[q])[0] < obj[q] - 1e-6
        padded = np.vstack([optima, rng.dirichlet(np.ones(P.shape[0])) @ P, labels])
        Yp, objp, certsp = solve_flow_abs_batch(np.hstack([np.zeros((2, 3)), W]), padded,
                                                NET, params)
        np.testing.assert_array_equal(Yp, Y)
        np.testing.assert_array_equal(objp, obj)
        assert certsp == certs

    def test_zero_weights_row(self):
        P = enumerate_st_paths(NET)
        res = one_row(solve_flow_abs_batch, np.zeros(2), P[[0, 1]], NET,
                      SolverParams(max_iters=20))
        assert res.objective == 0.0
        assert res.certificate.kind == "exact"

    def test_rows_without_positive_weight_take_best_path_exactly(self, rng):
        # Their risk is concave, so the best path is the minimum.  Path
        # labels and integral weights make every value exact, ties included.
        P = enumerate_st_paths(DAG)
        labels = P[rng.integers(P.shape[0], size=6)]
        W = -rng.integers(0, 3, size=(12, 6)).astype(float)
        W[0] = 0.0
        W[1] = -1.0
        Y, obj, certs = solve_flow_abs_batch(W, labels, DAG, SolverParams(max_iters=20))
        ties = 0
        for q in range(W.shape[0]):
            vals = abs_flow_objective(P, labels, W[q])
            best = vals == vals.min()
            ties += best.sum() > 1
            assert certs[q].kind == "exact"
            assert obj[q] == vals.min()
            np.testing.assert_array_equal(Y[q], min(map(tuple, P[best])))
        assert ties > 0

    def test_rows_without_positive_weight_skip_the_descent(self, rng, monkeypatch):
        calls = []
        project = flow_opt._project_newton

        def counted(*args, **kwargs):
            calls.append(args[1].shape[0])
            return project(*args, **kwargs)

        monkeypatch.setattr(flow_opt, "_project_newton", counted)
        P = enumerate_st_paths(NET)
        labels = P[rng.integers(P.shape[0], size=100)]
        W = -np.abs(rng.normal(size=(20, 100)))
        W[0] = 0.0
        params = SolverParams(max_iters=30, restarts=1)
        _, _, certs = solve_flow_abs_batch(W, labels, NET, params)
        assert calls == []
        assert all(c.kind == "exact" for c in certs)
        W[[3, 7]] = rng.normal(size=(2, 100))
        solve_flow_abs_batch(W, labels, NET, params)
        assert calls == [2] * 30

    def test_identical_labels_recovered_exactly_at_m_2000(self, rng):
        # Every m scores the training labels, which snaps this to exactly 0.
        P = enumerate_st_paths(NET)
        label = rng.dirichlet(np.ones(P.shape[0])) @ P
        labels = np.tile(label, (2000, 1))
        res = one_row(solve_flow_abs_batch, rng.uniform(0.1, 1.0, size=2000), labels, NET,
                      SolverParams(max_iters=20))
        assert res.objective == 0.0
        np.testing.assert_array_equal(res.y_star, label)

    def test_all_results_feasible(self, rng):
        P = enumerate_st_paths(NET)
        labels = np.array([rng.dirichlet(np.ones(P.shape[0])) @ P for _ in range(6)])
        W = rng.normal(size=(8, 6))
        Y, _, _ = solve_flow_abs_batch(W, labels, NET, SolverParams(max_iters=50, restarts=2))
        for q in range(Y.shape[0]):
            assert flow_residual(NET, Y[q]) <= 1e-9


class TestL1Breakpoints:
    """The breakpoint evaluator against the definition of the L1 risk."""

    def _instance(self, rng, Q, m):
        P = enumerate_st_paths(NET)
        labels = rng.dirichlet(np.ones(P.shape[0]), size=m) @ P
        labels[::3] = P[rng.integers(P.shape[0], size=labels[::3].shape[0])]
        labels[1::7] = labels[0]                          # repeated labels
        W = rng.normal(size=(Q, m))
        Y = rng.dirichlet(np.ones(P.shape[0]), size=Q) @ P
        Y[::4] = P[rng.integers(P.shape[0], size=Y[::4].shape[0])]
        for q in range(1, Q, 2):                          # ties on some arcs
            arcs = rng.random(NET.n_arcs) < 0.5
            Y[q, arcs] = labels[rng.integers(m), arcs]
        return W, labels, Y

    def test_matches_definition_with_ties(self, rng):
        for _ in range(20):
            Q, m = int(rng.integers(1, 12)), int(rng.integers(1, 40))
            W, labels, Y = self._instance(rng, Q, m)
            obj, G = _l1_obj_grad(*_l1_breakpoints(W, l1_labels(labels))[0], Y)
            for q in range(Q):
                tol = 1e-12 * (1.0 + np.abs(W[q]).sum())
                ref_obj = abs_flow_objective(Y[q:q + 1], labels, W[q])[0]
                ref_G = W[q] @ np.sign(Y[q] - labels)
                assert abs(obj[q] - ref_obj) <= tol
                assert np.max(np.abs(G[q] - ref_G)) <= tol

    def test_tie_uses_zero_sign(self):
        labels = np.zeros((3, NET.n_arcs))
        labels[:, 0] = [0.2, 0.5, 0.9]
        W = np.array([[1.0, 10.0, -3.0]])
        Y = np.zeros((1, NET.n_arcs))
        Y[0, 0] = 0.5
        obj, G = _l1_obj_grad(*_l1_breakpoints(W, l1_labels(labels))[0], Y)
        assert G[0, 0] == 1.0 - (-3.0)
        assert obj[0] == pytest.approx(1.0 * 0.3 + -3.0 * 0.4, abs=1e-15)
        # Other arcs tie with every label: zero subgradient, zero objective.
        np.testing.assert_array_equal(G[0, 1:], 0.0)

    def test_one_row_equals_batch_row_bit_for_bit(self, rng):
        W, labels, Y = self._instance(rng, 9, 30)
        breakpoints, costs = _l1_breakpoints(W, l1_labels(labels))
        obj, G = _l1_obj_grad(*breakpoints, Y)
        for q in range(W.shape[0]):
            breakpoints1, costs1 = _l1_breakpoints(W[q:q + 1], l1_labels(labels))
            obj1, G1 = _l1_obj_grad(*breakpoints1, Y[q:q + 1])
            assert obj1[0] == obj[q]
            np.testing.assert_array_equal(G1[0], G[q])
            np.testing.assert_array_equal(costs1[0], costs[q])

    def test_equals_per_arc_searches_bit_for_bit(self, rng):
        for _ in range(20):
            Q, m = int(rng.integers(1, 12)), int(rng.integers(1, 40))
            W, labels, Y = self._instance(rng, Q, m)
            obj, G = _l1_obj_grad(*_l1_breakpoints(W, l1_labels(labels))[0], Y)
            ref_obj, ref_G = l1_obj_grad_per_arc(W, labels, Y)
            assert np.array_equal(obj, ref_obj)
            assert np.array_equal(G, ref_G)
        # Every path lies past all interior labels on its arcs, the last included.
        P = enumerate_st_paths(NET)
        labels = rng.dirichlet(np.ones(P.shape[0]), size=5) @ P
        W = rng.normal(size=(P.shape[0], 5))
        obj, G = _l1_obj_grad(*_l1_breakpoints(W, l1_labels(labels))[0], P)
        ref_obj, ref_G = l1_obj_grad_per_arc(W, labels, P)
        assert np.array_equal(obj, ref_obj)
        assert np.array_equal(G, ref_G)

    def test_label_costs_match_definition(self, rng):
        for _ in range(20):
            Q, m = int(rng.integers(1, 12)), int(rng.integers(1, 40))
            W, labels, _ = self._instance(rng, Q, m)
            costs = _l1_breakpoints(W, l1_labels(labels))[1]
            assert costs.shape == (Q, m)
            for q in range(Q):
                tol = 1e-12 * (1.0 + np.abs(W[q]).sum())
                ref = abs_flow_objective(labels, labels, W[q])
                assert np.max(np.abs(costs[q] - ref)) <= tol


def test_solvers_take_flow_labels_in_place_of_the_flows(rng):
    P = enumerate_st_paths(NET)
    labels = rng.dirichlet(np.ones(P.shape[0]), size=6) @ P
    W = rng.normal(size=(3, 6))
    params = SolverParams(max_iters=20, restarts=1)
    for ranked in (False, True):
        state = flow_opt.flow_labels(labels, NET, ranked)
        for solver in (solve_flow_sq_batch, solve_flow_abs_batch):
            (Y, obj, certs), (Yr, objr, certsr) = (solver(W, state, NET, params),
                                                   solver(W, labels, NET, params))
            np.testing.assert_array_equal(Y, Yr)
            np.testing.assert_array_equal(obj, objr)
            assert certs == certsr
    with pytest.raises(ValueError, match="checked against another network"):
        solve_flow_abs_batch(W, state, default_flow_network(), params)


def test_sq_solver_concave_sweep_memory_is_bounded():
    # One concave row on a 3585-path, 102-arc DAG with m = 50: the
    # path-label differences of a scan over every path would be
    # 3585 * 50 * 102 doubles (139 MiB); the path search needs none.
    net = layered_dag(2, layers=6, width=5)
    P = enumerate_st_paths(net)
    m = 50
    bound = 4 * 2 ** 20
    assert P.shape[0] * m * net.n_arcs * 8 > 32 * bound
    rng = np.random.default_rng(7)
    labels = P[rng.integers(P.shape[0], size=m)]
    W = -np.abs(rng.normal(size=(1, m)))
    tracemalloc.start()
    try:
        _, _, certs = solve_flow_sq_batch(W, labels, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert certs[0].kind == "exact"
    assert peak <= bound, f"peak {peak / 2 ** 20:.1f} MiB"


def test_abs_solver_memory_stays_linear_in_q_m_a():
    # Two (Q, a, m + 1) prefix arrays are the intended working set; a
    # (Q, m, a) temporary on top of them would break the bound.
    P = enumerate_st_paths(NET)
    rng = np.random.default_rng(2024)
    Q, m, a = 200, 400, NET.n_arcs
    labels = rng.dirichlet(np.ones(P.shape[0]), size=m) @ P
    W = rng.normal(size=(Q, m))
    params = SolverParams(max_iters=3, restarts=1)
    tracemalloc.start()
    try:
        solve_flow_abs_batch(W, labels, NET, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * Q * m * a * 8, f"peak {peak / (Q * m * a * 8):.2f} x Q*m*a*8 bytes"


def test_abs_solver_label_candidates_need_no_m_by_m_table():
    # m = 3000 training labels: an (m, m) distance table alone would be
    # 72 MB; the prefix-sum scoring holds O(Q a m).
    P = enumerate_st_paths(NET)
    rng = np.random.default_rng(3000)
    m = 3000
    labels = rng.dirichlet(np.ones(P.shape[0]), size=m) @ P
    W = rng.normal(size=(2, m))
    tracemalloc.start()
    try:
        solve_flow_abs_batch(W, labels, NET, SolverParams(max_iters=3, restarts=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= m * m * 8 / 16, f"peak {peak / 2 ** 20:.1f} MiB"


def test_abs_solver_restarts_stay_within_the_breakpoint_arrays(monkeypatch):
    # One row on 200 labels: the restarts run side by side in batches of
    # at most one per 8 labels, so 2000 of them add no more to the peak
    # than the breakpoint arrays the solve holds anyway, and the bound's
    # product with every path stays at the query's one row.
    P = enumerate_st_paths(NET)
    rng = np.random.default_rng(2000)
    labels = rng.dirichlet(np.ones(P.shape[0]), size=200) @ P
    held, widths = [], set()
    breakpoints, einsum = flow_opt._l1_breakpoints, np.einsum

    def recorded(W, labels):
        out = breakpoints(W, labels)
        held.append(sum(v.nbytes for v in out[0]))
        return out

    def product(subscripts, *operands, **kwargs):
        if subscripts == "qa,ka->qk":
            widths.add(operands[0].shape[0])
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(flow_opt, "_l1_breakpoints", recorded)
    monkeypatch.setattr(np, "einsum", product)
    nonneg = rng.dirichlet(np.ones(200), size=1)
    _, _, certs = solve_flow_abs_batch(nonneg, labels, NET,
                                       SolverParams(max_iters=20, restarts=60))
    monkeypatch.setattr(np, "einsum", einsum)
    assert certs[0].kind == "gap"
    assert widths == {1}
    # Traced after an untraced solve, so that numpy's first-use set-up
    # does not count.
    W = rng.normal(size=(1, 200))
    W /= np.abs(W).sum()
    solve_flow_abs_batch(W, labels, NET, SolverParams(max_iters=20, restarts=100))
    peaks = []
    for restarts in (1, 2000):
        tracemalloc.start()
        try:
            solve_flow_abs_batch(W, labels, NET, SolverParams(max_iters=20, restarts=restarts))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= held[0], f"{peaks[1] - peaks[0]} > {held[0]} bytes"
