"""Margin surrogate properties, the generalization bound, and Bayes risk."""

import math

import numpy as np
import pytest

from ecrm import (BoundInputs, KernelSpec, LossSpec, SurrogateConfig,
                  assignment_space, bayes_conditional_risk, delta,
                  empirical_surrogate_risk, eval_kernel, explicit_space, fit,
                  generalization_bound, generalization_bound_terms, hierarchy_space,
                  infer, loss_bound, loss_value, make_surrogate_config, realized_loss,
                  surrogate_loss, surrogate_loss_detailed, weights)
from conftest import random_dag, random_feasible_label, random_tree
from _oracles import all_permutations, enumerate_feasible, footrule_risks, gaussian_solve

RHO_GRID = np.logspace(-3, 3, 13)


def _random_explicit_instance(rng, n_members=4, d=2, m=5):
    members = []
    while len(members) < n_members:
        cand = tuple(np.round(rng.normal(size=d), 3))
        if cand not in members:
            members.append(cand)
    space = explicit_space(members)
    labels = np.stack([np.asarray(members[i]) for i in rng.integers(0, n_members, size=m)])
    X = rng.normal(size=(m, 3))
    model = fit(KernelSpec("rbf", gamma=0.8), float(rng.uniform(0.1, 0.6)), X, labels)
    return space, model


class TestDelta:
    def test_zero_at_the_minimizer(self, rng):
        space, model = _random_explicit_instance(rng)
        loss = LossSpec("square")
        x = rng.normal(size=3)
        yhat = infer(model, loss, space, x).y_star
        assert abs(delta(model, loss, space, yhat, x)) <= 1e-10

    def test_nonpositive_everywhere(self, rng):
        space, model = _random_explicit_instance(rng)
        loss = LossSpec("square")
        for _ in range(10):
            x = rng.normal(size=3)
            yp = space.members[int(rng.integers(len(space.members)))]
            assert delta(model, loss, space, yp, x) <= 1e-10

    def test_matches_enumeration(self, rng):
        from ecrm.model import risk_from_weights
        space, model = _random_explicit_instance(rng)
        loss = LossSpec("absolute")
        x = rng.normal(size=3)
        w = weights(model, x)
        risks = [risk_from_weights(w, model.labels, loss, m) for m in space.members]
        yp = space.members[2]
        expect = min(risks) - risks[2]
        assert delta(model, loss, space, yp, x) == pytest.approx(expect, abs=1e-10)


class TestSurrogateProperties:
    def test_large_rho_gives_capped_max_loss(self, rng):
        space, model = _random_explicit_instance(rng)
        loss = LossSpec("square")
        L = loss_bound(loss, space)
        x = rng.normal(size=3)
        y = np.asarray(space.members[0])
        cfg = SurrogateConfig(rho=1e12, L=L, space=space)
        got = surrogate_loss(model, loss, cfg, x, y)
        max_loss = max(loss_value(loss, m, y) for m in space.members)
        assert got == pytest.approx(min(L, max_loss), abs=1e-6)

    def test_surrogacy_bound_and_cap(self, rng):
        for _ in range(15):
            space, model = _random_explicit_instance(rng)
            loss = LossSpec("absolute")
            L = loss_bound(loss, space)
            x = rng.normal(size=3)
            y = np.asarray(space.members[int(rng.integers(len(space.members)))])
            realized = realized_loss(model, loss, space, x, y)
            for rho in RHO_GRID:
                val = surrogate_loss(model, loss, SurrogateConfig(rho, L, space), x, y)
                assert val >= realized - 1e-10
                assert val <= L + 1e-12

    def test_surrogacy_bound_on_hierarchies(self, rng):
        # A non-explicit space: the realized loss is that of the one
        # prediction, and every rho's surrogate is at least it.
        loss = LossSpec("hamming")
        for _ in range(6):
            d = int(rng.integers(3, 8))
            G = random_dag(rng, d, extra=2)
            space = hierarchy_space(G)
            labels = np.array([random_feasible_label(rng, G) for _ in range(7)])
            model = fit(KernelSpec("rbf", gamma=0.7), 0.3, rng.normal(size=(7, 3)), labels)
            L = loss_bound(loss, space)
            x, y = rng.normal(size=3), random_feasible_label(rng, G)
            realized = realized_loss(model, loss, space, x, y)
            assert realized == loss_value(loss, infer(model, loss, space, x).y_star, y)
            for rho in RHO_GRID:
                val = surrogate_loss(model, loss, SurrogateConfig(rho, L, space), x, y)
                assert val >= realized - 1e-10

    def test_monotone_in_rho(self, rng):
        for _ in range(10):
            space, model = _random_explicit_instance(rng)
            loss = LossSpec("square")
            L = loss_bound(loss, space)
            x = rng.normal(size=3)
            y = np.asarray(space.members[0])
            vals = [surrogate_loss(model, loss, SurrogateConfig(r, L, space), x, y)
                    for r in RHO_GRID]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_tightness_for_small_rho(self, rng):
        from ecrm.model import risk_from_weights
        hits = 0
        for _ in range(20):
            space, model = _random_explicit_instance(rng)
            loss = LossSpec("absolute")
            L = loss_bound(loss, space)
            x = rng.normal(size=3)
            y = np.asarray(space.members[0])
            w = weights(model, x)
            risks = sorted(risk_from_weights(w, model.labels, loss, m)
                           for m in space.members)
            gap2 = risks[1] - risks[0]
            spread = max(loss_value(loss, m, y) for m in space.members) + 1e-12
            if gap2 <= RHO_GRID[0] * spread:
                continue  # degenerate near-tie: tightness threshold out of grid
            realized = realized_loss(model, loss, space, x, y)
            small = [surrogate_loss(model, loss, SurrogateConfig(r, L, space), x, y)
                     for r in RHO_GRID if r <= gap2 / spread]
            assert small, "grid contained no rho below the tightness threshold"
            assert small[0] == realized
            hits += 1
        assert hits >= 15

    def test_exact_hierarchy_path_matches_enumeration(self, rng):
        # The combinatorial inner maximization must agree with brute force.
        from ecrm.model import risk_from_weights
        for _ in range(10):
            d = int(rng.integers(2, 8))
            G = random_tree(rng, d)
            space = hierarchy_space(G)
            m = int(rng.integers(2, 6))
            labels = np.array([random_feasible_label(rng, G) for _ in range(m)])
            X = rng.normal(size=(m, 3))
            model = fit(KernelSpec("rbf", gamma=1.0), 0.3, X, labels)
            x = rng.normal(size=3)
            y = random_feasible_label(rng, G)
            for loss in (LossSpec("hamming"), LossSpec("hierarchical", hierarchy=G)):
                L = loss_bound(loss, space if loss.kind == "hamming" else None)
                rho = float(rng.uniform(0.05, 5.0))
                got, cert = surrogate_loss_detailed(
                    model, loss, SurrogateConfig(rho, L, space), x, y)
                assert cert == "exact"
                w = weights(model, x)
                feas = enumerate_feasible(G)
                risks = np.array([risk_from_weights(w, labels, loss, f) for f in feas])
                vals = [loss_value(loss, f, y) + (risks.min() - risks[i]) / rho
                        for i, f in enumerate(feas)]
                assert got == pytest.approx(min(L, max(vals)), abs=1e-8)

    def test_footrule_surrogate_matches_enumeration(self, rng):
        # The ranking inner maximization against all d! permutations.
        uncapped = 0
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = int(rng.integers(2, 7))
            labels = np.array([rng.permutation(d) + 1 for _ in range(m)])
            X = rng.normal(size=(m, 3))
            model = fit(KernelSpec("rbf", gamma=1.0), 0.3, X, labels)
            x = rng.normal(size=3)
            y = rng.permutation(d) + 1
            space = assignment_space(d)
            loss = LossSpec("footrule")
            L = loss_bound(loss, space)
            rho = float(rng.uniform(0.05, 5.0))
            got, cert = surrogate_loss_detailed(
                model, loss, SurrogateConfig(rho, L, space), x, y)
            assert cert == "exact"
            w = weights(model, x)
            perms = all_permutations(d)
            risks = footrule_risks(perms, labels, w)
            vals = np.abs(perms - y).sum(axis=1) + (risks.min() - risks) / rho
            assert got == pytest.approx(min(L, vals.max()), abs=1e-8)
            uncapped += vals.max() < L
        assert uncapped >= 5

    def test_three_point_space_matches_hand_computation(self, rng):
        # Fully independent evaluation: dense Gaussian-elimination weights,
        # manual risks, manual inner maximization.
        members = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
        space = explicit_space(members)
        labels = np.array([members[0], members[1], members[0]])
        X = rng.normal(size=(3, 2))
        spec = KernelSpec("rbf", gamma=1.0)
        lam = 0.4
        model = fit(spec, lam, X, labels)
        loss = LossSpec("absolute")
        x = rng.normal(size=2)
        y = np.asarray(members[2])
        K = np.array([[eval_kernel(spec, X[i], X[j]) for j in range(3)]
                      for i in range(3)])
        v = np.array([eval_kernel(spec, x, X[i]) for i in range(3)])
        w = gaussian_solve(K + 3 * lam * np.eye(3), v)
        risks = [sum(w[i] * np.abs(np.asarray(mm) - labels[i]).sum()
                     for i in range(3)) for mm in members]
        for rho in (0.05, 1.0, 50.0):
            inner = max(np.abs(np.asarray(mm) - y).sum()
                        + (min(risks) - risks[k]) / rho
                        for k, mm in enumerate(members))
            L = loss_bound(loss, space)
            expect = min(L, inner)
            got = surrogate_loss(model, loss, SurrogateConfig(rho, L, space), x, y)
            assert got == pytest.approx(expect, abs=1e-9)

    def test_flow_surrogate_flagged_heuristic(self, rng):
        from ecrm import default_flow_network, enumerate_st_paths, flow_space
        net = default_flow_network()
        P = enumerate_st_paths(net)
        space = flow_space(net)
        m = 4
        labels = np.array([rng.dirichlet(np.ones(P.shape[0])) @ P for _ in range(m)])
        X = rng.normal(size=(m, 3))
        model = fit(KernelSpec("rbf", gamma=1.0), 0.3, X, labels)
        loss = LossSpec("absolute")
        cfg = make_surrogate_config(1.0, loss, space)
        val, cert = surrogate_loss_detailed(model, loss, cfg, rng.normal(size=3),
                                            labels[0])
        assert cert == "heuristic"
        assert 0.0 <= val <= cfg.L + 1e-12

    def test_flow_square_surrogate_exact_when_both_solves_are(self):
        # One training flow gives a positive weight, so the risk minimization
        # is exact; a small rho keeps the augmented weights' total positive
        # and their weighted mean inside the polytope, so that one is too.
        from ecrm import default_flow_network, enumerate_st_paths, flow_space
        net = default_flow_network()
        P = enumerate_st_paths(net)
        space = flow_space(net)
        label = P.mean(axis=0)
        model = fit(KernelSpec("rbf", gamma=1.0), 0.1, np.zeros((1, 2)), label[None, :])
        x = np.array([0.3, -0.2])
        y = P[0]
        loss = LossSpec("square")
        cfg = make_surrogate_config(0.01, loss, space)
        val, cert = surrogate_loss_detailed(model, loss, cfg, x, y)
        assert cert == "exact"
        # Closed form: the risk minimum is 0 at the label, and the augmented
        # objective -||v - y||^2 + c ||v - label||^2 (c = w / rho > 1) is
        # minimized at v = (c label - y) / (c - 1), which is a feasible flow.
        c = float(weights(model, x)[0]) / cfg.rho
        v = (c * label - y) / (c - 1.0)
        assert np.all(v >= 0)
        fmin = -np.sum((v - y) ** 2) + c * np.sum((v - label) ** 2)
        assert val == pytest.approx(min(cfg.L, -fmin), abs=1e-12)


class TestBatchSurrogate:
    """A (Q, p) batch gives, row for row, the one-sample surrogate computed
    from the same weight row."""

    def _check(self, monkeypatch, model, loss, cfg, X, Y, params=None, rtol=0.0):
        import ecrm.analysis
        import ecrm.inference
        W = weights(model, X)
        monkeypatch.setattr(ecrm.inference, "BLOCK_ROWS", 3)
        vals, certs = surrogate_loss_detailed(model, loss, cfg, X, Y, params)
        assert vals.shape == (X.shape[0],) and len(certs) == X.shape[0]
        for i in range(X.shape[0]):
            monkeypatch.setattr(ecrm.analysis, "weights", lambda model, x, w=W[i]: w)
            one, cert = surrogate_loss_detailed(model, loss, cfg, X[i], Y[i], params)
            assert cert == certs[i]
            if rtol:
                assert vals[i] == pytest.approx(one, rel=rtol, abs=0)
            else:
                assert vals[i] == one
        monkeypatch.setattr(ecrm.analysis, "weights", weights)
        return vals, certs

    def test_hierarchy(self, monkeypatch, rng):
        G = random_tree(rng, 9)
        space = hierarchy_space(G)
        labels = np.array([random_feasible_label(rng, G) for _ in range(12)])
        model = fit(KernelSpec("rbf", gamma=0.7), 0.2, rng.normal(size=(12, 3)), labels)
        X = rng.normal(size=(8, 3))
        Y = np.array([random_feasible_label(rng, G) for _ in range(8)])
        for loss in (LossSpec("hamming"), LossSpec("hierarchical", hierarchy=G)):
            cfg = make_surrogate_config(0.4, loss, space)
            # Zero-weight labels of the block's other rows may move the
            # coefficient products by rounding only.
            _, certs = self._check(monkeypatch, model, loss, cfg, X, Y, rtol=1e-12)
            assert set(certs) == {"exact"}

    def test_ranking(self, monkeypatch, rng):
        d = 5
        labels = np.array([rng.permutation(d) + 1 for _ in range(10)])
        model = fit(KernelSpec("rbf", gamma=0.7), 0.2, rng.normal(size=(10, 3)), labels)
        X = rng.normal(size=(7, 3))
        Y = np.array([rng.permutation(d) + 1 for _ in range(7)])
        loss = LossSpec("footrule")
        cfg = make_surrogate_config(0.6, loss, assignment_space(d))
        _, certs = self._check(monkeypatch, model, loss, cfg, X, Y)
        assert set(certs) == {"exact"}

    def test_explicit(self, monkeypatch, rng):
        space, model = _random_explicit_instance(rng, n_members=5, m=7)
        loss = LossSpec("absolute")
        cfg = make_surrogate_config(0.3, loss, space)
        X = rng.normal(size=(6, 3))
        Y = np.stack([np.asarray(space.members[i]) for i in rng.integers(5, size=6)])
        self._check(monkeypatch, model, loss, cfg, X, Y)

    @pytest.mark.parametrize("kind", ["square", "absolute"])
    def test_flow(self, monkeypatch, kind):
        from ecrm import (FlowGeneratorSpec, SolverParams, default_flow_network, flow_space,
                          simulate_flow_data)
        spec = FlowGeneratorSpec.create(seed=4, tau=1.0, p=3)
        train = simulate_flow_data(spec, 12, stream=1)
        test = simulate_flow_data(spec, 5, stream=2)
        model = fit(KernelSpec("rbf", gamma=0.5), 0.05, train.X, train.Y)
        loss = LossSpec(kind)
        cfg = make_surrogate_config(0.5, loss, flow_space(default_flow_network()))
        # As for hierarchies: zero-weight labels of the block's other rows may
        # move the weighted sums by rounding only.
        self._check(monkeypatch, model, loss, cfg, test.X, test.Y,
                    SolverParams(max_iters=40, restarts=2), rtol=1e-12)


class TestEmpiricalSurrogateRisk:
    def test_single_sample_equals_surrogate(self, rng):
        space, model = _random_explicit_instance(rng)
        loss = LossSpec("square")
        cfg = make_surrogate_config(0.5, loss, space)
        X = rng.normal(size=(1, 3))
        Y = np.asarray(space.members[1])[None, :]
        emp = empirical_surrogate_risk(model, loss, cfg, X, Y)
        assert emp == surrogate_loss(model, loss, cfg, X[0], Y[0])

    def test_dominates_mean_realized_loss(self, rng):
        space, model = _random_explicit_instance(rng)
        loss = LossSpec("absolute")
        cfg = make_surrogate_config(0.7, loss, space)
        X = rng.normal(size=(6, 3))
        Y = np.stack([np.asarray(space.members[i])
                      for i in rng.integers(len(space.members), size=6)])
        emp = empirical_surrogate_risk(model, loss, cfg, X, Y)
        realized = np.mean([realized_loss(model, loss, space, X[i], Y[i])
                            for i in range(6)])
        assert emp >= realized - 1e-10

    def test_matches_manual_mean(self, rng):
        space, model = _random_explicit_instance(rng)
        loss = LossSpec("square")
        cfg = make_surrogate_config(0.9, loss, space)
        X = rng.normal(size=(4, 3))
        Y = np.stack([np.asarray(space.members[i]) for i in (0, 1, 2, 0)])
        vals = [surrogate_loss(model, loss, cfg, X[i], Y[i]) for i in range(4)]
        assert empirical_surrogate_risk(model, loss, cfg, X, Y) == pytest.approx(
            np.mean(vals), abs=1e-15)


class TestGeneralizationBound:
    def test_unit_kappa_lambda_factor(self):
        b = BoundInputs(empirical_risk=0.5, L=2.0, kappa=1.0, lam=1.0, rho=0.1,
                        delta=0.05, m=100)
        nu = b.kappa / b.lam + (b.kappa / b.lam) ** 1.5
        assert nu == 2.0

    def test_matches_independent_arithmetic(self):
        b = BoundInputs(empirical_risk=0.37, L=3.0, kappa=1.4, lam=0.2, rho=0.25,
                        delta=0.1, m=250)
        nu = 1.4 / 0.2 + (1.4 / 0.2) ** 1.5
        manual = 0.37 + 4 * 3.0 * nu / (0.25 * 250) \
            + 3.0 * (8 * nu / 0.25 + 1) * math.sqrt(math.log(1 / 0.1) / (2 * 250))
        assert generalization_bound(b) == pytest.approx(manual, abs=1e-12)

    def test_monotone_decreasing_in_m_and_delta(self):
        base = dict(empirical_risk=0.4, L=2.0, kappa=1.0, lam=0.5, rho=0.2, delta=0.05)
        vals_m = [generalization_bound(BoundInputs(m=m, **base))
                  for m in (10, 30, 100, 300, 1000)]
        assert all(a > b for a, b in zip(vals_m, vals_m[1:]))
        base_m = dict(empirical_risk=0.4, L=2.0, kappa=1.0, lam=0.5, rho=0.2, m=100)
        vals_d = [generalization_bound(BoundInputs(delta=d, **base_m))
                  for d in (0.01, 0.05, 0.1, 0.3, 0.9)]
        assert all(a > b for a, b in zip(vals_d, vals_d[1:]))

    def test_dominates_empirical_risk(self):
        b = BoundInputs(empirical_risk=0.7, L=1.0, kappa=1.0, lam=1.0, rho=1.0,
                        delta=0.5, m=10)
        emp, stab, conf, total = generalization_bound_terms(b)
        assert total >= emp and stab > 0 and conf > 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(empirical_risk=0.0, L=1.0, kappa=1.0, lam=1.0, rho=1.0,
                        delta=1.5, m=10)


class TestBayesConditionalRisk:
    def test_deterministic_generator_reaches_zero(self):
        from ecrm import FlowGeneratorSpec, conditional_sampler, flow_space
        spec = FlowGeneratorSpec.create(seed=5, tau=0.0, p=4)
        space = flow_space(spec.network)
        x = np.full(4, 0.3)
        val = bayes_conditional_risk(conditional_sampler(spec), x,
                                     LossSpec("absolute"), space, n_mc=50, seed=1)
        assert val <= 1e-10

    def test_fair_coin_zero_one_risk_is_half(self):
        space = explicit_space([[-1.0], [1.0]])

        def sampler(x, n, seed):
            rng = np.random.default_rng([seed, 99])
            return rng.choice([-1.0, 1.0], size=(n, 1))

        val = bayes_conditional_risk(sampler, None, LossSpec("zero_one"), space,
                                     n_mc=20_000, seed=3)
        assert val == pytest.approx(0.5, abs=0.02)

    def test_flow_generator_stable_across_mc_streams(self):
        from ecrm import FlowGeneratorSpec, SolverParams, conditional_sampler, flow_space
        spec = FlowGeneratorSpec.create(seed=11, tau=1.0, p=6)
        space = flow_space(spec.network)
        x = np.full(6, 0.75)
        params = SolverParams(max_iters=150, restarts=2)
        vals = [bayes_conditional_risk(conditional_sampler(spec), x,
                                       LossSpec("absolute"), space, n_mc=4000, seed=s,
                                       params=params)
                for s in range(4)]
        assert np.std(vals) <= 0.05 * max(np.mean(vals), 1e-9)
