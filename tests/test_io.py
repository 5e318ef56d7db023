"""File formats, loaders with positioned errors, and model persistence."""

import hashlib
import re

import numpy as np
import pytest

from ecrm import (AdditiveModel, DataFormatError, HierarchyDag, JointKernelSpec,
                  KernelSpec, TrainedModel, assignment_space, default_flow_network,
                  enumerate_st_paths, fit, fit_additive, flow_space, hierarchy_space,
                  load_model, save_additive_model, save_model, weights)
from ecrm.io import (fmt, load_hierarchy, load_labels, load_matrix, load_network,
                     save_hierarchy, save_matrix, save_network)
from conftest import random_feasible_label, random_tree


class TestMatrixFiles:
    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_matrix(path)

    def test_single_cell(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0.5\n")
        np.testing.assert_array_equal(load_matrix(path), [[0.5]])

    def test_round_trip_is_identity(self, tmp_path, rng):
        M = rng.normal(size=(7, 4))
        path = tmp_path / "m.txt"
        save_matrix(path, M)
        np.testing.assert_array_equal(load_matrix(path), M)

    def test_ragged_rows_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n3 4 5\n")
        with pytest.raises(DataFormatError, match=":2:"):
            load_matrix(path)

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n3 x\n")
        with pytest.raises(DataFormatError, match=":2:"):
            load_matrix(path)

    def test_binary_label_validation(self, tmp_path):
        space = hierarchy_space(HierarchyDag(2, [(0, 1)]))
        path = tmp_path / "y.txt"
        path.write_text("1 0\n0 2\n0 1\n")
        with pytest.raises(DataFormatError, match=r"y\.txt:2: label is not a 0/1 vector"):
            load_labels(path, space)
        path.write_text("1 0\n0 1\n0 2\n")
        with pytest.raises(DataFormatError,
                           match=r"y\.txt:2: label has node 1 active but parent 0 inactive"):
            load_labels(path, space)
        path.write_text("1 1 0\n")
        with pytest.raises(DataFormatError, match=r"y\.txt:1: expected 2 values, found 3"):
            load_labels(path, space)
        path.write_text("1 1\n0 0\n")
        Y = load_labels(path, space)
        assert Y.dtype == np.int64
        np.testing.assert_array_equal(Y, [[1, 1], [0, 0]])

    def test_permutation_validation(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2 3\n1 1 3\n")
        with pytest.raises(DataFormatError,
                           match=r"p\.txt:2: label is not a permutation of 1\.\.3"):
            load_labels(path, assignment_space(3))

    def test_non_integer_rank_names_its_line(self, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text("1 2\n2 1\n2 1.5\n1 2.5\n")
        with pytest.raises(DataFormatError,
                           match=r"perm\.txt:3: label is not a permutation of 1\.\.2"):
            load_labels(path, assignment_space(2))
        path.write_text("1 2\n2 1\n")
        assert load_labels(path, assignment_space(2)).dtype == np.int64

    def test_flow_label_validation(self, tmp_path):
        net = default_flow_network()
        path = tmp_path / "f.txt"
        Y = enumerate_st_paths(net)[:3].copy()
        save_matrix(path, Y)
        np.testing.assert_array_equal(load_labels(path, flow_space(net)), Y)
        Y[1, 0] += 1e-6
        save_matrix(path, Y)
        with pytest.raises(DataFormatError,
                           match=r"f\.txt:2: label violates conservation by 1e-06"):
            load_labels(path, flow_space(net))

    def test_fmt_round_trips(self, rng):
        for v in rng.normal(size=50):
            assert float(fmt(v)) == v


class TestHierarchyFiles:
    def test_star(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0 1\n0 2\n")
        G = load_hierarchy(path)
        assert G.d == 3 and G.roots == (0,)

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1 1\n")
        with pytest.raises(DataFormatError, match="self-loop"):
            load_hierarchy(path)

    def test_cycle_rejected(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        with pytest.raises(DataFormatError, match="cycle"):
            load_hierarchy(path)

    def test_round_trip(self, tmp_path, rng):
        G = random_tree(rng, 9)
        path = tmp_path / "h.txt"
        save_hierarchy(path, G)
        G2 = load_hierarchy(path)
        assert G2.d == G.d and G2.arcs == G.arcs

    def test_width_bounds_node_ids(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0 1\n\n1 2\n3 2\n")
        assert load_hierarchy(path, 4).d == 4
        assert load_hierarchy(path, 5).d == 4
        # The first arc with an id of at least the width names its line;
        # the blank line 2 still counts.
        for width, line, node in ((3, 4, 3), (2, 3, 2)):
            with pytest.raises(DataFormatError,
                               match=f"^{re.escape(str(path))}:{line}: node id {node} "
                                     f"does not fit labels of {width} entries$"):
                load_hierarchy(path, width)


class TestNetworkFiles:
    def test_round_trip_default_network(self, tmp_path):
        net = default_flow_network()
        path = tmp_path / "net.txt"
        save_network(path, net)
        net2 = load_network(path)
        assert net2.arcs == net.arcs and net2.b == net.b
        assert net2.n_arcs == 10

    def test_unbalanced_inflow_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("nodes 2 arcs 1\n0 1\n0 1.0\n1 0.5\n")
        with pytest.raises(DataFormatError, match="sum"):
            load_network(path)

    def test_cycle_rejected_when_required(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("nodes 2 arcs 2\n0 1\n1 0\n0 0.0\n1 0.0\n")
        with pytest.raises(DataFormatError, match="cycle"):
            load_network(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("vertices 2\n")
        with pytest.raises(DataFormatError, match=":1:"):
            load_network(path)

    @pytest.mark.parametrize("text, message", [
        ("nodes 2 arcs 1\n0 1\n0 -1.0\n", r"net\.txt: expected 4 lines, found 3"),
        ("nodes 2 arcs 1\n0 1\n0 -1.0 7\n1 1.0\n", r"net\.txt:3: expected 'node b_value'"),
        ("nodes 2 arcs 1\n0 1\n0 -1.0\n0 1.0\n", r"net\.txt:4: bad or repeated node id 0"),
        ("nodes 2 arcs 1\n0 1\n0 -1.0\n2 1.0\n", r"net\.txt:4: bad or repeated node id 2"),
    ], ids=["short_file", "three_value_node_line", "repeated_node_id", "node_id_past_n"])
    def test_malformed_node_lines(self, tmp_path, text, message):
        path = tmp_path / "net.txt"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            load_network(path)


class TestModelPersistence:
    def test_base_round_trip(self, tmp_path, rng):
        G = random_tree(rng, 5)
        m = 6
        labels = np.array([random_feasible_label(rng, G) for _ in range(m)])
        X = rng.normal(size=(m, 3))
        model = fit(KernelSpec("rbf", gamma=0.8), 0.25, X, labels,
                    intercept_mode="centered")
        path = tmp_path / "model.ecrm"
        save_model(path, model)
        first = path.read_text().splitlines()[0]
        assert first == "ECRM-MODEL 1"
        loaded = load_model(path)
        assert loaded.kernel == model.kernel
        assert loaded.lam == model.lam
        assert loaded.intercept_mode == "centered"
        np.testing.assert_array_equal(loaded.inputs, model.inputs)
        np.testing.assert_array_equal(loaded.labels, model.labels)
        x = rng.normal(size=3)
        np.testing.assert_allclose(weights(loaded, x), weights(model, x),
                                   atol=1e-12)

    def test_linear_kernel_round_trip(self, tmp_path, rng):
        X = rng.normal(size=(4, 2))
        model = fit(KernelSpec("linear"), 1.0, X, np.array([[1.0, 2.0]] * 4))
        path = tmp_path / "model.ecrm"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.kernel.kind == "linear"
        np.testing.assert_array_equal(loaded.labels, model.labels)

    def test_additive_round_trip(self, tmp_path, rng):
        G = HierarchyDag(3, [(0, 1), (0, 2)])
        m = 4
        X = rng.normal(size=(m, 2))
        Y = np.array([random_feasible_label(rng, G) for _ in range(m)])
        joint = JointKernelSpec(base=KernelSpec("rbf", gamma=1.1), neighbors="adjacent")
        model = fit_additive(X, Y, G, joint, 0.6)
        path = tmp_path / "model.ecrm"
        save_additive_model(path, model)
        lines = path.read_text().splitlines()
        assert lines[0] == "ECRM-MODEL 1" and lines[1] == "variant additive"
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.alpha, model.alpha)
        np.testing.assert_array_equal(loaded.inputs, model.inputs)
        assert loaded.hierarchy.arcs == G.arcs
        assert loaded.joint == joint and loaded.lam == model.lam

    # Values whose shortest repr is easy to get wrong: a signed zero, the
    # smallest subnormal, a subnormal, a near-overflow and a rounded sum.
    SPECIAL = (-0.0, 5e-324, 1e-310, 1e308, 0.1 + 0.2)

    @staticmethod
    def _per_value(M) -> str:
        """The rows as the per-value formatter writes them."""
        if np.issubdtype(M.dtype, np.integer):
            return "".join(" ".join(str(int(v)) for v in row) + "\n" for row in M)
        return "".join(" ".join(fmt(v) for v in row) + "\n" for row in M)

    def test_writers_match_per_value_formatting(self, tmp_path):
        F = np.array([self.SPECIAL, [-v for v in self.SPECIAL]])
        I = np.array([[-3, 0, 7], [-1, 12, -40]])
        path = tmp_path / "out.txt"
        for M in (F, I, I > 0, F[:, ::2]):
            save_matrix(path, M)
            assert path.read_text() == self._per_value(M)
        save_model(path, TrainedModel(kernel=KernelSpec("rbf", gamma=0.5), lam=0.25,
                                      inputs=F, labels=I))
        lines = path.read_text().splitlines(keepends=True)
        assert "".join(lines[3:]) == self._per_value(F) + self._per_value(I)
        alpha = np.concatenate([F, F[:, :1]], axis=1).reshape(2, 3, 2)
        G = HierarchyDag(3, [(0, 1), (0, 2)])
        save_additive_model(path, AdditiveModel(
            alpha=alpha, joint=JointKernelSpec(base=KernelSpec("rbf", gamma=0.5)),
            lam=0.25, hierarchy=G, inputs=F))
        lines = path.read_text().splitlines(keepends=True)
        rows = np.concatenate([alpha[:, :, 1], alpha[:, :, 0]], axis=1)
        assert "".join(lines[-4:]) == self._per_value(F) + self._per_value(rows)

    def test_round_trip_is_bit_exact(self, tmp_path, rng):
        X = rng.normal(size=(5, 4))
        X[0] = self.SPECIAL[:1] + self.SPECIAL[1:3] + self.SPECIAL[4:]
        Y = rng.integers(-50, 50, size=(5, 3))
        path = tmp_path / "model.ecrm"
        for labels in (Y, Y + 0.1 + 0.2):
            model = fit(KernelSpec("rbf", gamma=0.5), 0.25, X, labels)
            save_model(path, model)
            loaded = load_model(path)
            assert loaded.inputs.tobytes() == model.inputs.tobytes()
            assert loaded.labels.dtype == model.labels.dtype
            assert loaded.labels.tobytes() == model.labels.tobytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ecrm"
        path.write_text("NOT-A-MODEL\n")
        with pytest.raises(DataFormatError, match="ECRM-MODEL"):
            load_model(path)


class TestFactorCache:
    """``save_model`` writes the Cholesky factor beside the model file;
    ``load_model`` uses it only when it matches that file."""

    @staticmethod
    def _count_calls(monkeypatch):
        """The number of calls of ``io``'s ``fit`` and ``_rows`` from now on."""
        import ecrm.io

        calls = {"fit": 0, "_rows": 0}

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(ecrm.io, name, counting(name, getattr(ecrm.io, name)))
        return calls

    @staticmethod
    def _model(rng, m=30):
        return fit(KernelSpec("rbf", gamma=0.7), 0.2, rng.normal(size=(m, 3)),
                   rng.integers(0, 2, size=(m, 4)))

    def test_cache_holds_fits_lower_factor(self, tmp_path, rng, monkeypatch):
        X = rng.normal(size=(30, 3))
        # A signed zero and two subnormals, then a rounded sum.
        X[0], X[1, 0] = TestModelPersistence.SPECIAL[:3], TestModelPersistence.SPECIAL[4]
        model = fit(KernelSpec("rbf", gamma=0.7), 0.2, X, rng.integers(0, 2, size=(30, 4)))
        path, cache = tmp_path / "model.ecrm", tmp_path / "model.ecrm.factor"
        save_model(path, model)
        header, body = cache.read_bytes().split(b"\n", 1)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert header == f"ECRM-FACTOR 2 30 3 <f8 {digest}".encode()
        assert body[:8 * 90] == X.astype("<f8").tobytes()
        L = model.factor[0]
        assert body[8 * 90:] == np.concatenate([L[j:, j] for j in range(30)]).astype(
            "<f8").tobytes()
        # A hit parses the labels only and does not refit.
        calls = self._count_calls(monkeypatch)
        loaded = load_model(path)
        assert calls == {"fit": 0, "_rows": 1}
        assert loaded.inputs.tobytes() == X.tobytes()
        assert loaded.labels.tobytes() == model.labels.tobytes()
        assert np.tril(loaded.factor[0]).tobytes() == np.tril(L).tobytes()
        assert loaded.factor[0].flags.f_contiguous
        x = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(weights(loaded, x), weights(model, x))
        # A miss parses the inputs too, to the same bytes, and refits.
        cache.unlink()
        refit = load_model(path)
        assert calls == {"fit": 1, "_rows": 3}
        assert refit.inputs.tobytes() == X.tobytes()
        np.testing.assert_array_equal(weights(refit, x), weights(model, x))

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_packed_columns_move_into_place(self, tmp_path, rng, m):
        # The cache is read in one piece into the factor's own buffer, and
        # each column then moves to its place, the last first.
        model = self._model(rng, m)
        save_model(tmp_path / "model.ecrm", model)
        L = load_model(tmp_path / "model.ecrm").factor[0]
        assert L.flags.f_contiguous
        assert np.tril(L).tobytes() == np.tril(model.factor[0]).tobytes()

    def test_model_without_factor_writes_no_cache(self, tmp_path, rng, monkeypatch):
        model = self._model(rng)
        bare = TrainedModel(kernel=model.kernel, lam=model.lam, inputs=model.inputs,
                            labels=model.labels)
        save_model(tmp_path / "bare.ecrm", bare)
        assert not (tmp_path / "bare.ecrm.factor").exists()
        # An old cache of another model with the same m is removed.
        path, cache = tmp_path / "model.ecrm", tmp_path / "model.ecrm.factor"
        save_model(path, self._model(rng))
        assert cache.exists()
        save_model(path, bare)
        assert not cache.exists()
        calls = self._count_calls(monkeypatch)
        loaded = load_model(path)
        assert calls["fit"] == 1
        x = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(weights(loaded, x), weights(model, x))

    def test_unwritable_cache_raises(self, tmp_path, rng):
        (tmp_path / "model.ecrm.factor").mkdir()
        with pytest.raises(DataFormatError, match="cannot write factor cache"):
            save_model(tmp_path / "model.ecrm", self._model(rng))

    @staticmethod
    def _additive(rng):
        G = HierarchyDag(3, [(0, 1), (0, 2)])
        X = rng.normal(size=(4, 2))
        Y = np.array([random_feasible_label(rng, G) for _ in range(4)])
        return fit_additive(X, Y, G, JointKernelSpec(base=KernelSpec("rbf", gamma=1.1)), 0.6)

    def test_unremovable_stale_cache_raises(self, tmp_path, rng):
        model = self._model(rng)
        bare = TrainedModel(kernel=model.kernel, lam=model.lam, inputs=model.inputs,
                            labels=model.labels)
        (tmp_path / "model.ecrm.factor").mkdir()
        with pytest.raises(DataFormatError, match="cannot remove stale factor cache"):
            save_model(tmp_path / "model.ecrm", bare)
        with pytest.raises(DataFormatError, match="cannot remove stale factor cache"):
            save_additive_model(tmp_path / "model.ecrm", self._additive(rng))

    def test_additive_model_writes_and_reads_no_cache(self, tmp_path, rng, monkeypatch):
        model = self._additive(rng)
        path = tmp_path / "model.ecrm"
        # The cache of a base model saved to the same path is removed.
        save_model(path, self._model(rng))
        assert (tmp_path / "model.ecrm.factor").exists()
        save_additive_model(path, model)
        assert not (tmp_path / "model.ecrm.factor").exists()
        import ecrm.io

        monkeypatch.setattr(ecrm.io, "_load_factor",
                            lambda *args: pytest.fail("an additive load read a factor cache"))
        loaded = load_model(path)
        assert isinstance(loaded, AdditiveModel)
        np.testing.assert_array_equal(loaded.alpha, model.alpha)
