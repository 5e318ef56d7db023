"""Self-tests of the benchmark: seeded inputs, output checks, metric names.

Run from the repository root with ``src`` on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import bench, checks, run
from perfbench.workloads import WORKLOADS, generate, write_files

ROOT = Path(__file__).resolve().parent.parent
SMALL = 0.1


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_input_bytes(tmp_path, name):
    w = WORKLOADS[name]
    write_files(generate(w, 5), tmp_path / "a")
    write_files(generate(w, 5), tmp_path / "b")
    write_files(generate(w, 6), tmp_path / "c")
    a, b, c = (_files(tmp_path / k) for k in "abc")
    assert a == b
    assert a["train_x.txt"] != c["train_x.txt"]
    assert a.get("structure.txt") == c.get("structure.txt")


def test_hierarchical_objective_matches_loss_definition():
    inst = generate(WORKLOADS["hier-tree"].scaled(0.02), 3)
    rng = np.random.default_rng(0)
    Ytr = inst.train[1]
    wq = rng.normal(size=Ytr.shape[0])
    coef, offset = checks.linear_objective(inst, wq)
    for y in inst.query[1]:
        direct = wq @ checks.hierarchical_loss_rows(inst, np.tile(y, (len(Ytr), 1)), Ytr)
        assert np.isclose(coef @ y + offset, direct, rtol=1e-12, atol=1e-12)


def _optimal_rows(inst, ref):
    """Reference-optimal outputs for the reference rows, as program text."""
    w = inst.workload
    W = checks.reference_weights(inst, sorted(ref.rows))
    rows = []
    for r in sorted(ref.rows):
        if w.space == "assignment":
            from scipy.optimize import linear_sum_assignment

            _, cols = linear_sum_assignment(checks.footrule_costs(inst, W[r]))
            rows.append(cols + 1)
        else:
            from scipy.optimize import linprog

            coef, _ = checks.linear_objective(inst, W[r])
            A = np.zeros((len(inst.arcs), w.d))
            for k, (p, ch) in enumerate(inst.arcs):
                A[k, ch], A[k, p] = 1.0, -1.0
            res = linprog(coef, A_ub=A, b_ub=np.zeros(len(inst.arcs)), bounds=(0, 1),
                          method="highs")
            rows.append(np.round(res.x).astype(int))
    return rows


def _text(rows) -> str:
    return "".join(" ".join(str(int(v)) for v in row) + "\n" for row in rows)


@pytest.mark.parametrize("name", ["hier-tree", "dag-large-m", "rank-footrule"])
def test_check_rejects_one_corrupted_entry(name):
    w = WORKLOADS[name].scaled(SMALL)
    w = dataclasses.replace(w, q=w.reference_rows)
    inst = generate(w, 2)
    ref = checks.Reference(inst)
    rows = _optimal_rows(inst, ref)
    assert bench._check_rows(inst, ref, _text(rows)).all()
    bad = [r.copy() for r in rows]
    if w.space == "assignment":
        bad[0][[0, 1]] = bad[0][[1, 0]]  # swap two ranks: still a permutation
    else:
        bad[0][w.d - 1] ^= 1  # flip one hierarchy bit
    ok = bench._check_rows(inst, ref, _text(bad))
    assert not ok[0] and ok[1:].all()


def test_check_rejects_out_of_range_rank():
    w = WORKLOADS["rank-footrule"].scaled(SMALL)
    w = dataclasses.replace(w, q=w.reference_rows)
    inst = generate(w, 2)
    ref = checks.Reference(inst)
    rows = _optimal_rows(inst, ref)
    rows[0][0] = w.d + 1
    ok = bench._check_rows(inst, ref, _text(rows))
    assert not ok[0] and ok[1:].all()


def test_check_rejects_flow_that_leaks():
    w = WORKLOADS["flow-l1"].scaled(SMALL)
    inst = generate(w, 2)
    Y = inst.query[1].copy()
    assert checks.feasible_rows(inst, Y).all()
    Y[3, 0] += 1e-6
    assert checks.feasible_rows(inst, Y).tolist() == [i != 3 for i in range(len(Y))]


def test_printed_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    for name in WORKLOADS:
        digests = set()
        for trace in (0, 1):
            result, info = bench.run(name, 7, 0.2, bool(trace), tmp_path / f"{name}{trace}",
                                     scale=SMALL)
            assert result["correct"], info["problems"]
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert {k: v["unit"] for k, v in result["metrics"].items()} == want[trace]
            digests.add(info["predict_sha256"])
        assert len(digests) == 1, "predict output differs between runs of one seed"
