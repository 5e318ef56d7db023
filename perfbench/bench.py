"""One benchmark run: set-up, interleaved timed calls, output checks, metrics.

The run is a closed loop with one client in one process: every call starts
after the previous one returns.  The command line is driven in-process
through ``ecrm.cli.main`` and the library through ``ecrm.infer``.

Reported times are medians scaled by a speed probe: a fixed computation
of the benchmark's own, timed between the program's calls in the same
window.  On shared hosts machine speed drifts by tens of percent over
minutes; the scaling removes most of that drift from run-to-run spread.
The unscaled medians are printed in the info line under ``raw``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import checks, machine, spans
from .workloads import CHUNKS, WORKLOADS, generate, predict_argv, train_argv, write_files

SETUPS = 3
END_TO_END = {"setup_s": "s", "train_s": "s", "predict_qps": "1/s", "query_ms_p50": "ms",
              "test_loss": "loss", "peak_rss_mb": "MB"}
# A latency percentile is reported only with this many samples.
P90_MIN_SAMPLES = 100
# Median seconds of one ``_probe`` call on the host that fixed the scale
# (2-vCPU Xeon VM, OpenBLAS): reported times read as on that host.
REFERENCE_PROBE_S = 0.008


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(what)

    def record(self, ok: bool, what: str, n: int = 1) -> None:
        self.add(n, 0 if ok else n, what)


def _cli(argv) -> tuple[float, int | None, str]:
    """Wall time, exit code (None on an escaped exception) and stdout."""
    import ecrm.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ecrm.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a traceback is a failed call, not a crashed benchmark
        rc = None
    return time.perf_counter() - t0, rc, out.getvalue()


def _interleave(units: dict, seconds: float) -> dict:
    """Run the timed units interleaved over ``seconds``.

    ``units`` maps a name to ``(call, share, fewest)``.  The next unit is
    the one furthest below its share of the time spent so far, so every
    metric samples the whole window and slow drifts of machine speed hit
    all of them alike.  Stops once each unit ran ``fewest`` times and the
    next unit is expected to end past ``seconds``.  Returns each unit's
    results in call order.
    """
    results = {name: [] for name in units}
    spent = dict.fromkeys(units, 0.0)
    start = time.perf_counter()
    while True:
        short = [n for n, (_, _, fewest) in units.items() if len(results[n]) < fewest]
        name = min(short or units, key=lambda n: spent[n] / units[n][1])
        if not short and (time.perf_counter() - start
                          + spent[name] / max(1, len(results[name])) > seconds):
            return results
        t0 = time.perf_counter()
        results[name].append(units[name][0]())
        spent[name] += time.perf_counter() - t0


_PROBE_A = np.random.default_rng(0).normal(size=(64, 64)) / 8.0


def _probe() -> float:
    """Seconds for a fixed mix of interpreter loops and small numpy calls."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    x = _PROBE_A
    for _ in range(120):
        x = np.tanh(x @ _PROBE_A)
    return time.perf_counter() - t0


def _library_objects(w, files, model_path):
    """Model, loss, space and solver settings equal to the predict flags."""
    import ecrm
    from ecrm import io as eio

    model = eio.load_model(model_path)
    if w.space == "hierarchy":
        G = eio.load_hierarchy(files.structure)
        space = ecrm.hierarchy_space(G)
        loss = ecrm.LossSpec(w.loss, hierarchy=G if w.loss == "hierarchical" else None)
    elif w.space == "assignment":
        space, loss = ecrm.assignment_space(w.d), ecrm.LossSpec(w.loss)
    else:
        space, loss = ecrm.flow_space(eio.load_network(files.structure)), ecrm.LossSpec(w.loss)
    return model, loss, space, ecrm.SolverParams(**dict(w.solver))


def _peak_rss_mb() -> float:
    """High-water resident set of this process image, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        scale: float = 1.0) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, info)``.  ``result`` holds the
    keys of the final output line, ``info`` the machine, the sample counts,
    the unscaled medians and the speed factor."""
    import ecrm

    w = WORKLOADS[name]
    if scale != 1.0:
        w = w.scaled(scale)
    tally = Tally()
    model_path = workdir / "model.ecrm"

    def setup():
        t0 = time.perf_counter()
        inst = generate(w, seed)
        files = write_files(inst, workdir)
        for argv in (train_argv(w, files, model_path),
                     predict_argv(w, files, model_path, files.warmup_x)):
            _, rc, _ = _cli(argv)
            tally.record(rc == 0, f"set-up {argv[0]} exited {rc}")
        return time.perf_counter() - t0, inst, files

    # The first set-up also pays for imports and first calls; it is not
    # timed.  Later ones rewrite the same bytes, interleaved with the rest.
    _, inst, files = setup()
    full_out = None
    if not trace:
        # One untimed predict over all query rows, so that ``peak_rss_mb``
        # sees the temporaries of the whole batch, not of one chunk.
        _, rc, full_out = _cli(predict_argv(w, files, model_path, files.query_x))
        tally.record(rc == 0, f"full predict exited {rc}")
    model, loss, space, params = _library_objects(w, files, model_path)
    Xq = inst.query[0]
    rows_per_chunk = w.q // CHUNKS
    train_cmd = train_argv(w, files, model_path)
    predict_cmds = [predict_argv(w, files, model_path, x) for x in files.query_chunks]
    tracer = spans.Tracer()
    predicts, queries = [], []

    def train():
        tracer.begin_op("train")
        dt, rc, _ = _cli(train_cmd)
        tally.record(rc == 0, f"train exited {rc}")
        return dt

    def predict():
        k = len(predicts) % CHUNKS
        tracer.begin_op("predict", k)
        dt, rc, out = _cli(predict_cmds[k])
        tally.record(rc == 0, f"predict exited {rc}")
        predicts.append((dt, k, out))
        return dt

    def query():
        r = len(queries) % w.query_prefix
        tracer.begin_op("query", r)
        t0 = time.perf_counter()
        try:
            y = ecrm.infer(model, loss, space, Xq[r], params).y_star
        except Exception as exc:  # counted as a failed query
            y = exc
        queries.append((time.perf_counter() - t0, r, y))

    def traced(fn):
        def call():
            with tracer.installed():
                return fn()
        return call if trace else fn

    units = {"setup": (setup, 0.10, SETUPS), "train": (traced(train), 0.15, 3),
             "predict": (traced(predict), 0.45, CHUNKS),
             "query": (traced(query), 0.25, w.query_prefix), "probe": (_probe, 0.05, 20)}
    if trace:
        # Untraced predicts in the same window give the tracing overhead.
        units["predict"] = (traced(predict), 0.25, CHUNKS)
        units["untraced"] = (predict, 0.20, CHUNKS)
    timed = _interleave(units, seconds)
    peak_rss = _peak_rss_mb()

    # Checks, after timing.
    ref = checks.Reference(inst)
    first = {}
    for _, k, out in predicts:
        if first.setdefault(k, out) != out:
            tally.add(0, 1, f"predict output of chunk {k} differs between calls")
    full_text = "".join(first[k] for k in range(CHUNKS))
    ok = _check_rows(inst, ref, full_text)
    reps = Counter(k for _, k, _ in predicts)
    for k in range(CHUNKS):
        bad = ~ok[k * rows_per_chunk:(k + 1) * rows_per_chunk]
        tally.add(reps[k] * rows_per_chunk, reps[k] * int(bad.sum()),
                  f"chunk {k} rows {np.flatnonzero(bad)[:5].tolist()} infeasible or not optimal")
    if full_out is not None:
        bad = ~_check_rows(inst, ref, full_out)
        tally.add(w.q, int(bad.sum()),
                  f"full predict rows {np.flatnonzero(bad)[:5].tolist()} infeasible or not optimal")
    first_y = {}
    for _, r, y in queries:
        if isinstance(y, Exception):
            tally.record(False, f"query {r} raised {type(y).__name__}: {y}")
            continue
        y = np.asarray(y, dtype=float)
        good = bool(checks.feasible_rows(inst, y[None, :])[0])
        if r in ref.rows:
            good = good and ref.matches(r, y)
        good = good and np.array_equal(first_y.setdefault(r, y), y)
        tally.record(good, f"query {r} infeasible, not optimal or not repeatable")
    P = _parse(full_text, w.q)
    loss_value = checks.mean_test_loss(inst, P) if P is not None else float("nan")

    # Machine speed drifts by tens of percent over minutes on shared hosts;
    # times are scaled to a host on which the probe takes REFERENCE_PROBE_S.
    speed = REFERENCE_PROBE_S / statistics.median(timed["probe"])
    setup_times = [dt for dt, _, _ in timed["setup"]]
    lat_ms = [1e3 * dt for dt, _, _ in queries]
    raw = {"setup_s": statistics.median(setup_times),
           "train_s": statistics.median(timed["train"]),
           "predict_qps": statistics.median(rows_per_chunk / dt for dt, _, _ in predicts),
           "query_ms_p50": statistics.median(lat_ms)}
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "machine": machine.describe(), "speed": speed, "raw": raw,
            "samples": {k: len(v) for k, v in timed.items()},
            "predict_sha256": hashlib.sha256(full_text.encode()).hexdigest(),
            "problems": tally.problems}
    if len(lat_ms) >= P90_MIN_SAMPLES:
        info["query_ms_p90"] = statistics.quantiles(lat_ms, n=10)[-1] * speed

    if trace:
        metrics, info["layer_share"] = _layer_metrics(tracer, timed["predict"], timed["untraced"])
        for metric in spans.uncovered(name, tracer.op_totals("train")
                                      + tracer.op_totals("predict")):
            tally.record(False, f"no span for {metric}")
        trace_path = workdir.parent / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path)
    else:
        values = {"setup_s": raw["setup_s"] * speed,
                  "train_s": raw["train_s"] * speed,
                  "predict_qps": raw["predict_qps"] / speed,
                  "query_ms_p50": raw["query_ms_p50"] * speed,
                  "test_loss": loss_value,
                  "peak_rss_mb": peak_rss}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result = {"correct": tally.failed == 0 and bool(np.isfinite(loss_value)),
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return result, info


def _parse(text: str, rows: int):
    try:
        P = checks.parse_rows(text)
    except ValueError:
        return None
    return P if P.shape[0] == rows else None


def _check_rows(inst, ref, text: str) -> np.ndarray:
    """Per query row: feasible, and optimal where a reference exists."""
    P = _parse(text, inst.workload.q)
    if P is None:
        return np.zeros(inst.workload.q, dtype=bool)
    ok = checks.feasible_rows(inst, P)
    for r in ref.rows:
        ok[r] = ok[r] and ref.matches(r, P[r])
    return ok


def _layer_metrics(tracer, predict_times, untraced_times):
    """Median per traced call of each kind, summed over train and predict;
    plus each layer's share of the median traced predict."""
    values = {}
    for kind in ("train", "predict"):
        per_op = [spans.layer_metrics(acc, kind == "predict") for acc in tracer.op_totals(kind)]
        for key in per_op[0]:
            values[key] = values.get(key, 0) + statistics.median(v[key] for v in per_op)
    values["trace.overhead_s"] = statistics.median(predict_times) - statistics.median(untraced_times)
    metrics = {k: {"value": int(values[k]) if unit == "count" else values[k], "unit": unit}
               for k, (unit, _, _) in spans.PER_LAYER.items()}
    wall = statistics.median(predict_times)
    predicts = tracer.op_totals("predict")
    share = {layer: statistics.median(spans.layer_self(acc, layer) for acc in predicts) / wall
             for layer in spans.LAYERS}
    return metrics, share
