"""Layer spans recorded from outside the program.

``Tracer.installed()`` replaces every public function of the layer modules
with a timing wrapper, at every place it is bound: the defining module, the
package namespace and every module that imported it by name (``fit`` lives
in ``model`` but is also bound in ``io``, ``cli`` and ``baselines``).
Spans are kept in memory as ``(name, start, end, parent, op, count)`` and
written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("io", "kernels", "model", "losses", "closure", "assignment", "flow_opt", "cli")

# Called once per written value; a wrapper would cost more than the call.
_UNWRAPPED = {"io.fmt"}

_IO_SAVE = {"io.save_model", "io.save_additive_model"}
_IO_LOAD = {"io.load_model"}

DISCRETE = ("hier-tree", "dag-large-m", "rank-footrule")
ALL = DISCRETE + ("flow-l1",)


def _called(name: str):
    return lambda acc: acc["calls"].get(name, 0) > 0


def _parsed(acc) -> bool:
    return _sum(acc["calls"], "io", lambda k: k not in _IO_SAVE | _IO_LOAD) > 0


def _cross(acc) -> bool:
    return _sum(acc["outer_calls"], "kernels", _not_gram) > 0


# Per-layer metric -> (unit, workloads whose traced train/predict calls must
# exercise it, test on one call's totals that it did).  The flow command-line
# path solves all weights in one batch, so it makes no ``weights`` or
# ``losses`` calls.
PER_LAYER = {
    "io.parse_s": ("s", ALL, _parsed),
    "io.model_save_s": ("s", ALL, _called("io.save_model")),
    "io.model_load_s": ("s", ALL, _called("io.load_model")),
    "kernels.gram_s": ("s", ALL, _called("kernels.gram_matrix")),
    "kernels.cross_s": ("s", ALL, _cross),
    "kernels.entries": ("count", ALL, _called("kernels.cross_gram")),
    "model.fit_s": ("s", ALL, _called("model.fit")),
    "model.fit_calls": ("count", ALL, _called("model.fit")),
    "model.weights_s": ("s", DISCRETE, _called("model.weights")),
    "model.weights_calls": ("count", DISCRETE, _called("model.weights")),
    "losses.coeffs_s": ("s", DISCRETE, _called("losses.additive_coefficients")),
    "losses.coeffs_calls": ("count", DISCRETE, _called("losses.additive_coefficients")),
    "closure.solve_s": ("s", ("hier-tree", "dag-large-m"), _called("closure.solve_hierarchy")),
    "closure.calls": ("count", ("hier-tree", "dag-large-m"), _called("closure.solve_hierarchy")),
    "assignment.solve_s": ("s", ("rank-footrule",), _called("assignment.solve_assignment")),
    "assignment.calls": ("count", ("rank-footrule",), _called("assignment.solve_assignment")),
    "flow_opt.solve_s": ("s", ("flow-l1",), _called("flow_opt.solve_flow_abs_batch")),
    "flow_opt.heuristic_frac": ("fraction", ("flow-l1",),
                                _called("flow_opt.solve_flow_abs_batch")),
    "cli.self_s": ("s", ALL, _called("cli.main")),
    # Traced minus untraced predict wall time; no span witnesses it.
    "trace.overhead_s": ("s", (), None),
}


def _kernel_entries(args, kwargs, result):
    A, B = args[1], args[2]
    return int(np.atleast_2d(np.asarray(A)).shape[0] * np.atleast_2d(np.asarray(B)).shape[0])


def _heuristic_rows(args, kwargs, result):
    return np.array([sum(1 for c in result[2] if c.kind == "heuristic"), len(result[2])])


# Functions whose span also records a count taken from the call.
_COUNTERS = {"kernels.cross_gram": _kernel_entries,
             "flow_opt.solve_flow_abs_batch": _heuristic_rows}


class Tracer:
    """In-memory span recorder.  Spans of one benchmark operation (a
    command-line call or one library query) share its ``op`` id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops: list[tuple[str, int | None]] = []
        self._stack: list[int] = []

    def begin_op(self, kind: str, query: int | None = None) -> None:
        """Spans recorded from now on belong to a new operation."""
        self.ops.append((kind, query))

    def _wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, time.perf_counter(), None, stack[-1] if stack else None,
                   len(self.ops) - 1, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every public layer function at all of its bindings."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"ecrm.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in _UNWRAPPED or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname != "ecrm" and not modname.startswith("ecrm."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op, count in self.spans:
                kind, query = self.ops[op] if op >= 0 else (None, None)
                if isinstance(count, np.ndarray):
                    count = count.tolist()
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "kind": kind, "query": query,
                                     "count": count}) + "\n")

    def op_totals(self, kind: str) -> list[dict]:
        """Per operation of ``kind``: self seconds, calls and summed counter
        per function name, plus the full duration and call count of each
        function's spans that are not nested in a span of their own layer."""
        child_time = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_op: dict[int, dict] = {}
        for i, (name, start, end, parent, op, count) in enumerate(self.spans):
            if op < 0 or self.ops[op][0] != kind:
                continue
            acc = per_op.setdefault(op, {k: defaultdict(float) for k in
                                         ("self", "calls", "count", "outer", "outer_calls")})
            acc["self"][name] += (end - start) - child_time[i]
            acc["calls"][name] += 1
            if count is not None:
                acc["count"][name] = acc["count"][name] + count
            if parent is None or _layer(self.spans[parent][0]) != _layer(name):
                acc["outer"][name] += end - start
                acc["outer_calls"][name] += 1
        return [per_op[k] for k in sorted(per_op)]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _sum(table, layer: str, keep=lambda name: True) -> float:
    return sum((v for k, v in table.items() if _layer(k) == layer and keep(k)), 0.0)


def layer_self(acc: dict, layer: str) -> float:
    """Seconds of one call spent in ``layer`` itself, nested layers excluded."""
    return _sum(acc["self"], layer)


def _not_gram(name: str) -> bool:
    return name != "kernels.gram_matrix"


def layer_metrics(acc: dict, predict: bool) -> dict[str, float]:
    """Per-layer metric values of one traced ``train`` or ``predict`` call."""
    calls, self_, outer = acc["calls"], acc["self"], acc["outer"]
    heuristic, rows = acc["count"].get("flow_opt.solve_flow_abs_batch", (0, 0))
    return {
        "io.parse_s": _sum(self_, "io", lambda k: k not in _IO_SAVE | _IO_LOAD),
        "io.model_save_s": _sum(self_, "io", lambda k: k in _IO_SAVE),
        "io.model_load_s": _sum(self_, "io", lambda k: k in _IO_LOAD),
        "kernels.gram_s": outer.get("kernels.gram_matrix", 0.0),
        "kernels.cross_s": _sum(outer, "kernels", _not_gram),
        "kernels.entries": int(acc["count"].get("kernels.cross_gram", 0)),
        "model.fit_s": self_.get("model.fit", 0.0),
        "model.fit_calls": int(calls.get("model.fit", 0)),
        "model.weights_s": self_.get("model.weights", 0.0),
        "model.weights_calls": int(calls.get("model.weights", 0)),
        "losses.coeffs_s": layer_self(acc, "losses"),
        "losses.coeffs_calls": int(calls.get("losses.additive_coefficients", 0)),
        "closure.solve_s": layer_self(acc, "closure"),
        "closure.calls": int(calls.get("closure.solve_hierarchy", 0)),
        "assignment.solve_s": layer_self(acc, "assignment"),
        "assignment.calls": int(calls.get("assignment.solve_assignment", 0)),
        "flow_opt.solve_s": layer_self(acc, "flow_opt"),
        "flow_opt.heuristic_frac": float(heuristic / rows) if rows else 0.0,
        "cli.self_s": layer_self(acc, "cli") if predict else 0.0,
    }


def uncovered(workload: str, accs: list[dict]) -> list[str]:
    """Per-layer metrics that ``workload`` should exercise but for which no
    traced train/predict call recorded a span."""
    return [metric for metric, (_, expected, test) in PER_LAYER.items()
            if workload in expected and not any(test(a) for a in accs)]
