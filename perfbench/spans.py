"""In-memory spans around the calls into each quopitsim layer.

The tracer wraps public functions under the names their callers look them
up by (`quopitsim.evaluator.diagonalize`, `quopitsim.cli.amplitude`, ...),
so the library itself is unchanged. A span records its name, start, end,
parent span, op id, self time (duration minus the time its child spans
cover) and a few attributes. Spans stay in memory until the run writes them
out. Bookkeeping the tracer does for itself (window and density statistics)
runs in its own `trace.bookkeeping` span so that it is charged to the
tracing overhead, never to a layer.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc

import numpy as np

# (span name, attribute name) for every public function the benchmark wraps.
# The same function object found under several modules is wrapped once.
TARGETS = (
    ("circuit.parse", "parse_circuit"),
    ("circuit.normalize", "normalize_to_standard_form"),
    ("pathsum.extract", "phase_polynomial_direct"),
    ("pathsum.extract", "extract_phase_polynomial"),
    ("pathsum.label", "label_circuit"),
    ("pathsum.render", "render_labels"),
    ("pathsum.render", "render_phase_polynomial"),
    ("quadform.diag", "diagonalize"),
    ("evaluator.amplitude", "amplitude"),
    ("evaluator.amplitude", "balance_weight"),
    ("evaluator.table", "amplitude_table"),
    ("oracle.dense", "dense_amplitude"),
    ("oracle.path_sum", "brute_force_path_sum"),
)
CALLER_MODULES = ("quopitsim", "quopitsim.evaluator", "quopitsim.cli")
# spans whose tracemalloc peak is recorded; they have no wrapped children,
# so resetting the peak at their start disturbs no other measurement
ALLOC_SPANS = ("pathsum.extract", "quadform.diag")


def window_mean(theta) -> float:
    """Mean elimination window of the unpermuted matrix: for each pivot t,
    the running maximum of the rows' last nonzero columns, minus t. Computed
    from the input matrix, not measured inside the engine."""
    M = np.asarray(theta)
    alpha = M.shape[0]
    if alpha == 0:
        return 0.0
    nz = M != 0
    ext = np.where(nz.any(axis=1), alpha - np.argmax(nz[:, ::-1], axis=1), 0)
    idx = np.arange(alpha)
    hi = np.maximum.accumulate(np.maximum(ext, idx + 1))
    return float((hi - idx).mean())


class Tracer:
    """Records nested spans; `enabled` switches the wrappers on and off."""

    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = False
        self.op = -1
        self._stack: list[dict] = []
        self._next_id = 0

    def begin(self, name: str) -> dict:
        frame = {"id": self._next_id, "name": name,
                 "parent": self._stack[-1]["id"] if self._stack else None,
                 "op": self.op, "start": time.perf_counter(), "child": 0.0,
                 "attrs": {}}
        self._next_id += 1
        if name in ALLOC_SPANS and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            frame["mem0"] = tracemalloc.get_traced_memory()[0]
        self._stack.append(frame)
        return frame

    def end(self, frame: dict) -> None:
        end = time.perf_counter()
        if "mem0" in frame:
            peak = tracemalloc.get_traced_memory()[1]
            frame["attrs"]["alloc_mb"] = (peak - frame.pop("mem0")) / 2 ** 20
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame['name']} closed out of order")
        self.record(frame, end)

    def record(self, frame: dict, end: float) -> None:
        """Store a finished span and charge its duration to the open parent."""
        duration = end - frame["start"]
        frame["end"] = end
        frame["self"] = duration - frame.pop("child")
        self.spans.append(frame)
        if self._stack:
            self._stack[-1]["child"] += duration

    def adopt_child(self, path, t_spawn: float, stdout_bytes: int) -> None:
        """Attach the spans a traced child process wrote to `path` under the
        open span, plus a `cli.startup` span from the spawn to the child's
        first statement. perf_counter is the system-wide monotonic clock, so
        the child's times are on the same axis as ours."""
        with open(path, encoding="utf-8") as fh:
            launch = json.loads(fh.readline())["launch"]
            spans = [json.loads(line) for line in fh]
        os.remove(path)
        op = self._stack[-1]
        op["attrs"]["stdout_bytes"] = stdout_bytes
        startup = {"id": self._next_id, "name": "cli.startup",
                   "parent": op["id"], "op": self.op, "start": t_spawn,
                   "child": 0.0, "attrs": {}}
        self._next_id += 1
        self.record(startup, launch)
        base = self._next_id
        self._next_id += len(spans)
        for s in spans:
            s["id"] += base
            if s["parent"] is None:
                s["parent"] = op["id"]
                op["child"] += s["end"] - s["start"]
            else:
                s["parent"] += base
            s["op"] = self.op
            self.spans.append(s)

    def bookkeeping(self, fn, *args):
        frame = self.begin("trace.bookkeeping")
        try:
            return fn(*args)
        finally:
            self.end(frame)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(frame)
            self.bookkeeping(_annotate, name, frame["attrs"], args, kwargs,
                             result)
            return result
        return traced

    def install(self):
        """Swap the wrappers into every loaded caller module and into
        ExactScalar; returns a function that puts the originals back."""
        from quopitsim.fields import ExactScalar

        wrappers = {}
        undo = []

        def patch(owner, attr, name):
            original = getattr(owner, attr)
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self.wrap(name, original)
            setattr(owner, attr, wrappers[key])
            undo.append((owner, attr, original))

        for modname in CALLER_MODULES:
            module = sys.modules.get(modname)
            if module is None:
                continue
            for name, attr in TARGETS:
                if hasattr(module, attr):
                    patch(module, attr, name)
        patch(ExactScalar, "render", "fields.render")
        patch(ExactScalar, "to_complex", "fields.render")

        def uninstall():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return uninstall

    def dump(self, path, header: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            if header is not None:
                fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _annotate(name, attrs, args, kwargs, result) -> None:
    if name == "pathsum.extract":
        theta = result.theta
        alpha = theta.shape[0]
        attrs["alpha"] = alpha
        attrs["density"] = (np.count_nonzero(theta) / alpha ** 2
                            if alpha else 0.0)
    elif name == "quadform.diag":
        want_l = kwargs.get("want_l", args[2] if len(args) > 2 else False)
        attrs["want_l"] = bool(want_l)
        attrs["window"] = window_mean(args[0])
    elif name == "circuit.parse":
        attrs["gates"] = len(result.gates)
    elif name == "evaluator.table":
        attrs["rows"] = len(result)


# (metric, unit) in output order. Each is per op, except alpha,
# theta_density, window_mean and the *_alloc_mb peaks, which are means over
# the calls of that layer.
LAYER_METRICS = (
    ("circuit.parse_s", "s"), ("circuit.normalize_s", "s"),
    ("circuit.gates", "count"),
    ("pathsum.extract_s", "s"), ("pathsum.extract_calls", "count"),
    ("pathsum.alpha", "count"), ("pathsum.theta_density", "ratio"),
    ("pathsum.extract_alloc_mb", "MB"), ("pathsum.render_s", "s"),
    ("quadform.diag_s", "s"), ("quadform.diag_calls", "count"),
    ("quadform.diag_want_l_calls", "count"),
    ("quadform.window_mean", "count"), ("quadform.diag_alloc_mb", "MB"),
    ("evaluator.amplitude_self_s", "s"), ("evaluator.table_self_s", "s"),
    ("evaluator.table_rows", "count"),
    ("fields.render_s", "s"),
    ("oracle.dense_s", "s"), ("oracle.path_sum_s", "s"),
    ("oracle.calls", "count"),
    ("cli.startup_s", "s"), ("cli.import_s", "s"), ("cli.main_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("bench.op_self_s", "s"), ("trace.bookkeeping_s", "s"),
    ("trace.layers_self_s", "s"), ("trace.op_s", "s"),
    ("trace.untraced_op_s", "s"), ("trace.overhead_s", "s"),
)

# self-time metric -> span names whose self time it sums
_SELF = {
    "circuit.parse_s": ("circuit.parse",),
    "circuit.normalize_s": ("circuit.normalize",),
    "pathsum.extract_s": ("pathsum.extract", "pathsum.label"),
    "pathsum.render_s": ("pathsum.render",),
    "quadform.diag_s": ("quadform.diag",),
    "evaluator.amplitude_self_s": ("evaluator.amplitude",),
    "evaluator.table_self_s": ("evaluator.table",),
    "fields.render_s": ("fields.render",),
    "oracle.dense_s": ("oracle.dense",),
    "oracle.path_sum_s": ("oracle.path_sum",),
    "cli.startup_s": ("cli.startup",),
    "cli.import_s": ("cli.import",),
    "cli.main_s": ("cli.main",),
    "bench.op_self_s": ("bench.op",),
    "trace.bookkeeping_s": ("trace.bookkeeping",),
}
LAYER_SELF = tuple(m for m in _SELF if not m.startswith(("bench.", "trace.")))


def layer_metrics(spans: list[dict], alloc_spans: list[dict],
                  untraced_op_s: float) -> dict:
    """Per-op layer figures: times and counts from `spans` (recorded without
    tracemalloc), allocation peaks from `alloc_spans` (recorded with it)."""
    ops = [s for s in spans if s["name"] == "bench.op"]
    n_ops = max(len(ops), 1)
    self_by_name: dict[str, float] = {}
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + s["self"]
        by_name.setdefault(s["name"], []).append(s)

    def mean_attr(name, attr, among=None):
        among = by_name.get(name, ()) if among is None else \
            [s for s in among if s["name"] == name]
        values = [s["attrs"][attr] for s in among if attr in s["attrs"]]
        return float(np.mean(values)) if values else 0.0

    def per_op_count(name, where=None):
        return sum(1 for s in by_name.get(name, ())
                   if where is None or where(s)) / n_ops

    def per_op_attr_sum(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in by_name.get(name, ())) / n_ops

    out = {metric: sum(self_by_name.get(n, 0.0) for n in names) / n_ops
           for metric, names in _SELF.items()}
    out.update({
        "circuit.gates": per_op_attr_sum("circuit.parse", "gates"),
        "pathsum.extract_calls": per_op_count("pathsum.extract"),
        "pathsum.alpha": mean_attr("pathsum.extract", "alpha"),
        "pathsum.theta_density": mean_attr("pathsum.extract", "density"),
        "pathsum.extract_alloc_mb": mean_attr("pathsum.extract", "alloc_mb",
                                              among=alloc_spans),
        "quadform.diag_calls": per_op_count("quadform.diag"),
        "quadform.diag_want_l_calls": per_op_count(
            "quadform.diag", lambda s: s["attrs"].get("want_l")),
        "quadform.window_mean": mean_attr("quadform.diag", "window"),
        "quadform.diag_alloc_mb": mean_attr("quadform.diag", "alloc_mb",
                                            among=alloc_spans),
        "evaluator.table_rows": per_op_attr_sum("evaluator.table", "rows"),
        "oracle.calls": (per_op_count("oracle.dense")
                         + per_op_count("oracle.path_sum")),
        "cli.stdout_bytes": per_op_attr_sum("bench.op", "stdout_bytes"),
    })
    op_s = float(np.mean([s["end"] - s["start"] for s in ops])) if ops else 0.0
    out["trace.layers_self_s"] = sum(out[m] for m in LAYER_SELF)
    out["trace.op_s"] = op_s
    out["trace.untraced_op_s"] = untraced_op_s
    out["trace.overhead_s"] = op_s - untraced_op_s
    return out
