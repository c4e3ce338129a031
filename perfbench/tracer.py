"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions of the slitdisc modules with
wrappers, in every slitdisc module that holds a reference to them (the CLI
imports most of them by name).  Each wrapped call appends one span
(name, start, end, parent, request) to an in-memory list; counts of work are
read from the public return values.  Self time is a span's duration minus
the part its child spans cover, scaled by the reference factor of the chunk
its request ran in.  Only the traced run installs the wrappers.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (module, function, span name); several functions may share one span name
SPANS = (
    ("capacity", "fekete_points", "capacity.fekete"),
    ("capacity", "fekete_log_capacity", "capacity.fekete"),
    ("capacity", "equilibrium_energy", "capacity.equilibrium"),
    ("capacity", "union_log_capacity", "capacity.union_log_capacity"),
    ("geometry", "trapped_obstacles", "geometry.trapped_obstacles"),
    ("geometry", "build_domain", "geometry.build_domain"),
    ("wiener", "gamma_numeric", "wiener.gamma_numeric"),
    ("wiener", "gamma_at_origin", "wiener.gamma_at_origin"),
    ("wiener", "threshold_report", "wiener.threshold_report"),
    ("qcmap", "counterexample_chain", "qcmap.counterexample_chain"),
    ("bergman", "gram_matrix", "bergman.gram_matrix"),
    ("bergman", "metric_path_length", "bergman.metric_path_length"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_capacity", "cli.command"),
    ("cli", "cmd_gamma", "cli.command"),
    ("cli", "cmd_classify", "cli.command"),
    ("cli", "cmd_phase_diagram", "cli.command"),
    ("cli", "cmd_qc", "cli.command"),
    ("cli", "cmd_kernel", "cli.command"),
    ("cli", "cmd_counterexample", "cli.command"),
)

# per-layer metrics, all per completed pass: (metric, unit, span, what)
# where what is "self" (scaled self seconds), "calls", or a counter name
PER_LAYER = (
    ("capacity.fekete_s", "s/pass", "capacity.fekete", "self"),
    ("capacity.fekete_calls", "calls/pass", "capacity.fekete", "calls"),
    ("capacity.fekete_sweeps", "sweeps/pass", None, "capacity.fekete_sweeps"),
    ("capacity.equilibrium_s", "s/pass", "capacity.equilibrium", "self"),
    ("capacity.union_log_capacity_s", "s/pass", "capacity.union_log_capacity", "self"),
    ("capacity.union_log_capacity_calls", "calls/pass", "capacity.union_log_capacity", "calls"),
    ("geometry.trapped_obstacles_s", "s/pass", "geometry.trapped_obstacles", "self"),
    ("geometry.trapped_obstacles_calls", "calls/pass", "geometry.trapped_obstacles", "calls"),
    ("geometry.build_domain_s", "s/pass", "geometry.build_domain", "self"),
    ("wiener.gamma_numeric_s", "s/pass", "wiener.gamma_numeric", "self"),
    ("wiener.numeric_cells", "cells/pass", None, "wiener.numeric_cells"),
    ("wiener.gamma_at_origin_s", "s/pass", "wiener.gamma_at_origin", "self"),
    ("wiener.shell_terms", "terms/pass", None, "wiener.shell_terms"),
    ("wiener.threshold_report_s", "s/pass", "wiener.threshold_report", "self"),
    ("wiener.threshold_report_calls", "calls/pass", "wiener.threshold_report", "calls"),
    ("numerics.le_guarded_calls", "calls/pass", None, "numerics.le_guarded_calls"),
    ("qcmap.counterexample_chain_s", "s/pass", "qcmap.counterexample_chain", "self"),
    ("bergman.gram_matrix_s", "s/pass", "bergman.gram_matrix", "self"),
    ("bergman.gram_matrix_calls", "calls/pass", "bergman.gram_matrix", "calls"),
    ("bergman.gram_flops", "flop/pass", None, "bergman.gram_flops"),
    ("bergman.metric_path_length_s", "s/pass", "bergman.metric_path_length", "self"),
    ("cli.overhead_s", "s/pass", "cli.main", "self"),
    ("cli.record_bytes", "B/pass", None, "cli.record_bytes"),
)


def _gram_flops(basis, quad) -> int:
    """Nodes x basis size^2 of one tensor-rule Gram assembly; the rule has
    one radial panel per gap between the inner radius, the radii of point
    obstacles, and the outer radius."""
    from slitdisc.geometry import DiscObstacle, PointObstacle

    dom = basis.domain
    rho = max([ob.radius for ob in dom.obstacles if isinstance(ob, DiscObstacle)], default=0.0)
    cuts = {abs(ob.location) for ob in dom.obstacles if isinstance(ob, PointObstacle) and rho < abs(ob.location) < dom.outer_radius}
    nodes = (len(cuts) + 1) * quad.radial_order * quad.angular_points
    return nodes * basis.size**2


def _count_work(counts, fn_name, args, out) -> None:
    if fn_name == "fekete_points":
        counts["capacity.fekete_sweeps"] += out.sweeps
    elif fn_name == "gamma_numeric":
        counts["wiener.numeric_cells"] += out.truncation["cells"]
    elif fn_name == "gamma_at_origin":
        counts["wiener.shell_terms"] += len(out.shell_terms)
    elif fn_name == "gram_matrix":
        counts["bergman.gram_flops"] += _gram_flops(*args[:2])


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span, request)
        self.stack: list[int] = []
        self.request = -1
        self.request_scale: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)

    def begin_request(self) -> int:
        self.request += 1
        self.request_scale.append(float("nan"))
        return self.request

    def set_scale(self, request: int, scale: float) -> None:
        self.request_scale[request] = scale

    def _wrap(self, fn, fn_name: str, span_name: str):
        if span_name not in self.names:
            self.names.append(span_name)
        name_id = self.names.index(span_name)
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.request)
            _count_work(counts, fn_name, args, out)
            return out

        return wrapper

    def _count_calls(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions wherever a slitdisc module names them."""
        mods = {name: mod for name, mod in sys.modules.items() if name == "slitdisc" or name.startswith("slitdisc.")}
        wrapped = {}
        for mod_name, fn_name, span_name in SPANS:
            orig = getattr(mods[f"slitdisc.{mod_name}"], fn_name)
            wrapped[id(orig)] = (orig, self._wrap(orig, fn_name, span_name))
        le = mods["slitdisc.numerics"].le_guarded
        wrapped[id(le)] = (le, self._count_calls(le, "numerics.le_guarded_calls"))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def per_layer(self, passes: int) -> dict[str, float]:
        """Every per-layer metric, per completed pass."""
        child = [0.0] * len(self.spans)
        for name_id, t0, t1, parent, req in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name_id, t0, t1, parent, req) in enumerate(self.spans):
            name = self.names[name_id]
            self_s[name] += (t1 - t0 - child[i]) * self.request_scale[req]
            calls[name] += 1
        out = {}
        for metric, unit, span, what in PER_LAYER:
            if what == "self":
                value = self_s[span]
            elif what == "calls":
                value = calls[span]
            else:
                value = self.counts[what]
            out[metric] = value / passes
        return out

    def write(self, path: str, summary: dict) -> None:
        """Spans as columns, with the run summary, to a JSON file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        cols = list(zip(*self.spans))
        doc = {
            "summary": summary,
            "names": self.names,
            "request_scale": self.request_scale,
            "spans": {k: list(v) for k, v in zip(("name", "start", "end", "parent", "request"), cols)},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
