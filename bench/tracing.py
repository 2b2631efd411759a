"""Span tracing of forelli_lab from outside the library.

The tracer wraps public functions and methods where they are bound: a
function imported by name into another module (``pipeline`` and ``cli``
import ``extract_jet``, ``forelli_analyze``, ``certify_polydisc`` ...) is
replaced in every ``forelli_lab`` module that holds it, so calls through
either name are recorded.  Each call becomes a span (name, start, end,
parent, op id) kept in memory; ``write`` dumps them when the run ends.

Self time is a span's duration minus the time covered by its direct
child spans.  Counts that the library only reports in return values
(jet diagnostics, disc residuals, report sizes) are taken from those
values as the spans close.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "report", "pipeline", "expr", "jets", "series", "slices",
          "capacity", "psh", "pencil")

# (module, function) pairs wrapped wherever the function object is bound
FUNCTIONS = (
    ("cli", "run"),
    ("report", "build_report"), ("report", "to_json"),
    ("pipeline", "forelli_analyze"),
    ("expr", "parse"), ("expr", "evaluate"),
    ("jets", "extract_jet"), ("jets", "jet_of_series"),
    ("slices", "certify_polydisc"), ("slices", "chart_poly_family"),
    ("slices", "slice_series"), ("slices", "radius_root_test"),
    ("capacity", "normality_check"), ("capacity", "cap_siciak"),
    ("capacity", "siciak_lower_bound"), ("capacity", "leja_points"),
    ("capacity", "cap1d_transfinite"),
    ("psh", "classify_trichotomy"), ("psh", "average_on_torus"),
    ("psh", "upper_envelope"),
    ("pencil", "check_holo_along_pencil"), ("pencil", "disc_holo_residual"),
    ("pencil", "standard_subpencil_radius"), ("pencil", "find_subpencil"),
    ("pencil", "tilde_normalize"), ("pencil", "compute_H_G"),
    ("pencil", "standard_pencil"), ("pencil", "load_pencil"),
)

# (module, class, method, span name)
METHODS = (
    ("slices", "ChartPoly", "__call__", "slices.chart_poly_call"),
    ("slices", "SlicePolyFamily", "abs_values_at", "slices.abs_values_at"),
    ("series", "FormalSeries", "__mul__", "series.mul"),
    ("series", "FormalSeries", "terms_of_order", "series.terms_of_order"),
    ("series", "FormalSeries", "is_holomorphic_type",
     "series.is_holomorphic_type"),
    ("pencil", "PencilSpec", "map_batch", "pencil.map_batch"),
)


def _points(args):
    """Number of chart points handed to ChartPoly.__call__."""
    poly, b = args[0], args[1]
    if poly.nvars == 0:
        return 1
    shape = getattr(b, "shape", None)
    if shape is None:
        return 1
    if poly.nvars == 1:
        return max(1, math.prod(shape))
    return max(1, math.prod(shape[:-1]))


class Tracer:
    """Records spans and per-name aggregates while installed."""

    def __init__(self):
        self.spans = []           # (name, start, end, parent index, op id)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.op_id = -1
        self._stack = []          # [span index, start, child time]
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, *, on_return=None, on_args=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            if on_args is not None:
                on_args(tracer, args)
            frame = [index, time.perf_counter(), 0.0, name]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                tracer.spans[index] = (name, frame[1], end, parent,
                                       tracer.op_id)
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame[2]
                if not ok:
                    tracer.errors[name] += 1
                elif on_return is not None:
                    on_return(tracer, result)

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the library's public functions and methods in place."""
        import numpy as np
        import forelli_lab
        mods = {name: sys.modules[f"forelli_lab.{name}"] for name in LAYERS}
        holders = [forelli_lab] + [m for key, m in sorted(sys.modules.items())
                                   if key.startswith("forelli_lab.") and m]
        hooks = {"jets.extract_jet": _on_jet,
                 "pencil.check_holo_along_pencil": _on_holo,
                 "expr.evaluate": _on_evaluate,
                 "report.to_json": _on_json}
        for mod_name, attr in FUNCTIONS:
            original = getattr(mods[mod_name], attr)
            name = f"{mod_name}.{attr}"
            wrapped = self._wrap(name, original, on_return=hooks.get(name))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapped)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            original = cls.__dict__[meth]
            on_args = _on_chart_poly if name == "slices.chart_poly_call" else None
            wrapped = self._wrap(name, original, on_args=on_args)
            for key, value in list(cls.__dict__.items()):
                if value is original:        # __rmul__ is __mul__
                    self._patch(cls, key, wrapped)
        svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            if any(f[3] == "jets.extract_jet" for f in self._stack):
                self.counts["jets.svd_calls"] += 1
            return svd(*args, **kwargs)

        self._patch(np.linalg, "svd", counted_svd)
        return self

    def _patch(self, holder, key, value):
        self._patches.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def uninstall(self):
        """Restore every patched attribute."""
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out

    def write(self, path):
        """Write the recorded spans as CSV (times relative to the first)."""
        t0 = min((s[1] for s in self.spans if s), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},"
                         f"{parent},{op}\n")


def _on_jet(tracer, jet):
    diag = jet.diagnostics
    n = jet.series.n
    tracer.counts["jets.modes_solved"] += len(diag.get("modes", ()))
    radii = diag.get("radii", ())
    grid = diag.get("grid", 0)
    tracer.counts["jets.torus_samples"] += (len(radii) * grid) ** n
    tracer.counts["jets.worst_condition"] = max(
        tracer.counts["jets.worst_condition"],
        float(diag.get("worst_condition", 0.0)))
    tracer.counts["jets.full_jets"] += int(jet.full)


def _on_holo(tracer, result):
    tracer.counts["pencil.discs_checked"] += len(result.residuals)


def _on_evaluate(tracer, value):
    tracer.counts["expr.points"] += int(getattr(value, "size", 1))


def _on_json(tracer, text):
    tracer.counts["report.json_bytes"] += len(text.encode("utf-8"))


def _on_chart_poly(tracer, args):
    tracer.counts["slices.chart_poly_call.points"] += _points(args)


# Per-layer metrics: (name, unit, better).  Times and counts are per cycle
# of the workload's op list, so they do not depend on how many cycles fit
# in a run.  A name ending in .self_s, .s, .calls or .errors reads that
# aggregate of the span with the prefix as its name.
PER_LAYER = (
    ("jets.extract_jet.self_s", "s", "lower"),
    ("jets.extract_jet.calls", "count", "lower"),
    ("jets.extract_jet.errors", "count", "lower"),
    ("jets.modes_solved", "count", "lower"),
    ("jets.svd_calls", "count", "lower"),
    ("jets.torus_samples", "count", "lower"),
    ("jets.worst_condition", "ratio", "lower"),
    ("jets.full_jet_frac", "fraction", "higher"),
    ("slices.certify_polydisc.self_s", "s", "lower"),
    ("slices.certify_polydisc.errors", "count", "lower"),
    ("slices.chart_poly_call.calls", "count", "lower"),
    ("slices.chart_poly_call.points", "count", "lower"),
    ("slices.chart_poly_call.s", "s", "lower"),
    ("slices.abs_values_at.s", "s", "lower"),
    ("slices.radius_root_test.calls", "count", "lower"),
    ("slices.slice_series.s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.s", "s", "lower"),
    ("series.terms_of_order.calls", "count", "lower"),
    ("series.terms_of_order.s", "s", "lower"),
    ("series.is_holomorphic_type.s", "s", "lower"),
    ("expr.evaluate.calls", "count", "lower"),
    ("expr.evaluate.s", "s", "lower"),
    ("expr.points", "count", "lower"),
    ("pencil.check_holo_along_pencil.self_s", "s", "lower"),
    ("pencil.discs_checked", "count", "lower"),
    ("pencil.disc_holo_residual.calls", "count", "lower"),
    ("pencil.map_batch.calls", "count", "lower"),
    ("pencil.standard_subpencil_radius.self_s", "s", "lower"),
    ("pencil.find_subpencil.s", "s", "lower"),
    ("pencil.tilde_normalize.s", "s", "lower"),
    ("pencil.standard_pencil.s", "s", "lower"),
    ("capacity.normality_check.s", "s", "lower"),
    ("capacity.cap_siciak.self_s", "s", "lower"),
    ("capacity.siciak_lower_bound.calls", "count", "lower"),
    ("capacity.leja_points.s", "s", "lower"),
    ("psh.classify_trichotomy.s", "s", "lower"),
    ("psh.average_on_torus.calls", "count", "lower"),
    ("psh.upper_envelope.s", "s", "lower"),
    ("pipeline.forelli_analyze.self_s", "s", "lower"),
    ("pipeline.forelli_analyze.calls", "count", "lower"),
    ("pipeline.forelli_analyze.errors", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("report.to_json.s", "s", "lower"),
    ("report.json_bytes", "bytes", "lower"),
) + tuple((f"{layer}.self_frac", "fraction", "lower") for layer in LAYERS) + (
    ("trace.overhead_frac", "fraction", "lower"),
)


def layer_metrics(tracer, cycles, op_seconds, overhead_frac):
    """Values of every PER_LAYER metric for ``cycles`` traced cycles whose
    ops took ``op_seconds`` in total."""
    shares = tracer.layer_self_s()
    tables = {"self_s": tracer.self_s, "s": tracer.total_s,
              "calls": tracer.calls, "errors": tracer.errors}
    jet_calls = tracer.calls["jets.extract_jet"]
    out = {}
    for name, unit, _better in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name == "trace.overhead_frac":
            value = overhead_frac
        elif name == "jets.worst_condition":
            value = tracer.counts[name]
        elif name == "jets.full_jet_frac":
            value = tracer.counts["jets.full_jets"] / jet_calls if jet_calls else 0.0
        elif field == "self_frac":
            value = shares[base] / op_seconds
        elif field in tables:
            value = tables[field][base] / cycles
        else:
            value = tracer.counts[name] / cycles
        out[name] = {"value": value, "unit": unit}
    return out
