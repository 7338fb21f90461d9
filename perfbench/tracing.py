"""Spans and counters recorded around calls into nulldist's public functions.

The tracer swaps each listed function for a wrapper, in its defining module
and in every nulldist module or package namespace that imported it, so a
call made from inside the program (say `cli.null_distance`) opens a child
span of its caller. Spans stay in memory; the benchmark reduces them to
per-layer self times after each traced pass. A function's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = "bench.op"

# (module, attribute, metric prefix); attribute "Class.method" patches a method
SPANS = [
    ("nulldist.cli", "main", "cli.main"),
    ("nulldist.formats", "write_long_matrix_csv", "formats.write_long_matrix_csv"),
    ("nulldist.formats", "write_report_json", "formats.write_report_json"),
    ("nulldist.formats", "load_cone_json", "formats.load_cone_json"),
    ("nulldist.cone", "ConeGrid.__init__", "cone.grid_init"),
    ("nulldist.cone", "null_distance", "cone.null_distance"),
    ("nulldist.cone", "null_distance_phi", "cone.null_distance_phi"),
    ("nulldist.cone", "null_distance_guarantees", "cone.null_distance_guarantees"),
    ("nulldist.cone", "time_separation", "cone.time_separation"),
    ("nulldist.cone", "time_separation_path", "cone.time_separation_path"),
    ("nulldist.cone", "minimizer_analysis", "cone.minimizer_analysis"),
    ("nulldist.curvature", "sample_timelike_triangles", "curvature.sample_timelike_triangles"),
    ("nulldist.curvature", "triangle_comparison", "curvature.triangle_comparison"),
    ("nulldist.model_spaces", "realize_timelike_triangle", "model_spaces.realize_timelike_triangle"),
    ("nulldist.model_spaces", "l2k_time_separation", "model_spaces.l2k_time_separation"),
    ("nulldist.convergence", "null_convergence_check", "convergence.null_convergence_check"),
    ("nulldist.lpls", "null_distance_matrix", "lpls.null_distance_matrix"),
    ("nulldist.lpls", "rho_length_and_time_separation", "lpls.rho_length_and_time_separation"),
    ("nulldist.lpls", "validate_pls", "lpls.validate_pls"),
    ("nulldist.metric_core", "gh_distance_exact", "metric_core.gh_distance_exact"),
    ("nulldist.metric_core", "quadruple_curvature_check", "metric_core.quadruple_curvature_check"),
    ("nulldist.metric_core", "epsilon_net", "metric_core.epsilon_net"),
    ("nulldist.nullcurve", "null_curve", "nullcurve.null_curve"),
    ("nulldist.nullcurve", "verify_null_curve", "nullcurve.verify_null_curve"),
]

# call counts only: these run millions of times inside spans already listed
COUNTS = [
    ("nulldist.warping", "WarpingFunction.value", "warping.value"),
    ("nulldist.warping", "WarpingFunction.recip_integral", "warping.recip_integral"),
    ("nulldist.warping", "WarpingFunction.recip_integral_inverse", "warping.recip_integral_inverse"),
]


def _observe(prefix: str, args, kwargs, result, counters: Counter) -> None:
    """Work counts read off a call's arguments and result."""
    if prefix == "cone.null_distance":
        counters["cone.null_distance.entries"] += int(result.rows.size)
    elif prefix == "cone.time_separation":
        counters["cone.time_separation.source_rows"] += len(result.sources)
    elif prefix == "formats.write_long_matrix_csv":
        path = args[0] if args else kwargs["path"]
        counters["formats.csv_bytes"] += Path(path).stat().st_size
    elif prefix == "curvature.sample_timelike_triangles":
        diag = result[1]
        counters["curvature.sampling_attempts"] += int(diag["attempts"])
        counters["curvature.triangles_found"] += int(diag["found"])


class Tracer:
    """Holds the spans of one traced pass; installs and removes the wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, fn, prefix: str):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(prefix)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.counters[prefix + ".calls"] += 1
            _observe(prefix, args, kwargs, result, tracer.counters)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, prefix: str):
        counters = self.counters
        key = prefix + ".calls"

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "nulldist"]
        for specs, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for mod_name, attr, prefix in specs:
                owner = sys.modules[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    self._saved.append((cls, meth, orig))
                    setattr(cls, meth, make(orig, prefix))
                    continue
                orig = getattr(owner, attr)
                wrapped = make(orig, prefix)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, key, orig))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
        return dict(out)

    def durations(self) -> dict[str, float]:
        """Total inclusive duration per span name in seconds."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)
