"""Per-layer timing and counts for the traced run of the benchmark.

The program is not instrumented.  Instead, the public names it calls are
replaced, in the module that calls them, by wrappers that time each call
and charge the elapsed time to the innermost enclosing wrapped call as
child time, so every layer has a total and a self time.  Counts that the
program already reports are read from each operation's ``report.json``.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

# (module, name) pairs to wrap, as the calling module binds them.
WRAPPED = {
    "search": ("slice_roots", "ztransform", "search_blur", "choose_sample_points",
               "build_system", "nullspace_min", "extract_blur"),
    "restore": ("spectral_restore", "least_squares_restore", "convolve"),
    "cli": ("load_image", "save_csv", "save_pgm", "save_matrix_csv", "write_json"),
}

# Per-layer metric name -> unit, in the order they are printed.
UNITS = {
    "zpoly.slice_roots_s": "s",
    "zpoly.slice_roots.calls": "count",
    "zpoly.slice_roots.distinct": "count",
    "zpoly.ztransform_s": "s",
    "search.search_blur_s": "s",
    "search.sampling_s": "s",
    "search.rank_s": "s",
    "search.rank_tests": "count",
    "search.tracking_self_s": "s",
    "search.combinations": "count",
    "search.tracked": "count",
    "restore.spectral_s": "s",
    "restore.least_squares_s": "s",
    "restore.least_squares.calls": "count",
    "restore.least_squares.alloc_mb": "MB",
    "image.convolve_s": "s",
    "image.load_s": "s",
    "image.save_s": "s",
    "image.bytes_written": "bytes",
    "cli.report_s": "s",
    "cli.main_s": "s",
    "trace.op_s.p50": "s",
}


class Tracer:
    """Accumulates, per wrapped name, total time, self time and calls."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.alloc_peak = 0
        self._children: list[float] = []  # child time of each open call
        self._solved: set = set()

    def install(self, program) -> None:
        """Wrap the names in WRAPPED on the program's modules."""
        for module_name, names in WRAPPED.items():
            module = getattr(program, module_name)
            for name in names:
                setattr(module, name, self.wrap(name, getattr(module, name)))

    def wrap(self, name, fn):
        """``fn`` timed and counted under ``name``."""

        def timed(*args, **kwargs):
            if name == "slice_roots":
                P, u = args[0], args[1]
                self._solved.add((P.coeffs.shape, hash(P.coeffs.tobytes()), complex(u)))
            if name == "least_squares_restore":
                tracemalloc.start()
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children
                self.calls[name] += 1
                if name == "least_squares_restore":
                    self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        return timed

    def end_op(self, out: Path) -> None:
        """Read the operation's counts from its report and its output sizes."""
        report = json.loads((out / "report.json").read_text())
        for stage in report["per_stage"]:
            self.counts["combinations"] += stage["combinations_evaluated"]
            self.counts["tracked"] += stage["combinations_evaluated"] - stage["tracking_failures"]
        self.counts["bytes_written"] += sum(p.stat().st_size for p in out.iterdir())
        self.counts["distinct"] += len(self._solved)
        self._solved.clear()

    def metrics(self, ops: int, op_p50: float) -> dict[str, float]:
        """Per-operation means of every layer metric (peaks stay peaks)."""
        t, c = self.total, self.calls
        values = {
            "zpoly.slice_roots_s": t["slice_roots"],
            "zpoly.slice_roots.calls": c["slice_roots"],
            "zpoly.slice_roots.distinct": self.counts["distinct"],
            "zpoly.ztransform_s": t["ztransform"],
            "search.search_blur_s": t["search_blur"],
            "search.sampling_s": t["choose_sample_points"],
            "search.rank_s": t["build_system"] + t["nullspace_min"] + t["extract_blur"],
            "search.rank_tests": c["nullspace_min"],
            "search.tracking_self_s": self.self_time["search_blur"],
            "search.combinations": self.counts["combinations"],
            "search.tracked": self.counts["tracked"],
            "restore.spectral_s": t["spectral_restore"],
            "restore.least_squares_s": t["least_squares_restore"],
            "restore.least_squares.calls": c["least_squares_restore"],
            "image.convolve_s": t["convolve"],
            "image.load_s": t["load_image"],
            "image.save_s": t["save_csv"] + t["save_pgm"] + t["save_matrix_csv"],
            "image.bytes_written": self.counts["bytes_written"],
            "cli.report_s": t["write_json"],
            "cli.main_s": t["main"],
        }
        out = {name: value / ops for name, value in values.items()}
        out["restore.least_squares.alloc_mb"] = self.alloc_peak / 1e6
        out["trace.op_s.p50"] = op_p50
        return {name: out[name] for name in UNITS}
