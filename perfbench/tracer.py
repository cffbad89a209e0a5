"""Span recorder and layer-boundary wrappers for the traced run.

Only the traced run calls ``install``. It replaces, from outside the
program, the module attributes through which one fdout module calls the
next (``fdout.detect.fast_mcd``, ``fdout.dirout.geometric_median``,
``fdout.depths.rankdata``, ``fdout.cli.read_curves`` ...) with wrappers that
record a span per call. Spans stay in memory until the run ends. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter_ns

N_DIRECTIONS = 500  # fdout.dirout.DEFAULT_DIRECTIONS, the projections pointwise_sdo computes


class Recorder:
    """Spans as [name, start_ns, end_ns, parent_index, op_id, amount]."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self.op_id = -1  # -1 while setting up, then the index of the op in flight

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op_id, 0.0])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._open.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run one workload op inside a root span named ``op``."""
        self.op_id = op_id
        index = self.begin("op")
        try:
            return fn(*args)
        finally:
            self.end(index)

    def dump(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span[:5]), amount=span[5]) for span in self.spans], handle)


# --- what a span counts besides time (computed after the call returns) -------

def _file_bytes(args, kwargs, result):
    paths = args[0] if args else kwargs["paths"]
    paths = [paths] if isinstance(paths, (str, os.PathLike)) else paths
    return float(sum(os.path.getsize(p) for p in paths))


def _written_bytes(args, kwargs, result):
    return float(os.path.getsize(args[0]))


def _text_bytes(args, kwargs, result):
    return float(len(result))


def _sdo_projection_bytes(args, kwargs, result):
    n, p, d = args[0].values.shape
    return float(n * p * kwargs.get("n_directions", N_DIRECTIONS) * 8) if d >= 2 else 0.0


def _band_depth_ops(args, kwargs, result):
    # two (n x p) @ (p x n) products per curve: 4 n^3 p floating-point operations
    n, p = args[0].values.shape
    return 4.0 * n ** 3 * p


# (module, attribute, span name, amount) for every call between fdout layers
# that the workloads make; the cli rows are the names cli.py imported.
BOUNDARIES = [
    ("fdout.cli", "main", "cli.main", None),
    ("fdout.cli", "read_curves", "csvio.read_curves", _file_bytes),
    ("fdout.cli", "write_curves", "csvio.write_curves", _written_bytes),
    ("fdout.cli", "atomic_write_text", "csvio.atomic_write_text", None),
    ("fdout.cli", "emit_plot", "svgplot.emit_plot", _text_bytes),
    ("fdout.cli", "simulation_model", "simmodels.simulation_model", None),
    ("fdout.csvio", "write_curves", "csvio.write_curves", _written_bytes),
    ("fdout.csvio", "atomic_write_text", "csvio.atomic_write_text", None),
    ("fdout.svgplot", "atomic_write_text", "csvio.atomic_write_text", None),
    ("fdout.report.DetectionReport", "to_json", "report.to_json", _text_bytes),
    ("fdout.simmodels", "simulation_model", "simmodels.simulation_model", None),
    ("fdout.detect", "fast_mcd", "robust.fast_mcd", None),
    ("fdout.detect", "robust_distances", "robust.robust_distances", None),
    ("fdout.detect", "hardin_rocke_cutoff", "robust.hardin_rocke_cutoff", None),
    ("fdout.detect", "directional_outlyingness", "dirout.directional_outlyingness", None),
    ("fdout.detect", "decompose", "dirout.decompose", None),
    ("fdout.detect", "pointwise_sdo", "dirout.pointwise_sdo", _sdo_projection_bytes),
    ("fdout.detect", "total_variation_depth", "tvd.total_variation_depth", None),
    ("fdout.detect", "modified_shape_similarity", "tvd.modified_shape_similarity", None),
    ("fdout.detect", "ensure_valid", "fdcore.ensure_valid", None),
    ("fdout.detect", "functional_boxplot", "detect.functional_boxplot", None),
    ("fdout.detect", "msplot", "detect.msplot", None),
    ("fdout.detect", "tvdmss", "detect.tvdmss", None),
    ("fdout.detect", "seq_transform", "detect.seq_transform", None),
    ("fdout.detect", "depth_by_name", "detect.depth_by_name", None),
    ("fdout.dirout", "pointwise_sdo", "dirout.pointwise_sdo", _sdo_projection_bytes),
    ("fdout.dirout", "geometric_median", "robust.geometric_median", None),
    ("fdout.depths", "band_depth", "depths.band_depth", _band_depth_ops),
    ("fdout.depths", "modified_band_depth", "depths.modified_band_depth", None),
    ("fdout.depths", "extreme_rank_length", "depths.extreme_rank_length", None),
    ("fdout.depths", "extremal_depth", "depths.extremal_depth", None),
    ("fdout.depths", "linfinity_depth", "depths.linfinity_depth", None),
    ("fdout.depths", "directional_quantile", "depths.directional_quantile", None),
    ("fdout.depths", "pointwise_ranks", "depths.pointwise_ranks", None),
    ("fdout.depths", "rankdata", "depths.rankdata", None),
    ("fdout.tvd", "rankdata", "depths.rankdata", None),
    # fdout.muod names the function; the module is reached through sys.modules
    ("fdout.muod", "muod_indices", "muod.muod_indices", None),
    ("fdout.muod", "muod_cutoff_boxplot", "muod.cutoff", None),
    ("fdout.muod", "muod_cutoff_tangent", "muod.cutoff", None),
]


def _owner(path: str):
    """The module, or the class inside a module, that holds a boundary attribute."""
    if path in sys.modules:
        return sys.modules[path]
    module, _, cls = path.rpartition(".")
    return getattr(sys.modules[module], cls)


def _wrap(fn, name: str, amount, rec: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if amount is not None:
            rec.spans[index][5] = amount(args, kwargs, result)
        return result
    return traced


def install(rec: Recorder) -> list:
    """Wrap every boundary; returns what ``uninstall`` needs to undo it."""
    saved = []
    for path, attr, name, amount in BOUNDARIES:
        owner = _owner(path)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, name, amount, rec))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# --- per-layer metrics from the spans ----------------------------------------

def self_times(spans: list) -> list:
    covered = [0] * len(spans)
    for name, start, end, parent, _op, _amount in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [span[2] - span[1] - covered[i] for i, span in enumerate(spans)]


def layer_metrics(spans: list) -> dict:
    """Per-op self time, calls and amounts of every span name, plus layer shares."""
    selfs = self_times(spans)
    n_ops = sum(1 for span in spans if span[0] == "op") or 1
    total_self, total_dur, calls, amount = {}, {}, {}, {}
    op_ns = 0
    op_self_by_layer = {}
    for (name, start, end, _parent, op, amt), own in zip(spans, selfs):
        total_self[name] = total_self.get(name, 0) + own
        total_dur[name] = total_dur.get(name, 0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        amount[name] = amount.get(name, 0.0) + amt
        if op >= 0:
            if name == "op":
                op_ns += end - start
            layer = name.split(".")[0]
            op_self_by_layer[layer] = op_self_by_layer.get(layer, 0) + own

    def per_op_ms(name):
        return total_self.get(name, 0) / 1e6 / n_ops

    def per_op_calls(name):
        return calls.get(name, 0) / n_ops

    def rate_mb_per_s(name):
        seconds = total_dur.get(name, 0) / 1e9
        return amount.get(name, 0.0) / 1e6 / seconds if seconds else 0.0

    def kb_per_call(name):
        return amount.get(name, 0.0) / 1024 / calls[name] if calls.get(name) else 0.0

    def share(*layers):
        return sum(op_self_by_layer.get(layer, 0) for layer in layers) / op_ns if op_ns else 0.0

    timed = [
        "csvio.read_curves", "csvio.write_curves", "csvio.atomic_write_text",
        "robust.fast_mcd", "robust.robust_distances", "robust.hardin_rocke_cutoff",
        "robust.geometric_median", "dirout.pointwise_sdo", "dirout.directional_outlyingness",
        "dirout.decompose", "depths.band_depth", "depths.modified_band_depth",
        "depths.extreme_rank_length", "depths.extremal_depth", "depths.linfinity_depth",
        "depths.directional_quantile", "depths.rankdata", "tvd.total_variation_depth",
        "tvd.modified_shape_similarity", "muod.muod_indices", "muod.cutoff",
        "detect.functional_boxplot", "detect.msplot", "detect.tvdmss", "detect.seq_transform",
        "fdcore.ensure_valid", "report.to_json", "svgplot.emit_plot",
        "simmodels.simulation_model",
    ]
    metrics = {f"{name}.self_ms": per_op_ms(name) for name in timed}
    for name in ("robust.fast_mcd", "robust.geometric_median", "depths.pointwise_ranks",
                 "depths.rankdata", "fdcore.ensure_valid"):
        metrics[f"{name}.calls"] = per_op_calls(name)
    metrics["csvio.read_curves.mb_per_s"] = rate_mb_per_s("csvio.read_curves")
    metrics["csvio.write_curves.mb_per_s"] = rate_mb_per_s("csvio.write_curves")
    metrics["dirout.pointwise_sdo.computed_mb"] = amount.get("dirout.pointwise_sdo", 0.0) / 1e6 / n_ops
    metrics["depths.band_depth.computed_gop"] = amount.get("depths.band_depth", 0.0) / 1e9 / n_ops
    metrics["report.json_kb"] = kb_per_call("report.to_json")
    metrics["svgplot.svg_kb"] = kb_per_call("svgplot.emit_plot")
    metrics["share.robust_dirout"] = share("robust", "dirout")
    metrics["share.rank_kernels"] = share("depths", "tvd", "muod")
    metrics["trace.op_ms"] = op_ns / 1e6 / n_ops
    metrics["trace.ops"] = float(n_ops)
    return metrics


# --- import breakdown from `python -X importtime` ----------------------------

def parse_importtime(stderr: str) -> dict:
    """import.* metrics (ms) from one `python -X importtime -c "import fdout"` log."""
    self_us = {"fdout": 0, "numpy": 0, "scipy": 0}
    fdout_cumulative = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        if not own.strip().isdigit():
            continue  # the header line
        name = name.strip()
        top = name.split(".")[0]
        if top in self_us:
            self_us[top] += int(own)
        if name == "fdout":
            fdout_cumulative = int(cumulative)
    return {
        "import.fdout_ms": fdout_cumulative / 1000,
        "import.numpy_ms": self_us["numpy"] / 1000,
        "import.scipy_ms": self_us["scipy"] / 1000,
        "import.fdout_self_ms": self_us["fdout"] / 1000,
    }
