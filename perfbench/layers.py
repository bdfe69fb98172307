"""Traced mode: per-layer spans, counts and self time.

:class:`LayerProbe` wraps the public entry points of each layer from
here — the program is not edited — and opens a span on the program's
own tracer around each call, so the wrappers nest with the spans the
program already emits (``epoch``, ``alpha_step``, ``train``,
``serve.forward``, worker replays, ...). One in-memory sink collects
them all; a read-only tape hook counts recorded tape nodes and the
kernel counters count segment-kernel calls and bytes.

Self time of a span is its duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

import time

import numpy as np

import repro.core.search as core_search
import repro.nas.evaluation as nas_evaluation
import repro.train.trainer as trainer
from repro.autograd import Tensor, is_grad_enabled
from repro.autograd.kernels import KernelCounters, count_kernels
from repro.core.search_space import LAYER_OPS, NODE_OPS
from repro.core.supernet import SaneSupernet
from repro.gnn import aggregators as node_aggs
from repro.gnn import layer_aggregators as layer_aggs
from repro.nn.optim import Adam
from repro.obs import InMemorySink, add_tape_hook, get_tracer, remove_tape_hook

KERNELS = ("scatter_sum", "scatter_max", "index_add")

_GAT_NAMES = {
    "gat": "gat", "sym": "gat-sym", "cos": "gat-cos",
    "linear": "gat-linear", "gen-linear": "gat-gen-linear",
}
_NODE_CLASSES = {
    node_aggs.SageAggregator: lambda op: f"sage-{op.reduce}",
    node_aggs.GCNAggregator: lambda op: "gcn",
    node_aggs.GATAggregator: lambda op: _GAT_NAMES[op.variant],
    node_aggs.GINAggregator: lambda op: "gin",
    node_aggs.GeniePathAggregator: lambda op: "geniepath",
}
_LAYER_CLASSES = {
    layer_aggs.ConcatLayerAggregator: lambda op: "concat",
    layer_aggs.MaxLayerAggregator: lambda op: "max",
    layer_aggs.LSTMLayerAggregator: lambda op: "lstm",
}

# Per-layer metric → the end-to-end metric it should move, and where.
FEEDS = {
    "core.": "unit_ms_p50 (supernet-search)",
    "gnn.op.": "unit_ms_p50 (supernet-search, candidate-train, serve-open-loop)",
    "autograd.": "unit_ms_p50 (supernet-search, candidate-train)",
    "kernel.": "unit_ms_p50 (all)",
    "nn.": "unit_ms_p50 (supernet-search, candidate-train)",
    "train.": "throughput_per_min (candidate-train)",
    "nas.": "throughput_per_min (candidate-train)",
    "parallel.spawn": "setup_s (candidate-train, pool-sweep)",
    "parallel.": "pooled merge check (candidate-train); throughput_per_min (pool-sweep)",
    "serve.": "unit_ms_p50, slo_attain, throughput_per_min (serve-open-loop)",
    "loadgen.": "validity of serve-open-loop",
    "process.": "all",
    "obs.": "all",
    "unit_ms_tail": "diagnostic: the tail of unit_ms_p50's steps (all)",
}

# Program-emitted span names that carry a layer metric.
_PROGRAM_SPANS = {
    "alpha_step": "core.alpha_step",
    "weight_step": "core.weight_step",
    "validation": "core.validation",
    "train": "train.fit",
    "eval": "train.eval",
}


def feeds(metric: str) -> str:
    for prefix, target in FEEDS.items():
        if metric.startswith(prefix):
            return target
    return ""


class LayerProbe:
    """Installs the wrappers, the sink and the counters; restores on exit."""

    def __init__(self):
        self.sink = InMemorySink()
        self.tape_nodes = 0
        self.epoch_tape_marks: list[int] = []
        self.kernels = KernelCounters(clock=time.perf_counter)
        self._patches: list[tuple[object, str, object]] = []
        self._kernel_ctx = None

    # ------------------------------------------------------------------
    def _patch(self, owner, attr, span_name) -> None:
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = get_tracer()
        name_of = span_name if callable(span_name) else (lambda *a: span_name)

        def wrapper(*args, **kwargs):
            with tracer.span(name_of(*args), kind="bench"):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, original if own else None))
        setattr(owner, attr, wrapper)

    def _tape_hook(self, data, parents, backward_fn):
        # Read-only: counts ops that will be recorded on the tape.
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            self.tape_nodes += 1
        return backward_fn

    def record(self, span) -> None:
        """Sink entry: keep the span; mark tape counts at epoch ends."""
        self.sink.record(span)
        if span.name == "epoch":
            self.epoch_tape_marks.append(self.tape_nodes)

    def __enter__(self) -> "LayerProbe":
        self._patch(SaneSupernet, "forward", "core.supernet.forward")
        for cls, op_name in {**_NODE_CLASSES, **_LAYER_CLASSES}.items():
            self._patch(
                cls, "forward",
                lambda op, *a, _n=op_name: f"gnn.op.{_n(op)}",
            )
        self._patch(Tensor, "backward", "autograd.backward")
        self._patch(Adam, "step", "nn.optim.step")
        self._patch(core_search, "clip_grad_norm", "nn.clip_grad_norm")
        self._patch(trainer, "clip_grad_norm", "nn.clip_grad_norm")
        self._patch(nas_evaluation, "architecture_to_model", "nas.build_model")
        add_tape_hook(self._tape_hook)
        get_tracer().add_sink(self)
        self._kernel_ctx = count_kernels(self.kernels)
        self._kernel_ctx.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        self._kernel_ctx.__exit__(*exc)
        get_tracer().remove_sink(self)
        remove_tape_hook(self._tape_hook)
        for owner, attr, original in reversed(self._patches):
            if original is None:  # was inherited: drop the override
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        return False

    # ------------------------------------------------------------------
    def aggregate(self) -> dict[str, dict]:
        """Span name → {count, total_ms, self_ms} over the collected trace."""
        records = self.sink.records()
        children: dict[int, list[dict]] = {}
        for record in records:
            if record.get("parent") is not None:
                children.setdefault(record["parent"], []).append(record)
        rows: dict[str, dict] = {}
        for record in records:
            duration = record["dur"] or 0.0
            covered = _coverage(record, children.get(record["id"], []))
            row = rows.setdefault(record["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += duration * 1e3
            row["self_ms"] += max(0.0, duration - covered) * 1e3
        return rows

    def metrics(self, steps: int) -> dict[str, float]:
        """The span-, hook- and counter-derived per-layer metrics.

        Times are means per call; counts are per step of the workload
        (search epoch, training epoch or request), so they do not grow
        with the run length.
        """
        rows = self.aggregate()
        steps = max(1, steps)

        def mean_ms(name):
            row = rows.get(name)
            return row["total_ms"] / row["count"] if row else 0.0

        out = {"core.supernet.forward_ms": mean_ms("core.supernet.forward")}
        for program_name, metric in _PROGRAM_SPANS.items():
            out[f"{metric}_ms"] = mean_ms(program_name)
        for ops in (NODE_OPS, LAYER_OPS):
            total = sum(rows.get(f"gnn.op.{op}", {}).get("total_ms", 0.0) for op in ops)
            for op in ops:
                row = rows.get(f"gnn.op.{op}", {"count": 0, "total_ms": 0.0})
                out[f"gnn.op.{op}.fwd_ms"] = mean_ms(f"gnn.op.{op}")
                out[f"gnn.op.{op}.calls"] = row["count"] / steps
                out[f"gnn.op.{op}.share"] = row["total_ms"] / total if total else 0.0
        out["autograd.backward_ms"] = mean_ms("autograd.backward")
        out["autograd.backward_calls"] = (
            rows.get("autograd.backward", {}).get("count", 0) / steps
        )
        # Exact count over a fixed unit of work: the first epoch.
        out["autograd.tape_nodes"] = float(
            self.epoch_tape_marks[0] if self.epoch_tape_marks else self.tape_nodes
        )
        stats = self.kernels.snapshot()
        for kernel in KERNELS:
            entry = stats.get(kernel, {"calls": 0, "bytes_moved": 0, "seconds": 0.0})
            out[f"kernel.{kernel}.calls"] = entry["calls"] / steps
            out[f"kernel.{kernel}.bytes_moved"] = entry["bytes_moved"] / steps
            out[f"kernel.{kernel}.ms"] = (
                entry["seconds"] * 1e3 / entry["calls"] if entry["calls"] else 0.0
            )
        out["nn.optim.step_ms"] = mean_ms("nn.optim.step")
        out["nn.clip_grad_norm_ms"] = mean_ms("nn.clip_grad_norm")
        out["nas.build_model_ms"] = mean_ms("nas.build_model")
        fits = rows.get("train", {}).get("count", 0)
        out["train.epochs_run"] = (
            _epochs_under(self.sink.records(), "train") / fits if fits else 0.0
        )
        return out

    def table(self) -> list[tuple]:
        """(name, count, total_ms, self_ms) rows, heaviest self time first."""
        rows = self.aggregate()
        return sorted(
            ((name, r["count"], r["total_ms"], r["self_ms"]) for name, r in rows.items()),
            key=lambda row: -row[3],
        )


def _coverage(parent: dict, kids: list[dict]) -> float:
    """Seconds of ``parent``'s interval covered by the union of ``kids``."""
    covered, reach = 0.0, parent["start"]
    for start, end in sorted((k["start"], k["end"]) for k in kids):
        start, end = max(start, reach), min(end, parent["end"])
        if end > start:
            covered += end - start
            reach = end
    return covered


def _epochs_under(records: list[dict], parent_name: str) -> int:
    """Epoch spans whose direct parent is a ``parent_name`` span."""
    ids = {r["id"] for r in records if r["name"] == parent_name}
    return sum(1 for r in records if r["name"] == "epoch" and r.get("parent") in ids)


def trace_overhead(untraced_ms: list, traced_ms: list) -> float:
    """Traced ÷ untraced time over the steps both passes ran, minus 1."""
    n = min(len(untraced_ms), len(traced_ms))
    if n == 0:
        return 0.0
    finite = [(a, b) for a, b in zip(untraced_ms[:n], traced_ms[:n])
              if np.isfinite(a) and np.isfinite(b)]
    base = sum(a for a, __ in finite)
    return sum(b for __, b in finite) / base - 1.0 if base else 0.0
