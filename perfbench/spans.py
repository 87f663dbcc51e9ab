"""Span recorder for the traced run.

The recorder wraps public functions of noisygates from outside: it replaces
each target at every module attribute that is bound to it (so ``from .linalg
import apply_gate`` in ``engine`` is wrapped too) and each method on its
class.  Every call records a span (name, start, end, parent span, run id) in
memory; a few targets also add exact work counts.  ``uninstall`` puts the
original objects back, so traced and untraced calls can share a process.

Per-layer metrics are named ``<module>.<function>.<stat>``.  A span's self
time is its duration minus the durations of its direct child spans (one
thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _n_matrices(a) -> int:
    shape = getattr(a, "shape", ())
    n = 1
    for s in shape[:-2]:
        n *= s
    return n


def _count_normals(counts, args, kwargs):
    sampler, size = args[0], _arg(args, kwargs, 2, "size")
    counts["gates.XiSampler.normals"] += (1 if size is None else size) * sampler.n_gaussians


def _count_expm_2x2(counts, args, kwargs):
    counts["linalg.expm_2x2.matrices"] += _n_matrices(args[0])


def _count_expm(counts, args, kwargs):
    counts["linalg.expm.matrices"] += _n_matrices(args[0])


def _count_apply_gate(counts, args, kwargs):
    # Compulsory traffic at complex128: read the state and the gate(s),
    # write the new state.  Computed from array sizes, not measured.
    state, gate = args[0], _arg(args, kwargs, 1, "gate")
    counts["linalg.apply_gate.bytes_computed"] += 16 * (2 * state.size + gate.size)


# (module, attribute path, span name, work counter or None)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("experiments", "run_compare", "experiments.run_compare", None),
    ("experiments", "lindblad_reference", "experiments.lindblad_reference", None),
    ("experiments", "channel_backend_run", "experiments.channel_backend_run", None),
    ("engine", "run_shots", "engine.run_shots", None),
    ("engine", "schedule_layers", "engine.schedule_layers", None),
    ("gates", "NoisyGateSampler.__init__", "gates.NoisyGateSampler.init", None),
    ("gates", "NoisyGateSampler.sample_batch", "gates.NoisyGateSampler.sample_batch", None),
    ("gates", "XiSampler.sample", "gates.XiSampler.sample", _count_normals),
    ("gates", "relaxation_gate_batch", "gates.relaxation_gate_batch", None),
    ("gates", "spam_gate_batch", "gates.spam_gate_batch", None),
    ("linalg", "expm", "linalg.expm", _count_expm),
    ("linalg", "expm_2x2", "linalg.expm_2x2", _count_expm_2x2),
    ("linalg", "apply_gate", "linalg.apply_gate", _count_apply_gate),
    ("lindblad", "solve", "lindblad.solve", None),
    ("lindblad", "rhs_superoperator", "lindblad.rhs_superoperator", None),
    ("lindblad", "rk4_step_matrix", "lindblad.rk4_step_matrix", None),
    ("channels", "run_channel_sim", "channels.run_channel_sim", None),
    ("channels", "apply_channel", "channels.apply_channel", None),
    ("channels", "embed_operator", "channels.embed_operator", None),
    ("metrics", "hellinger", "metrics.hellinger", None),
    ("noise_model", "noise_context_for_gate", "noise_model.noise_context_for_gate", None),
    ("stochastic", "RngStream.generator", "stochastic.RngStream.generator", None),
)

# Per-layer metrics reported by the traced run, in BENCHMARK.json order.
SPAN_STATS = (
    ("gates.NoisyGateSampler.sample_batch", ("calls", "total_s", "self_s")),
    ("gates.XiSampler.sample", ("total_s",)),
    ("linalg.expm_2x2", ("calls", "total_s")),
    ("linalg.expm", ("calls", "total_s")),
    ("linalg.apply_gate", ("calls", "total_s")),
    ("engine.run_shots", ("calls", "total_s", "self_s")),
    ("engine.schedule_layers", ("total_s",)),
    ("noise_model.noise_context_for_gate", ("calls", "total_s")),
    ("gates.NoisyGateSampler.init", ("calls", "total_s")),
    ("gates.relaxation_gate_batch", ("calls", "total_s")),
    ("gates.spam_gate_batch", ("calls", "total_s")),
    ("experiments.lindblad_reference", ("total_s", "self_s")),
    ("lindblad.solve", ("calls", "total_s", "self_s")),
    ("lindblad.rhs_superoperator", ("calls", "total_s")),
    ("lindblad.rk4_step_matrix", ("total_s",)),
    ("channels.run_channel_sim", ("total_s", "self_s")),
    ("channels.apply_channel", ("calls", "total_s")),
    ("channels.embed_operator", ("calls", "total_s")),
    ("experiments.channel_backend_run", ("total_s",)),
    ("experiments.run_compare", ("self_s",)),
    ("metrics.hellinger", ("calls", "total_s")),
    ("cli.main", ("self_s",)),
    ("stochastic.RngStream.generator", ("calls", "total_s")),
)
WORK_COUNTS = (
    ("gates.XiSampler.normals", "count"),
    ("linalg.expm_2x2.matrices", "count"),
    ("linalg.expm.matrices", "count"),
    ("linalg.apply_gate.bytes_computed", "bytes"),
)
WASTE_RATIOS = (
    "gates.sampler_builds_per_distinct_gate",
    "lindblad.rhs_builds_per_distinct_layer",
)
OVERHEAD = "bench.trace_overhead_frac"
STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{span}.{stat}": STAT_UNITS[stat] for span, stats in SPAN_STATS for stat in stats}
    units.update(dict(WORK_COUNTS))
    units.update({name: "ratio" for name in WASTE_RATIOS})
    units[OVERHEAD] = "ratio"
    return units


class SpanRecorder:
    """In-memory spans and work counts for the traced calls."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str] | None] = []
        self.counts: Counter = Counter()
        self.run_id = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if counter is not None:
                counter(counts, args, kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.startswith("noisygates")]
        for module_name, path, span_name, counter in TARGETS:
            module = importlib.import_module(f"noisygates.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, property):
                    replacement = property(self._wrap(span_name, original.fget, counter))
                else:
                    replacement = self._wrap(span_name, original, counter)
                self._restore.append((cls, attr, original))
                setattr(cls, attr, replacement)
                continue
            original = getattr(module, path)
            replacement = self._wrap(span_name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def finished_spans(self) -> list[tuple[str, float, float, int, str]]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)

    def layer_metrics(self, distinct_gates: int, distinct_layers: int) -> dict[str, float]:
        """Every per-layer metric except the trace overhead.  Functions the
        workload never calls read 0."""
        spans = self.finished_spans()
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
        stat_tables = {"calls": calls, "total_s": total, "self_s": self_time}
        out: dict[str, float] = {}
        for span, stats in SPAN_STATS:
            for stat in stats:
                out[f"{span}.{stat}"] = stat_tables[stat][span]
        for name, _ in WORK_COUNTS:
            out[name] = self.counts[name]
        builds = calls["gates.NoisyGateSampler.init"]
        out["gates.sampler_builds_per_distinct_gate"] = builds / distinct_gates if distinct_gates else 0.0
        rhs = calls["lindblad.rhs_superoperator"]
        out["lindblad.rhs_builds_per_distinct_layer"] = rhs / distinct_layers if distinct_layers else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.finished_spans():
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": run})
                    + "\n"
                )


def distinct_work(scheduled) -> tuple[int, int]:
    """(distinct noisy gates, distinct timed layers) of a scheduled circuit:
    the denominators of the two waste ratios."""
    gates = {g for layer in scheduled.layers for g in layer.gates if g.kind not in ("RZ", "IDLE")}
    layers = {layer for layer in scheduled.layers if layer.duration > 0.0}
    return len(gates), len(layers)
