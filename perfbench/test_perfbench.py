"""Tests of the benchmark itself: the span wrappers are transparent and the
traced run's exact counts repeat.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They make the real workload calls, so they take about two minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spans import OVERHEAD, WASTE_RATIOS, WORK_COUNTS, SpanRecorder, distinct_work, per_layer_units  # noqa: E402
from workloads import COMPARE_SHAPES, WORKLOADS, Workload  # noqa: E402

SEED = 7


def _exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    names = [n for n in metrics if n.endswith(".calls")]
    names += [n for n, _ in WORK_COUNTS] + list(WASTE_RATIOS)
    return {n: metrics[n] for n in names}


def _traced_call(workload: Workload):
    recorder = SpanRecorder()
    recorder.install()
    try:
        workload.setup()
        recorder.run_id = "call"
        result = workload.call()
    finally:
        recorder.uninstall()
    return result, recorder.layer_metrics(*distinct_work(workload.scheduled))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert OVERHEAD in per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]


@pytest.mark.parametrize("name", sorted(COMPARE_SHAPES))
def test_traced_compare_is_byte_identical_and_counts_repeat(name, tmp_path):
    plain = Workload(name, SEED, ROOT, tmp_path / "plain")
    plain.setup()
    code, plain_dir = plain.call()
    assert code == 0
    assert plain.check((code, plain_dir)) == []

    traced = Workload(name, SEED, ROOT, tmp_path / "traced")
    (code, traced_dir), first = _traced_call(traced)
    assert code == 0
    assert _files(Path(traced_dir)) == _files(Path(plain_dir))

    again = Workload(name, SEED, ROOT, tmp_path / "again")
    _, second = _traced_call(again)
    assert _exact_counts(second) == _exact_counts(first)
    assert first["engine.run_shots.calls"] == COMPARE_SHAPES[name]["runs"]


def test_traced_ghz_counts_repeat_and_skip_reference_backends():
    firsts = []
    for _ in range(2):
        workload = Workload("ghz12", SEED, ROOT, ROOT)
        result, metrics = _traced_call(workload)
        assert workload.check(result) == []
        firsts.append(metrics)
    assert _exact_counts(firsts[0]) == _exact_counts(firsts[1])
    assert firsts[0]["lindblad.solve.calls"] == 0
    assert firsts[0]["channels.embed_operator.calls"] == 0
    assert firsts[0]["linalg.apply_gate.calls"] > 0


def test_recorder_restores_every_binding():
    from noisygates import engine, experiments, linalg, stochastic

    before = (engine.apply_gate, linalg.apply_gate, experiments.solve, stochastic.RngStream.__dict__["generator"])
    recorder = SpanRecorder()
    recorder.install()
    assert engine.apply_gate is not before[0]
    assert engine.apply_gate is linalg.apply_gate
    recorder.uninstall()
    after = (engine.apply_gate, linalg.apply_gate, experiments.solve, stochastic.RngStream.__dict__["generator"])
    assert after == before
