"""Smoke tests of the benchmark: every workload at a small scale, the
traced pass, the correctness gate, and the command's exit contract."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lsbench import cohort, live, retro, run, ward
from lsbench.layers import layer_metrics
from lsbench.run import ROOT
from lsbench.spans import SpanRecorder, traced

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {"retro-fig3": retro, "bedside-live": live, "ward-pool": ward, "cohort-shared": cohort}
#: Module constants that shrink each workload to smoke-test size.
SMOKE = {
    "retro-fig3": {"RECORD_SECONDS": 30.0, "WARMUP_SECONDS": 3.0},
    "bedside-live": {"N_CLIENTS": 2, "EPOCH_STREAM_SECONDS": 6.0},
    "ward-pool": {"N_SESSIONS": 12, "ROUNDS": 2},
    "cohort-shared": {"N_SHARED": 2, "N_PRIVATE": 2, "PUMPS": 12},
}


def shrink(monkeypatch, name):
    module = WORKLOADS[name]
    for constant, value in SMOKE[name].items():
        monkeypatch.setattr(module, constant, value)
    return module


def smoke_run(monkeypatch, name):
    module = shrink(monkeypatch, name)
    inputs = module.make_inputs(3)
    return module, inputs, module.references(inputs)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke(monkeypatch, name):
    module, inputs, expected = smoke_run(monkeypatch, name)
    tally = module.run(inputs, expected, 0.5)
    assert tally.mismatches == []
    assert tally.failed == 0
    assert tally.attempted > 0
    metrics = tally.end_to_end()
    assert set(metrics) | {"peak_rss_mb"} == {m["name"] for m in SPEC["end_to_end"]}
    for metric_name, value in metrics.items():
        assert value > 0, metric_name


def test_live_window_is_due_when_its_data_is_pushed():
    # 200 ms chunks: the 1 s window 0 is complete after round 4, window 1
    # after round 9; the last round closes any window past the stream.
    assert [live.completing_round(window, 12) for window in range(4)] == [4, 9, 11, 11]


def test_peak_rss_excludes_memory_before_the_reset():
    # A fresh process, so no earlier child's peak is in the reading.
    code = (
        "import numpy as np\n"
        "from lsbench.common import peak_rss_mb, reset_peak_rss\n"
        "block = np.ones(256 * 2**20 // 8)\n"
        "with_block = peak_rss_mb()\n"
        "del block\n"
        "reset_peak_rss()\n"
        "assert peak_rss_mb() < with_block - 128, (with_block, peak_rss_mb())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_durations_are_scaled_to_the_reference_pace(monkeypatch):
    from lsbench import common

    # The first timing runs on cold caches and is dropped.
    paces = iter([0.500, 0.010, 0.020, 0.020])
    monkeypatch.setattr(common, "reference_work", lambda: next(paces))
    tally = common.Tally()
    tally.pace()
    tally.add_setup(1.0)
    tally.time_op(0.004)
    tally.add_busy(2.0, 100)
    # The first slice closes at the median of 10 and 20 ms: 1.5x slower.
    tally.pace()
    tally.time_op(0.010, scale=0.5)  # a pace the caller measured itself
    tally.time_op(0.300)
    tally.add_busy(3.0, 50, wall_clock=True)
    # end_to_end closes the last slice at the median of 10, 20, 20 ms.
    metrics = tally.end_to_end()
    assert tally.op_seconds == pytest.approx([0.004 / 1.5, 0.005, 0.300 / 2])
    assert tally.op_wall_seconds == [0.004, 0.010, 0.300]
    assert metrics["setup_s"] == pytest.approx(1.0 / 1.5)
    assert metrics["events_per_s"] == pytest.approx(150 / (2.0 / 1.5 + 3.0))
    # Lateness is judged in wall time: 300 ms is late, though 150 ms paced.
    assert metrics["ontime_fraction"] == pytest.approx(2 / 3)


def test_traced_pass_reports_every_layer_metric(monkeypatch):
    module, inputs, expected = smoke_run(monkeypatch, "cohort-shared")
    recorder = SpanRecorder()
    with traced(recorder):
        tally = module.run(inputs, expected, 0.0, fixed_work=True)
    assert tally.mismatches == []
    metrics = layer_metrics(recorder, tally.layer)
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared - set(metrics) == {"trace.spans", "trace.overhead_pct"}
    assert metrics["subplan.prefix_ticks"] > 0
    assert metrics["session.ticks"] > 0
    # Spans nest: session ticks run inside service pumps.
    by_id = {span.span_id: span for span in recorder.spans}
    assert any(
        span.parent is not None and by_id[span.parent].name == "service.pump"
        for span in recorder.named("session.tick")
    )
    # The wrappers are gone once the pass ends.
    from repro.serve.service import StreamingService

    assert not hasattr(StreamingService.pump, "__wrapped__")


def test_corrupted_output_fails_the_gate(monkeypatch):
    module, inputs, expected = smoke_run(monkeypatch, "retro-fig3")
    honest = retro.compile_and_run

    def corrupted(sources, **kwargs):
        result = honest(sources, **kwargs)
        result.values[0] = np.nextafter(result.values[0], np.inf)
        return result

    monkeypatch.setattr(retro, "compile_and_run", corrupted)
    tally = module.run(inputs, expected, 0.0, fixed_work=True)
    assert tally.attempted > 0
    assert tally.failed == tally.attempted
    assert len(tally.mismatches) == tally.attempted


def test_command_prints_result_last(monkeypatch, capsys, tmp_path):
    shrink(monkeypatch, "cohort-shared")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    args = ["--workload", "cohort-shared", "--seed", "1", "--seconds", "0.2", "--trace", "0"]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert list(tmp_path.iterdir()) == [tmp_path / "cohort-shared-seed1-trace0.json"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "lsbench", tmp_path / "lsbench", ignore=ignore)
    args = ["--workload", "cohort-shared", "--seed", "1", "--seconds", "0.2", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, str(tmp_path / "lsbench" / "run.py"), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
