"""Self-tests of the benchmark: percentile refusal, the span recorder, and
tiny-size runs of every workload, untraced and traced.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import layers  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.stats import TooFewSamples, percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(100), 90) == 89
    with pytest.raises(TooFewSamples):
        percentile(range(99), 90)
    assert percentile(range(20), 50) == 9
    with pytest.raises(TooFewSamples):
        percentile(range(19), 50)
    assert percentile([1.0] * 10 + [math.inf] * 10, 50) == 1.0


def test_recorder_wraps_every_namespace_and_restores():
    import dancegen.generator
    import dancegen.tokenizer

    original = dancegen.tokenizer.decoder_apply
    rec = SpanRecorder()
    rec.install([("tokenizer.decoder_apply", "dancegen.tokenizer", "decoder_apply")])
    try:
        assert dancegen.tokenizer.decoder_apply is not original
        assert dancegen.generator.decoder_apply is dancegen.tokenizer.decoder_apply
    finally:
        rec.uninstall()
    assert dancegen.tokenizer.decoder_apply is original
    assert dancegen.generator.decoder_apply is original


def test_self_time_subtracts_children():
    rec = SpanRecorder()
    # name, start, end, parent, request, outer
    rec.spans = [["a", 0.0, 10.0, -1, "r1", True],
                 ["b", 1.0, 3.0, 0, "r1", True],
                 ["b", 4.0, 8.0, 0, "r1", True],
                 ["b", 5.0, 6.0, 2, "r1", False],   # b calling itself
                 ["a", 20.0, 21.0, -1, "setup0", True]]
    stats = rec.stats(lambda req: not req.startswith("setup"))
    assert stats["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 4.0}
    assert stats["b"] == {"calls": 3, "busy_s": 6.0, "self_s": 6.0}


def _run(workload: str, trace: int):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 100
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    metrics = _run(workload, 0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, row in metrics.items():
        assert math.isfinite(row["value"]) and row["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_calls_every_predicted_layer(workload):
    metrics = _run(workload, 1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    record = json.loads((ROOT / ".perfbench_out" /
                         f"{workload}-seed{SEED}-trace1-tiny.json").read_text())
    calls = {k[:-len(".calls")]: v for k, v in record["per_layer"]["values"].items()
             if k.endswith(".calls")}
    idle = [name for name in layers.busy_on(workload) if calls[name] == 0]
    assert not idle, f"no calls on {workload}: {idle}"
    if workload != "train":
        assert metrics["nn.Tensor.backward.calls"]["value"] == 0
