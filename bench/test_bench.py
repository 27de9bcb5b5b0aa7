"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Run from the repository root:

    python -m pytest bench/test_bench.py -q
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.3",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_checks_and_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, json.loads(detail)["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "score-stream", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_checks_catch_changed_answers(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads as wl
    finally:
        del sys.path[:2]
    config = json.loads((ROOT / "configs" / "acceptance.json").read_text())
    score = wl.StreamScore(config, wl.TINY, tmp_path, seed=3)
    pred = score.op(0)
    assert score.inspect(pred).problems == []
    pred[0] = 1 - pred[0]
    assert score.inspect(pred).problems

    fit = wl.FitWorkload(config, wl.TINY.full_spm, wl.FULL, tmp_path)
    misordered = wl.Outcome([], {m: {"unseen_ba": ba, "unseen_fpr": 0.1, "scored_ba": ba}
                                 for m, ba in zip(config["models"], (0.9, 0.8, 0.7))}, "")
    _, problems = fit.quality([misordered])
    assert problems
