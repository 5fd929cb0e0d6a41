"""Checks of the benchmark itself; run with ``python -m pytest bench``.

They run ``bench/run.py`` as a user does, so they take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "bench/run.py"]


def _run(*args, cwd=ROOT):
    proc = subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_traced_runs_repeat_counts_exactly():
    args = ("--workload", "estimate-direct", "--seed", "3", "--seconds", "1", "--trace", "1")
    runs = [_result(_run(*args)) for _ in range(2)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    counts = []
    for report, result in runs:
        assert result["correct"] and result["failed"] == 0
        assert report["wrong_results"] == 0
        assert report["counts_identical_across_passes"]
        assert set(result["metrics"]) == names
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] not in ("s",)})
    assert counts[0] == counts[1]
    assert counts[0]["conditions.condition_margin.calls"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    report, result = _result(_run("--workload", "certify-probe", "--seed", "3",
                                  "--seconds", "1", "--trace", "0"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    for key in ("numpy", "blas", "nproc", "python", "loadavg_at_start", "seed", "git_commit"):
        assert key in report["stamp"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "certify-mcd", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
