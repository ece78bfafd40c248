"""Smoke tests that keep the benchmark from rotting.

Run with ``python -m pytest perfbench``.  They use tiny sizes or a handful
of ops; no timing is asserted.
"""

import json
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_smoke_every_workload_tracing_changes_nothing():
    # untraced once and traced twice per workload: same fingerprint, same
    # counts, every check passing
    assert run.main(["--smoke", "--seed", "3"]) == 0


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_result_line_carries_every_declared_metric(capsys):
    assert run.main(["--workload", "attack-mc", "--seed", "2", "--seconds", "0.01",
                     "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    assert run.main(["--workload", "fanout", "--seed", "2", "--seconds", "0.01",
                     "--trace", "1"]) == 0
    result = _last_json(capsys)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fanout", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
