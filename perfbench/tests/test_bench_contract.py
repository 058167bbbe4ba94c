"""BENCHMARK.json names what run.py measures, and run.py refuses to run
without the qvpn sources."""

import json
import os
import shutil
import subprocess
import sys

import layers
import run

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in layers.PER_LAYER]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ga-net50", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
