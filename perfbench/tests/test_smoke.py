"""Tiny-size runs of the whole command, as the benchmark's users run it."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=120, check=False)
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    started = time.perf_counter()
    proc = run("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", "0",
               "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "run_s", "op_p50_us", "op_p90_us",
                                      "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert time.perf_counter() - started < 30
    assert not (ROOT / ".perfbench_tmp").exists()


def test_tiny_traced_run_accounts_for_its_time():
    proc = run("--workload", "camera-frames", "--seconds", "0.2", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    spans = sum(v for k, v in metrics.items()
                if k.endswith("_s") and k.split(".")[0] not in ("handwave", "trace"))
    assert spans == pytest.approx(metrics["trace.run_s"], rel=1e-9)
    assert metrics["detect.decode_record_s"] > 0 and metrics["streams.parse_frame_s"] == 0
    assert metrics["detect.kept"] > 0 and metrics["detect.candidates"] > metrics["detect.kept"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "landmark-stream", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
