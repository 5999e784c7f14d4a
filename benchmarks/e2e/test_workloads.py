"""Workload outputs agree with the repo's committed gates; the driver fails closed.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_shard_process_seed0_digest_is_the_shard_bench_identity():
    bench_shard = json.loads((ROOT / "BENCH_shard.json").read_text())
    outputs = workloads.build("shard-process", 0).iterate()
    assert outputs.conserved
    assert outputs.digest == bench_shard["identity"]["serial_sha256"]
    assert outputs.digest == run.load_pins()["shard-process"]["0"]["digest"]


def test_capacity_plan_best_p99_is_the_fleet_bench_fcfs_lru_p99():
    bench_fleet = json.loads((ROOT / "BENCH_fleet.json").read_text())
    workload = workloads.build("capacity-plan", 0)
    outputs = workload.iterate()
    assert outputs.conserved
    assert round(outputs.p99_s, 3) == bench_fleet["combos"]["fcfs+lru"]["p99_s"]
    assert workload.offered_jobs == run.load_pins()["capacity-plan"]["0"]["offered_jobs"]


def test_driver_without_a_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "capacity-plan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
