"""Smoke test of the benchmark: every workload at its tiny size, traced and
untraced, plus the checks that catch a corrupted output.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import torus_tails as tt  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    want = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    ops = workloads.make_ops(tt, workload, "tiny", 3)
    passes = result["attempted"] // len(ops)
    assert result["attempted"] == passes * len(ops) >= len(ops)
    # the one known defect of the tiny detect ops fails in every pass
    known = sum(1 for op in ops if op.known_defect)
    assert result["failed"] == passes * known


def test_workload_names_match_spec():
    names = tuple(w["name"] for w in SPEC["workloads"])
    assert names == tuple(workloads.WORKLOADS)


def corrupted(ops, prefix, corrupt):
    return [replace(op, run=lambda op=op: corrupt(op.run()))
            if op.name.startswith(prefix) else op for op in ops]


def test_corrupted_jones_result_fails():
    ops = workloads.make_ops(tt, "exact", "tiny", 1)
    assert worker.run_ops(ops)["failed"] == 0
    bad = corrupted(ops, "jones", lambda doc: doc.replace(b'"1"', b'"2"', 1))
    assert worker.run_ops(bad)["failed"] == 3


def test_corrupted_tails_fail():
    ops = workloads.make_ops(tt, "tails", "tiny", 1)
    assert worker.run_ops(ops)["failed"] == 1     # the known defect
    stable = corrupted(ops, "stable-limit", lambda tail: tail.scale(2))
    assert worker.run_ops(stable)["failed"] == 1 + 3
    closed = corrupted(ops, "closed", lambda tail: tail.scale(-1))
    assert worker.run_ops(closed)["failed"] == 1 + 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exact", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
