"""Smoke tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench/ -q

Every invocation runs at ``--scale smoke`` (windows 1/50 of the
default), so the file takes about a minute, most of it the validated
reps, whose windows do not scale.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: per-layer metrics that describe the simulated system, not the host
MODELLED = [
    m["name"] for m in SPEC["per_layer"]
    if not m["name"].endswith((".self_frac", ".calls_in")) and m["name"] != "trace.overhead"
]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--scale", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class Invocation:
    def __init__(self, *args: str):
        self.proc = bench(*args)
        lines = self.proc.stdout.strip().splitlines()
        self.result = json.loads(lines[-1])
        self.digests = {}
        workload = None
        for line in lines:
            if line.startswith("== "):
                workload = line.split()[1]
            elif line.strip().startswith("sim_digest"):
                self.digests[workload] = line.split()[1]

    def value(self, workload: str, name: str) -> float:
        return self.result["metrics"][f"{workload}/{name}"]["value"]


@pytest.fixture(scope="module")
def traced() -> Invocation:
    return Invocation("--reps", "2", "--trace")


@pytest.fixture(scope="module")
def traced_again() -> Invocation:
    return Invocation("--reps", "2", "--trace")


@pytest.fixture(scope="module")
def seed2() -> Invocation:
    return Invocation("--reps", "1", "--seed", "2")


def test_every_declared_metric_is_printed_with_its_unit(traced, seed2):
    for invocation, section in ((seed2, "end_to_end"), (traced, "per_layer")):
        metrics = invocation.result["metrics"]
        for workload in WORKLOADS:
            for metric in SPEC[section]:
                printed = metrics[f"{workload}/{metric['name']}"]
                assert printed["unit"] == metric["unit"]
                assert isinstance(printed["value"], float)


def test_no_check_fails(traced, traced_again, seed2):
    for invocation in (traced, traced_again, seed2):
        assert invocation.proc.returncode == 0, invocation.proc.stdout[-3000:]
        assert invocation.result["correct"] is True
        assert invocation.result["failed"] == 0
        assert invocation.result["attempted"] > 0


def test_two_invocations_agree_exactly(traced, traced_again):
    assert traced.digests == traced_again.digests
    assert sorted(traced.digests) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        for name in MODELLED:
            assert traced.value(workload, name) == traced_again.value(workload, name), name


def test_seed_changes_the_digest(traced, seed2):
    for workload in WORKLOADS:
        assert traced.digests[workload] != seed2.digests[workload]


def test_layer_self_time_sums_to_one(traced):
    for workload in WORKLOADS:
        total = sum(
            traced.value(workload, m["name"])
            for m in SPEC["per_layer"]
            if m["name"].endswith(".self_frac")
        )
        assert total == pytest.approx(1.0, abs=0.01)
        assert (BENCH / "out" / f"trace-{workload}.json").is_file()


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "red_window", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
