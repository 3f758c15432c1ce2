"""Perf gate: engine events/sec against the committed baseline.

Runs the engine benchmarks (``benchmarks/bench_engine.py``:
empty-callback churn, the end-to-end DRAM-traffic window owned by the
SoA channel kernel, and the uncore-bound window owned by the SoA
uncore kernel) and compares each events/sec figure against
``benchmarks/BENCH_engine.json``.

A result more than 25 % *below* baseline fails the gate (a perf
regression slipped in); more than 25 % *above* also fails (the
baseline is stale — refresh it so the gate keeps teeth; see
``benchmarks/README.md``). Knobs:

* ``REPRO_PERF_CHECK=off`` — skip the gate entirely (the one-line
  override for slow/shared CI boxes);
* ``REPRO_PERF_TOL=0.4`` — widen/narrow the +/- threshold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "BENCH_engine.json"


def main() -> int:
    knob = os.environ.get("REPRO_PERF_CHECK", "on").strip().lower()
    if knob in ("off", "0", "no", "false"):
        print("perf_check: skipped (REPRO_PERF_CHECK=off)")
        return 0
    tolerance = float(os.environ.get("REPRO_PERF_TOL", "0.25"))
    if tolerance <= 0:
        print(f"perf_check: REPRO_PERF_TOL must be > 0, got {tolerance}")
        return 2
    baseline = json.loads(BASELINE.read_text())["benchmarks"]
    gated = [name for name, entry in baseline.items() if entry.get("gated")]

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        # The DRAM-window bench scales with REPRO_BENCH_SCALE; the
        # baseline is recorded at the default scale, so the gate must
        # run there even under e.g. `REPRO_BENCH_SCALE=smoke make check`.
        env.pop("REPRO_BENCH_SCALE", None)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "-q",
                "benchmarks/bench_engine.py",
                "--benchmark-only",
                "-k",
                "churn or dram or uncore",
                f"--benchmark-json={out}",
            ],
            cwd=ROOT,
            env=env,
        )
        if proc.returncode:
            print("perf_check: benchmark run failed")
            return proc.returncode
        measured = {
            bench["name"]: bench["extra_info"]["events_per_sec"]
            for bench in json.loads(out.read_text())["benchmarks"]
        }

    failures = []
    for name in gated:
        base = baseline[name]["events_per_sec"]
        got = measured.get(name)
        if got is None:
            failures.append(f"{name}: not measured")
            continue
        ratio = got / base
        verdict = "ok"
        if ratio < 1.0 - tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {got:,} ev/s is {1.0 - ratio:.0%} below the "
                f"baseline {base:,}"
            )
        elif ratio > 1.0 + tolerance:
            verdict = "STALE BASELINE"
            failures.append(
                f"{name}: {got:,} ev/s is {ratio - 1.0:.0%} above the "
                f"baseline {base:,} — refresh benchmarks/BENCH_engine.json"
            )
        print(
            f"perf_check: {name}: {got:,} ev/s vs baseline {base:,} "
            f"({ratio:.2f}x) {verdict}"
        )
    if failures:
        print()
        print("perf_check: FAILED (REPRO_PERF_CHECK=off skips this gate)")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(f"perf_check: all gated benchmarks within +/-{tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
