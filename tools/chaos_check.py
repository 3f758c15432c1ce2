"""Chaos gate: the Fig. 3 sweep must survive deterministic faults.

Run as ``make chaos`` (also part of ``make check``). Three passes of
the fast-scale Figure 3 quadrant sweep:

1. **baseline** — fault-free, serial-friendly, fresh cache;
2. **chaotic** — fresh cache + journal, ``REPRO_CHAOS`` injecting
   worker kills, transient exceptions, cache-entry corruption and
   mid-simulation checkpoint preemptions (``preempt`` — the worker
   checkpoints, exits, and the retried attempt resumes the
   interrupted run from the blob), with retries enabled;
3. **chaotic replay** — same cache directory as pass 2 but an empty
   journal, so the corrupted entries written there are detected,
   quarantined and recomputed (a journal kept from pass 2 would serve
   those tasks and the recompute path would never run).

All three must produce float-identical series, every injected fault
must be recovered (the pass-2/3 report lists each TaskFailure with
attempt counts), and the corruption pass must actually quarantine
entries and re-execute at least as many tasks as it quarantined.
``REPRO_BENCH_SCALE=smoke`` shrinks the sweep for quick local
iteration.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: fast-scale Fig. 3 parameters (mirrors benchmarks/_common.py "fast")
SCALES = {
    "fast": dict(core_counts=(1, 2, 4, 6), warmup=40_000.0, measure=80_000.0),
    "smoke": dict(core_counts=(1, 4), warmup=6_000.0, measure=15_000.0),
}

CHAOS_SPEC = "kill=0.12,exc=0.35,corrupt=0.3,preempt=0.3,seed=1906"
RETRIES = "3"
BACKOFF = "0.02"


def set_env(**values: str) -> None:
    for name, value in values.items():
        if value:
            os.environ[name] = value
        else:
            os.environ.pop(name, None)


def run_fig3(scale: dict):
    from repro.experiments.figures import fig3

    start = time.monotonic()
    data = fig3(
        core_counts=scale["core_counts"],
        warmup=scale["warmup"],
        measure=scale["measure"],
    )
    return data, time.monotonic() - start


def compare(name: str, baseline, candidate) -> None:
    if baseline.x_values != candidate.x_values:
        raise SystemExit(f"FAIL: {name}: x values diverge")
    for series, values in baseline.series.items():
        got = candidate.series.get(series)
        if got != values:
            raise SystemExit(
                f"FAIL: {name}: series {series!r} diverges\n"
                f"  baseline: {values}\n  {name}: {got}"
            )
    print(f"ok: {name} is float-identical to the fault-free baseline")


def main() -> int:
    scale_name = os.environ.get("REPRO_BENCH_SCALE", "fast")
    scale = SCALES.get(scale_name, SCALES["fast"])
    jobs = os.environ.get("REPRO_JOBS", "2")

    from repro.experiments.reporting import render_failures
    from repro.experiments.supervisor import stats

    with tempfile.TemporaryDirectory() as base_dir, \
            tempfile.TemporaryDirectory() as chaos_dir, \
            tempfile.TemporaryDirectory() as journal_dir:
        set_env(
            REPRO_JOBS=jobs,
            REPRO_CACHE="on",
            REPRO_CACHE_DIR=base_dir,
            REPRO_CHAOS="",
            REPRO_RETRIES="",
            REPRO_JOURNAL_DIR="",
            REPRO_VALIDATE="",
        )
        print(f"[1/3] fault-free baseline fig03 ({scale_name} scale, jobs={jobs})")
        baseline, elapsed = run_fig3(scale)
        print(f"      done in {elapsed:.1f}s")

        set_env(
            REPRO_CACHE_DIR=chaos_dir,
            REPRO_CHAOS=CHAOS_SPEC,
            REPRO_RETRIES=RETRIES,
            REPRO_BACKOFF=BACKOFF,
            REPRO_JOURNAL_DIR=journal_dir,
        )
        before = stats.snapshot()
        n_recovered = len(stats.recovered_failures)
        print(f"[2/3] chaotic fig03 under REPRO_CHAOS={CHAOS_SPEC}")
        chaotic, elapsed = run_fig3(scale)
        delta = stats.delta(before)
        recovered = stats.recovered_failures[n_recovered:]
        print(f"      done in {elapsed:.1f}s; supervisor counters: {delta}")
        if recovered:
            print(render_failures(recovered, title="Recovered task failures (attempt counts)"))
        compare("chaotic run", baseline, chaotic)
        if not recovered:
            raise SystemExit("FAIL: chaos spec injected no recoverable faults")

        # Pass 3 replays against the chaotic cache: corrupt=0.3 poisoned
        # a deterministic subset of the entries written in pass 2, so
        # this pass must quarantine them and recompute. The journal is
        # emptied first: pass 2's journal holds every result and would
        # serve the quarantined tasks without running them.
        print("[3/3] replay against the corrupted cache (quarantine + recompute)")
        shutil.rmtree(journal_dir)
        os.mkdir(journal_dir)
        quarantine = Path(chaos_dir) / "quarantine"
        quarantined_before = len(list(quarantine.glob("*.pkl")))
        n_recovered = len(stats.recovered_failures)
        before = stats.snapshot()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            replay, elapsed = run_fig3(scale)
        delta = stats.delta(before)
        quarantined = len(list(quarantine.glob("*.pkl"))) - quarantined_before
        recovered = stats.recovered_failures[n_recovered:]
        print(
            f"      done in {elapsed:.1f}s; quarantined {quarantined} "
            f"corrupt entries ({len(caught)} warnings), re-executed "
            f"{delta['executed']} tasks"
        )
        if recovered:
            print(render_failures(recovered, title="Recovered task failures (attempt counts)"))
        compare("corrupted-cache replay", baseline, replay)
        if not quarantined:
            raise SystemExit("FAIL: corruption chaos never exercised quarantine")
        if delta["executed"] < quarantined:
            raise SystemExit(
                f"FAIL: {quarantined} entries were quarantined but only "
                f"{delta['executed']} tasks re-executed"
            )

    print("chaos check passed: sweeps survive kills, transient faults and "
          "cache corruption with float-identical results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
