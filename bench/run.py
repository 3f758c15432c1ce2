#!/usr/bin/env python
"""End-to-end benchmark of the host-network simulator.

    python bench/run.py [--workload W] [--seed N] [--reps R | --seconds S]
                        [--scale default|smoke] [--trace [0|1]]

Each workload is one simulated batch job (``workloads.py``). Every rep
runs in a fresh interpreter, one at a time, with every ``REPRO_*``
variable cleared and then only ``REPRO_CACHE=off`` and ``REPRO_JOBS=1``
set. Per workload the benchmark runs one validated rep first, which
is also the untimed warm-up that compiles ``.pyc`` files, then the timed
reps round-robin across workloads, each followed by ``SETUP_REPS``
set-up-only reps, then with ``--trace`` one rep under
cProfile whose per-layer aggregate goes to ``bench/out/trace-<W>.json``.

It prints every metric with its unit, median, quartiles and rep count,
then as its last line one JSON object: ``correct``, ``attempted`` and
``failed`` (checks), and ``metrics`` -- the ``end_to_end`` metrics of
``BENCHMARK.json``, or with ``--trace 1`` its ``per_layer`` metrics.
Metric names are prefixed ``<workload>/`` when several workloads run.
The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: a run measured by time gets at least this many timed reps
MIN_REPS = 3
#: set-up-only reps per round: set-up takes ~0.1 s and scatters widely,
#: so its median needs more samples than the timed reps give
SETUP_REPS = 2
#: a rep that takes longer than this is hung
CHILD_TIMEOUT_S = 150


def child_env() -> Dict[str, str]:
    """The parent environment without knobs, cache or pool workers."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE"] = "off"
    env["REPRO_JOBS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


class WorkloadRuns:
    """Every rep of one workload and the checks they produced."""

    def __init__(self, name: str):
        self.name = name
        self.timed: List[Dict[str, Any]] = []
        #: setup_s of every timed and set-up-only rep
        self.setups: List[float] = []
        self.traced: Optional[Dict[str, Any]] = None
        self.fidelity: Dict[str, float] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, name: str, passed: bool, detail: Any = "") -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(f"{name} ({detail})")

    def spawn(self, seed: int, scale: str, mode: str, env: Dict[str, str]) -> Optional[dict]:
        """Run one rep in a fresh interpreter; None if it failed."""
        cmd = [sys.executable, str(BENCH / "workloads.py"), self.name,
               "--seed", str(seed), "--scale", scale, "--mode", mode]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.check(f"{mode} rep finished", False, f"timeout {CHILD_TIMEOUT_S}s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            self.check(f"{mode} rep finished", False, f"exit {proc.returncode}")
            return None
        report = json.loads(lines[-1])
        for name, passed, detail in report["checks"]:
            self.check(f"{mode}.{name}", passed, detail)
        return report

    def summary(self) -> Dict[str, Dict[str, float]]:
        """End-to-end metrics over the timed reps: name -> median/q1/q3/n."""
        series = {
            "wall_s": [r["wall_s"] for r in self.timed],
            "events_per_s": [r["events"] / r["sim_wall_s"] for r in self.timed],
            "setup_s": self.setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in self.timed],
        }
        return {name: quartiles(values) for name, values in series.items()}

    def per_layer(self) -> Dict[str, float]:
        """Per-layer metrics: traced layer split plus modelled statistics."""
        trace = self.traced["trace"]
        values: Dict[str, float] = {}
        for layer, frac in trace["self_frac"].items():
            values[f"{layer}.self_frac"] = frac
            values[f"{layer}.calls_in"] = float(trace["calls_in"][layer])
        values["trace.overhead"] = (
            self.traced["wall_s"] / self.summary()["wall_s"]["median"]
        )
        values.update(self.timed[0]["modelled"])
        return values


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def run(args: argparse.Namespace) -> Dict[str, WorkloadRuns]:
    env = child_env()
    runs = {name: WorkloadRuns(name) for name in args.workloads}
    for w in runs.values():
        w.spawn(args.seed, args.scale, "validate", env)
    started = time.perf_counter()
    rounds = 0
    while True:
        t_round = time.perf_counter()
        for w in runs.values():
            report = w.spawn(args.seed, args.scale, "timed", env)
            if report is not None:
                w.timed.append(report)
                w.setups.append(report["setup_s"])
            for _ in range(SETUP_REPS):
                report = w.spawn(args.seed, args.scale, "setup", env)
                if report is not None:
                    w.setups.append(report["setup_s"])
        rounds += 1
        now = time.perf_counter()
        if args.seconds is None:
            if rounds >= args.reps:
                break
        elif rounds >= MIN_REPS and now - started + (now - t_round) > args.seconds:
            break
    for w in runs.values():
        if args.trace:
            w.traced = w.spawn(args.seed, args.scale, "trace", env)
        reports = w.timed + ([w.traced] if w.traced else [])
        if reports:
            w.fidelity = reports[0]["fidelity"]
        w.check("timed reps ran", len(w.timed) > 0, len(w.timed))
        digests = {r["digest"] for r in reports}
        modelled = {json.dumps(r["modelled"], sort_keys=True) for r in reports}
        w.check("reps bit-identical", len(digests) <= 1 and len(modelled) <= 1,
                sorted(digests))
        if args.trace:
            w.check("traced rep ran", w.traced is not None)
    return runs


def report(
    args: argparse.Namespace, spec: Dict[str, Any], runs: Dict[str, WorkloadRuns]
) -> Dict[str, Any]:
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    prefix = len(runs) > 1
    metrics: Dict[str, Dict[str, Any]] = {}
    for w in runs.values():
        e2e = w.summary() if w.timed else {}
        layer = w.per_layer() if (w.traced and w.timed) else {}
        values = layer if args.trace else {n: s["median"] for n, s in e2e.items()}
        units = layer_units if args.trace else e2e_units
        for name, unit in units.items():
            w.check(f"metric {name} measured", name in values)
            if name in values:
                key = f"{w.name}/{name}" if prefix else name
                metrics[key] = {"value": values[name], "unit": unit}

        print(f"== {w.name}  seed={args.seed} scale={args.scale}")
        for name, unit in e2e_units.items():
            if name in e2e:
                s = e2e[name]
                print(f"  {name:<30} {s['median']:>14.6g} {unit:<8} "
                      f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
        for name, value in w.fidelity.items():
            print(f"  {name:<30} {value:>14.6g} fraction (paper fidelity)")
        for name, unit in layer_units.items():
            if name in layer:
                print(f"  {name:<30} {layer[name]:>14.6g} {unit}")
        if w.timed:
            print(f"  sim_digest {w.timed[0]['digest']}")
        print(f"  checks {w.attempted - len(w.failures)}/{w.attempted} passed")
        for failure in w.failures:
            print(f"  FAILED {failure}")
    attempted = sum(w.attempted for w in runs.values())
    failed = sum(len(w.failures) for w in runs.values())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def write_traces(runs: Dict[str, WorkloadRuns]) -> None:
    out = BENCH / "out"
    for w in runs.values():
        if w.traced is None:
            continue
        out.mkdir(exist_ok=True)
        payload = {"workload": w.name, "wall_s": w.traced["wall_s"], **w.traced["trace"]}
        (out / f"trace-{w.name}.json").write_text(json.dumps(payload, indent=1) + "\n")


def parse_args(argv: Optional[List[str]], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    parser.add_argument("--workload", choices=workloads,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5, help="timed reps (default 5)")
    parser.add_argument("--seconds", type=float,
                        help="time the reps for about this long instead of --reps "
                             f"(at least {MIN_REPS} reps)")
    parser.add_argument("--scale", choices=("default", "smoke"), default="default")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one cProfile rep per workload")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    args.workloads = [args.workload] if args.workload else workloads
    return args


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no simulator sources under {ROOT / 'src'}\n")
        return 2
    runs = run(args)
    result = report(args, spec, runs)
    write_traces(runs)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
