"""The benchmark's four workloads, each one simulated batch job.

``run.py`` spawns this file once per rep, in a fresh interpreter with a
clean ``REPRO_*`` environment::

    python bench/workloads.py WORKLOAD --seed N --scale default --mode timed

and reads the single JSON line it prints. Modes:

* ``timed``    -- set up, run, report host times, modelled statistics,
  checks and the ``sim_digest``;
* ``setup``    -- set up only, for more ``setup_s`` samples;
* ``validate`` -- the same job at its validation windows
  (``VALIDATE_WINDOWS``) with the invariant validator on
  (``Host``/``Cluster(..., validate=True)``);
* ``trace``    -- a timed rep under cProfile, aggregated by layer
  (``layers.py``).

The job touches the simulator through its public API only: ``Host``,
``Cluster``, ``quadrant_experiment(...).sweep`` and the
``RunResult``/``ClusterResult`` they return.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: (warmup_ns, measure_ns) of each workload at the default scale. The
#: single-window jobs take ~4 s a rep on a 2-vCPU x86 VM, so a 25 s
#: measurement holds 4-5 reps; fig03_sweep keeps the windows its
#: fidelity numbers are quoted at.
WINDOWS = {
    "fig03_sweep": (15_000.0, 40_000.0),
    "red_window": (20_000.0, 500_000.0),
    "llc_resident": (20_000.0, 250_000.0),
    "rack_incast": (20_000.0, 150_000.0),
}
SCALES = {"default": 1.0, "smoke": 1 / 50}
#: windows of the validated run, at every scale: the full warmup and a
#: measure window long enough that the validator's Little's-law probe
#: (tolerance 0.25) holds on every seed. Requests in flight across the
#: window reset skew short windows: over seeds 1-30 the worst relative
#: error was 0.47 for fig03_sweep at 10 us and 0.81 for rack_incast at
#: 7.5 us (PFC bursts), but 0.05 and 0.04 at the windows below.
VALIDATE_WINDOWS = {
    "fig03_sweep": (15_000.0, 40_000.0),
    "red_window": (20_000.0, 25_000.0),
    "llc_resident": (20_000.0, 12_500.0),
    "rack_incast": (20_000.0, 30_000.0),
}

FIG03_QUADRANTS = (1, 3)
FIG03_CORES = (1, 2, 3, 4, 6)
#: the paper's Fig. 3 shading: Q1 stays blue, Q3 turns red at 3 cores
FIG03_RED_FROM = {1: None, 3: 3}
#: "up to ~2x" P2M degradation in the red regime (paper, §2.2)
PAPER_Q3_P2M = 2.0

RACK_HOSTS = 4
RACK_LINK_GBPS = 100.0
#: lines still in flight when the window opens may land inside it, so
#: summed goodput can exceed the link rate by a hair
GOODPUT_SLACK = 1.01


@dataclass
class Outcome:
    """What one run of a workload produced."""

    #: every RunResult, in a fixed order (digest, device checks)
    runs: List[Any]
    #: the runs the modelled statistics describe
    focus: List[Any]
    #: engine events and engine wall seconds over the measure windows
    events: int
    sim_wall_s: float
    cluster: Any = None
    #: {quadrant: [ColocationPoint]} for fig03_sweep
    points: Optional[Dict[int, List[Any]]] = None


Runner = Callable[[float, float], Outcome]


def _single(result: Any) -> Outcome:
    return Outcome([result], [result], result.events_processed, result.sim_wall_s)


def setup_fig03_sweep(seed: int, validate: bool) -> Runner:
    """Fig. 3 quadrants 1 and 3: 22 short host runs, serial."""
    from repro.experiments.quadrants import QUADRANTS, quadrant_experiment

    experiments = {}
    for q in FIG03_QUADRANTS:
        experiment = quadrant_experiment(QUADRANTS[q], seed=seed)
        experiment.validate = validate
        experiments[q] = experiment

    def run(warmup: float, measure: float) -> Outcome:
        points = {
            q: experiment.sweep(FIG03_CORES, warmup, measure, jobs=1)
            for q, experiment in experiments.items()
        }
        runs = []
        for sweep in points.values():
            runs.append(sweep[0].p2m_isolated_run)
            for point in sweep:
                runs += [point.c2m_isolated_run, point.colocated]
        focus = [point.colocated for sweep in points.values() for point in sweep]
        return Outcome(
            runs,
            focus,
            sum(r.events_processed for r in runs),
            sum(r.sim_wall_s for r in runs),
            points=points,
        )

    return run


def setup_red_window(seed: int, validate: bool) -> Runner:
    """Q3 at 6 C2M-ReadWrite cores plus a raw P2M-Write DMA: red regime."""
    from repro import Host, RequestKind, cascade_lake

    host = Host(cascade_lake(), seed=seed, validate=validate)
    host.add_stream_cores(6, store_fraction=1.0)
    host.add_raw_dma(RequestKind.WRITE)
    host.start()
    return lambda warmup, measure: _single(host.run(warmup, measure))


def setup_llc_resident(seed: int, validate: bool) -> Runner:
    """4 STREAM-read cores on 64 KiB each (LLC hits) beside a DDIO DMA."""
    from repro import Host, RequestKind, cascade_lake

    host = Host(
        cascade_lake(llc_mode="full", ddio_enabled=True), seed=seed, validate=validate
    )
    host.add_stream_cores(4, store_fraction=0.0, region_bytes=64 << 10)
    host.add_raw_dma(RequestKind.WRITE)
    host.start()
    return lambda warmup, measure: _single(host.run(warmup, measure))


def setup_rack_incast(seed: int, validate: bool) -> Runner:
    """3:1 RDMA-write incast into host 0, which also runs 2 C2M-RW cores."""
    from repro import Cluster, cascade_lake
    from repro.net.rdma import add_rdma_write_flow

    cluster = Cluster(
        cascade_lake(),
        n_hosts=RACK_HOSTS,
        seed=seed,
        validate=validate,
        link_gbps=RACK_LINK_GBPS,
        queue_capacity_lines=512,
        pfc_enabled=True,
    )
    cluster.hosts[0].add_stream_cores(2, store_fraction=1.0)
    for src in range(1, RACK_HOSTS):
        add_rdma_write_flow(cluster, src=src, dst=0)
    cluster.start()

    def run(warmup: float, measure: float) -> Outcome:
        result = cluster.run(warmup, measure)
        # Every host shares one engine, so host 0's counts cover it all.
        head = result.hosts[0]
        return Outcome(
            result.hosts,
            result.hosts,
            head.events_processed,
            head.sim_wall_s,
            cluster=result,
        )

    return run


SETUPS: Dict[str, Callable[[int, bool], Runner]] = {
    "fig03_sweep": setup_fig03_sweep,
    "red_window": setup_red_window,
    "llc_resident": setup_llc_resident,
    "rack_incast": setup_rack_incast,
}


# ----------------------------------------------------------------------
# What a run is checked and measured by
# ----------------------------------------------------------------------


def sim_digest(outcome: Outcome) -> str:
    """sha256 over the bit-exact fingerprints of every RunResult."""
    from repro.validate.harness import result_fingerprint

    payload = [result_fingerprint(result) for result in outcome.runs]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def checks(outcome: Outcome, validated: bool) -> List[List[Any]]:
    """Sanity checks on every run, as ``[name, passed, detail]`` rows."""
    rows: List[List[Any]] = [
        ["events_processed>0", outcome.events > 0, outcome.events]
    ]
    for index, result in enumerate(outcome.runs):
        idle = sorted(name for name, lines in result.device_lines.items() if lines <= 0)
        rows.append([f"run{index}.devices_delivered", not idle, idle])
        if validated:
            rows.append(
                [f"run{index}.invariant_checks>0", result.invariant_checks > 0,
                 result.invariant_checks]
            )
    cluster = outcome.cluster
    if cluster is not None:
        goodput = sum(cluster.flow_goodput)
        link = RACK_LINK_GBPS / 8.0
        rows += [
            ["fabric_checks>0", cluster.fabric_checks > 0, cluster.fabric_checks],
            ["fabric_drops==0", cluster.fabric.lines_dropped == 0,
             cluster.fabric.lines_dropped],
            ["goodput<=link", goodput <= link * GOODPUT_SLACK, goodput],
        ]
    return rows


def fidelity(points: Dict[int, List[Any]]) -> Dict[str, float]:
    """Fig. 3 regimes, Q3 P2M degradation and the §6 formula vs the paper."""
    from repro.core.regimes import Regime
    from repro.model.validation import calibrate_read_constant, estimate_c2m_throughput

    matches = []
    for q, sweep in points.items():
        red_from = FIG03_RED_FROM[q]
        for point in sweep:
            red = red_from is not None and point.n_c2m_cores >= red_from
            matches.append(point.regime == (Regime.RED if red else Regime.BLUE))
    q3_p2m = max(point.p2m_degradation for point in points[3])
    q1 = points[1]
    anchor = next(p for p in q1 if p.n_c2m_cores == 1).c2m_isolated_run
    constant_read = calibrate_read_constant(anchor, anchor.config.dram_timing)
    formula = max(
        abs(estimate_c2m_throughput(p.colocated, constant_read, p.n_c2m_cores).error)
        for p in q1
    )
    return {
        "regime_agreement": sum(matches) / len(matches),
        "q3_p2m_err": abs(q3_p2m - PAPER_Q3_P2M) / PAPER_Q3_P2M,
        "formula_err_q1": formula,
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _mean_sampled(values: List[float]) -> float:
    """Mean over the runs that saw samples (a latency of 0 means none)."""
    return _mean([v for v in values if v > 0])


def _row_miss(result: Any) -> float:
    """Row-miss ratio over every DRAM access, weighted by lines."""
    weighted = lines = 0.0
    for kind, by_class in (("read", result.lines_read_by_class),
                           ("write", result.lines_written_by_class)):
        # The per-class dicts are filled from a set, so their order
        # changes with the hash seed; sort to keep the sum bit-exact.
        for tc, n in sorted(by_class.items()):
            weighted += result.row_miss_ratio.get(f"{tc}.{kind}", 0.0) * n
            lines += n
    return weighted / lines if lines else 0.0


def modelled(outcome: Outcome) -> Dict[str, float]:
    """Per-layer statistics of the simulated system (exact per seed).

    Means are over the focus runs: fig03_sweep's 10 colocated runs, the
    single host, or every host of the rack.
    """
    focus = outcome.focus
    stats = {
        "sim.events": float(outcome.events),
        "cpu.lfb_occupancy": _mean([sum(r.lfb_avg_occupancy.values()) for r in focus]),
        "cpu.c2m_read_latency_ns": _mean_sampled([r.latency("c2m_read") for r in focus]),
        "cpu.c2m_ops": float(sum(r.workload_ops.get("c2m", 0) for r in focus)),
        "pcie.dma_gbps": _mean(
            [sum(r.device_bandwidth(name) for name in r.device_lines) for r in focus]
        ),
        "uncore.iio_write_occupancy": _mean([r.iio_write_avg_occupancy for r in focus]),
        "uncore.iio_read_occupancy": _mean([r.iio_read_avg_occupancy for r in focus]),
        "uncore.p2m_write_latency_ns": _mean_sampled(
            [r.latency("p2m_write", "p2m") for r in focus]
        ),
        "uncore.cha_write_waiting": _mean([r.cha_write_waiting_avg for r in focus]),
        "uncore.llc_miss_ratio": _mean([r.extra.get("llc.miss_ratio", 0.0) for r in focus]),
        "dram.mem_bw_gbps": _mean([r.mem_bw_total for r in focus]),
        "dram.wpq_full_frac": _mean([r.wpq_full_fraction for r in focus]),
        "dram.rpq_occupancy": _mean([r.rpq_avg_occupancy for r in focus]),
        "dram.row_miss_ratio": _mean([_row_miss(r) for r in focus]),
        "dram.switches": float(sum(r.switches() for r in focus)),
        "topology.fabric_pause_frac": 0.0,
        "topology.goodput_gbps": 0.0,
        "topology.goodput_jain": 0.0,
    }
    cluster = outcome.cluster
    if cluster is not None:
        goodput = cluster.flow_goodput
        stats["topology.fabric_pause_frac"] = max(
            port.pause_fraction for port in cluster.fabric.ports.values()
        )
        stats["topology.goodput_gbps"] = sum(goodput) * 8.0
        stats["topology.goodput_jain"] = sum(goodput) ** 2 / (
            len(goodput) * sum(g * g for g in goodput)
        )
    return stats


# ----------------------------------------------------------------------
# Child entry point
# ----------------------------------------------------------------------


def run_child(workload: str, seed: int, scale: str, mode: str) -> Dict[str, Any]:
    """One rep of ``workload``; returns the JSON-able report."""
    validated = mode == "validate"
    if validated:
        warmup, measure = VALIDATE_WINDOWS[workload]
    else:
        warmup, measure = (w * SCALES[scale] for w in WINDOWS[workload])
    setup = SETUPS[workload]
    profiler = None
    if mode == "trace":
        import cProfile

        # Import everything untimed, so the profile holds the job only.
        setup(seed, False)
        profiler = cProfile.Profile()
        profiler.enable()
    t0 = time.perf_counter()
    runner = setup(seed, validated)
    t_setup = time.perf_counter()
    if mode == "setup":
        return {"workload": workload, "mode": mode, "setup_s": t_setup - t0, "checks": []}
    outcome = runner(warmup, measure)
    t_end = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    report: Dict[str, Any] = {
        "workload": workload,
        "mode": mode,
        "setup_s": t_setup - t0,
        "wall_s": t_end - t0,
        "events": outcome.events,
        "sim_wall_s": outcome.sim_wall_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks(outcome, validated),
        "digest": sim_digest(outcome),
        "modelled": modelled(outcome),
        "fidelity": {},
    }
    if outcome.points is not None:
        report["fidelity"] = fidelity(outcome.points)
    if profiler is not None:
        import pstats

        from layers import by_layer

        report["trace"] = by_layer(pstats.Stats(profiler).stats)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark rep (child).")
    parser.add_argument("workload", choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", choices=sorted(SCALES), default="default")
    parser.add_argument(
        "--mode", choices=("timed", "setup", "validate", "trace"), default="timed"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    # Set-up time includes importing repro: the first ``setup`` call
    # imports it, so nothing above may.
    report = run_child(args.workload, args.seed, args.scale, args.mode)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
