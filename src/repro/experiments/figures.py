"""Series builders for the paper's main-text tables and figures.

Every function returns a :class:`FigureData` whose series can be
printed with :func:`repro.experiments.reporting.render_series` and
compared shape-for-shape against the paper. Appendix figures live in
:mod:`repro.experiments.appendix` (B) and
:mod:`repro.experiments.netfigs` (C-E).

Window sizes default to values that keep a full figure under a couple
of minutes of wall time; the benchmarks pass smaller windows where a
coarser estimate suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.fio import add_fio
from repro.apps.gapbs import add_gapbs_cores
from repro.apps.redis import add_redis_cores
from repro.experiments.parallel import run_calls
from repro.experiments.quadrants import QUADRANTS, quadrant_experiment
from repro.experiments.runner import (
    ColocationExperiment,
    device_bandwidth_metric,
    workload_ops_metric,
)
from repro.model.inputs import FormulaInputs
from repro.model.read_latency import read_queueing_delay
from repro.model.validation import (
    calibrate_read_constant,
    calibrate_write_constant,
    estimate_c2m_throughput,
    estimate_p2m_throughput,
)
from repro.model.write_latency import write_admission_delay
from repro.sim.records import RequestKind
from repro.telemetry.bankstats import bank_deviation_cdf
from repro.topology.host import Host
from repro.topology.presets import HostConfig, cascade_lake, ice_lake


@dataclass
class FigureData:
    """One reproduced table/figure: named series over shared x values."""

    figure_id: str
    title: str
    x_label: str
    x_values: List
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: str = ""

    def add(self, name: str, values: Sequence[float]) -> None:
        """Attach one named y-series (same length as x_values)."""
        self.series[name] = list(values)


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------


def table1() -> FigureData:
    """Hardware configuration of the two simulated servers."""
    configs = [ice_lake(), cascade_lake()]
    data = FigureData(
        "table1",
        "Table 1: hardware configuration (simulated presets)",
        "attribute",
        [
            "cores",
            "LLC (MB)",
            "DRAM channels",
            "DRAM BW (GB/s)",
            "PCIe BW (GB/s)",
            "LFB entries",
        ],
    )
    for config in configs:
        data.add(
            config.name,
            [
                config.n_cores,
                config.llc_size_bytes / (1 << 20),
                config.n_channels,
                config.theoretical_mem_bandwidth,
                config.pcie_bandwidth,
                config.lfb_size,
            ],
        )
    return data


# ----------------------------------------------------------------------
# Figures 1 and 2: real applications
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AppC2MBuilder:
    """Attach a real C2M app (Redis/GAPBS) — picklable builder."""

    app: str

    def __call__(self, host: Host, n_cores: int) -> None:
        app = self.app
        if app.startswith("redis"):
            mix = "set" if app.endswith("write") else "get"
            add_redis_cores(host, n_cores, query_mix=mix)
        elif app.startswith("gapbs"):
            algorithm = "bc" if app.endswith("bc") else "pr"
            add_gapbs_cores(host, n_cores, algorithm=algorithm)
        else:
            raise ValueError(f"unknown app {app!r}")


@dataclass(frozen=True)
class FioP2MBuilder:
    """Attach an FIO job — picklable builder."""

    mode: str = "read"
    name: str = "fio"

    def __call__(self, host: Host) -> None:
        add_fio(host, mode=self.mode, name=self.name)


def _app_experiment(
    config: HostConfig,
    app: str,
    fio_mode: str = "read",
    fio_cores_reserved: int = 4,
) -> ColocationExperiment:
    """Colocation experiment for a real app against FIO.

    ``fio_cores_reserved`` models the cores pinned to the P2M app; the
    FIO job itself is DMA-driven so the reservation only bounds how
    many C2M cores remain.
    """
    del fio_cores_reserved  # documented; the C2M sweep controls cores
    if app.startswith("redis"):
        mix = "set" if app.endswith("write") else "get"
        c2m_metric = workload_ops_metric(f"redis-{mix}")
    else:
        algorithm = "bc" if app.endswith("bc") else "pr"
        c2m_metric = workload_ops_metric(f"gapbs-{algorithm}")
    return ColocationExperiment(
        config,
        AppC2MBuilder(app),
        FioP2MBuilder(fio_mode),
        c2m_metric=c2m_metric,
        p2m_metric=device_bandwidth_metric("fio"),
    )


# ----------------------------------------------------------------------
# Picklable single-run primitives (fan out through run_calls and hit
# the run cache across figures that reuse the same isolated run).
# ----------------------------------------------------------------------


def stream_run(
    config: HostConfig,
    n_cores: int,
    store_fraction: float,
    warmup: float,
    measure: float,
    traffic_class: str = "c2m",
    seed: int = 1,
):
    """Run an isolated STREAM host (C2M only)."""
    host = Host(config, seed=seed)
    host.add_stream_cores(
        n_cores, store_fraction=store_fraction, traffic_class=traffic_class
    )
    return host.run(warmup, measure)


def dma_run(
    config: HostConfig,
    kind: RequestKind,
    warmup: float,
    measure: float,
    seed: int = 1,
):
    """Run an isolated raw-DMA host (P2M only)."""
    host = Host(config, seed=seed)
    host.add_raw_dma(kind, name="dma")
    return host.run(warmup, measure)


def _stream_fio_run(
    config: HostConfig,
    n_cores: int,
    store_fraction: float,
    warmup: float,
    measure: float,
    seed: int = 1,
):
    """STREAM cores + a low-load 4 KB QD1 FIO job (Fig. 6c/d)."""
    host = Host(config, seed=seed)
    host.add_stream_cores(n_cores, store_fraction=store_fraction)
    add_fio(host, mode="read", io_size_bytes=4096, queue_depth=1,
            t_io_gap=3000.0, name="fio")
    return host.run(warmup, measure)


def fig1(
    core_counts: Sequence[int] = (4, 8, 12, 16, 20, 24, 28),
    warmup: float = 15_000.0,
    measure: float = 40_000.0,
) -> FigureData:
    """Fig. 1: Redis / GAPBS vs FIO on Ice Lake (DDIO on).

    C2M apps degrade while FIO is unaffected, with memory bandwidth
    far from saturated.
    """
    config = ice_lake(llc_mode="full", ddio_enabled=True)
    data = FigureData(
        "fig1",
        "Figure 1: C2M apps degrade, P2M unaffected (Ice Lake)",
        "c2m_cores",
        list(core_counts),
    )
    for app in ("redis", "gapbs"):
        experiment = _app_experiment(config, app)
        points = experiment.sweep(core_counts, warmup, measure)
        data.add(f"{app}_degradation", [p.c2m_degradation for p in points])
        data.add(f"fio_degradation_vs_{app}", [p.p2m_degradation for p in points])
        data.add(
            f"{app}_mem_bw_c2m",
            [p.colocated.class_bandwidth("c2m") for p in points],
        )
        data.add(
            f"{app}_mem_bw_p2m",
            [p.colocated.class_bandwidth("p2m") for p in points],
        )
        data.add(
            f"{app}_mem_util",
            [p.colocated.mem_bw_utilization for p in points],
        )
    data.notes = (
        "Degradation = isolated/colocated throughput (GAPBS: slowdown). "
        "P2M stays ~1.0 while C2M degrades despite unsaturated bandwidth."
    )
    return data


def fig2(
    core_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    warmup: float = 15_000.0,
    measure: float = 40_000.0,
) -> FigureData:
    """Fig. 2: DDIO on/off on Cascade Lake — DDIO can worsen C2M
    degradation when the working set does not fit in cache."""
    data = FigureData(
        "fig2",
        "Figure 2: DDIO on/off, Cascade Lake",
        "c2m_cores",
        list(core_counts),
    )
    for ddio in (True, False):
        config = cascade_lake(llc_mode="full", ddio_enabled=ddio)
        tag = "ddio_on" if ddio else "ddio_off"
        for app in ("redis", "gapbs"):
            experiment = _app_experiment(config, app)
            points = experiment.sweep(core_counts, warmup, measure)
            data.add(f"{app}_{tag}_degradation", [p.c2m_degradation for p in points])
            data.add(
                f"fio_{tag}_degradation_vs_{app}",
                [p.p2m_degradation for p in points],
            )
            data.add(
                f"{app}_{tag}_mem_bw",
                [p.colocated.mem_bw_total for p in points],
            )
    data.notes = "DDIO-on curves should sit at or above DDIO-off C2M degradation."
    return data


# ----------------------------------------------------------------------
# Figure 3: the four quadrants
# ----------------------------------------------------------------------


def fig3(
    core_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    config: Optional[HostConfig] = None,
    warmup: float = 20_000.0,
    measure: float = 60_000.0,
) -> FigureData:
    """Fig. 3: blue and red regimes across the four quadrants."""
    data = FigureData(
        "fig3",
        "Figure 3: blue/red regimes across quadrants (Cascade Lake)",
        "c2m_cores",
        list(core_counts),
    )
    for q in (1, 2, 3, 4):
        experiment = quadrant_experiment(QUADRANTS[q], config)
        points = experiment.sweep(core_counts, warmup, measure)
        data.add(f"q{q}_c2m_degradation", [p.c2m_degradation for p in points])
        data.add(f"q{q}_p2m_degradation", [p.p2m_degradation for p in points])
        data.add(
            f"q{q}_c2m_bw", [p.colocated.class_bandwidth("c2m") for p in points]
        )
        data.add(
            f"q{q}_p2m_bw", [p.colocated.class_bandwidth("p2m") for p in points]
        )
        data.add(f"q{q}_regime", [p.regime.value for p in points])
    data.notes = (
        "Quadrants 1/2/4: blue (C2M degrades, P2M ~1.0). Quadrant 3: blue at "
        "low core counts, red once memory bandwidth saturates."
    )
    return data


# ----------------------------------------------------------------------
# Figure 6: evidence for domains
# ----------------------------------------------------------------------


def fig6(
    core_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    config: Optional[HostConfig] = None,
    warmup: float = 20_000.0,
    measure: float = 60_000.0,
) -> FigureData:
    """Fig. 6: per-domain evidence.

    (a) C2M-Read: LFB latency vs CHA->DRAM read latency (inclusive).
    (b) C2M-ReadWrite: LFB latency vs CHA->MC write latency (the
        latter can exceed the former: C2M-Write excludes the MC).
    (c, d) low-load P2M write (4 KB QD1) + C2M-ReadWrite: IIO latency
        vs CHA->MC write latency (inclusive; inflations match).
    """
    if config is None:
        config = cascade_lake()
    data = FigureData(
        "fig6",
        "Figure 6: evidence for domains and their characteristics",
        "c2m_cores",
        list(core_counts),
    )
    calls = (
        [(stream_run, (config, n, 0.0, warmup, measure), {}) for n in core_counts]
        + [(stream_run, (config, n, 1.0, warmup, measure), {}) for n in core_counts]
        + [(_stream_fio_run, (config, n, 1.0, warmup, measure), {}) for n in core_counts]
    )
    results = run_calls(calls)
    k = len(core_counts)
    reads, rws, fios = results[:k], results[k : 2 * k], results[2 * k :]

    data.add("a_lfb_latency_c2m_read", [r.latency("c2m_read") for r in reads])
    data.add("a_cha_dram_read_latency", [r.latency("cha_dram_read") for r in reads])

    data.add("b_lfb_latency_c2m_rw", [r.latency("lfb_total") for r in rws])
    data.add("b_cha_mc_write_latency", [r.latency("cha_mc_write") for r in rws])

    iio_lat = [r.latency("p2m_write", "p2m") for r in fios]
    cha_mc_w2 = [r.latency("cha_mc_write", "p2m") for r in fios]
    data.add("c_iio_latency_p2m_write", iio_lat)
    data.add("c_cha_mc_write_latency", cha_mc_w2)
    base_iio, base_cha = iio_lat[0], cha_mc_w2[0]
    data.add("d_iio_latency_inflation", [v - base_iio for v in iio_lat])
    data.add("d_cha_mc_write_inflation", [v - base_cha for v in cha_mc_w2])
    data.notes = (
        "(a) LFB latency strictly exceeds and tracks CHA->DRAM read latency. "
        "(b) CHA->MC write latency can exceed LFB latency (C2M-Write domain "
        "excludes the MC). (c, d) IIO latency includes CHA->MC write latency "
        "and their inflations match (P2M-Write domain includes the MC)."
    )
    return data


# ----------------------------------------------------------------------
# Figures 7/8: root causes in quadrants 1 and 3
# ----------------------------------------------------------------------


def root_cause_panels(
    figure_id: str,
    title: str,
    experiment: ColocationExperiment,
    p2m_is_write: bool,
    core_counts: Sequence[int],
    warmup: float,
    measure: float,
    cdf_core_count: int = 1,
    c2m_class: str = "c2m",
) -> FigureData:
    """Shared builder for the root-cause metric panels (Figs. 7/8/13/14
    and their RDMA/DCTCP counterparts in Appendix D)."""
    data = FigureData(figure_id, title, "c2m_cores", list(core_counts))
    results = run_calls(
        [(experiment.run_colocated, (n, warmup, measure), {}) for n in core_counts]
        + [(experiment.run_c2m_isolated, (n, warmup, measure), {}) for n in core_counts]
    )
    with_p2m = results[: len(core_counts)]
    without_p2m = results[len(core_counts) :]

    data.add(
        "c2m_read_latency_with_p2m",
        [r.latency("c2m_read", c2m_class) for r in with_p2m],
    )
    data.add(
        "c2m_read_latency_without_p2m",
        [r.latency("c2m_read", c2m_class) for r in without_p2m],
    )
    data.add("rpq_occupancy_with_p2m", [r.rpq_avg_occupancy for r in with_p2m])
    data.add("rpq_occupancy_without_p2m", [r.rpq_avg_occupancy for r in without_p2m])
    data.add(
        "row_miss_ratio_with_p2m",
        [r.row_miss_ratio.get(f"{c2m_class}.read", 0.0) for r in with_p2m],
    )
    data.add(
        "row_miss_ratio_without_p2m",
        [r.row_miss_ratio.get(f"{c2m_class}.read", 0.0) for r in without_p2m],
    )
    if p2m_is_write:
        data.add(
            "p2m_write_latency", [r.latency("p2m_write", "p2m") for r in with_p2m]
        )
        data.add("wpq_full_fraction", [r.wpq_full_fraction for r in with_p2m])
        data.add("iio_write_occupancy", [r.iio_write_avg_occupancy for r in with_p2m])
        data.add("n_waiting", [r.cha_write_waiting_avg for r in with_p2m])
        data.add(
            "cha_admission_delay_c2m",
            [r.cha_admission_delay.get("c2m", 0.0) for r in with_p2m],
        )
    else:
        data.add(
            "p2m_read_latency", [r.latency("p2m_read", "p2m") for r in with_p2m]
        )
        data.add(
            "inflight_p2m_reads", [r.cha_inflight_p2m_reads_avg for r in with_p2m]
        )
        data.add("iio_read_occupancy", [r.iio_read_avg_occupancy for r in with_p2m])

    # Bank-deviation CDF at a fixed core count (Fig. 7d).
    idx = list(core_counts).index(cdf_core_count) if cdf_core_count in core_counts else 0
    grid = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]
    for label, runs in (("with_p2m", with_p2m), ("without_p2m", without_p2m)):
        deviations = runs[idx].bank_deviations
        if deviations:
            _, cdf = bank_deviation_cdf(deviations, grid)
            data.add(f"bank_dev_cdf_{label}", list(cdf))
        else:
            data.add(f"bank_dev_cdf_{label}", [math.nan] * len(grid))
    data.notes = (
        f"bank_dev_cdf_* series are CDF values on deviation grid {grid} "
        f"for the {core_counts[idx]}-core point, not per-core-count values."
    )
    return data


def _quadrant_root_cause(
    figure_id: str,
    quadrant: int,
    core_counts: Sequence[int],
    config: Optional[HostConfig],
    warmup: float,
    measure: float,
) -> FigureData:
    spec = QUADRANTS[quadrant]
    experiment = quadrant_experiment(spec, config)
    return root_cause_panels(
        figure_id,
        f"{figure_id}: root-cause metrics for {spec.describe()}",
        experiment,
        p2m_is_write=spec.p2m_kind is RequestKind.WRITE,
        core_counts=core_counts,
        warmup=warmup,
        measure=measure,
    )


def fig7(
    core_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    config: Optional[HostConfig] = None,
    warmup: float = 20_000.0,
    measure: float = 60_000.0,
) -> FigureData:
    """Fig. 7: understanding quadrant 1 (C2M-Read + P2M-Write)."""
    return _quadrant_root_cause("fig7", 1, core_counts, config, warmup, measure)


def fig8(
    core_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    config: Optional[HostConfig] = None,
    warmup: float = 20_000.0,
    measure: float = 60_000.0,
) -> FigureData:
    """Fig. 8: understanding quadrant 3 (C2M-ReadWrite + P2M-Write)."""
    return _quadrant_root_cause("fig8", 3, core_counts, config, warmup, measure)


# ----------------------------------------------------------------------
# Figures 11/12: analytical-formula validation
# ----------------------------------------------------------------------


def _calibrate(config: HostConfig, warmup: float, measure: float):
    """Unloaded constants for the C2M-Read and P2M-Write domains."""
    timing = config.dram_timing
    unloaded_read, unloaded_write, unloaded_p2m_read, unloaded_rw = run_calls(
        [
            (stream_run, (config, 1, 0.0, warmup, measure), {}),
            (dma_run, (config, RequestKind.WRITE, warmup, measure), {}),
            (dma_run, (config, RequestKind.READ, warmup, measure), {}),
            (stream_run, (config, 1, 1.0, warmup, measure), {}),
        ]
    )
    constant_read = calibrate_read_constant(unloaded_read, timing)
    constant_write_p2m = calibrate_write_constant(unloaded_write, timing)
    constant_read_p2m = calibrate_read_constant(
        unloaded_p2m_read, timing, domain="p2m_read", traffic_class="p2m"
    )
    constant_write_c2m = max(0.0, unloaded_rw.latency("c2m_write"))
    return constant_read, constant_write_p2m, constant_read_p2m, constant_write_c2m


def fig11(
    core_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    config: Optional[HostConfig] = None,
    warmup: float = 20_000.0,
    measure: float = 60_000.0,
) -> FigureData:
    """Fig. 11: signed error of the formula's throughput estimates."""
    if config is None:
        config = cascade_lake()
    c_read, c_write_p2m, c_read_p2m, c_write_c2m = _calibrate(config, warmup, measure)
    data = FigureData(
        "fig11",
        "Figure 11: analytical formula accuracy (signed error)",
        "c2m_cores",
        list(core_counts),
    )
    quadrant_order = (1, 2, 4, 3)
    experiments = {
        q: quadrant_experiment(QUADRANTS[q], config) for q in quadrant_order
    }
    runs = run_calls(
        [
            (experiments[q].run_colocated, (n, warmup, measure), {})
            for q in quadrant_order
            for n in core_counts
        ]
    )
    runs_by_q = {
        q: runs[i * len(core_counts) : (i + 1) * len(core_counts)]
        for i, q in enumerate(quadrant_order)
    }
    for q in (1, 2, 4):
        spec = QUADRANTS[q]
        errors = []
        for n, run in zip(core_counts, runs_by_q[q]):
            estimate = estimate_c2m_throughput(
                run,
                c_read,
                n,
                store_stream=spec.store_fraction > 0,
                constant_write=c_write_c2m,
            )
            errors.append(estimate.error)
        data.add(f"q{q}_c2m_error", errors)

    for corrected in (False, True):
        tag = "corrected" if corrected else "raw"
        c2m_err, p2m_err = [], []
        for n, run in zip(core_counts, runs_by_q[3]):
            c2m = estimate_c2m_throughput(
                run,
                c_read,
                n,
                store_stream=True,
                constant_write=c_write_c2m,
                cha_admission_correction=corrected,
            )
            p2m = estimate_p2m_throughput(
                run,
                c_write_p2m,
                is_write=True,
                cha_admission_correction=corrected,
            )
            c2m_err.append(c2m.error)
            p2m_err.append(p2m.error)
        data.add(f"q3_c2m_error_{tag}", c2m_err)
        data.add(f"q3_p2m_error_{tag}", p2m_err)
    data.notes = (
        "Positive = overestimation. Read-stream quadrants (1/2) hold within "
        "~10-15% at all loads; store-stream quadrants (3/4) reproduce the "
        "paper's raw-Q3 signature of error growth at high load (see "
        "EXPERIMENTS.md, fidelity gap 2). "
        f"Unused calibration constant for P2M-Read: {c_read_p2m:.0f} ns."
    )
    return data


def fig12(
    core_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    config: Optional[HostConfig] = None,
    warmup: float = 20_000.0,
    measure: float = 60_000.0,
) -> FigureData:
    """Fig. 12: breakdown of the formula's queueing-delay components."""
    if config is None:
        config = cascade_lake()
    timing = config.dram_timing
    data = FigureData(
        "fig12",
        "Figure 12: analytical formula component breakdown (ns)",
        "c2m_cores",
        list(core_counts),
    )
    experiments = {q: quadrant_experiment(QUADRANTS[q], config) for q in (1, 2, 3, 4)}
    runs = run_calls(
        [
            (experiments[q].run_colocated, (n, warmup, measure), {})
            for q in (1, 2, 3, 4)
            for n in core_counts
        ]
    )
    runs_by_q = {
        q: runs[i * len(core_counts) : (i + 1) * len(core_counts)]
        for i, q in enumerate((1, 2, 3, 4))
    }
    for q in (1, 2, 3, 4):
        switching, write_hol, read_hol, top_q, adm = [], [], [], [], []
        w_switch, w_rhol, w_whol, w_topq = [], [], [], []
        for n, run in zip(core_counts, runs_by_q[q]):
            inputs = FormulaInputs.from_run(run)
            read_bd = read_queueing_delay(inputs, timing)
            switching.append(read_bd.switching)
            write_hol.append(read_bd.write_hol)
            read_hol.append(read_bd.read_hol)
            top_q.append(read_bd.top_of_queue)
            adm.append(run.cha_admission_delay.get("c2m", 0.0))
            if q == 3:
                write_bd = write_admission_delay(inputs, timing)
                w_switch.append(write_bd.switching)
                w_rhol.append(write_bd.read_hol)
                w_whol.append(write_bd.write_hol)
                w_topq.append(write_bd.top_of_queue)
        data.add(f"q{q}_switching", switching)
        data.add(f"q{q}_write_hol", write_hol)
        data.add(f"q{q}_read_hol", read_hol)
        data.add(f"q{q}_top_of_queue", top_q)
        data.add(f"q{q}_cha_admission", adm)
        if q == 3:
            data.add("q3_p2m_switching", w_switch)
            data.add("q3_p2m_read_hol", w_rhol)
            data.add("q3_p2m_write_hol", w_whol)
            data.add("q3_p2m_top_of_queue", w_topq)
    data.notes = (
        "Q1: WriteHoL dominates at 1 core, ReadHoL grows with cores. "
        "Q2: no WriteHoL (no writes). Q4: ReadHoL dominates. "
        "Q3: CHA admission grows at high core counts."
    )
    return data
