"""Event-engine microbenchmark: raw events/sec.

Views of the engine's dispatch cost, tracked in the perf
trajectory (baseline: ``BENCH_engine.json``, gated by
``tools/perf_check.py``):

* empty-callback churn — pure engine overhead (scheduling plus
  dispatch of mixed-delay singleton events), no model code;
* a realistic DRAM-traffic window — a colocated STREAM + DMA host,
  reporting the events/sec the simulator sustains end to end;
* uncore admission churn — the IIO credit pools and CHA ingress
  driven directly with the DRAM side stubbed out, isolating the hot
  path the ``REPRO_UNCORE`` SoA kernel fuses.
"""

from _common import report_window, run_once, scale, window_host
from repro.sim.engine import Simulator
from repro.sim.records import RequestKind
from repro.uncore.kernel import UncoreKernel, uncore_enabled

CHURN_EVENTS = 300_000
UNCORE_OPS = 240_000
UNCORE_REQS = 4_096


def test_engine_empty_callback_churn(benchmark):
    """Pure dispatch overhead: self-rescheduling no-op sources."""

    def churn() -> int:
        sim = Simulator()
        remaining = [CHURN_EVENTS]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(1.0 + (remaining[0] % 7), tick)

        # 16 interleaved sources keep the heap realistically mixed.
        for i in range(16):
            sim.schedule(float(i), tick)
        sim.run_until(1e12)
        return sim.events_processed

    events = run_once(benchmark, churn)
    assert events >= CHURN_EVENTS
    rate = events / benchmark.stats.stats.mean
    benchmark.extra_info["events_per_sec"] = round(rate)
    print(f"\nengine churn: {events} events, {rate:,.0f} events/s")


def test_engine_dram_window_events_per_sec(benchmark):
    """End-to-end events/sec on a realistic colocated DRAM window."""
    params = scale()

    def run():
        host = window_host(n_cores=2, store_fraction=1.0)
        return host.run(params["warmup"], params["measure"])

    result = run_once(benchmark, run)
    report_window(benchmark, "DRAM window", result)


def test_engine_rack_window_events_per_sec(benchmark):
    """End-to-end events/sec on a 2-host rack window.

    Two full host networks on one shared engine, coupled by a fabric
    flow: the destination runs a write-heavy STREAM app while an
    ``ib_write_bw`` flow crosses the modelled edge switch queue into
    its receive NIC (the ``tools/cluster_check.py`` scenario at bench
    scale). Every host's RunResult carries the same engine-wide window
    event count, so host 0's rate is the cluster's. Recorded ungated
    in ``BENCH_engine.json``: a trajectory number for the coupling
    overhead, with no kernel owning the path yet.
    """
    from repro.net.rdma import add_rdma_write_flow
    from repro.topology.cluster import Cluster
    from repro.topology.presets import cascade_lake

    params = scale()

    def run():
        cluster = Cluster(cascade_lake(), n_hosts=2, queue_capacity_lines=512)
        cluster.hosts[0].add_stream_cores(2, store_fraction=1.0)
        add_rdma_write_flow(cluster, src=1, dst=0)
        return cluster.run(params["warmup"], params["measure"]).host(0)

    result = run_once(benchmark, run)
    report_window(benchmark, "rack window (2 hosts)", result)


def test_engine_uncore_churn_events_per_sec(benchmark):
    """IIO+CHA admission churn: the uncore hot path in isolation.

    Drives the IIO credit pools and the CHA ingress directly — one
    ``alloc -> request_admission -> release`` traversal per request,
    mixed reads and writes — against a memory controller with
    bottomless queues whose event loop is never driven, so the DRAM
    side is stubbed out entirely and the measured rate is the uncore
    path itself. This is the territory ``REPRO_UNCORE`` owns: the
    object-at-a-time CHA/IIO/credit path when off, the fused SoA
    kernel when on (``kernel_off_events_per_sec`` in the baseline
    records the same commit with the kernel off).
    """
    from repro.dram.controller import MemoryController
    from repro.dram.timing import DDR4_2933
    from repro.sim.records import Request, RequestSource
    from repro.telemetry.counters import CounterHub
    from repro.uncore.cha import CHA
    from repro.uncore.iio import IIO

    def churn() -> int:
        sim = Simulator()
        hub = CounterHub()
        mc = MemoryController(
            sim,
            hub,
            timing=DDR4_2933,
            n_channels=2,
            n_banks=8,
            rpq_size=1 << 20,
            wpq_size=1 << 20,
        )
        cha = CHA(sim, hub, mc, write_capacity=1 << 30, read_capacity=1 << 30)
        iio = IIO(sim, hub, write_entries=1 << 30, read_entries=1 << 30)
        if uncore_enabled():
            UncoreKernel(cha, iio)
        requests = []
        for i in range(UNCORE_REQS):
            kind = RequestKind.WRITE if i % 2 else RequestKind.READ
            req = Request(RequestSource.P2M, kind, i * 64, traffic_class="p2m")
            mc.assign(req)
            requests.append(req)
        alloc = iio.alloc
        admit = cha.request_admission
        release = iio.release
        ops = 0
        while ops < UNCORE_OPS:
            for req in requests:
                alloc(req)
                admit(req)
                release(req)
            ops += UNCORE_REQS
        if cha.kernel is not None:
            cha.kernel.verify_consistency()
        return ops

    ops = run_once(benchmark, churn)
    assert ops >= UNCORE_OPS
    rate = ops / benchmark.stats.stats.mean
    benchmark.extra_info["events_per_sec"] = round(rate)
    print(f"\nuncore churn: {ops} requests, {rate:,.0f} events/s")
