"""CHA head-of-line semantics, pinned as an explicit oracle.

The paper's §5.2 red-regime mechanics hinge on two CHA behaviours:

* **HoL blocking in ingress** — the shared FCFS ingress queue admits
  strictly in arrival order, so a write blocked on a full write stage
  delays every *later* arrival, including reads (the equitable latency
  increase at 5-6 C2M cores);
* **read bypass of a full write stage** — a read arriving at an empty
  ingress is admitted through the separate read stage even while the
  write stage is full ("reads can be processed concurrently at the CHA
  even when writes are blocked").

These tests pin both on the reference path AND on the SoA uncore
kernel (``REPRO_UNCORE``), so the kernel differential harness
(tests/test_uncore_kernel.py) always has an explicitly-tested oracle
for the semantics it must preserve.
"""

import pytest

from repro.dram.controller import MemoryController
from repro.dram.timing import DDR4_2933
from repro.sim.engine import Simulator
from repro.sim.records import Request, RequestKind, RequestSource
from repro.telemetry.counters import CounterHub
from repro.uncore.cha import CHA
from repro.uncore.iio import IIO
from repro.uncore.kernel import UncoreKernel


def build_cha(kernel: bool, write_capacity=1, read_capacity=8):
    """A standalone CHA over a small MC, write stage squeezed to
    ``write_capacity`` lines so one write fills it."""
    sim = Simulator()
    hub = CounterHub()
    mc = MemoryController(
        sim, hub, timing=DDR4_2933, n_channels=1, n_banks=4
    )
    cha = CHA(
        sim,
        hub,
        mc,
        write_capacity=write_capacity,
        read_capacity=read_capacity,
    )
    iio = IIO(sim, hub)
    if kernel:
        UncoreKernel(cha, iio)
        assert cha.kernel is not None
    else:
        assert cha.kernel is None
    return sim, mc, cha


def make_request(mc, kind, addr, log=None):
    req = Request(RequestSource.C2M, kind, addr, traffic_class="c2m")
    mc.assign(req)
    if log is not None:
        req.on_cha_admit = lambda r: log.append(r.line_addr)
    return req


@pytest.mark.parametrize("kernel", [False, True], ids=["reference", "uncore"])
class TestHeadOfLine:
    def test_blocked_write_head_delays_later_read(self, kernel):
        """With the write stage full, a queued write head-of-line
        blocks a read that arrives behind it in ingress — the read is
        NOT admitted early even though its own stage has room."""
        sim, mc, cha = build_cha(kernel)
        admitted = []
        w1 = make_request(mc, RequestKind.WRITE, 0, admitted)
        w2 = make_request(mc, RequestKind.WRITE, 1, admitted)
        r1 = make_request(mc, RequestKind.READ, 2, admitted)
        cha.request_admission(w1)  # fills the 1-line write stage
        cha.request_admission(w2)  # stage full -> waits in ingress
        cha.request_admission(r1)  # queued BEHIND the blocked write
        assert admitted == [0]
        assert cha.admission_queue_len == 2
        assert cha.read_stage.value == 0  # the read did not sneak past
        assert cha.ingress_occ.value == 2
        # Draining the stage (w1 delivered to the WPQ) unblocks the
        # head, and admission replays in strict FCFS order.
        sim.run_until(100_000.0)
        assert admitted == [0, 1, 2]
        assert cha.admission_queue_len == 0

    def test_read_bypasses_full_write_stage(self, kernel):
        """A read arriving at an EMPTY ingress is admitted through the
        read stage immediately, even while the write stage is full —
        stages are independent; only ingress order is shared."""
        sim, mc, cha = build_cha(kernel)
        admitted = []
        w1 = make_request(mc, RequestKind.WRITE, 0, admitted)
        r1 = make_request(mc, RequestKind.READ, 1, admitted)
        cha.request_admission(w1)  # fills the 1-line write stage
        cha.request_admission(r1)  # ingress empty -> synchronous admit
        assert admitted == [0, 1]
        assert cha.admission_queue_len == 0
        assert cha.read_stage.value == 1
        sim.run_until(100_000.0)
        assert cha.read_stage.value == 0  # delivered to the RPQ

    def test_full_read_stage_blocks_reads_not_writes(self, kernel):
        """Symmetry check: a read blocked on a full read stage also
        HoL-blocks later writes in ingress."""
        sim, mc, cha = build_cha(kernel, write_capacity=64, read_capacity=1)
        admitted = []
        r1 = make_request(mc, RequestKind.READ, 0, admitted)
        r2 = make_request(mc, RequestKind.READ, 1, admitted)
        w1 = make_request(mc, RequestKind.WRITE, 2, admitted)
        cha.request_admission(r1)  # fills the 1-line read stage
        cha.request_admission(r2)  # stage full -> waits in ingress
        cha.request_admission(w1)  # HoL-blocked behind the read
        assert admitted == [0]
        assert cha.admission_queue_len == 2
        assert cha.write_waiting.value == 0
        sim.run_until(100_000.0)
        assert admitted == [0, 1, 2]

    def test_paths_agree_on_interleaved_traffic(self, kernel):
        """Both implementations drain an interleaved backlog to the
        same terminal pool state (belt-and-braces next to the
        host-level differential)."""
        sim, mc, cha = build_cha(kernel, write_capacity=2, read_capacity=2)
        admitted = []
        for i in range(24):
            kind = RequestKind.WRITE if i % 3 else RequestKind.READ
            req = make_request(mc, kind, i, admitted)
            sim.schedule_at(float(i), cha.request_admission, req)
        sim.run_until(500_000.0)
        assert admitted == list(range(24))  # strict FCFS through ingress
        assert cha.admission_queue_len == 0
        assert cha.read_stage.value == 0
        assert cha.write_waiting.value == 0
        if cha.kernel is not None:
            assert cha.kernel.verify_consistency() >= 8
