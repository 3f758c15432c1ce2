"""SoA channel-kernel tests: knob parsing, numpy gating, consistency
probes and the randomized reference-vs-kernel differential harness.

The kernel (``repro.dram.kernel``) claims to be an *exact*
reimplementation of the request-at-a-time reference path, so the
differential tests here demand bit-identical results — integer
counters equal, float accumulators equal with ``==``, per-request
retire timestamps equal — across randomized workloads covering both
directions, row hits/misses/conflicts, multi-line (burst) requests and
the P2M write-priority policy.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.controller import Channel
from repro.dram.kernel import kernel_enabled
from repro.dram.regulator import BankRegulator
from repro.dram.timing import DDR4_2933
from repro.sim.engine import Simulator
from repro.sim.records import Request, RequestKind, RequestSource
from repro.telemetry import bankstats
from repro.telemetry.counters import CounterHub

request_strategy = st.tuples(
    st.booleans(),  # is_write
    st.integers(min_value=0, max_value=7),  # bank
    st.integers(min_value=0, max_value=3),  # row
    st.floats(min_value=0.0, max_value=50.0),  # inter-arrival gap
    st.integers(min_value=1, max_value=3),  # lines (macro-request burst)
    st.booleans(),  # P2M source (exercises p2m_write_priority)
)


def build_channel(kernel: bool, rpq=256, wpq=256, p2m_priority=False, bank_reg=False):
    """A standalone channel with the kernel forced on or off.

    ``bank_reg`` attaches a deliberately tight per-bank token bucket
    (refill slower than the channel line rate, shallow burst) so the
    regulated differential tests actually exercise token blocking and
    the bucket-refill pump retry.
    """
    prior = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = "on" if kernel else "off"
    try:
        sim = Simulator()
        hub = CounterHub()
        channel = Channel(
            sim,
            hub,
            channel_id=0,
            timing=DDR4_2933,
            n_banks=8,
            rpq_size=rpq,
            wpq_size=wpq,
            p2m_write_priority=p2m_priority,
            bank_reg=(
                BankRegulator(8, rate_lines_per_ns=0.05, burst_lines=4)
                if bank_reg
                else None
            ),
        )
    finally:
        if prior is None:
            del os.environ["REPRO_KERNEL"]
        else:
            os.environ["REPRO_KERNEL"] = prior
    assert (channel.kernel is not None) == kernel
    return sim, channel


def run_workload(specs, kernel: bool, p2m_priority=False, bank_reg=False):
    """Drive one randomized spec list through a channel; return a
    deep observation of everything the differential test compares."""
    sim, channel = build_channel(
        kernel, p2m_priority=p2m_priority, bank_reg=bank_reg
    )
    read_log = []
    t = 0.0

    def submit(req):
        if req.kind is RequestKind.READ:
            channel.reserve_read(req.lines)
            channel.enqueue_read(req)
        else:
            channel.reserve_write(req.lines)
            channel.enqueue_write(req)

    for i, (is_write, bank, row, gap, lines, p2m) in enumerate(specs):
        kind = RequestKind.WRITE if is_write else RequestKind.READ
        source = RequestSource.P2M if p2m else RequestSource.C2M
        tc = "p2m" if p2m else "c2m"
        req = Request(source, kind, i, traffic_class=tc)
        req.channel_id = 0
        req.bank_id = bank
        req.row_id = row
        req.lines = lines
        if kind is RequestKind.READ:
            req.on_complete = lambda r: read_log.append(
                (r.line_addr, r.t_service, r.row_outcome, sim.now)
            )
        t += gap
        sim.schedule_at(t, submit, req)
    sim.run_until(t + 500_000.0)

    stats = channel.stats
    return {
        "read_log": read_log,
        "events": sim.events_processed,
        "now_pending": sim.pending_live,
        "scalars": (
            stats.lines_read,
            stats.lines_written,
            stats.switches_wtr,
            stats.switches_rtw,
            stats.act_read,
            stats.act_write,
            stats.pre_conflict_read,
            stats.pre_conflict_write,
            stats.busy_read_time,
            stats.busy_write_time,
            stats.turnaround_time,
        ),
        "class_lines_read": dict(stats.class_lines_read),
        "class_lines_written": dict(stats.class_lines_written),
        "row_outcomes": dict(stats.class_row_outcomes),
        # Occupancy integrals are float-accumulated per pool event, so
        # equality here proves every admission *and* retire happened at
        # the same instant in both paths (writes included, even though
        # their Request objects are recycled before we could log them).
        "rpq_occ": (
            channel.rpq_pool.occ._integral,
            channel.rpq_pool.occ._full_time,
            channel.rpq_pool.occ.max_seen,
        ),
        "wpq_occ": (
            channel.wpq_pool.occ._integral,
            channel.wpq_pool.occ._full_time,
            channel.wpq_pool.occ.max_seen,
        ),
        "wpq_full_time": (channel._wpq_full_time, channel._wpq_full_since),
        "queued": channel.queued_in_banks(),
    }


class TestKernelKnob:
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel_enabled() is True

    @pytest.mark.parametrize("raw", ["on", "1", "yes", "true", ""])
    def test_enabled_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_KERNEL", raw)
        assert kernel_enabled() is True

    @pytest.mark.parametrize("raw", ["off", "0", "no", "false", " OFF "])
    def test_disabled_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_KERNEL", raw)
        assert kernel_enabled() is False

    def test_invalid_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "sometimes")
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            kernel_enabled()

    def test_channel_binds_kernel_methods(self):
        _, channel = build_channel(kernel=True)
        assert channel.enqueue_read == channel.kernel.enqueue_read
        assert channel.enqueue_write == channel.kernel.enqueue_write
        _, reference = build_channel(kernel=False)
        assert reference.kernel is None


class TestDifferential:
    """S4: the reference path and the kernel must agree bit-exactly."""

    @given(st.lists(request_strategy, min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_reference_vs_kernel(self, specs):
        ref = run_workload(specs, kernel=False)
        ker = run_workload(specs, kernel=True)
        assert ref == ker

    @given(st.lists(request_strategy, min_size=1, max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_reference_vs_kernel_p2m_priority(self, specs):
        ref = run_workload(specs, kernel=False, p2m_priority=True)
        ker = run_workload(specs, kernel=True, p2m_priority=True)
        assert ref == ker

    @given(st.lists(request_strategy, min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_reference_vs_kernel_regulated(self, specs):
        """Per-bank token buckets must not break bit-identity: the
        regulator's ready/next_ready checks are pure and consume only
        fires at transmit, so both paths see the same bucket state."""
        ref = run_workload(specs, kernel=False, bank_reg=True)
        ker = run_workload(specs, kernel=True, bank_reg=True)
        assert ref == ker

    @given(st.lists(request_strategy, min_size=1, max_size=60))
    @settings(max_examples=15, deadline=None)
    def test_reference_vs_kernel_regulated_p2m_priority(self, specs):
        ref = run_workload(specs, kernel=False, p2m_priority=True, bank_reg=True)
        ker = run_workload(specs, kernel=True, p2m_priority=True, bank_reg=True)
        assert ref == ker

    def test_regulation_throttles_hot_bank(self):
        """A single-bank read hammer finishes later with regulation on
        (tokens cap the bank's line rate below the channel rate)."""

        def drain_time(bank_reg):
            sim, channel = build_channel(kernel=True, bank_reg=bank_reg)
            done = []
            for i in range(64):
                req = Request(RequestSource.C2M, RequestKind.READ, i)
                req.channel_id, req.bank_id, req.row_id = 0, 0, 0
                req.on_complete = lambda r: done.append(r.t_service)
                channel.reserve_read()
                channel.enqueue_read(req)
            sim.run_until(500_000.0)
            assert len(done) == 64 and channel.queued_in_banks() == (0, 0)
            return max(done)

        base = drain_time(False)
        reg = drain_time(True)
        # 64 lines at 0.05 lines/ns (minus the 4-line burst) needs
        # ~1.2 us; unregulated the channel drains them in ~0.2 us.
        assert reg > base

    @given(
        st.lists(request_strategy, min_size=1, max_size=40),
        st.floats(min_value=10.0, max_value=2_000.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_mid_flight_window_reset(self, specs, reset_at):
        """reset_stats mid-run must leave both paths in the same state
        (the kernel's flat accumulators zero exactly like the dicts)."""

        def run(kernel):
            sim, channel = build_channel(kernel)
            for i, (is_write, bank, row, gap, lines, _p2m) in enumerate(specs):
                kind = RequestKind.WRITE if is_write else RequestKind.READ
                req = Request(RequestSource.C2M, kind, i)
                req.channel_id, req.bank_id, req.row_id = 0, bank, row
                req.lines = lines
                if kind is RequestKind.READ:
                    channel.reserve_read(lines)
                    channel.enqueue_read(req)
                else:
                    channel.reserve_write(lines)
                    channel.enqueue_write(req)
            sim.schedule_at(reset_at, channel.reset_stats, reset_at)
            sim.run_until(500_000.0)
            s = channel.stats
            return (
                s.lines_read,
                s.lines_written,
                s.busy_read_time,
                s.busy_write_time,
                s.turnaround_time,
                dict(s.class_row_outcomes),
                sim.events_processed,
            )

        assert run(False) == run(True)


class TestNumpyGating:
    """S3: the kernel must run identically with numpy absent."""

    def _drive(self):
        sim, channel = build_channel(kernel=True)
        for i in range(24):
            kind = RequestKind.READ if i % 3 else RequestKind.WRITE
            req = Request(RequestSource.C2M, kind, i)
            req.channel_id, req.bank_id, req.row_id = 0, i % 8, i % 3
            if kind is RequestKind.READ:
                channel.reserve_read()
                channel.enqueue_read(req)
            else:
                channel.reserve_write()
                channel.enqueue_write(req)
        sim.run_until(500_000.0)
        return channel

    @pytest.mark.skipif(bankstats.load_numpy() is None, reason="numpy not installed")
    def test_bank_state_numpy_arrays(self):
        channel = self._drive()
        open_row, busy_until, prep = channel.kernel.bank_state()
        np = bankstats.load_numpy()
        assert isinstance(open_row, np.ndarray) and open_row.dtype == np.int64
        assert busy_until.dtype == np.float64
        assert prep.dtype == np.bool_
        assert len(open_row) == channel.kernel.nb
        assert not prep.any()  # drained channel: no prep in flight

    def test_bank_state_pure_python(self, monkeypatch):
        monkeypatch.setattr(bankstats, "load_numpy", lambda: None)
        channel = self._drive()
        open_row, busy_until, prep = channel.kernel.bank_state()
        assert isinstance(open_row, list)
        assert isinstance(busy_until, list)
        assert prep == [False] * channel.kernel.nb

    def test_workload_identical_without_numpy(self, monkeypatch):
        with_np = self._drive().stats
        monkeypatch.setattr(bankstats, "load_numpy", lambda: None)
        without_np = self._drive().stats
        assert with_np.lines_read == without_np.lines_read
        assert with_np.lines_written == without_np.lines_written
        assert with_np.busy_read_time == without_np.busy_read_time
        assert dict(with_np.class_row_outcomes) == dict(
            without_np.class_row_outcomes
        )


class TestKernelIntrospection:
    @given(st.lists(request_strategy, min_size=1, max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_consistency_mid_flight(self, specs):
        """verify_consistency and the cached queue totals must hold at
        arbitrary instants while traffic is in flight, not only at
        quiescence."""
        sim, channel = build_channel(kernel=True)
        kernel = channel.kernel
        checked = []

        def probe():
            checked.append(kernel.verify_consistency())
            assert channel.queued_in_banks() == channel.walk_queued_lines()

        t = 0.0
        for i, (is_write, bank, row, gap, lines, _p2m) in enumerate(specs):
            kind = RequestKind.WRITE if is_write else RequestKind.READ
            req = Request(RequestSource.C2M, kind, i)
            req.channel_id, req.bank_id, req.row_id = 0, bank, row
            req.lines = lines

            def submit(r=req):
                if r.kind is RequestKind.READ:
                    channel.reserve_read(r.lines)
                    channel.enqueue_read(r)
                else:
                    channel.reserve_write(r.lines)
                    channel.enqueue_write(r)

            t += gap
            sim.schedule_at(t, submit)
            sim.schedule_at(t + 7.0, probe)
        sim.run_until(t + 500_000.0)
        probe()
        assert checked and all(n == kernel.nb for n in checked)
        assert channel.queued_in_banks() == (0, 0)

    def test_sync_stats_is_idempotent(self):
        sim, channel = build_channel(kernel=True)
        for i in range(12):
            req = Request(RequestSource.C2M, RequestKind.READ, i)
            req.channel_id, req.bank_id, req.row_id = 0, i % 8, 0
            channel.reserve_read()
            channel.enqueue_read(req)
        sim.run_until(500_000.0)
        first = channel.stats
        snapshot = (
            first.lines_read,
            dict(first.class_row_outcomes),
        )
        again = channel.stats
        assert (again.lines_read, dict(again.class_row_outcomes)) == snapshot

    def test_interning_is_stable_across_windows(self):
        sim, channel = build_channel(kernel=True)
        kernel = channel.kernel
        for i, tc in enumerate(("c2m", "p2m", "c2m", "llc_wb")):
            req = Request(RequestSource.C2M, RequestKind.READ, i, traffic_class=tc)
            req.channel_id, req.bank_id, req.row_id = 0, i % 8, 0
            channel.reserve_read()
            channel.enqueue_read(req)
        sim.run_until(100_000.0)
        ids_before = dict(kernel.cls_ids)
        channel.reset_stats(sim.now)
        assert kernel.cls_ids == ids_before  # interning survives windows
        assert channel.stats.lines_read == 0
