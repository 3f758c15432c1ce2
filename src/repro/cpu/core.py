"""Core issue model.

A core issues memory operations as fast as its LFB allows (§5.1: a
3 GHz core can issue every ~0.3 ns, two orders of magnitude below the
C2M-Read domain latency, so the LFB is the binding constraint for
memory-intensive workloads). Loads hold their LFB entry until data
returns (C2M-Read domain); stores additionally hold it until the
writeback is admitted by the CHA (C2M-Write domain), which makes the
measured LFB latency for the ReadWrite workload the *sum* of the two
domain latencies — exactly the property the paper exploits in §4.2.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.cpu.lfb import LineFillBuffer
from repro.cpu.workloads import OP_NT_STORE, MemoryWorkload
from repro.dram.controller import MemoryController
from repro.sim.engine import Simulator
from repro.sim.records import (
    Request,
    RequestKind,
    RequestSource,
    acquire_request,
    release_request,
)
from repro.telemetry.counters import CounterHub
from repro.uncore.kernel import uncore_enabled


class Core:
    """One core running one memory workload through its LFB."""

    def __init__(
        self,
        sim: Simulator,
        hub: CounterHub,
        core_id: int,
        mc: MemoryController,
        cha_admission: Callable[[Request], None],
        workload: MemoryWorkload,
        lfb_size: int = 12,
        t_core_to_cha: float = 10.0,
        t_data_return: float = 33.0,
        burst: int = 1,
    ):
        self._sim = sim
        self._hub = hub
        self.core_id = core_id
        self._mc = mc
        self._cha_admission = cha_admission
        self.workload = workload
        self.lfb = LineFillBuffer(
            hub.occupancy(f"core{core_id}.lfb", lfb_size),
            lfb_size,
            name=hub.scoped(f"core{core_id}.lfb"),
        )
        hub.register_pool(self.lfb)
        self.t_core_to_cha = t_core_to_cha
        self.t_data_return = t_data_return
        # Macro-event burst factor (REPRO_BURST): operations per
        # macro-request. Clamped to the LFB so a burst can allocate.
        self.burst = max(1, min(burst, lfb_size))
        # Batched train credits (REPRO_UNCORE): one weighted LFB
        # allocation per gathered train instead of one per channel
        # group. Bit-identical — same-instant acquires commute (dt=0
        # after the first, monotone high-water mark) — but cheaper.
        # Evaluated unconditionally so an invalid knob value raises.
        self._batch_credits = uncore_enabled() and self.burst > 1
        #: lookahead buffer for burst mode: an op fetched from the
        #: workload that could not join the current macro-request
        #: because its kind differs (already counted by ``on_issue``).
        self._pending_op: Optional[Tuple[int, int]] = None
        # A workload's traffic class is fixed at construction, so the
        # per-request domain stats can be bound once here instead of
        # rebuilding the f-string key on every completion.
        tc = workload.traffic_class
        self._lat_read = hub.latency(f"domain.c2m_read.{tc}")
        self._lat_write = hub.latency(f"domain.c2m_write.{tc}")
        self._lat_lfb = hub.latency(f"lfb.total.{tc}")
        #: minimum spacing between issued operations (ns); 0 disables.
        #: Models Intel MBA-style memory-bandwidth throttling, the knob
        #: hostCC [2] actuates (used by repro.ext.hostcc).
        self.throttle_gap_ns = 0.0
        self._next_issue_allowed = 0.0
        self._wake_event = None
        self.reads_completed = 0
        self.stores_completed = 0

    def start(self) -> None:
        """Begin issuing at the current simulation time."""
        self._try_issue()

    def kick(self) -> None:
        """Re-evaluate issue eligibility now (external state changed:
        new data available to a consumer workload, throttle adjusted)."""
        self._try_issue()

    # ------------------------------------------------------------------
    # Issue path
    # ------------------------------------------------------------------

    def _try_issue(self) -> None:
        if self.burst > 1:
            self._try_issue_burst()
            return
        now = self._sim.now
        while self.lfb.has_free_entry:
            if self.throttle_gap_ns > 0 and now < self._next_issue_allowed:
                self._arm_wake_at(self._next_issue_allowed)
                return
            nxt = self.workload.try_next(now)
            if nxt is None:
                self._arm_wake()
                return
            if self.throttle_gap_ns > 0:
                self._next_issue_allowed = now + self.throttle_gap_ns
            addr, op = nxt
            self.workload.on_issue(now)
            if op == OP_NT_STORE:
                self._issue_nt_store(addr, now)
            else:
                self._issue(addr, bool(op), now)

    def _try_issue_burst(self) -> None:
        """Burst-mode issue loop: gather up to ``burst`` consecutive
        same-kind operations into one macro-request (one LFB burst
        allocation, one trip through the memory system)."""
        now = self._sim.now
        workload = self.workload
        lfb = self.lfb
        while True:
            free = lfb.size - lfb.in_use
            if free <= 0:
                return  # completions re-enter via _try_issue
            if self.throttle_gap_ns > 0 and now < self._next_issue_allowed:
                self._arm_wake_at(self._next_issue_allowed)
                return
            nxt = self._pending_op
            if nxt is not None:
                self._pending_op = None
            else:
                nxt = workload.try_next(now)
                if nxt is None:
                    self._arm_wake()
                    return
                workload.on_issue(now)
            addr, op = nxt
            cap = self.burst if self.burst < free else free
            # Split the gathered lines by home memory channel:
            # consecutive lines interleave across channels, so a
            # single-channel macro-request would collapse the channel
            # parallelism the per-line simulation exploits.
            channel_of = self._mc.mapper.channel_of
            groups: dict = {}
            groups.setdefault(channel_of(addr), []).append(addr)
            n = 1
            while n < cap:
                follow = workload.try_next(now)
                if follow is None:
                    break
                workload.on_issue(now)
                if follow[1] != op:
                    # Kind switch: the fetched op starts the next
                    # macro-request rather than joining this one.
                    self._pending_op = follow
                    break
                groups.setdefault(channel_of(follow[0]), []).append(follow[0])
                n += 1
            if self.throttle_gap_ns > 0:
                self._next_issue_allowed = now + self.throttle_gap_ns * n
            if self._batch_credits:
                # One weighted pool transaction covers the whole train
                # (n == sum of channel-group sizes).
                lfb.alloc(now, n)
                for group in groups.values():
                    if op == OP_NT_STORE:
                        self._issue_nt_store(group[0], now, len(group), alloc=False)
                    else:
                        self._issue(group[0], bool(op), now, len(group), alloc=False)
            else:
                for group in groups.values():
                    if op == OP_NT_STORE:
                        self._issue_nt_store(group[0], now, len(group))
                    else:
                        self._issue(group[0], bool(op), now, len(group))

    def _arm_wake(self) -> None:
        wake = self.workload.wake_time(self._sim.now)
        if wake is None:
            return
        self._arm_wake_at(wake)

    def _arm_wake_at(self, wake: float) -> None:
        if self._wake_event is not None and not self._wake_event.cancelled:
            if self._wake_event.time <= wake:
                return
            self._wake_event.cancel()
        self._wake_event = self._sim.schedule_at_cancellable(
            max(wake, self._sim.now), self._on_wake
        )

    def _on_wake(self) -> None:
        self._wake_event = None
        self._try_issue()

    def _issue(
        self, addr: int, is_store: bool, now: float, n: int = 1,
        alloc: bool = True,
    ) -> None:
        req = acquire_request(
            RequestSource.C2M,
            RequestKind.READ,
            addr,
            requester_id=self.core_id,
            traffic_class=self.workload.traffic_class,
        )
        req.t_alloc = now
        req.tag = is_store
        req.lines = n
        if alloc:
            self.lfb.alloc(now, n)
        self._mc.assign(req)
        req.on_complete = self._on_read_serviced
        self._sim.schedule(self.t_core_to_cha, self._cha_admission, req)

    def _issue_nt_store(
        self, addr: int, now: float, n: int = 1, alloc: bool = True
    ) -> None:
        """Non-temporal (fast-string) store: no RFO read; the line goes
        straight down the write path, holding its fill/write-combining
        buffer entry until CHA admission (the C2M-Write domain)."""
        wb = acquire_request(
            RequestSource.C2M,
            RequestKind.WRITE,
            addr,
            requester_id=self.core_id,
            traffic_class=self.workload.traffic_class,
        )
        wb.t_alloc = now
        wb.lines = n
        if alloc:
            self.lfb.alloc(now, n)
        self._mc.assign(wb)
        wb.on_cha_admit = self._on_nt_store_admitted
        self._sim.schedule(self.t_core_to_cha, self._cha_admission, wb)

    def _on_nt_store_admitted(self, wb: Request) -> None:
        now = self._sim.now
        lines = wb.lines
        self._lat_write.record(now - wb.t_alloc, lines)
        wb.t_free = now
        self.lfb.free_held(now, wb.t_alloc, lines)
        self.stores_completed += lines
        if lines == 1:
            self.workload.on_complete(now, was_store=True)
        else:
            for _ in range(lines):
                self.workload.on_complete(now, was_store=True)
        # ``wb`` continues down the write path (WPQ or LLC absorption)
        # and is released there.
        self._try_issue()

    # ------------------------------------------------------------------
    # Completion path
    # ------------------------------------------------------------------

    def _on_read_serviced(self, req: Request) -> None:
        """Data left the memory channel (or the LLC); schedule the
        return hop to the core."""
        self._sim.schedule(self.t_data_return, self._on_data, req)

    def _on_data(self, req: Request) -> None:
        now = self._sim.now
        lines = req.lines
        self._lat_read.record(now - req.t_alloc, lines)
        if req.tag:  # store: the RFO completed, hand off the writeback
            self._begin_writeback(req, now)
            return
        req.t_free = now
        self.lfb.free_held(now, req.t_alloc, lines)
        self.reads_completed += lines
        self._lat_lfb.record(now - req.t_alloc, lines)
        if lines == 1:
            self.workload.on_complete(now, was_store=False)
        else:
            for _ in range(lines):
                self.workload.on_complete(now, was_store=False)
        # Last stop of a load's lifecycle: no component references it.
        release_request(req)
        self._try_issue()

    def _begin_writeback(self, read_req: Request, now: float) -> None:
        wb = acquire_request(
            RequestSource.C2M,
            RequestKind.WRITE,
            read_req.line_addr,
            requester_id=self.core_id,
            traffic_class=read_req.traffic_class,
        )
        wb.t_alloc = now
        wb.tag = read_req
        wb.lines = read_req.lines
        self._mc.assign(wb)
        wb.on_cha_admit = self._on_writeback_admitted
        self._sim.schedule(self.t_core_to_cha, self._cha_admission, wb)

    def _on_writeback_admitted(self, wb: Request) -> None:
        """CHA admitted the writeback: the C2M-Write domain ends here
        (writes are asynchronous past the CHA, §3)."""
        now = self._sim.now
        lines = wb.lines
        read_req: Request = wb.tag
        self._lat_write.record(now - wb.t_alloc, lines)
        self._lat_lfb.record(now - read_req.t_alloc, lines)
        read_req.t_free = now
        self.lfb.free_held(now, read_req.t_alloc, lines)
        self.stores_completed += lines
        if lines == 1:
            self.workload.on_complete(now, was_store=True)
        else:
            for _ in range(lines):
                self.workload.on_complete(now, was_store=True)
        # The RFO read's lifecycle ends here; the writeback itself
        # continues (WPQ or LLC absorption) and is released there.
        wb.tag = None
        release_request(read_req)
        self._try_issue()

    # ------------------------------------------------------------------

    def reset_stats(self, now: float) -> None:
        """Start a fresh measurement window (core + workload)."""
        self.reads_completed = 0
        self.stores_completed = 0
        self.workload.reset_stats(now)
