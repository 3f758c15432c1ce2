"""Generic DMA engine behind a PCIe link.

A :class:`DmaDevice` drives the P2M datapaths of §3:

* DMA **writes** (storage reads / NIC receive): the device allocates an
  IIO write-buffer entry (PCIe credit) at initiation, serializes the
  cacheline upstream, and the credit is replenished at WPQ admission —
  posted semantics, the P2M-Write domain.
* DMA **reads** (storage writes / NIC transmit): non-posted; the IIO
  read-buffer entry is held until data returns from DRAM and the
  completion is issued back over the link — the P2M-Read domain.

The device paces itself at ``device_rate`` (its internal media/engine
speed), independent of the link bandwidth; both limits apply.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.controller import MemoryController
from repro.dram.region import Region
from repro.pcie.link import PcieLink
from repro.sim.engine import Simulator
from repro.sim.records import (
    CACHELINE_BYTES,
    Request,
    RequestKind,
    RequestSource,
    acquire_request,
    release_request,
)
from repro.telemetry.counters import CounterHub
from repro.uncore.iio import IIO
from repro.uncore.kernel import uncore_enabled

_INF = float("inf")


class DmaWorkload:
    """Protocol for device-side demand (subclassed by NVMe/NIC models)."""

    #: capability hints: a workload that can *never* produce demand in
    #: one direction sets the flag False so the device skips that
    #: direction's pump loop entirely (an empty-handed pump pass reads
    #: no mutable state, so skipping it is observationally identical).
    emits_writes = True
    emits_reads = True

    def next_write(self, now: float) -> Optional[int]:
        """Next line address to DMA-write, or None if none pending."""
        return None

    def next_read(self, now: float) -> Optional[int]:
        """Next line address to DMA-read, or None if none pending."""
        return None

    def wake_time(self, now: float) -> Optional[float]:
        """Absolute retry time after both ``next_*`` returned None."""
        return None

    def on_write_posted(self, line_addr: int, now: float) -> None:
        """The DMA write was admitted to the WPQ (or served by DDIO)."""

    def on_read_data(self, line_addr: int, now: float) -> None:
        """Read-completion data arrived back at the device."""

    def reset_stats(self, now: float) -> None:
        """Start a fresh measurement window."""


class SequentialDmaWorkload(DmaWorkload):
    """Infinite sequential DMA over a ring buffer — the paper's
    P2M-Write / P2M-Read microbenchmark traffic (§2.2)."""

    def __init__(self, region: Region, kind: RequestKind):
        self.region = region
        self.kind = kind
        self.emits_writes = kind is RequestKind.WRITE
        self.emits_reads = kind is RequestKind.READ
        self._pos = 0
        self.lines_done = 0

    def _next(self) -> int:
        addr = self.region.line(self._pos)
        self._pos += 1
        if self._pos >= self.region.n_lines:
            self._pos = 0
        return addr

    def next_write(self, now: float) -> Optional[int]:
        if self.kind is not RequestKind.WRITE:
            return None
        return self._next()

    def next_read(self, now: float) -> Optional[int]:
        if self.kind is not RequestKind.READ:
            return None
        return self._next()

    def on_write_posted(self, line_addr: int, now: float) -> None:
        self.lines_done += 1

    def on_read_data(self, line_addr: int, now: float) -> None:
        self.lines_done += 1

    def reset_stats(self, now: float) -> None:
        self.lines_done = 0


class DmaDevice:
    """DMA engine: paces line transfers through credits and the link."""

    def __init__(
        self,
        sim: Simulator,
        hub: CounterHub,
        iio: IIO,
        link: PcieLink,
        mc: MemoryController,
        workload: DmaWorkload,
        device_rate: Optional[float] = None,
        t_host_return: float = 55.0,
        traffic_class: str = "p2m",
        burst: int = 1,
    ):
        self._sim = sim
        self._hub = hub
        self._iio = iio
        self._link = link
        self._mc = mc
        self.workload = workload
        self.device_rate = device_rate
        self.t_host_return = t_host_return
        self.traffic_class = traffic_class
        # Macro-event burst factor (REPRO_BURST): lines per DMA
        # macro-request. Clamped so a burst can always obtain credits.
        self.burst = max(
            1, min(burst, iio.write_entries, iio.read_entries)
        )
        # Batched train credits (REPRO_UNCORE): one weighted IIO pool
        # transaction per gathered train instead of one per channel
        # group. Bit-identical — same-instant acquires commute — but
        # cuts the per-group pool traffic. Evaluated unconditionally so
        # an invalid knob value raises at construction.
        self._batch_credits = uncore_enabled() and self.burst > 1
        self._next_write_slot = 0.0
        self._next_read_slot = 0.0
        self._pump_event = None
        self.writes_posted = 0
        self.reads_completed = 0
        # One-shot credit waiters: when a pump blocks on credits, it
        # registers once on the pool it needs; the flags dedupe so a
        # device sits in each FIFO at most once.
        self._waiting_write_credit = False
        self._waiting_read_credit = False

    def start(self) -> None:
        """Begin pumping DMA at the current simulation time."""
        self._pump_now()

    # ------------------------------------------------------------------
    # Pumping
    # ------------------------------------------------------------------

    def _pump_now(self) -> None:
        self._pump()

    def _schedule_pump(self, at: float) -> None:
        at = max(at, self._sim.now)
        event = self._pump_event
        if event is not None and not event.cancelled and event.time <= at:
            return
        if event is not None:
            event.cancel()
        self._pump_event = self._sim.schedule_at_cancellable(at, self._on_pump_event)

    def _on_pump_event(self) -> None:
        self._pump_event = None
        self._pump()

    def _pump(self) -> None:
        workload = self.workload
        next_at = self._pump_writes() if workload.emits_writes else _INF
        if workload.emits_reads:
            at_read = self._pump_reads()
            if at_read < next_at:
                next_at = at_read
        if next_at != _INF:
            self._schedule_pump(next_at)

    def _pace(self) -> float:
        if self.device_rate is None:
            return 0.0
        return CACHELINE_BYTES / self.device_rate

    def _wait_for_credit(self, kind: RequestKind) -> None:
        """Register (once) as a FIFO one-shot waiter on a pool."""
        if kind is RequestKind.WRITE:
            if not self._waiting_write_credit:
                self._waiting_write_credit = True
                self._iio.write_pool.add_waiter(self._on_write_credit)
        else:
            if not self._waiting_read_credit:
                self._waiting_read_credit = True
                self._iio.read_pool.add_waiter(self._on_read_credit)

    def _on_write_credit(self) -> None:
        self._waiting_write_credit = False
        self._pump()

    def _on_read_credit(self) -> None:
        self._waiting_read_credit = False
        self._pump()

    def _pump_writes(self) -> float:
        """Send pending DMA writes; returns the next retry time."""
        now = self._sim.now
        burst = self.burst
        while True:
            if not self._iio.has_credit(RequestKind.WRITE, burst):
                self._wait_for_credit(RequestKind.WRITE)
                return float("inf")  # the pool waiter re-pumps
            start = max(now, self._next_write_slot, self._link.upstream_next_free())
            if start > now:
                return start
            addr = self.workload.next_write(now)
            if addr is None:
                wake = self.workload.wake_time(now)
                return wake if wake is not None else float("inf")
            if burst == 1:
                req = acquire_request(
                    RequestSource.P2M,
                    RequestKind.WRITE,
                    addr,
                    traffic_class=self.traffic_class,
                )
                self._iio.alloc(req)
                self._mc.assign(req)
                req.on_complete = self._on_write_posted
                arrival = self._link.send_upstream(CACHELINE_BYTES)
                self._next_write_slot = start + self._pace()
                self._sim.schedule_at(arrival, self._iio.on_dma_arrival, req)
                continue
            total = 0
            batch = self._batch_credits
            for group in self._gather_burst(addr, self.workload.next_write, now):
                req = acquire_request(
                    RequestSource.P2M,
                    RequestKind.WRITE,
                    group[0],
                    traffic_class=self.traffic_class,
                )
                lines = len(group)
                if lines > 1:
                    req.lines = lines
                    req.tag = group
                total += lines
                if batch:
                    req.t_alloc = now
                else:
                    self._iio.alloc(req)
                self._mc.assign(req)
                req.on_complete = self._on_write_posted
                arrival = self._link.send_upstream(CACHELINE_BYTES * lines)
                self._sim.schedule_at(arrival, self._iio.on_dma_arrival, req)
            if batch:
                # One weighted pool transaction for the whole train:
                # bit-identical to per-group acquires at one instant.
                self._iio.write_pool.acquire(now, total)
            self._next_write_slot = start + self._pace() * total

    def _pump_reads(self) -> float:
        now = self._sim.now
        burst = self.burst
        while True:
            if not self._iio.has_credit(RequestKind.READ, burst):
                self._wait_for_credit(RequestKind.READ)
                return float("inf")
            start = max(now, self._next_read_slot)
            if start > now:
                return start
            addr = self.workload.next_read(now)
            if addr is None:
                wake = self.workload.wake_time(now)
                return wake if wake is not None else float("inf")
            if burst == 1:
                req = acquire_request(
                    RequestSource.P2M,
                    RequestKind.READ,
                    addr,
                    traffic_class=self.traffic_class,
                )
                self._iio.alloc(req)
                self._mc.assign(req)
                req.on_complete = self._on_read_serviced
                self._next_read_slot = start + self._pace()
                # Read requests are small TLPs: propagation only.
                self._sim.schedule(self._link.t_prop, self._iio.on_dma_arrival, req)
                continue
            total = 0
            batch = self._batch_credits
            for group in self._gather_burst(addr, self.workload.next_read, now):
                req = acquire_request(
                    RequestSource.P2M,
                    RequestKind.READ,
                    group[0],
                    traffic_class=self.traffic_class,
                )
                lines = len(group)
                if lines > 1:
                    req.lines = lines
                    req.tag = group
                total += lines
                if batch:
                    req.t_alloc = now
                else:
                    self._iio.alloc(req)
                self._mc.assign(req)
                req.on_complete = self._on_read_serviced
                self._sim.schedule(self._link.t_prop, self._iio.on_dma_arrival, req)
            if batch:
                self._iio.read_pool.acquire(now, total)
            self._next_read_slot = start + self._pace() * total

    def _gather_burst(self, first: int, next_line, now: float):
        """Collect up to ``self.burst`` pending lines and split them by
        home memory channel: consecutive lines interleave across
        channels, so one single-channel macro-request would collapse
        the channel parallelism the per-line simulation exploits. One
        macro-request per channel group preserves it. Partial bursts
        are fine (the workload ran out of pending lines)."""
        channel_of = self._mc.mapper.channel_of
        groups: dict = {}
        groups.setdefault(channel_of(first), []).append(first)
        for _ in range(self.burst - 1):
            addr = next_line(now)
            if addr is None:
                break
            groups.setdefault(channel_of(addr), []).append(addr)
        return groups.values()

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------

    def _on_write_posted(self, req: Request) -> None:
        now = self._sim.now
        self.writes_posted += req.lines
        # Update workload state before releasing the credit: the release
        # synchronously wakes credit waiters, which must observe the
        # post-completion demand (e.g. the next queued IO).
        if req.lines == 1:
            self.workload.on_write_posted(req.line_addr, now)
        else:
            for addr in req.tag:
                self.workload.on_write_posted(addr, now)
        self._iio.release(req)
        # The waiter queue only holds credit-blocked devices; a device
        # blocked on its own *demand* (e.g. a closed-loop workload at
        # queue depth) is not registered, so re-pump explicitly now
        # that the completion may have produced new demand.
        self._pump()

    def _on_read_serviced(self, req: Request) -> None:
        """Read data left the memory channel; traverse back to the IIO."""
        self._sim.schedule(self.t_host_return, self._on_read_at_iio, req)

    def _on_read_at_iio(self, req: Request) -> None:
        serialized_at, device_arrival = self._link.send_downstream(
            CACHELINE_BYTES * req.lines
        )
        self._sim.schedule_at(serialized_at, self._finish_read_credit, req)
        self._sim.schedule_at(device_arrival, self._finish_read_data, req)

    def _finish_read_credit(self, req: Request) -> None:
        """Completion issued: the non-posted credit is replenished."""
        self._iio.release(req)
        # As in _on_write_posted: demand-blocked (not credit-blocked)
        # senders are not in the waiter queue; re-evaluate explicitly.
        self._pump()

    def _finish_read_data(self, req: Request) -> None:
        now = self._sim.now
        self.reads_completed += req.lines
        if req.lines == 1:
            self.workload.on_read_data(req.line_addr, now)
        else:
            for addr in req.tag:
                self.workload.on_read_data(addr, now)
        # Last stop of a DMA read's lifecycle: the credit was released
        # at completion issue and no component still references it.
        release_request(req)
        self._pump()

    # ------------------------------------------------------------------

    def reset_stats(self, now: float) -> None:
        """Start a fresh measurement window (device + workload)."""
        self.writes_posted = 0
        self.reads_completed = 0
        self.workload.reset_stats(now)
