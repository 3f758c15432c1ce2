"""Struct-of-arrays DRAM channel kernel (``REPRO_KERNEL``).

The per-request :class:`~repro.dram.bank.Bank` /
:class:`~repro.dram.controller.Channel` hot path spends most of its
time chasing Python objects: every pump scans all banks through
attribute walks, every stats update hashes a ``(class, kind, outcome)``
tuple, and every scheduling decision re-derives bank readiness from
object state. :class:`ChannelKernel` replaces that path with flat
per-channel arrays:

* **bank state** — ``open_row`` / ``busy_until`` / ``prep_pending``
  as parallel lists indexed by bank id;
* **queue heads** — per-kind ``head_row`` / ``head_seq`` caches plus
  *open-row match* dicts mapping bank id to head admission seq for
  exactly the banks whose head row is open. Oldest-ready-first picking
  becomes a min over that (small) dict instead of a scan of every
  bank object;
* **row-outcome / ACT / PRE / per-class counters** — flat integer
  lists indexed by interned traffic-class ids, materialized back into
  the dict-shaped :class:`~repro.dram.controller.ChannelStats` only at
  window boundaries (``sync_stats``).

The kernel is an *exact* reimplementation of the reference scheduler,
not an approximation: every simulator event the reference path files
(cancellable pump events, PRE/ACT completions, transmit completions)
is filed at the same instant in the same submission order, every
float accumulation happens in the same order on the same operands, and
``CreditPool`` accounting goes through the same pool objects — so
results are float-identical and the fig03 fingerprint
(``tools/fig03_check.py``) holds with the kernel on or off. The
randomized differential test (``tests/test_dram_kernel.py``) and the
validator probe (:meth:`repro.validate.probes.InvariantProbes
.check_channels`) hold the two paths to that standard.

``REPRO_KERNEL=off`` keeps the historical request-at-a-time reference
path (diagnostic aid: any divergence with the kernel on is a kernel
bug). The hot path is plain lists (at 16-64 banks, numpy scalar
indexing measured slower than list indexing); numpy is imported
lazily, only by the window-level ``bank_state`` snapshot, through
:func:`repro.telemetry.bankstats.load_numpy`.
"""

from __future__ import annotations

import os
from collections import defaultdict, deque
from typing import TYPE_CHECKING

from repro.sim.records import RequestKind, RequestSource, release_request
from repro.telemetry import bankstats

if TYPE_CHECKING:  # pragma: no cover
    from repro.dram.controller import Channel, ChannelStats

#: sentinel for "no head" in the head-row caches; distinct from the
#: "row buffer closed" sentinel (-1) so an empty bank never matches.
_NO_HEAD = -2
_BIG = 1 << 62

_OUTCOMES = ("hit", "miss", "conflict")
_KIND_VALUES = ("read", "write")


def kernel_enabled() -> bool:
    """Whether new channels use the SoA kernel (``REPRO_KERNEL``).

    Defaults to on; ``off``/``0``/``no``/``false`` selects the
    request-at-a-time reference path. Invalid values raise so typos
    don't silently change which scheduler runs.
    """
    raw = os.environ.get("REPRO_KERNEL", "on").strip().lower()
    if raw in ("", "on", "1", "yes", "true"):
        return True
    if raw in ("off", "0", "no", "false"):
        return False
    raise ValueError(f"REPRO_KERNEL must be on/off, got {raw!r}")


class ChannelKernel:
    """Fused SoA scheduler for one memory channel.

    Owns the per-bank FIFOs and all hot counters; the host-facing
    :class:`~repro.dram.controller.Channel` object remains the public
    API (admission, stats, callbacks) and delegates its hot methods
    here when the kernel is enabled.
    """

    __slots__ = (
        "_sim",
        "_channel",
        "channel_id",
        "nb",
        # timing constants (pre-summed in reference float order)
        "t_trans",
        "t_act_cas",
        "t_pre",
        "t_wtr",
        "t_rtw",
        # bank state arrays
        "open_row",
        "busy_until",
        "prep_pending",
        "read_qs",
        "write_qs",
        # per-kind head caches + open-row match dicts
        "head_row_r",
        "head_seq_r",
        "head_row_w",
        "head_seq_w",
        "head_p2m_w",
        "match_r",
        "match_w",
        # channel scheduler state
        "mode_read",
        "ch_busy",
        "served",
        "admit_seq",
        "pump_event",
        # queue-policy constants
        "wpq_hi",
        "wpq_lo",
        "min_write_drain",
        "min_read_batch",
        "p2m_priority",
        # per-bank token-bucket regulation (shared with the channel)
        "bank_reg",
        # pools (shared credit runtime -- accounting stays bit-compatible)
        "rpq_pool",
        "wpq_pool",
        "rpq_occ",
        "wpq_occ",
        # incrementally-maintained queue totals (cachelines)
        "queued_read_lines",
        "queued_write_lines",
        # stats accumulators (flat; synced into ChannelStats on demand)
        "s_lines_read",
        "s_lines_written",
        "s_switches_wtr",
        "s_switches_rtw",
        "s_act_read",
        "s_act_write",
        "s_pre_conflict_read",
        "s_pre_conflict_write",
        "s_busy_read",
        "s_busy_write",
        "s_turnaround",
        # interned traffic classes + flat per-class counters
        "cls_ids",
        "cls_names",
        "cls_lines_read",
        "cls_lines_written",
        "out_counts",
        # bank-load sampler internals (inlined record)
        "sampler",
        "samp_counts",
        "samp_every",
    )

    def __init__(self, channel: "Channel"):
        self._sim = channel._sim
        self._channel = channel
        self.channel_id = channel.channel_id
        nb = len(channel.banks)
        self.nb = nb
        timing = channel.timing
        self.t_trans = timing.t_trans
        # Pre-summed exactly as the reference computes it per prep
        # (t_act + t_cas, then += t_pre on conflict).
        self.t_act_cas = timing.t_act + timing.t_cas
        self.t_pre = timing.t_pre
        self.t_wtr = timing.t_wtr
        self.t_rtw = timing.t_rtw
        self.open_row = [-1] * nb
        self.busy_until = [0.0] * nb
        self.prep_pending = [False] * nb
        self.read_qs = [deque() for _ in range(nb)]
        self.write_qs = [deque() for _ in range(nb)]
        self.head_row_r = [_NO_HEAD] * nb
        self.head_seq_r = [_BIG] * nb
        self.head_row_w = [_NO_HEAD] * nb
        self.head_seq_w = [_BIG] * nb
        self.head_p2m_w = [False] * nb
        self.match_r = {}
        self.match_w = {}
        self.mode_read = True
        self.ch_busy = 0.0
        self.served = 0
        self.admit_seq = 0
        self.pump_event = None
        self.wpq_hi = channel.wpq_hi
        self.wpq_lo = channel.wpq_lo
        self.min_write_drain = channel.min_write_drain
        self.min_read_batch = channel.min_read_batch
        self.p2m_priority = channel.p2m_write_priority
        # Same BankRegulator instance as the channel: ready/next_ready
        # are pure and consume happens in the identical transmit
        # sequence in both paths, so sharing state cannot diverge them.
        self.bank_reg = channel.bank_reg
        self.rpq_pool = channel.rpq_pool
        self.wpq_pool = channel.wpq_pool
        self.rpq_occ = channel.rpq_pool.occ
        self.wpq_occ = channel.wpq_pool.occ
        self.queued_read_lines = 0
        self.queued_write_lines = 0
        self.cls_ids = {}
        self.cls_names = []
        self.cls_lines_read = []
        self.cls_lines_written = []
        self.out_counts = []
        self.sampler = channel.bank_sampler
        self.samp_counts = channel.bank_sampler.counts
        self.samp_every = channel.bank_sampler.sample_every
        self._zero_stats()

    # ------------------------------------------------------------------
    # Traffic-class interning
    # ------------------------------------------------------------------

    def _intern(self, traffic_class: str) -> int:
        cid = len(self.cls_names)
        self.cls_ids[traffic_class] = cid
        self.cls_names.append(traffic_class)
        self.cls_lines_read.append(0)
        self.cls_lines_written.append(0)
        self.out_counts.extend((0, 0, 0, 0, 0, 0))
        return cid

    # ------------------------------------------------------------------
    # Admission (fused Channel.enqueue_* + Bank.enqueue + prep start)
    # ------------------------------------------------------------------

    def enqueue_read(self, req) -> None:
        sim = self._sim
        now = sim.now
        lines = req.lines
        # CreditPool.commit, inlined — pinned to the canonical method
        # by tests/test_credit.py::TestInlinedFastPaths.
        pool = self.rpq_pool
        pool.reserved -= lines
        pool.alloc_count += lines
        pool._occ_update(now, lines)
        self.admit_seq = seq = self.admit_seq + 1
        req.queue_seq = seq
        req.t_queue_admit = now
        cid = self.cls_ids.get(req.traffic_class)
        if cid is None:
            cid = self._intern(req.traffic_class)
        req.cls_id = cid
        b = req.bank_id
        q = self.read_qs[b]
        q.append(req)
        self.queued_read_lines += lines
        if len(q) == 1:
            row = req.row_id
            self.head_row_r[b] = row
            self.head_seq_r[b] = seq
            if row == self.open_row[b]:
                self.match_r[b] = seq
        if not self.prep_pending[b]:
            self._maybe_prep(b, now)
        self._schedule_pump(now)

    def enqueue_write(self, req) -> None:
        sim = self._sim
        now = sim.now
        lines = req.lines
        # CreditPool.commit, inlined — pinned to the canonical method
        # by tests/test_credit.py::TestInlinedFastPaths.
        pool = self.wpq_pool
        pool.reserved -= lines
        pool.alloc_count += lines
        pool._occ_update(now, lines)
        self._track_wpq_full(now)
        self.admit_seq = seq = self.admit_seq + 1
        req.queue_seq = seq
        req.t_queue_admit = now
        cid = self.cls_ids.get(req.traffic_class)
        if cid is None:
            cid = self._intern(req.traffic_class)
        req.cls_id = cid
        b = req.bank_id
        q = self.write_qs[b]
        q.append(req)
        self.queued_write_lines += lines
        if len(q) == 1:
            row = req.row_id
            self.head_row_w[b] = row
            self.head_seq_w[b] = seq
            if self.p2m_priority:
                self.head_p2m_w[b] = req.source is RequestSource.P2M
            if row == self.open_row[b]:
                self.match_w[b] = seq
        if not self.prep_pending[b]:
            self._maybe_prep(b, now)
        cb = req.on_complete
        if cb is not None:
            cb(req)
        self._schedule_pump(now)

    # ------------------------------------------------------------------
    # Bank preparation (fused Bank.maybe_start_prep / _on_prep_done)
    # ------------------------------------------------------------------

    def _maybe_prep(self, b: int, now: float) -> None:
        """Mirror of ``Bank.maybe_start_prep`` over the flat arrays."""
        if self.prep_pending[b]:
            return
        if now < self.busy_until[b]:
            return
        q = self.read_qs[b] if self.mode_read else self.write_qs[b]
        if not q:
            return
        head = q[0]
        row = head.row_id
        orow = self.open_row[b]
        if orow == row:
            if head.row_outcome is None:
                head.row_outcome = "hit"
                base = head.cls_id * 6 + (
                    0 if head.kind is RequestKind.READ else 3
                )
                oc = self.out_counts
                oc[base] += 1
                hl = head.lines
                if hl > 1:
                    oc[base] += hl - 1
            self._schedule_pump(now)
            return
        cost = self.t_act_cas
        conflict = orow != -1
        if conflict:
            cost += self.t_pre
        read = head.kind is RequestKind.READ
        if head.row_outcome is None:
            head.row_outcome = "conflict" if conflict else "miss"
            base = head.cls_id * 6 + (0 if read else 3)
            oc = self.out_counts
            oc[base + (2 if conflict else 1)] += 1
            hl = head.lines
            if hl > 1:
                oc[base] += hl - 1
        if read:
            self.s_act_read += 1
            if conflict:
                self.s_pre_conflict_read += 1
        else:
            self.s_act_write += 1
            if conflict:
                self.s_pre_conflict_write += 1
        self.prep_pending[b] = True
        self.busy_until[b] = now + cost
        self._sim.schedule(cost, self._on_prep_done, b, row)

    def _on_prep_done(self, b: int, row: int) -> None:
        self.prep_pending[b] = False
        self.open_row[b] = row
        # The open row changed: refresh both kinds' open-row match sets.
        if self.head_row_r[b] == row:
            self.match_r[b] = self.head_seq_r[b]
        else:
            self.match_r.pop(b, None)
        if self.head_row_w[b] == row:
            self.match_w[b] = self.head_seq_w[b]
        else:
            self.match_w.pop(b, None)
        now = self._sim.now
        q = self.read_qs[b] if self.mode_read else self.write_qs[b]
        if q and q[0].row_id == row:
            head = q[0]
            if head.row_outcome is None:
                head.row_outcome = "hit"
                base = head.cls_id * 6 + (
                    0 if head.kind is RequestKind.READ else 3
                )
                oc = self.out_counts
                oc[base] += 1
                hl = head.lines
                if hl > 1:
                    oc[base] += hl - 1
            self._schedule_pump(now)
        else:
            self._maybe_prep(b, now)

    # ------------------------------------------------------------------
    # Scheduler (fused Channel._pump/_pick_ready/_transmit)
    # ------------------------------------------------------------------

    def _schedule_pump(self, at: float) -> None:
        busy = self.ch_busy
        if busy > at:
            at = busy
        event = self.pump_event
        if event is not None and not event.cancelled and event.time <= at:
            return
        if event is not None:
            event.cancel()
        self.pump_event = self._sim.schedule_at_cancellable(at, self.pump)

    def pump(self) -> None:
        self.pump_event = None
        sim = self._sim
        now = sim.now
        if now < self.ch_busy:
            self._schedule_pump(self.ch_busy)
            return
        if self.mode_read:
            if self.rpq_occ.value == 0:
                if self.wpq_occ.value > 0:
                    self._switch_mode(False, now)
                return
            if (
                self.wpq_occ.value >= self.wpq_hi
                and self.served >= self.min_read_batch
            ):
                self._switch_mode(False, now)
                return
            # Oldest ready read: min admission seq over open-row banks.
            busy = self.busy_until
            best_b = -1
            best_seq = _BIG
            reg = self.bank_reg
            if reg is None:
                for b, seq in self.match_r.items():
                    if seq < best_seq and now >= busy[b]:
                        best_seq = seq
                        best_b = b
            else:
                qs = self.read_qs
                retry = -1.0
                for b, seq in self.match_r.items():
                    if now >= busy[b]:
                        lines = qs[b][0].lines
                        if not reg.ready(b, now, lines):
                            t = reg.next_ready(b, now, lines)
                            if retry < 0.0 or t < retry:
                                retry = t
                            continue
                        if seq < best_seq:
                            best_seq = seq
                            best_b = b
                if best_b < 0 and retry >= 0.0:
                    # Every otherwise-ready bank is token-blocked;
                    # re-arm the pump at the earliest bucket refill.
                    self._schedule_pump(retry)
                    return
            if best_b < 0:
                return  # head banks are preparing; completions re-pump
            self._transmit_read(best_b, now)
        else:
            if self.wpq_occ.value == 0:
                if self.rpq_occ.value > 0:
                    self._switch_mode(True, now)
                return
            if self.rpq_occ.value > 0 and (
                self.wpq_occ.value <= self.wpq_lo
                or self.served >= self.min_write_drain
            ):
                self._switch_mode(True, now)
                return
            busy = self.busy_until
            best_b = -1
            best_seq = _BIG
            reg = self.bank_reg
            retry = -1.0
            if self.p2m_priority:
                p2m = self.head_p2m_w
                p2m_b = -1
                p2m_seq = _BIG
                qs = self.write_qs
                for b, seq in self.match_w.items():
                    if now >= busy[b]:
                        if reg is not None:
                            lines = qs[b][0].lines
                            if not reg.ready(b, now, lines):
                                t = reg.next_ready(b, now, lines)
                                if retry < 0.0 or t < retry:
                                    retry = t
                                continue
                        if seq < best_seq:
                            best_seq = seq
                            best_b = b
                        if p2m[b] and seq < p2m_seq:
                            p2m_seq = seq
                            p2m_b = b
                if p2m_b >= 0:
                    best_b = p2m_b
            elif reg is None:
                for b, seq in self.match_w.items():
                    if seq < best_seq and now >= busy[b]:
                        best_seq = seq
                        best_b = b
            else:
                qs = self.write_qs
                for b, seq in self.match_w.items():
                    if now >= busy[b]:
                        lines = qs[b][0].lines
                        if not reg.ready(b, now, lines):
                            t = reg.next_ready(b, now, lines)
                            if retry < 0.0 or t < retry:
                                retry = t
                            continue
                        if seq < best_seq:
                            best_seq = seq
                            best_b = b
            if best_b < 0:
                if retry >= 0.0:
                    self._schedule_pump(retry)
                return
            self._transmit_write(best_b, now)

    def _transmit_read(self, b: int, now: float) -> None:
        q = self.read_qs[b]
        req = q.popleft()
        lines = req.lines
        t_trans = self.t_trans
        t_burst = t_trans if lines == 1 else t_trans * lines
        self.ch_busy = now + t_burst
        reg = self.bank_reg
        if reg is not None:
            reg.consume(b, now, lines)
        if req.row_outcome is None:
            # Served with its row already open and no PRE/ACT of its
            # own (opened by a prep for the other direction's head).
            req.row_outcome = "hit"
            base = req.cls_id * 6
            oc = self.out_counts
            oc[base] += 1
            if lines > 1:
                oc[base] += lines - 1
        if q:
            nh = q[0]
            row = nh.row_id
            self.head_row_r[b] = row
            self.head_seq_r[b] = ns = nh.queue_seq
            if row == self.open_row[b]:
                self.match_r[b] = ns
            else:
                del self.match_r[b]
        else:
            self.head_row_r[b] = _NO_HEAD
            self.head_seq_r[b] = _BIG
            del self.match_r[b]
        self.queued_read_lines -= lines
        self.s_lines_read += lines
        self.cls_lines_read[req.cls_id] += lines
        self.s_busy_read += t_burst
        # Bank-load sampling, inlined (BankLoadSampler.record) — pinned
        # by tests/test_credit.py::TestInlinedFastPaths.
        sampler = self.sampler
        self.samp_counts[b] += 1
        seen = sampler.seen + 1
        if seen >= self.samp_every:
            sampler._flush()
        else:
            sampler.seen = seen
        self.served += lines
        self._sim.schedule(t_burst, self._on_transmit_done_read, req, b)

    def _transmit_write(self, b: int, now: float) -> None:
        q = self.write_qs[b]
        req = q.popleft()
        lines = req.lines
        t_trans = self.t_trans
        t_burst = t_trans if lines == 1 else t_trans * lines
        self.ch_busy = now + t_burst
        reg = self.bank_reg
        if reg is not None:
            reg.consume(b, now, lines)
        if req.row_outcome is None:
            req.row_outcome = "hit"
            base = req.cls_id * 6 + 3
            oc = self.out_counts
            oc[base] += 1
            if lines > 1:
                oc[base] += lines - 1
        if q:
            nh = q[0]
            row = nh.row_id
            self.head_row_w[b] = row
            self.head_seq_w[b] = ns = nh.queue_seq
            if self.p2m_priority:
                self.head_p2m_w[b] = nh.source is RequestSource.P2M
            if row == self.open_row[b]:
                self.match_w[b] = ns
            else:
                del self.match_w[b]
        else:
            self.head_row_w[b] = _NO_HEAD
            self.head_seq_w[b] = _BIG
            del self.match_w[b]
        self.queued_write_lines -= lines
        self.s_lines_written += lines
        self.cls_lines_written[req.cls_id] += lines
        self.s_busy_write += t_burst
        self.served += lines
        self._sim.schedule(t_burst, self._on_transmit_done_write, req, b)

    def _on_transmit_done_read(self, req, b: int) -> None:
        sim = self._sim
        now = sim.now
        req.t_service = now
        lines = req.lines
        # CreditPool.release, inlined — pinned to the canonical method
        # by tests/test_credit.py::TestInlinedFastPaths.
        pool = self.rpq_pool
        pool.free_count += lines
        pool._occ_update(now, -lines)
        if pool._waiters:
            pool._drain_waiters()
        cb = req.on_serviced
        if cb is not None:
            cb(req)
        cb = req.on_complete
        if cb is not None:
            cb(req)
        cb = self._channel.on_rpq_space
        if cb is not None:
            cb(self.channel_id)
        if not self.prep_pending[b]:
            self._maybe_prep(b, now)
        self._schedule_pump(now)

    def _on_transmit_done_write(self, req, b: int) -> None:
        sim = self._sim
        now = sim.now
        req.t_service = now
        lines = req.lines
        # CreditPool.release, inlined — pinned to the canonical method
        # by tests/test_credit.py::TestInlinedFastPaths.
        pool = self.wpq_pool
        pool.free_count += lines
        pool._occ_update(now, -lines)
        if pool._waiters:
            pool._drain_waiters()
        self._track_wpq_full(now)
        cb = self._channel.on_wpq_space
        if cb is not None:
            cb(self.channel_id)
        # A write's lifecycle ends here (completion fired at admission).
        release_request(req)
        if not self.prep_pending[b]:
            self._maybe_prep(b, now)
        self._schedule_pump(now)

    def _switch_mode(self, to_read: bool, now: float) -> None:
        self.mode_read = to_read
        channel = self._channel
        if to_read:
            channel.mode = RequestKind.READ
            turnaround = self.t_wtr
            self.s_switches_wtr += 1
        else:
            channel.mode = RequestKind.WRITE
            turnaround = self.t_rtw
            self.s_switches_rtw += 1
        self.s_turnaround += turnaround
        self.ch_busy = until = now + turnaround
        self.served = 0
        # Re-target bank preparation at the new direction's heads; the
        # preparation overlaps the turnaround. Banks with no work, a
        # prep in flight, or (boundary case) a still-busy row buffer
        # are skipped exactly as Bank.maybe_start_prep would.
        prep = self.prep_pending
        qs = self.read_qs if to_read else self.write_qs
        busy = self.busy_until
        for b in range(self.nb):
            if prep[b] or not qs[b] or now < busy[b]:
                continue
            self._maybe_prep(b, now)
        self._schedule_pump(until)

    # ------------------------------------------------------------------
    # WPQ fullness tracking (mirror of Channel._track_wpq_full)
    # ------------------------------------------------------------------

    def _track_wpq_full(self, now: float) -> None:
        pool = self.wpq_pool
        full = pool.occ.value + pool.reserved >= pool.capacity
        channel = self._channel
        since = channel._wpq_full_since
        if full:
            if since is None:
                channel._wpq_full_since = now
        elif since is not None:
            channel._wpq_full_time += now - since
            channel._wpq_full_since = None

    # ------------------------------------------------------------------
    # Window-boundary materialization
    # ------------------------------------------------------------------

    def _zero_stats(self) -> None:
        self.s_lines_read = 0
        self.s_lines_written = 0
        self.s_switches_wtr = 0
        self.s_switches_rtw = 0
        self.s_act_read = 0
        self.s_act_write = 0
        self.s_pre_conflict_read = 0
        self.s_pre_conflict_write = 0
        self.s_busy_read = 0.0
        self.s_busy_write = 0.0
        self.s_turnaround = 0.0
        self.cls_lines_read = [0] * len(self.cls_names)
        self.cls_lines_written = [0] * len(self.cls_names)
        self.out_counts = [0] * (6 * len(self.cls_names))

    def reset_window(self) -> None:
        """Zero the window accumulators (Channel.reset_stats hook)."""
        self._zero_stats()

    def sync_stats(self, stats: "ChannelStats") -> None:
        """Materialize the flat counters into a ChannelStats object.

        Called on (rare) external stats access, never on the hot path.
        The resulting dicts carry exactly the values the reference
        path's per-request defaultdict updates would have produced.
        """
        stats.lines_read = self.s_lines_read
        stats.lines_written = self.s_lines_written
        stats.switches_wtr = self.s_switches_wtr
        stats.switches_rtw = self.s_switches_rtw
        stats.act_read = self.s_act_read
        stats.act_write = self.s_act_write
        stats.pre_conflict_read = self.s_pre_conflict_read
        stats.pre_conflict_write = self.s_pre_conflict_write
        stats.busy_read_time = self.s_busy_read
        stats.busy_write_time = self.s_busy_write
        stats.turnaround_time = self.s_turnaround
        names = self.cls_names
        lines_read = defaultdict(int)
        lines_written = defaultdict(int)
        for cid, total in enumerate(self.cls_lines_read):
            if total:
                lines_read[names[cid]] = total
        for cid, total in enumerate(self.cls_lines_written):
            if total:
                lines_written[names[cid]] = total
        outcomes = defaultdict(int)
        oc = self.out_counts
        for cid, name in enumerate(names):
            base = cid * 6
            for kb, kind_value in enumerate(_KIND_VALUES):
                off = base + 3 * kb
                for oi, outcome in enumerate(_OUTCOMES):
                    total = oc[off + oi]
                    if total:
                        outcomes[(name, kind_value, outcome)] = total
        stats.class_lines_read = lines_read
        stats.class_lines_written = lines_written
        stats.class_row_outcomes = outcomes

    # ------------------------------------------------------------------
    # Introspection (probes, differential tests, debugging)
    # ------------------------------------------------------------------

    def queued_in_banks(self) -> tuple:
        """``(read_lines, write_lines)`` from the incremental counters."""
        return self.queued_read_lines, self.queued_write_lines

    def walk_queued_lines(self) -> tuple:
        """Recount the bank FIFOs directly (validator cross-check)."""
        reads = sum(req.lines for q in self.read_qs for req in q)
        writes = sum(req.lines for q in self.write_qs for req in q)
        return reads, writes

    def bank_state(self):
        """Snapshot ``(open_row, busy_until, prep_pending)`` arrays.

        numpy arrays when numpy is importable, plain lists otherwise —
        through the same loader as :mod:`repro.telemetry.bankstats`.
        """
        np = bankstats.load_numpy()
        if np is None:
            return (
                list(self.open_row),
                list(self.busy_until),
                [bool(p) for p in self.prep_pending],
            )
        return (
            np.asarray(self.open_row, dtype=np.int64),
            np.asarray(self.busy_until, dtype=np.float64),
            np.asarray(self.prep_pending, dtype=np.bool_),
        )

    def verify_consistency(self) -> int:
        """Cross-check the incremental structures against a full walk.

        Returns the number of banks checked; raises ``AssertionError``
        on any divergence (wrapped into an InvariantViolation by the
        validator probe). Checks: the cached queue totals, both head
        caches, and the exact membership of the open-row match dicts.
        """
        reads, writes = self.walk_queued_lines()
        assert reads == self.queued_read_lines, (
            f"queued read lines drifted: cached {self.queued_read_lines}, "
            f"walk {reads}"
        )
        assert writes == self.queued_write_lines, (
            f"queued write lines drifted: cached {self.queued_write_lines}, "
            f"walk {writes}"
        )
        for b in range(self.nb):
            for qs, head_row, head_seq, match in (
                (self.read_qs, self.head_row_r, self.head_seq_r, self.match_r),
                (self.write_qs, self.head_row_w, self.head_seq_w, self.match_w),
            ):
                q = qs[b]
                if q:
                    head = q[0]
                    assert head_row[b] == head.row_id, (
                        f"bank {b}: head row cache {head_row[b]} != "
                        f"{head.row_id}"
                    )
                    assert head_seq[b] == head.queue_seq, (
                        f"bank {b}: head seq cache {head_seq[b]} != "
                        f"{head.queue_seq}"
                    )
                    should_match = head.row_id == self.open_row[b]
                else:
                    assert head_row[b] == _NO_HEAD, (
                        f"bank {b}: stale head cache on empty queue"
                    )
                    should_match = False
                assert (b in match) == should_match, (
                    f"bank {b}: open-row match set disagrees with state "
                    f"(in_set={b in match}, should={should_match})"
                )
                if should_match:
                    assert match[b] == q[0].queue_seq, (
                        f"bank {b}: match seq {match[b]} != head seq"
                    )
        return self.nb
