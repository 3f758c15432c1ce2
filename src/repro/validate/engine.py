"""Engine-level probes: a checking simulator and a dispatch self-test.

:class:`ValidatingSimulator` is a drop-in :class:`~repro.sim.engine.Simulator`
whose dispatch loop verifies, per event, that

* the clock is monotone (a bucket's instant never precedes ``now``);
* every bucket entry is well-formed — an ``(fn, args)`` pair for the
  fast path, an :class:`~repro.sim.engine.Event` for the cancellable
  path (its ``time`` agreeing with the bucket's instant), or a chain
  payload for a ``schedule_many`` train with its cursor in range;

and whose :meth:`verify_heap` checks the heap ordering property over
the pending instants, the heap/bucket synchronisation (every pending
instant appears in the heap exactly once and owns a non-empty bucket)
and the live-pending counter (O(n), so it runs at window boundaries,
not per event). Dispatch order, ``events_processed`` and the clock
trajectory are bit-identical to the base class: validation must never
change what it validates.

:func:`dispatch_equivalence_selftest` replays one scripted workload
through the fast path, the cancellable path and the bulk
(``schedule_many``) path and demands identical execution order — the
bucket representations are an optimization, not a semantic fork.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.sim.engine import Event, Simulator, _Chain
from repro.validate.invariants import InvariantViolation


def _check_shape(entry) -> None:
    """Raise unless ``entry`` is a well-formed bucket entry."""
    cls = entry.__class__
    if cls is tuple:
        if (
            len(entry) != 2
            or not callable(entry[0])
            or not isinstance(entry[1], tuple)
        ):
            raise InvariantViolation(
                "engine",
                "heap-entry-shape",
                f"malformed fast-path entry {entry!r}",
            )
    elif cls is _Chain:
        if not 0 <= entry.idx <= len(entry.argslist):
            raise InvariantViolation(
                "engine",
                "heap-entry-shape",
                "chain cursor out of range",
                details={
                    "idx": entry.idx,
                    "members": len(entry.argslist),
                },
            )
    elif cls is not Event:
        raise InvariantViolation(
            "engine",
            "heap-entry-shape",
            f"bucket entry of unrecognised shape: {entry!r}",
        )


class ValidatingSimulator(Simulator):
    """Simulator with per-event invariant checks (REPRO_VALIDATE=1)."""

    __slots__ = ()

    def _check_entry(self, time: float, entry) -> None:
        _check_shape(entry)
        if entry.__class__ is Event and entry.time != time:
            raise InvariantViolation(
                "engine",
                "heap-entry-shape",
                "Event wrapper disagrees with its bucket instant",
                details={"bucket": time, "event": entry.time},
            )

    def _check_instant(self, time: float) -> None:
        if time < self.now:
            raise InvariantViolation(
                "engine",
                "clock-monotonicity",
                f"event at t={time} surfaced after now={self.now}",
            )

    def _pop_bucket(self, time: float):
        bucket = self._buckets.pop(time, None)
        if bucket is None:
            raise InvariantViolation(
                "engine",
                "heap-bucket-sync",
                f"pending instant t={time} has no bucket",
            )
        return bucket

    def verify_heap(self) -> int:
        """Check the pending set's structure (see :func:`verify_heap`)."""
        return verify_heap(self)

    # The dispatch cores mirror Simulator._drain / _drain_limited
    # exactly — same coalescing, same counters — plus the per-entry
    # checks.

    def _drain(self, t_end: float) -> int:
        heap = self._heap
        pop = heappop
        processed = self._events_processed
        start = processed
        while heap and heap[0] < t_end:
            time = pop(heap)
            self._check_instant(time)
            self.now = time
            bucket = self._pop_bucket(time)
            if bucket.__class__ is not list:
                bucket = (bucket,)
            for entry in bucket:
                self._check_entry(time, entry)
                cls = entry.__class__
                if cls is tuple:
                    processed += 1
                    entry[0](*entry[1])
                elif cls is Event:
                    if entry.cancelled:
                        self._cancelled -= 1
                        continue
                    entry._sim = None
                    processed += 1
                    entry.fn(*entry.args)
                else:
                    chain_fn = entry.fn
                    argslist = entry.argslist
                    i = entry.idx
                    n = len(argslist)
                    while i < n:
                        args = argslist[i]
                        i += 1
                        processed += 1
                        chain_fn(*args)
                    entry.idx = n
        self._events_processed = processed
        return processed - start

    def _drain_limited(self, t_end: float, limit: int) -> int:
        heap = self._heap
        buckets = self._buckets
        processed = self._events_processed
        start = processed
        limit += processed
        while heap and heap[0] < t_end and processed < limit:
            time = heappop(heap)
            self._check_instant(time)
            self.now = time
            bucket = self._pop_bucket(time)
            if bucket.__class__ is not list:
                bucket = [bucket]
            i = 0
            n_entries = len(bucket)
            while i < n_entries:
                if processed >= limit:
                    break
                entry = bucket[i]
                self._check_entry(time, entry)
                cls = entry.__class__
                if cls is tuple:
                    i += 1
                    processed += 1
                    entry[0](*entry[1])
                elif cls is Event:
                    i += 1
                    if entry.cancelled:
                        self._cancelled -= 1
                        continue
                    entry._sim = None
                    processed += 1
                    entry.fn(*entry.args)
                else:
                    chain_fn = entry.fn
                    argslist = entry.argslist
                    j = entry.idx
                    n = len(argslist)
                    while j < n and processed < limit:
                        args = argslist[j]
                        j += 1
                        processed += 1
                        chain_fn(*args)
                    entry.idx = j
                    if j < n:
                        break
                    i += 1
            if i < n_entries:
                rest = bucket[i:]
                tail = buckets.get(time)
                if tail is None:
                    heappush(heap, time)
                elif tail.__class__ is list:
                    rest.extend(tail)
                else:
                    rest.append(tail)
                buckets[time] = rest
                break
        self._events_processed = processed
        return processed - start


def verify_heap(sim: Simulator) -> int:
    """Check the pending set's structure over every scheduled entry.

    Works on any :class:`Simulator` (not only the validating
    subclass). Verifies

    * the heap ordering property over the pending instants (a
      violation would mean events could fire out of timestamp order);
    * heap/bucket synchronisation: each pending instant appears in the
      heap exactly once and owns a non-empty, well-formed bucket;
    * the live-pending counter against a bucket walk — a disagreement
      would mean a cancellation was double-counted or lost.

    Returns the number of scheduled events verified (including
    cancelled residue and undispatched chain members). O(n) over the
    pending set, so call it at window boundaries.
    """
    heap = sim._heap
    buckets = sim._buckets
    n = len(heap)
    for parent in range(n):
        time = heap[parent]
        for child in (2 * parent + 1, 2 * parent + 2):
            if child < n and heap[child] < time:
                raise InvariantViolation(
                    "engine",
                    "heap-order",
                    f"heap property violated at index {parent}",
                    details={"parent": time, "child": heap[child]},
                )
    instants = sim.pending_instants()
    n = len(instants)
    if n != len(buckets) or len(set(instants)) != n or set(instants) != set(buckets):
        raise InvariantViolation(
            "engine",
            "heap-bucket-sync",
            "pending instants in the heap disagree with the buckets",
            details={"index": n, "buckets": len(buckets)},
        )
    for time, bucket in buckets.items():
        if bucket.__class__ is list and not bucket:
            raise InvariantViolation(
                "engine",
                "heap-bucket-sync",
                f"pending instant t={time} owns an empty bucket",
            )
    total = 0
    live = 0
    for time, entry in sim.pending_entries():
        _check_shape(entry)
        cls = entry.__class__
        if cls is Event:
            total += 1
            if entry.time != time:
                raise InvariantViolation(
                    "engine",
                    "heap-entry-shape",
                    "Event wrapper disagrees with its bucket instant",
                    details={"bucket": time, "event": entry.time},
                )
            if not entry.cancelled:
                live += 1
        elif cls is _Chain:
            members = len(entry.argslist) - entry.idx
            total += members
            live += members
        else:
            total += 1
            live += 1
    if live != sim.pending_live:
        raise InvariantViolation(
            "engine",
            "live-pending",
            "live-pending counter disagrees with a bucket walk",
            details={"counter": sim.pending_live, "walk": live},
        )
    return total


#: scripted delays for the dispatch self-test: repeats, zero gaps and
#: out-of-order submission exercise the (time, submission) total order.
_SELFTEST_DELAYS = (5.0, 1.0, 1.0, 3.0, 0.0, 9.0, 3.0, 1.0, 7.0, 0.0, 2.0, 5.0)


def dispatch_equivalence_selftest() -> None:
    """Fast-path, cancellable-path and bulk dispatch must agree.

    Runs the same scripted workload through ``schedule``, through
    ``schedule_cancellable`` (with one cancelled straggler) and
    through ``schedule_many`` (members grouped by delay) and raises
    :class:`InvariantViolation` if execution order or the
    processed-event count diverge. Cheap (a few dozen events); the
    validator runs it once per host.
    """
    fast = Simulator()
    fast_order: list = []
    for i, delay in enumerate(_SELFTEST_DELAYS):
        fast.schedule(delay, fast_order.append, i)
    fast.run_until(100.0)

    slow = Simulator()
    slow_order: list = []
    for i, delay in enumerate(_SELFTEST_DELAYS):
        slow.schedule_cancellable(delay, slow_order.append, i)
    straggler = slow.schedule_cancellable(4.0, slow_order.append, "cancelled")
    straggler.cancel()
    slow.run_until(100.0)

    if fast_order != slow_order:
        raise InvariantViolation(
            "engine",
            "dispatch-equivalence",
            "fast-path and cancellable-path execution orders diverge",
            details={"fast": fast_order, "cancellable": slow_order},
        )
    if fast.events_processed != slow.events_processed:
        raise InvariantViolation(
            "engine",
            "dispatch-equivalence",
            "processed-event counts diverge between dispatch paths",
            details={
                "fast": fast.events_processed,
                "cancellable": slow.events_processed,
            },
        )

    # Bulk path: same instants, one schedule_many train per delay
    # value. Equivalent per-member schedule() calls would interleave
    # trains by submission order, so submit in that order too.
    bulk = Simulator()
    bulk_order: list = []
    for delay in sorted(set(_SELFTEST_DELAYS)):
        members = [
            (i,) for i, d in enumerate(_SELFTEST_DELAYS) if d == delay
        ]
        bulk.schedule_many(delay, bulk_order.append, members)
    bulk.run_until(100.0)
    if sorted(bulk_order) != sorted(fast_order) or len(bulk_order) != len(
        fast_order
    ):
        raise InvariantViolation(
            "engine",
            "dispatch-equivalence",
            "bulk-path dispatch lost or duplicated members",
            details={"fast": fast_order, "bulk": bulk_order},
        )
    by_time: dict = {}
    for i, delay in enumerate(_SELFTEST_DELAYS):
        by_time.setdefault(delay, []).append(i)
    expected = [i for delay in sorted(by_time) for i in by_time[delay]]
    if bulk_order != expected:
        raise InvariantViolation(
            "engine",
            "dispatch-equivalence",
            "bulk-path execution order diverges from per-member order",
            details={"expected": expected, "bulk": bulk_order},
        )
