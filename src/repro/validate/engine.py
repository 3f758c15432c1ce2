"""Engine-level probes: a checking simulator and a dispatch self-test.

:class:`ValidatingSimulator` is a drop-in :class:`~repro.sim.engine.Simulator`
that checks each pending bucket just before it fires:

* the clock is monotone (a bucket's instant never precedes ``now``);
* the heap and the buckets agree (the instant owns a non-empty bucket);
* every bucket entry is well-formed — an ``(fn, args)`` pair for the
  fast path, or an :class:`~repro.sim.engine.Event` for the
  cancellable path with its ``time`` agreeing with the bucket's
  instant.

It then hands just that bucket to the production dispatch loop,
:meth:`Simulator._drain <repro.sim.engine.Simulator._drain>`, so a
validated run fires every event from the loop an unchecked run uses,
and dispatch order, ``events_processed`` and the clock trajectory are
bit-identical to the base class by construction.

:func:`verify_heap` checks the heap ordering property over the pending
instants, the heap/bucket synchronisation and the live-pending counter
(O(n), so it runs at window boundaries, not per event).

:func:`dispatch_equivalence_selftest` replays one scripted workload
through the fast path and the cancellable path and demands identical
execution order — the two entry shapes are an optimization, not a
semantic fork.
"""

from __future__ import annotations

import math

from repro.sim.engine import _INF, _NO_LIMIT, Event, Simulator
from repro.validate.invariants import InvariantViolation


def _check_entry(time: float, entry) -> None:
    """Raise unless ``entry`` is a well-formed entry of the bucket at
    ``time``."""
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
    elif cls is not Event:
        raise InvariantViolation(
            "engine",
            "heap-entry-shape",
            f"bucket entry of unrecognised shape: {entry!r}",
        )
    elif entry.time != time:
        raise InvariantViolation(
            "engine",
            "heap-entry-shape",
            "Event wrapper disagrees with its bucket instant",
            details={"bucket": time, "event": entry.time},
        )


class ValidatingSimulator(Simulator):
    """Simulator with per-bucket invariant checks (REPRO_VALIDATE=1)."""

    __slots__ = ()

    def verify_heap(self) -> int:
        """Check the pending set's structure (see :func:`verify_heap`)."""
        return verify_heap(self)

    def _drain(self, t_end: float, limit: int = _NO_LIMIT) -> int:
        """Check each due bucket, then dispatch it through the base loop.

        The base loop is handed ``t_end`` just past the bucket's
        instant, so nothing at a later instant fires, and a budget of
        the bucket's ``(fn, args)`` entries (at least one): each of
        them is sure to fire. An :class:`Event` may be cancelled by an
        earlier entry, and a cancelled Event does not count against the
        budget, so counting Events could let the base loop run on into
        a fresh same-instant bucket that has not been checked. Entries
        a callback files at the current instant, and any part of the
        bucket the budget did not reach, are checked on the next pass.
        """
        heap = self._heap
        buckets = self._buckets
        drain = Simulator._drain
        executed = 0
        while heap and heap[0] < t_end and executed < limit:
            time = heap[0]
            if time < self.now:
                raise InvariantViolation(
                    "engine",
                    "clock-monotonicity",
                    f"event at t={time} surfaced after now={self.now}",
                )
            bucket = buckets.get(time)
            if not bucket:  # missing, or an empty list
                raise InvariantViolation(
                    "engine",
                    "heap-bucket-sync",
                    f"pending instant t={time} has no bucket",
                )
            if bucket.__class__ is list:
                share = 0
                for entry in bucket:
                    _check_entry(time, entry)
                    share += entry.__class__ is tuple
                if share > limit - executed:
                    share = limit - executed
            else:
                _check_entry(time, bucket)
                share = 1
            executed += drain(self, math.nextafter(time, _INF), share or 1)
        return executed


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
    cancelled residue). O(n) over the pending set, so call it at
    window boundaries.
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
        _check_entry(time, entry)
        total += 1
        if entry.__class__ is not Event or not entry.cancelled:
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
    """Fast-path and cancellable-path dispatch must agree.

    Runs the same scripted workload through ``schedule`` and through
    ``schedule_cancellable`` (with one cancelled straggler) and raises
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
