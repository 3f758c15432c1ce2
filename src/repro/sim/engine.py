"""Bucketed-heap discrete-event simulator.

Time is measured in nanoseconds (floats). The engine guarantees that
events scheduled for the same instant fire in scheduling order, which
keeps component interactions deterministic run-to-run.

The pending set is a two-level structure — the scheduler's *fast
lanes*:

* ``_heap`` is a binary heap of **bare float timestamps**, one per
  distinct pending instant. Heap pushes/pops compare plain floats, and
  the heap only grows when a *new* instant appears.
* ``_buckets`` maps each pending instant to its FIFO bucket of
  entries. Scheduling onto an instant that is already pending is a
  dict hit plus a list append — no heap operation at all, which is
  the common case when many components act at the same timestamp
  or self-rescheduling sources use few distinct delays.

A bucket holds either a single entry (the overwhelmingly common
singleton case pays no list allocation) or a list of entries in
scheduling order. Entries come in two shapes, recognised by class:

* ``(fn, args)`` tuples — the non-cancellable fast path used by
  :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`;
* :class:`Event` wrappers — cancellable handles from
  :meth:`Simulator.schedule_cancellable`, lazily deleted.

Dispatch order is exactly what a ``(time, submission ordinal)`` total
order produces: all entries for an instant live in its bucket from
first schedule until the bucket is dispatched, appends preserve
submission order, and distinct instants are ordered by the heap.
Entries scheduled *for the current instant while it is being
dispatched* open a fresh bucket at the same timestamp, which the drain
loop picks up before the clock moves — again matching submission
order, since every live entry of the old bucket has already fired.
"""

from __future__ import annotations

import math
import sys
from heapq import heappop, heappush
from typing import Any, Callable, Iterator

_INF = float("inf")
#: :meth:`Simulator._drain`'s default budget: more events than any run
#: executes.
_NO_LIMIT = sys.maxsize


class Event:
    """A cancellable scheduled callback.

    Events are returned by :meth:`Simulator.schedule_cancellable` so
    callers can cancel them. A cancelled event stays in its bucket but
    is skipped when it surfaces (lazy deletion, the standard idiom).
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, fn: Callable[..., None], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Owning simulator while the event is pending; cleared at
        # dispatch and at cancellation so the live-pending counter is
        # decremented exactly once per scheduled event.
        self._sim = None

    def cancel(self) -> None:
        """Prevent this event from firing. Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.3f}, {self.fn.__qualname__}, {state})"


class Simulator:
    """A minimal discrete-event simulation kernel.

    Usage::

        sim = Simulator()
        sim.schedule(10.0, callback, arg1, arg2)
        sim.run_until(1_000.0)

    The clock never moves backwards; scheduling an event in the past
    (or at a non-finite time) raises ``ValueError`` to surface
    modelling bugs early.
    """

    __slots__ = ("now", "_heap", "_buckets", "_events_processed", "_cancelled")

    def __init__(self) -> None:
        self.now: float = 0.0
        #: distinct pending instants (bare floats, heap-ordered)
        self._heap: list = []
        #: instant -> entry | list of entries, in scheduling order
        self._buckets: dict = {}
        self._events_processed: int = 0
        # Cancelled (lazily-deleted) events still filed in a bucket:
        # incremented by Event.cancel(), decremented when the dead
        # entry surfaces at dispatch. Keeping the *cancelled* count —
        # rather than a live count bumped on every schedule — keeps
        # the hot scheduling paths counter-free; ``pending_live``
        # derives the live count on demand.
        self._cancelled: int = 0

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still scheduled (including cancelled).

        O(pending) — this walks the buckets; it is a diagnostic, not a
        hot-path counter.
        """
        count = 0
        for bucket in self._buckets.values():
            count += len(bucket) if bucket.__class__ is list else 1
        return count

    def pending_entries(self) -> "Iterator[tuple]":
        """Yield every pending ``(instant, entry)`` pair.

        The canonical observer of scheduler state: entries surface in
        bucket (submission) order within an instant, though instants
        themselves come out in dict order, not time order. Entries
        keep their raw shapes — ``(fn, args)`` tuples and
        :class:`Event` handles (cancelled ones included). Read-only:
        mutating the schedule while iterating is undefined.
        """
        for time, bucket in self._buckets.items():
            if bucket.__class__ is list:
                for entry in bucket:
                    yield time, entry
            else:
                yield time, bucket

    def pending_instants(self) -> list:
        """Every distinct pending instant registered in the heap.

        Unordered; an instant appears exactly once per heap
        registration, so the validation layer can cross-check the heap
        against the buckets.
        """
        return list(self._heap)

    @property
    def pending_live(self) -> int:
        """Number of scheduled events that will actually fire.

        Unlike :attr:`pending` this excludes lazily-deleted (cancelled)
        entries: it drops by one the moment :meth:`Event.cancel`
        happens, not when the dead entry surfaces. The validation
        layer cross-checks the cancellation bookkeeping against a
        bucket walk. O(pending), like :attr:`pending`.
        """
        return self.pending - self._cancelled

    def _file(self, time: float, entry) -> None:
        """Append ``entry`` to the bucket for ``time`` (creating it,
        and registering the instant in the heap, if new)."""
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = entry
            heappush(self._heap, time)
        elif bucket.__class__ is list:
            bucket.append(entry)
        else:
            buckets[time] = [bucket, entry]

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now.

        Fast path: the entry cannot be cancelled and nothing is
        allocated beyond an ``(fn, args)`` pair. Use
        :meth:`schedule_cancellable` when a handle is needed.
        """
        time = self.now + delay
        # One guard for negatives, NaN (fails both compares) and inf.
        if not (delay >= 0.0 and time < _INF):
            self._reject(delay, time)
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = (fn, args)
            heappush(self._heap, time)
        elif bucket.__class__ is list:
            bucket.append((fn, args))
        else:
            buckets[time] = [bucket, (fn, args)]

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run at absolute time ``time`` ns."""
        if not (time >= self.now and time < _INF):
            self._reject_at(time)
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = (fn, args)
            heappush(self._heap, time)
        elif bucket.__class__ is list:
            bucket.append((fn, args))
        else:
            buckets[time] = [bucket, (fn, args)]

    def schedule_cancellable(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> Event:
        """Like :meth:`schedule`, but returns a cancellable handle."""
        if not delay >= 0.0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at_cancellable(self.now + delay, fn, *args)

    def schedule_at_cancellable(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> Event:
        """Like :meth:`schedule_at`, but returns a cancellable handle."""
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        if not math.isfinite(time):
            raise ValueError(f"cannot schedule at non-finite time (time={time})")
        event = Event(time, fn, args)
        event._sim = self
        self._file(time, event)
        return event

    def _reject(self, delay: float, time: float) -> None:
        """Raise the precise ValueError for a bad relative delay."""
        if not delay >= 0.0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        raise ValueError(f"cannot schedule at non-finite time (delay={delay})")

    def _reject_at(self, time: float) -> None:
        """Raise the precise ValueError for a bad absolute time."""
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        raise ValueError(f"cannot schedule at non-finite time (time={time})")

    def _drain(self, t_end: float, limit: int = _NO_LIMIT) -> int:
        """The dispatch loop: execute events with ``timestamp < t_end``,
        at most ``limit`` of them.

        Each instant's bucket runs under one clock update. When the
        budget may end inside a bucket, the part beyond it is re-filed
        before the rest dispatches, so it stays *ahead of* anything
        scheduled at that instant meanwhile (those entries carry later
        submission order) and a later drain resumes in the exact same
        order: chunked dispatch executes the event sequence of one
        unbudgeted drain. Returns the number executed. The clock is
        left at the last executed timestamp; callers adjust it
        afterwards.
        """
        heap = self._heap
        buckets = self._buckets
        processed = self._events_processed
        start = processed
        stop = processed + limit
        while heap and heap[0] < t_end and processed < stop:
            time = heappop(heap)
            self.now = time
            bucket = buckets.pop(time)
            cls = bucket.__class__
            if cls is tuple:  # singleton fast entry — the common case
                processed += 1
                args = bucket[1]
                if args:
                    bucket[0](*args)
                else:
                    bucket[0]()
                continue
            if cls is not list:
                bucket = (bucket,)
            elif len(bucket) > stop - processed:
                # Each entry fires at most one event, so the budget
                # cannot reach past ``cut``. (If cancelled entries leave
                # some budget, the loop comes back for the re-filed part.)
                cut = stop - processed
                buckets[time] = bucket[cut:]
                heappush(heap, time)
                bucket = bucket[:cut]
            for entry in bucket:
                if entry.__class__ is tuple:
                    processed += 1
                    entry[0](*entry[1])
                elif entry.cancelled:
                    self._cancelled -= 1
                else:
                    entry._sim = None
                    processed += 1
                    entry.fn(*entry.args)
        self._events_processed = processed
        return processed - start

    def run_until(self, t_end: float) -> None:
        """Execute events in timestamp order until the clock reaches ``t_end``.

        Events scheduled exactly at ``t_end`` are *not* executed; the
        clock is left at ``t_end`` so back-to-back windows compose.
        The clock never moves backwards: ``t_end < now`` (or NaN)
        raises ``ValueError``, mirroring the schedulers.
        """
        if not t_end >= self.now:  # catches rewinds and NaN in one test
            raise ValueError(
                f"cannot run backwards (t_end={t_end}, now={self.now})"
            )
        self._drain(t_end)
        self.now = t_end

    def run(self, max_events: int = 100_000_000) -> None:
        """Execute all pending events (bounded by ``max_events``)."""
        executed = self._drain(_INF, max_events)
        if executed >= max_events:
            if self.pending_live:
                raise RuntimeError(f"simulation exceeded {max_events} events")
            # Only lazily-deleted (cancelled) entries remain — not
            # pending work, so a run of exactly ``max_events`` live
            # events with cancelled residue completes cleanly.
            self._heap.clear()
            self._buckets.clear()
            self._cancelled = 0


class SimClock:
    """A picklable ``() -> sim.now`` callable.

    Components that need a clock closure must not capture it as a
    lambda — the whole object graph has to survive checkpoint pickling
    (``sim/checkpoint.py``), and a bound ``SimClock`` pickles by
    reference to the simulator it reads.
    """

    __slots__ = ("_sim",)

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim

    def __call__(self) -> float:
        return self._sim.now
