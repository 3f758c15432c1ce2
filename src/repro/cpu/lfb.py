"""Line Fill Buffer: the per-core credit pool of the C2M domains.

An LFB entry is allocated on an L1 miss and freed when the miss is
fully resolved — for loads, when data returns from DRAM (C2M-Read
domain, LFB→DRAM); for stores, additionally when the writeback is
handed to the CHA (C2M-Write domain, LFB→CHA). The entry is held for
the whole round trip to prevent duplicate requests to the same line
(§4.2, refs. [30, 67]).

The LFB is a :class:`~repro.sim.credit.CreditPool` with the historic
alloc/free vocabulary kept as thin aliases; the credit-conservation
counters, occupancy integral and hold-time stat all come from the
shared runtime.
"""

from __future__ import annotations

from repro.sim.credit import CreditPool
from repro.telemetry.counters import OccupancyCounter


class LineFillBuffer(CreditPool):
    """Per-core credit pool with occupancy telemetry."""

    __slots__ = ("size",)

    def __init__(
        self, occupancy: OccupancyCounter, size: int, name: str = "lfb"
    ):
        if size <= 0:
            raise ValueError("LFB size must be positive")
        super().__init__(name, occupancy, size)
        self.size = size

    @property
    def has_free_entry(self) -> bool:
        """Whether a new miss can allocate an entry."""
        return self.occ.value < self.size

    def alloc(self, now: float) -> None:
        """Consume an entry (allocated on an L1 miss)."""
        if self.occ.value >= self.size:
            raise RuntimeError("LFB allocation without a free entry")
        self.acquire(now)

    def free(self, now: float) -> None:
        """Replenish an entry (the miss fully resolved)."""
        self.release(now)

    def free_held(self, now: float, t_alloc: float) -> None:
        """Replenish an entry held since ``t_alloc``, feeding the pool's
        credit-hold-time stat (the full LFB round trip)."""
        self.release_held(now, t_alloc)

    def average_occupancy(self, now: float) -> float:
        """Time-averaged entries in use over the current window."""
        return self.occ.average(now)
