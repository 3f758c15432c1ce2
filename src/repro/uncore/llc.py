"""Last-level cache with Intel DDIO's restricted allocation ways.

DDIO lets DMA writes allocate directly into the LLC instead of going
to memory — but only into a small number of ways (2 on the paper's
servers, ref. [18]). The paper's P2M workload uses buffers larger than
that slice, so in steady state every DMA write misses, allocates, and
evicts a dirty DMA line — memory write bandwidth is unchanged versus
DDIO-off (§2.1). Smaller buffers fit and are absorbed entirely.

The model is a set-associative tag store with per-line dirty and
is-DMA bits. DMA allocations respect the DDIO way budget by evicting
the LRU *DMA-tagged* line of the set once the budget is exceeded;
core fills use plain LRU over all ways.

The DDIO slice doubles as the fifth contention domain ("From RDMA to
RDCA", PAPERS.md): a :class:`~repro.sim.credit.CreditPool` attached via
:meth:`LastLevelCache.attach_ddio_pool` treats each DMA-tagged line as
a held credit — acquired when a DMA line is installed (or a resident
core line is converted by a DDIO hit), released when the line is
evicted — so the slice surfaces the same (C, L, T) snapshot as the
four Fig. 5 domains, with L the DMA-line residency time.

``REPRO_DDIO`` (see :func:`ddio_forced`) force-enables or -disables
DDIO regardless of the :class:`~repro.topology.presets.HostConfig`,
so any existing experiment can be re-run with the cache last mile on.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.sim.records import CACHELINE_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.credit import CreditPool
    from repro.telemetry.counters import LatencyStat


def ddio_forced() -> Optional[bool]:
    """The ``REPRO_DDIO`` override: True/False to force DDIO on/off,
    ``None`` (unset or ``config``) to defer to the host config.

    Invalid values raise so typos don't silently change which P2M
    write path runs.
    """
    raw = os.environ.get("REPRO_DDIO", "").strip().lower()
    if raw in ("", "config"):
        return None
    if raw in ("1", "on", "yes", "true"):
        return True
    if raw in ("0", "off", "no", "false"):
        return False
    raise ValueError(f"REPRO_DDIO must be 0/1 (or unset), got {raw!r}")


class _Line:
    __slots__ = ("addr", "dirty", "is_dma", "t_install")

    def __init__(self, addr: int, dirty: bool, is_dma: bool):
        self.addr = addr
        self.dirty = dirty
        self.is_dma = is_dma
        #: when the line last became DMA-tagged (credit-hold start).
        self.t_install = 0.0


def _zero_clock() -> float:
    """Default clock before :meth:`LastLevelCache.attach_ddio_pool`."""
    return 0.0


class LastLevelCache:
    """Set-associative LLC model with a DDIO way budget.

    Args:
        size_bytes: total capacity.
        ways: associativity.
        ddio_ways: maximum ways per set that DMA lines may occupy.

    Sets are kept as MRU-first lists of :class:`_Line`.
    """

    def __init__(self, size_bytes: int, ways: int, ddio_ways: int = 2):
        if size_bytes <= 0 or ways <= 0:
            raise ValueError("size and ways must be positive")
        if ddio_ways < 0 or ddio_ways > ways:
            raise ValueError("ddio_ways must be within [0, ways]")
        self.ways = ways
        self.ddio_ways = ddio_ways
        self.n_sets = max(1, size_bytes // (ways * CACHELINE_BYTES))
        self._sets: List[List[_Line]] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        # Optional credit-domain tracking (attach_ddio_pool): every
        # DMA-tagged line holds one llc.ddio credit while resident.
        self._ddio_pool: Optional["CreditPool"] = None
        self._ddio_latency: Optional["LatencyStat"] = None
        # Module-level function, not a lambda: the LLC must survive
        # checkpoint pickling (sim/checkpoint.py).
        self._clock: Callable[[], float] = _zero_clock

    @property
    def size_bytes(self) -> int:
        """Effective capacity after set rounding."""
        return self.n_sets * self.ways * CACHELINE_BYTES

    @property
    def ddio_capacity_bytes(self) -> int:
        """Capacity of the slice DDIO is allowed to use."""
        return self.n_sets * self.ddio_ways * CACHELINE_BYTES

    def attach_ddio_pool(
        self,
        pool: "CreditPool",
        clock: Callable[[], float],
        latency: Optional["LatencyStat"] = None,
    ) -> None:
        """Track DMA-line residency on a credit pool (the fifth domain).

        ``pool`` must be ``soft``: a DDIO hit on a resident core line
        converts it to DMA without evicting, so occupancy may exceed
        the ``ddio_capacity_bytes / 64`` admission budget. ``latency``
        is the hub stat the :class:`~repro.sim.credit.DomainTracker`
        aggregates (``domain.llc_ddio.*``); residency times are
        recorded there *and* on the pool's own hold-time stat.
        """
        self._ddio_pool = pool
        self._ddio_latency = latency
        self._clock = clock

    # ------------------------------------------------------------------
    # Credit-domain hooks (no-ops until attach_ddio_pool)
    # ------------------------------------------------------------------

    def _dma_installed(self, line: _Line, now: float) -> None:
        line.t_install = now
        self._ddio_pool.acquire(now)

    def _dma_evicted(self, line: _Line, now: float) -> None:
        if self._ddio_latency is not None:
            self._ddio_latency.record(now - line.t_install)
        self._ddio_pool.release_held(now, line.t_install)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def _set_for(self, line_addr: int) -> List[_Line]:
        return self._sets[line_addr % self.n_sets]

    def _find(self, lines: List[_Line], addr: int) -> Optional[int]:
        for i, line in enumerate(lines):
            if line.addr == addr:
                return i
        return None

    def lookup_read(self, line_addr: int, allocate: bool = True) -> Tuple[bool, Optional[int]]:
        """Read lookup. Returns ``(hit, evicted_dirty_addr)``.

        On a miss with ``allocate``, the fetched line is installed
        clean via LRU; if the victim is dirty its address is returned
        so the caller can issue the writeback.
        """
        lines = self._set_for(line_addr)
        idx = self._find(lines, line_addr)
        if idx is not None:
            self.hits += 1
            lines.insert(0, lines.pop(idx))
            return True, None
        self.misses += 1
        evicted = None
        if allocate:
            evicted = self._install(lines, _Line(line_addr, dirty=False, is_dma=False))
        return False, evicted

    def write_allocate_ddio(self, line_addr: int) -> Tuple[str, Optional[int]]:
        """DDIO DMA write. Returns ``(outcome, evicted_dirty_addr)``.

        Outcomes: ``"hit"`` (updated in place), ``"alloc"`` (installed
        dirty, possibly evicting — the steady-state thrash path for
        large buffers).
        """
        lines = self._set_for(line_addr)
        idx = self._find(lines, line_addr)
        if idx is not None:
            self.hits += 1
            line = lines.pop(idx)
            line.dirty = True
            if not line.is_dma:
                # A resident core line converted by a DDIO write starts
                # holding a slice credit now (beyond the way budget —
                # the reason the llc.ddio pool is soft).
                line.is_dma = True
                if self._ddio_pool is not None:
                    self._dma_installed(line, self._clock())
            lines.insert(0, line)
            return "hit", None
        self.misses += 1
        evicted = self._install_dma(lines, _Line(line_addr, dirty=True, is_dma=True))
        return "alloc", evicted

    def writeback_update(self, line_addr: int) -> bool:
        """Mark a resident line dirty (core writeback). Returns hit."""
        lines = self._set_for(line_addr)
        idx = self._find(lines, line_addr)
        if idx is None:
            return False
        line = lines.pop(idx)
        line.dirty = True
        lines.insert(0, line)
        return True

    # ------------------------------------------------------------------
    # Installs
    # ------------------------------------------------------------------

    def _install(self, lines: List[_Line], new: _Line) -> Optional[int]:
        """Plain LRU install; returns evicted dirty address if any."""
        evicted_dirty = None
        if len(lines) >= self.ways:
            victim = lines.pop()
            if victim.dirty:
                evicted_dirty = victim.addr
            if victim.is_dma and self._ddio_pool is not None:
                self._dma_evicted(victim, self._clock())
        lines.insert(0, new)
        return evicted_dirty

    def _install_dma(self, lines: List[_Line], new: _Line) -> Optional[int]:
        """DDIO install: victims come from the DMA way budget first."""
        dma_count = sum(1 for line in lines if line.is_dma)
        evicted_dirty = None
        pool = self._ddio_pool
        now = self._clock() if pool is not None else 0.0
        if dma_count >= self.ddio_ways:
            # Evict the LRU DMA line (scan from the LRU end).
            for i in range(len(lines) - 1, -1, -1):
                if lines[i].is_dma:
                    victim = lines.pop(i)
                    if victim.dirty:
                        evicted_dirty = victim.addr
                    if pool is not None:
                        self._dma_evicted(victim, now)
                    break
        elif len(lines) >= self.ways:
            victim = lines.pop()
            if victim.dirty:
                evicted_dirty = victim.addr
            if victim.is_dma and pool is not None:
                self._dma_evicted(victim, now)
        if pool is not None:
            self._dma_installed(new, now)
        lines.insert(0, new)
        return evicted_dirty

    # ------------------------------------------------------------------
    # Prewarm
    # ------------------------------------------------------------------

    def prewarm_ddio(self, base_line: int) -> None:
        """Fill every set's DDIO way budget with dirty DMA lines.

        The paper measures *steady-state* behaviour, where the DDIO
        ways have long been full of in-flight DMA data and every new
        DMA allocation evicts a dirty line. Reaching that state
        organically takes hundreds of microseconds of simulated DMA;
        prewarming jumps straight to it. ``base_line`` should point at
        an address range no workload uses; it is rounded down to a
        multiple of ``n_sets`` so every synthetic address is
        set-congruent (``addr % n_sets`` names the set holding it —
        the :meth:`verify_tags` invariant).

        Idempotent: re-prewarming a cache that already holds the
        synthetic lines re-dirties them in place instead of installing
        duplicate tags. Victims (core-LRU first) are evicted per
        install, exactly as organic DMA traffic would evict them.
        """
        base = base_line - base_line % self.n_sets
        pool = self._ddio_pool
        now = self._clock() if pool is not None else 0.0
        n_sets = self.n_sets
        for set_index, lines in enumerate(self._sets):
            for k in range(self.ddio_ways):
                addr = base + set_index + k * n_sets
                idx = self._find(lines, addr)
                if idx is not None:
                    line = lines.pop(idx)
                    line.dirty = True
                    if not line.is_dma:
                        line.is_dma = True
                        if pool is not None:
                            self._dma_installed(line, now)
                    lines.insert(0, line)
                    continue
                if len(lines) >= self.ways:
                    # Evict the LRU core line; fall back to the LRU DMA
                    # line only when every way is already DMA-tagged.
                    victim_idx = len(lines) - 1
                    for i in range(len(lines) - 1, -1, -1):
                        if not lines[i].is_dma:
                            victim_idx = i
                            break
                    victim = lines.pop(victim_idx)
                    if victim.is_dma and pool is not None:
                        self._dma_evicted(victim, now)
                new = _Line(addr, dirty=True, is_dma=True)
                if pool is not None:
                    self._dma_installed(new, now)
                lines.insert(0, new)

    # ------------------------------------------------------------------
    # Invariants / introspection
    # ------------------------------------------------------------------

    def dma_lines(self) -> int:
        """Resident DMA-tagged lines (the llc.ddio credits held)."""
        return sum(
            1 for lines in self._sets for line in lines if line.is_dma
        )

    def verify_tags(self) -> int:
        """Tag-store structural invariants (REPRO_VALIDATE probe walk).

        Every line's address must map to the set holding it, tags must
        be unique within a set, and no set may exceed the
        associativity. Returns the number of lines checked; raises
        ``AssertionError`` on any violation (wrapped into an
        ``InvariantViolation`` by the validator probe).
        """
        checked = 0
        n_sets = self.n_sets
        for set_index, lines in enumerate(self._sets):
            assert len(lines) <= self.ways, (
                f"set {set_index}: {len(lines)} lines exceed "
                f"{self.ways} ways"
            )
            seen = set()
            for line in lines:
                home = line.addr % n_sets
                assert home == set_index, (
                    f"set {set_index}: line addr {line.addr} maps to "
                    f"set {home}"
                )
                assert line.addr not in seen, (
                    f"set {set_index}: duplicate tag {line.addr}"
                )
                seen.add(line.addr)
                checked += 1
        return checked

    @property
    def miss_ratio(self) -> float:
        """Misses / lookups since the last stats reset."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.misses / total

    def reset_stats(self) -> None:
        """Zero hit/miss counters (tag state is kept)."""
        self.hits = 0
        self.misses = 0
