"""Per-bank load sampling and the bank-deviation CDF (Fig. 7d).

The paper measures DRAM bank load imbalance by sampling, every 1000
read requests, the number of requests mapped to each bank, and defines
*bank deviation* of a sample as the ratio of the maximally loaded
bank's load to the average load across banks. The CDF of bank
deviation across samples quantifies load imbalance — one of the two
root causes (with row misses) of queueing at the memory controller
before bandwidth saturation (§5.1).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def load_numpy():
    """numpy, imported on first use, or ``None`` where it is missing.

    Only snapshot and analysis helpers (:func:`bank_deviation_cdf`,
    :meth:`repro.dram.kernel.ChannelKernel.bank_state`) use numpy, so
    simulation runs never import it. Both helpers go through this
    loader, which tests patch to exercise the pure-python path.
    """
    try:
        import numpy
    except ImportError:  # minimal interpreters (e.g. the 3.10 floor check)
        return None
    return numpy


class BankLoadSampler:
    """Samples per-bank request counts every ``sample_every`` requests.

    The paper's measurement uses a dedicated core busy-polling MC
    counters for 4 banks of one DIMM; the simulator tracks all banks of
    one channel which is strictly more information with the same
    semantics.
    """

    def __init__(self, n_banks: int, sample_every: int = 1000):
        if n_banks <= 0:
            raise ValueError("n_banks must be positive")
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        self.n_banks = n_banks
        self.sample_every = sample_every
        #: per-bank request counts for the sample in progress. Public
        #: (and zeroed *in place*) so the SoA channel kernel can inline
        #: :meth:`record` while holding a direct reference to the list.
        self.counts = [0] * n_banks
        self.seen = 0
        self.deviations: List[float] = []

    def record(self, bank_id: int) -> None:
        """Record one request mapped to ``bank_id``."""
        self.counts[bank_id] += 1
        self.seen += 1
        if self.seen >= self.sample_every:
            self._flush()

    def _flush(self) -> None:
        counts = self.counts
        total = sum(counts)
        if total > 0:
            mean = total / self.n_banks
            self.deviations.append(max(counts) / mean)
        for b in range(self.n_banks):
            counts[b] = 0
        self.seen = 0

    def reset(self) -> None:
        """Drop partial counts and collected samples.

        Unlike the occupancy counters, the sampler keeps no time state
        — counts are per-request — so (unlike every other telemetry
        ``reset``) there is no ``now`` parameter to honor.
        """
        counts = self.counts
        for b in range(self.n_banks):
            counts[b] = 0
        self.seen = 0
        self.deviations = []

    def fraction_at_least(self, threshold: float) -> float:
        """Fraction of samples whose bank deviation is >= ``threshold``."""
        if not self.deviations:
            return 0.0
        hits = sum(1 for d in self.deviations if d >= threshold)
        return hits / len(self.deviations)


def bank_deviation_cdf(
    deviations: Sequence[float], grid: Sequence[float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of bank deviation samples.

    Returns ``(x, F)`` arrays suitable for plotting against Fig. 7d.
    ``grid`` defaults to the sorted sample values. Without numpy the
    same values come back as plain lists.
    """
    np = load_numpy()
    if np is None:
        data = sorted(float(d) for d in deviations)
        n = len(data)
        if n == 0:
            return [], []  # type: ignore[return-value]
        if grid is None:
            return data, [k / n for k in range(1, n + 1)]  # type: ignore[return-value]
        x = [float(g) for g in grid]
        return x, [bisect_right(data, g) / n for g in x]  # type: ignore[return-value]
    data = np.asarray(sorted(deviations), dtype=float)
    if data.size == 0:
        return np.array([]), np.array([])
    if grid is None:
        x = data
        f = np.arange(1, data.size + 1) / data.size
        return x, f
    x = np.asarray(grid, dtype=float)
    f = np.searchsorted(data, x, side="right") / data.size
    return x, f
