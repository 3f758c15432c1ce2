"""Per-bank DRAM bandwidth regulation (token buckets).

"Per-Bank Memory Bandwidth Regulation" (PAPERS.md) observes that the
blue-regime pathologies the paper root-causes — bank-load imbalance
and row-miss inflation under colocation — are per-*bank* phenomena
that channel-level schedulers cannot see. :class:`BankRegulator`
implements the per-bank half: each bank owns a token bucket refilled
at a fraction of the channel line rate, and the scheduler skips banks
whose bucket cannot cover the head request. A hot bank that would
otherwise monopolize consecutive scheduling slots is throttled, so
service interleaves across banks and the per-sample max-bank counts
(:mod:`repro.telemetry.bankstats`) shrink.

The other half — bank *partitioning* by traffic class — lives in
``MemoryController.assign``: confining each class to a bank subset
removes inter-class row conflicts entirely.

Float-identity discipline: the reference scheduler and the SoA kernel
(:mod:`repro.dram.kernel`) call :meth:`ready` / :meth:`next_ready`
different numbers of times in different orders. Those methods are
therefore **pure** — bucket state only mutates in :meth:`consume`,
which both paths call at transmit time in the identical sequence, so
enabling regulation cannot make the two paths diverge.

Off by default; ``REPRO_BANK_REG`` (see :func:`bank_reg_forced`)
force-enables or -disables it over the host config.
"""

from __future__ import annotations

import os
from typing import List, Optional

#: readiness slack (lines). At the exact refill instant returned by
#: :meth:`BankRegulator.next_ready`, the re-derived accrual can land a
#: few ulps short of the requirement; without slack the pump re-arms
#: with ~ulp progress forever. Far below one line, so it never admits
#: a transmit a whole token early.
_EPS_LINES = 1e-9


def bank_reg_forced() -> Optional[bool]:
    """The ``REPRO_BANK_REG`` override: True/False to force per-bank
    regulation on/off, ``None`` (unset or ``config``) to defer to the
    host config. Invalid values raise."""
    raw = os.environ.get("REPRO_BANK_REG", "").strip().lower()
    if raw in ("", "config"):
        return None
    if raw in ("1", "on", "yes", "true"):
        return True
    if raw in ("0", "off", "no", "false"):
        return False
    raise ValueError(f"REPRO_BANK_REG must be 0/1 (or unset), got {raw!r}")


class BankRegulator:
    """One token bucket per bank of one channel.

    Args:
        n_banks: banks on the channel.
        rate_lines_per_ns: bucket refill rate. A bank may not exceed
            this long-run line rate; sensible values are a fraction of
            the channel line rate ``1 / t_trans`` (the host derives it
            from ``HostConfig.bank_reg_share``).
        burst_lines: bucket depth — the most lines one bank may
            transmit back-to-back. At least one line: every transmit
            spends one token.

    Buckets refill lazily: each bank stores ``(tokens, stamp)`` and
    accrues ``(now - stamp) * rate`` on access. :meth:`ready` and
    :meth:`next_ready` are pure (see module docstring); only
    :meth:`consume` writes.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(
        self, n_banks: int, rate_lines_per_ns: float, burst_lines: int
    ):
        if n_banks <= 0:
            raise ValueError("n_banks must be positive")
        if rate_lines_per_ns <= 0:
            raise ValueError("rate must be positive")
        if burst_lines < 1:
            raise ValueError("burst must be at least one line")
        self.rate = rate_lines_per_ns
        self.burst = float(burst_lines)
        self.tokens: List[float] = [self.burst] * n_banks
        self.stamp: List[float] = [0.0] * n_banks

    def available(self, bank_id: int, now: float) -> float:
        """Tokens the bank holds at ``now``, capped at the burst.

        Pure — accrual is computed, not stored.
        """
        accrued = self.tokens[bank_id] + (now - self.stamp[bank_id]) * self.rate
        if accrued > self.burst:
            return self.burst
        return accrued

    def ready(self, bank_id: int, now: float) -> bool:
        """Whether the bank may transmit a line right now (pure)."""
        return self.available(bank_id, now) >= 1.0 - _EPS_LINES

    def next_ready(self, bank_id: int, now: float) -> float:
        """Earliest time the bank could transmit a line (pure).

        Returns ``now`` when already ready. Used by the scheduler to
        re-arm the pump when every candidate bank is token-blocked.
        """
        accrued = self.tokens[bank_id] + (now - self.stamp[bank_id]) * self.rate
        if accrued >= 1.0 - _EPS_LINES:
            return now
        return now + (1.0 - accrued) / self.rate

    def consume(self, bank_id: int, now: float) -> None:
        """Spend one token at transmit time (the only mutation)."""
        accrued = self.tokens[bank_id] + (now - self.stamp[bank_id]) * self.rate
        if accrued > self.burst:
            accrued = self.burst
        self.tokens[bank_id] = accrued - 1.0
        self.stamp[bank_id] = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BankRegulator(banks={len(self.tokens)}, rate={self.rate}, "
            f"burst={self.burst})"
        )
