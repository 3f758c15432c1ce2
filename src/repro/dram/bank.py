"""DRAM bank state machine.

Each bank owns a single-entry row buffer (§3 "DRAM operation"). To
access a cacheline its row must be in the row buffer:

* row hit     — the row is already open: no bank processing delay;
* row miss    — the row buffer is empty: ACT (t_act + t_cas);
* row conflict— a different row is open: PRE then ACT
  (t_pre + t_act + t_cas == the paper's t_proc ~= 45 ns).

Banks prepare (precharge/activate) *in parallel* with each other and
with data transmission on the channel; the channel can only transmit
one cacheline at a time. This is exactly the overlap argument of §5.1:
with perfect load balance across N_b banks, bank processing hides
behind transmission whenever t_proc / N_b < t_trans; imbalance breaks
the overlap and causes queueing before bandwidth saturation.

A bank prepares for the *oldest* pending request of the channel's
current mode, one at a time — the row buffer is a serial resource.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.sim.records import Request, RequestKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.dram.controller import Channel


class Bank:
    """One DRAM bank: row buffer + PRE/ACT pipeline."""

    __slots__ = (
        "bank_id",
        "_sim",
        "_channel",
        "_timing",
        "open_row",
        "busy_until",
        "read_q",
        "write_q",
        "_prep_pending",
    )

    def __init__(self, sim, channel: "Channel", bank_id: int, timing):
        self.bank_id = bank_id
        self._sim = sim
        self._channel = channel
        self._timing = timing
        self.open_row: Optional[int] = None
        self.busy_until: float = 0.0
        self.read_q: Deque[Request] = deque()
        self.write_q: Deque[Request] = deque()
        self._prep_pending = False

    def enqueue(self, req: Request) -> None:
        """Add a request to this bank's per-mode FIFO."""
        if req.kind is RequestKind.READ:
            self.read_q.append(req)
        else:
            self.write_q.append(req)
        self.maybe_start_prep()

    def active_queue(self) -> Deque[Request]:
        """The FIFO matching the channel's current transfer mode."""
        if self._channel.mode is RequestKind.READ:
            return self.read_q
        return self.write_q

    def maybe_start_prep(self) -> None:
        """Start PRE/ACT for the active head if the row is not open.

        No-op while a prep is in flight; the completion callback
        re-invokes this method.
        """
        if self._prep_pending:
            return
        now = self._sim.now
        if now < self.busy_until:
            return
        queue = self.active_queue()
        if not queue:
            return
        head = queue[0]
        timing = self._timing
        if self.open_row == head.row_id:
            if head.row_outcome is None:
                head.row_outcome = "hit"
                self._channel.count_row_outcome(head)
            self._channel.notify_bank_ready()
            return
        # Row miss: ACT (+ PRE on conflict). Stats count the operations
        # themselves, which is what the analytical formula consumes.
        cost = timing.t_act + timing.t_cas
        conflict = self.open_row is not None
        if conflict:
            cost += timing.t_pre
        if head.row_outcome is None:
            head.row_outcome = "conflict" if conflict else "miss"
            self._channel.count_row_outcome(head)
        self._channel.count_prep_ops(head, conflict)
        self._prep_pending = True
        self.busy_until = now + cost
        self._sim.schedule(cost, self._on_prep_done, head.row_id)

    def _on_prep_done(self, row_id: int) -> None:
        self._prep_pending = False
        self.open_row = row_id
        # The head for which we prepared may have been superseded by a
        # mode switch; re-evaluate against the active queue. The new
        # head may ride on the row this prep opened without any PRE/ACT
        # of its own — a row hit from its perspective.
        queue = self.active_queue()
        if queue and queue[0].row_id == row_id:
            head = queue[0]
            if head.row_outcome is None:
                head.row_outcome = "hit"
                self._channel.count_row_outcome(head)
            self._channel.notify_bank_ready()
        else:
            self.maybe_start_prep()

    def pop_head(self, req: Request) -> None:
        """Remove ``req`` (the served head) and begin prep for the next."""
        queue = self.read_q if req.kind is RequestKind.READ else self.write_q
        if not queue or queue[0] is not req:
            raise RuntimeError("bank FIFO corruption: served a non-head request")
        queue.popleft()

    def pending(self, kind: RequestKind) -> int:
        """Requests waiting in this bank for a given direction."""
        if kind is RequestKind.READ:
            return len(self.read_q)
        return len(self.write_q)
