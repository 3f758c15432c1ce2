"""Physical-address to (channel, bank, row, column) mapping.

Layout (line-address bit ranges, low to high)::

    | channel | column | bank | row |

i.e. consecutive cachelines interleave across channels first, then fill
the columns of one row of one bank, then move to the next bank
(permutation-interleaved), then the next row.

The bank index is XOR-hashed with the low row bits (permutation-based
page interleaving, ref. [70] in the paper; real Intel mappings are
XOR-based too, ref. [56]). Two consequences the paper measures emerge
directly from this layout:

* a single sequential stream enjoys long row residency (row hits) but
  concentrates on one bank per channel at a time — short-window bank
  load is imbalanced (Fig. 7d);
* two interleaved sequential streams at different offsets periodically
  collide on a bank with different rows, inflating the row-miss ratio
  (Fig. 7c).
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True, slots=True)
class MappedAddress:
    """Decoded location of one cacheline."""

    channel: int
    bank: int
    row: int
    column: int


class AddressMapper:
    """Decodes cacheline addresses into channel/bank/row/column.

    Decoding is a handful of shifts and masks, so nothing is cached:
    the hot path (:meth:`repro.dram.controller.MemoryController.assign`)
    reads the precomputed ``channel_mask`` / ``bank_shift`` /
    ``bank_mask`` / ``row_shift`` / ``xor_mask`` fields directly and
    keeps no per-address state.

    Args:
        n_channels: memory channels on the socket (power of two).
        n_banks: banks per channel (power of two).
        lines_per_row: cachelines per DRAM row per bank (8 KB row with
            64 B lines = 128).
        xor_hash: apply the permutation-based bank hash. Disabling it
            is used by the bank-hash ablation bench.
    """

    def __init__(
        self,
        n_channels: int,
        n_banks: int,
        lines_per_row: int = 128,
        xor_hash: bool = True,
    ):
        if not _is_power_of_two(n_channels):
            raise ValueError("n_channels must be a power of two")
        if not _is_power_of_two(n_banks):
            raise ValueError("n_banks must be a power of two")
        if not _is_power_of_two(lines_per_row):
            raise ValueError("lines_per_row must be a power of two")
        self.n_channels = n_channels
        self.n_banks = n_banks
        self.lines_per_row = lines_per_row
        self.xor_hash = xor_hash
        #: line-address bit fields, low to high: channel | column |
        #: bank | row. Each ``*_shift`` is the field's lowest bit.
        self.channel_mask = n_channels - 1
        self.column_shift = n_channels.bit_length() - 1
        self.column_mask = lines_per_row - 1
        self.bank_shift = self.column_shift + lines_per_row.bit_length() - 1
        self.bank_mask = n_banks - 1
        self.row_shift = self.bank_shift + n_banks.bit_length() - 1
        #: low row bits XORed into the bank index (0 disables the hash)
        self.xor_mask = self.bank_mask if xor_hash else 0

    def map(self, line_addr: int) -> MappedAddress:
        """Decode a cacheline address."""
        if line_addr < 0:
            raise ValueError("line_addr must be non-negative")
        row = line_addr >> self.row_shift
        return MappedAddress(
            channel=line_addr & self.channel_mask,
            bank=((line_addr >> self.bank_shift) & self.bank_mask)
            ^ (row & self.xor_mask),
            row=row,
            column=(line_addr >> self.column_shift) & self.column_mask,
        )

    def channel_of(self, line_addr: int) -> int:
        """Home channel of a cacheline address (its low bits)."""
        return line_addr & self.channel_mask

    def lines_per_bank_visit(self) -> int:
        """Consecutive per-channel lines that land in one bank's row."""
        return self.lines_per_row
