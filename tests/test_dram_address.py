"""Unit tests for address mapping, regions, and DDR4 timing."""

import random
import tracemalloc

import pytest

from repro.dram.address import AddressMapper
from repro.dram.controller import MemoryController
from repro.dram.region import ContiguousRegion, PagedRegion
from repro.dram.timing import DDR4_2933, DDR4_3200, DramTiming, ddr4_timing
from repro.sim.engine import Simulator
from repro.sim.records import Request, RequestKind, RequestSource
from repro.telemetry.counters import CounterHub


class TestDramTiming:
    def test_2933_transmission_delay_matches_paper(self):
        # The paper quotes t_Trans = 2.73 ns for DDR4-2933.
        assert DDR4_2933.t_trans == pytest.approx(2.728, abs=0.01)

    def test_t_proc_matches_paper(self):
        # The paper quotes t_Proc ~= 45 ns.
        assert 40.0 <= DDR4_2933.t_proc <= 50.0

    def test_channel_bandwidth(self):
        # 2933 MT/s x 8 B = 23.46 GB/s per channel.
        assert DDR4_2933.channel_bandwidth_bytes_per_ns == pytest.approx(23.46, abs=0.01)
        assert DDR4_3200.channel_bandwidth_bytes_per_ns == pytest.approx(25.6, abs=0.01)

    def test_invalid_speed_raises(self):
        with pytest.raises(ValueError):
            ddr4_timing(0)

    def test_validate_rejects_nonpositive(self):
        bad = DramTiming(t_trans=0.0, t_act=1, t_pre=1, t_cas=1, t_wtr=1, t_rtw=1)
        with pytest.raises(ValueError):
            bad.validate()

    def test_overlap_condition_holds_with_32_banks(self):
        # §5.1: t_proc / N_b < t_trans for the paper's modules.
        assert DDR4_2933.t_proc / 32 < DDR4_2933.t_trans


class TestAddressMapper:
    def make(self, **kw):
        defaults = dict(n_channels=2, n_banks=16, lines_per_row=128)
        defaults.update(kw)
        return AddressMapper(**defaults)

    def test_consecutive_lines_interleave_channels(self):
        mapper = self.make()
        assert mapper.map(0).channel == 0
        assert mapper.map(1).channel == 1
        assert mapper.map(2).channel == 0

    def test_sequential_lines_fill_a_row_before_moving_banks(self):
        mapper = self.make(xor_hash=False)
        first = mapper.map(0)
        # lines 0, 2, 4, ... are consecutive per-channel lines on channel 0
        same_row = mapper.map(2 * 127)
        next_bank = mapper.map(2 * 128)
        assert same_row.bank == first.bank and same_row.row == first.row
        assert next_bank.bank != first.bank

    def test_fields_within_bounds(self):
        mapper = self.make()
        for line in range(0, 100_000, 977):
            mapped = mapper.map(line)
            assert 0 <= mapped.channel < 2
            assert 0 <= mapped.bank < 16
            assert 0 <= mapped.column < 128
            assert mapped.row >= 0

    def test_mapping_is_injective_per_channel(self):
        mapper = self.make()
        seen = set()
        for line in range(50_000):
            m = mapper.map(line)
            key = (m.channel, m.bank, m.row, m.column)
            assert key not in seen
            seen.add(key)

    def test_xor_hash_permutes_banks_across_rows(self):
        hashed = self.make(xor_hash=True)
        plain = self.make(xor_hash=False)
        # The same (bank-field, column) position one row later maps to a
        # different physical bank with the hash, the same bank without.
        lines_per_row_group = 2 * 128 * 16  # channels * columns * banks
        offset = lines_per_row_group  # exactly one row later
        assert plain.map(0).bank == plain.map(offset).bank
        assert hashed.map(0).bank != hashed.map(offset).bank
        assert hashed.map(0).row != hashed.map(offset).row

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            AddressMapper(n_channels=3, n_banks=16)
        with pytest.raises(ValueError):
            AddressMapper(n_channels=2, n_banks=10)
        with pytest.raises(ValueError):
            AddressMapper(n_channels=2, n_banks=16, lines_per_row=100)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            self.make().map(-1)

    def test_channel_of_matches_map(self):
        mapper = self.make(n_channels=4)
        for line in range(0, 50_000, 37):
            assert mapper.channel_of(line) == mapper.map(line).channel


def _controller(n_channels, n_banks, lines_per_row, xor_hash, partitions):
    return MemoryController(
        Simulator(),
        CounterHub(),
        DDR4_2933,
        n_channels=n_channels,
        n_banks=n_banks,
        lines_per_row=lines_per_row,
        xor_bank_hash=xor_hash,
        bank_partition_classes=partitions,
    )


class TestInlineDecode:
    """``MemoryController.assign`` decodes inline from the mapper's
    masks and shifts; it must agree with ``AddressMapper.map``."""

    @pytest.mark.parametrize("partitions", [0, 2])
    @pytest.mark.parametrize("xor_hash", [True, False])
    def test_assign_agrees_with_map(self, xor_hash, partitions):
        rng = random.Random(f"assign-{xor_hash}-{partitions}")
        for n_channels, n_banks, lines_per_row in (
            (1, 8, 64),
            (2, 16, 128),
            (4, 32, 128),
            (8, 32, 256),
        ):
            mc = _controller(n_channels, n_banks, lines_per_row, xor_hash, partitions)
            part_size = n_banks // partitions if partitions > 1 else n_banks
            first_seen: dict = {}
            for _ in range(400):
                addr = rng.choice(
                    (rng.randrange(1 << 12), rng.randrange(1 << 40))
                )
                traffic_class = rng.choice(("c2m", "p2m", "nic"))
                req = Request(
                    RequestSource.C2M, RequestKind.READ, addr,
                    traffic_class=traffic_class,
                )
                channel = mc.assign(req)
                mapped = mc.mapper.map(addr)
                assert channel is mc.channels[mapped.channel]
                assert (req.channel_id, req.row_id) == (mapped.channel, mapped.row)
                bank = mapped.bank
                if partitions > 1:
                    pid = first_seen.setdefault(
                        traffic_class, len(first_seen) % partitions
                    )
                    bank = pid * part_size + bank % part_size
                assert req.bank_id == bank

    @pytest.mark.parametrize("partitions", [0, 2])
    def test_assign_rejects_negative_address(self, partitions):
        mc = _controller(2, 16, 128, True, partitions)
        with pytest.raises(ValueError, match="non-negative"):
            mc.assign(Request(RequestSource.P2M, RequestKind.WRITE, -1))

    def test_decode_retains_no_per_address_state(self):
        mc = _controller(2, 32, 128, True, 0)
        req = Request(RequestSource.C2M, RequestKind.READ, 0)
        mc.assign(req)
        mc.mapper.map(0)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            for addr in range(100_000):
                req.line_addr = addr
                mc.assign(req)
                mc.mapper.map(addr)
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        # A per-address cache of 100k decodes would hold megabytes.
        assert retained < 64 * 1024


class TestRegions:
    def test_contiguous_region_lines(self):
        region = ContiguousRegion(1000, 64)
        assert region.line(0) == 1000
        assert region.line(63) == 1063

    def test_paged_region_is_contiguous_within_a_page(self):
        region = PagedRegion(n_lines=256, page_lines=64, seed=7)
        base = region.line(0)
        for offset in range(64):
            assert region.line(offset) == base + offset

    def test_paged_region_scatters_across_pages(self):
        region = PagedRegion(n_lines=64 * 100, page_lines=64, seed=7)
        frames = {region.line(page * 64) // 64 for page in range(100)}
        # With random placement, consecutive virtual pages are almost
        # never physically adjacent.
        assert len(frames) == 100
        deltas = [
            region.line((p + 1) * 64) - region.line(p * 64) for p in range(99)
        ]
        assert any(abs(d) != 64 for d in deltas)

    def test_paged_region_is_deterministic_per_seed(self):
        a = PagedRegion(n_lines=640, page_lines=64, seed=3)
        b = PagedRegion(n_lines=640, page_lines=64, seed=3)
        assert [a.line(i) for i in range(640)] == [b.line(i) for i in range(640)]

    def test_paged_region_differs_across_seeds(self):
        a = PagedRegion(n_lines=640, page_lines=64, seed=3)
        b = PagedRegion(n_lines=640, page_lines=64, seed=4)
        assert [a.line(i) for i in range(640)] != [b.line(i) for i in range(640)]

    def test_invalid_regions(self):
        with pytest.raises(ValueError):
            ContiguousRegion(-1, 10)
        with pytest.raises(ValueError):
            ContiguousRegion(0, 0)
        with pytest.raises(ValueError):
            PagedRegion(0)
