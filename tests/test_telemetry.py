"""Unit tests for the simulated uncore counters and Little's law."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.telemetry.bankstats import BankLoadSampler, bank_deviation_cdf
from repro.telemetry.counters import (
    CounterHub,
    LatencyStat,
    OccupancyCounter,
    RateCounter,
)
from repro.telemetry.littleslaw import littles_law_latency, littles_law_occupancy


class TestOccupancyCounter:
    def test_average_is_time_weighted(self):
        counter = OccupancyCounter()
        counter.update(0.0, +2)  # occupancy 2 over [0, 10)
        counter.update(10.0, +2)  # occupancy 4 over [10, 20)
        assert counter.average(20.0) == pytest.approx(3.0)

    def test_average_with_idle_tail(self):
        counter = OccupancyCounter()
        counter.update(0.0, +4)
        counter.update(5.0, -4)
        assert counter.average(10.0) == pytest.approx(2.0)

    def test_negative_occupancy_raises(self):
        counter = OccupancyCounter()
        with pytest.raises(ValueError):
            counter.update(0.0, -1)

    def test_capacity_overflow_raises(self):
        counter = OccupancyCounter(capacity=2)
        counter.update(0.0, +2)
        with pytest.raises(ValueError):
            counter.update(1.0, +1)

    def test_full_fraction(self):
        counter = OccupancyCounter(capacity=2)
        counter.update(0.0, +2)  # full over [0, 4)
        counter.update(4.0, -1)
        assert counter.full_fraction(8.0) == pytest.approx(0.5)

    def test_reset_starts_fresh_window_preserving_value(self):
        counter = OccupancyCounter()
        counter.update(0.0, +6)
        counter.reset(10.0)
        assert counter.value == 6
        assert counter.average(20.0) == pytest.approx(6.0)

    def test_max_seen_tracks_peak(self):
        counter = OccupancyCounter()
        counter.update(0.0, +5)
        counter.update(1.0, -3)
        assert counter.max_seen == 5

    def test_max_seen_reset_to_current(self):
        counter = OccupancyCounter()
        counter.update(0.0, +5)
        counter.update(1.0, -3)
        counter.reset(2.0)
        assert counter.max_seen == 2

    def test_zero_elapsed_returns_current_value(self):
        counter = OccupancyCounter()
        counter.update(0.0, +3)
        assert counter.average(0.0) == 3.0


class TestRateCounter:
    def test_rate_over_window(self):
        counter = RateCounter()
        counter.reset(0.0)
        for _ in range(10):
            counter.increment()
        assert counter.rate(5.0) == pytest.approx(2.0)

    def test_increment_by_n(self):
        counter = RateCounter()
        counter.increment(7)
        assert counter.count == 7

    def test_zero_elapsed_rate_is_zero(self):
        counter = RateCounter()
        counter.reset(3.0)
        counter.increment()
        assert counter.rate(3.0) == 0.0


class TestLatencyStat:
    def test_average(self):
        stat = LatencyStat()
        stat.record(10.0)
        stat.record(30.0)
        assert stat.average == pytest.approx(20.0)
        assert stat.max_seen == 30.0

    def test_empty_average_is_zero(self):
        assert LatencyStat().average == 0.0

    def test_negative_latency_raises(self):
        with pytest.raises(ValueError):
            LatencyStat().record(-1.0)

    def test_reset(self):
        stat = LatencyStat()
        stat.record(5.0)
        stat.reset()
        assert stat.count == 0
        assert stat.average == 0.0


class TestCounterHub:
    def test_counters_are_memoized(self):
        hub = CounterHub()
        assert hub.occupancy("x") is hub.occupancy("x")
        assert hub.rate("y") is hub.rate("y")
        assert hub.latency("z") is hub.latency("z")
        assert hub.traffic_class("c") is hub.traffic_class("c")

    def test_reset_covers_all_counters(self):
        hub = CounterHub()
        hub.occupancy("o").update(0.0, +3)
        hub.rate("r").increment(5)
        hub.latency("l").record(7.0)
        hub.traffic_class("t").arrivals.increment()
        hub.reset(100.0)
        assert hub.rate("r").count == 0
        assert hub.latency("l").count == 0
        assert hub.traffic_class("t").arrivals.count == 0
        assert hub.occupancy("o").average(200.0) == pytest.approx(3.0)

    def test_names_enumerates_registered(self):
        hub = CounterHub()
        hub.occupancy("a")
        hub.rate("b")
        assert set(hub.names()) >= {"a", "b"}


class TestLittlesLaw:
    def test_latency_from_occupancy_and_rate(self):
        assert littles_law_latency(10.0, 0.1) == pytest.approx(100.0)

    def test_zero_rate_gives_zero_latency(self):
        assert littles_law_latency(5.0, 0.0) == 0.0

    def test_occupancy_inverse(self):
        latency = littles_law_latency(8.0, 0.05)
        assert littles_law_occupancy(latency, 0.05) == pytest.approx(8.0)

    def test_negative_inputs_raise(self):
        with pytest.raises(ValueError):
            littles_law_occupancy(-1.0, 0.1)

    def test_negative_occupancy_raises(self):
        with pytest.raises(ValueError, match="occupancy"):
            littles_law_latency(-0.5, 0.1)

    def test_negative_rate_raises(self):
        with pytest.raises(ValueError, match="rate"):
            littles_law_latency(1.0, -0.1)

    def test_zero_occupancy_zero_latency(self):
        assert littles_law_latency(0.0, 0.25) == 0.0


class TestBankLoadSampler:
    def test_uniform_load_has_deviation_one(self):
        sampler = BankLoadSampler(n_banks=4, sample_every=8)
        for _ in range(2):
            for bank in range(4):
                sampler.record(bank)
        assert sampler.deviations == [pytest.approx(1.0)]

    def test_skewed_load_has_high_deviation(self):
        sampler = BankLoadSampler(n_banks=4, sample_every=8)
        for _ in range(8):
            sampler.record(0)
        assert sampler.deviations == [pytest.approx(4.0)]

    def test_fraction_at_least(self):
        sampler = BankLoadSampler(n_banks=2, sample_every=4)
        for _ in range(4):
            sampler.record(0)  # deviation 2.0
        for _ in range(2):
            sampler.record(0)
            sampler.record(1)  # deviation 1.0
        assert sampler.fraction_at_least(1.5) == pytest.approx(0.5)

    def test_incomplete_sample_not_flushed(self):
        sampler = BankLoadSampler(n_banks=2, sample_every=100)
        sampler.record(0)
        assert sampler.deviations == []

    def test_reset_clears_samples(self):
        sampler = BankLoadSampler(n_banks=2, sample_every=2)
        sampler.record(0)
        sampler.record(0)
        sampler.reset()
        assert sampler.deviations == []

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BankLoadSampler(0)
        with pytest.raises(ValueError):
            BankLoadSampler(4, sample_every=0)


class TestBankDeviationCdf:
    def test_empty(self):
        x, f = bank_deviation_cdf([])
        assert len(x) == 0 and len(f) == 0

    def test_cdf_reaches_one(self):
        x, f = bank_deviation_cdf([1.0, 1.5, 2.0])
        assert f[-1] == pytest.approx(1.0)

    def test_cdf_on_grid(self):
        x, f = bank_deviation_cdf([1.0, 2.0, 3.0, 4.0], grid=[2.5])
        assert f[0] == pytest.approx(0.5)

    def test_cdf_monotone(self):
        samples = [1.0, 1.2, 1.7, 2.3, 3.1]
        _, f = bank_deviation_cdf(samples, grid=[1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
        assert all(f[i] <= f[i + 1] for i in range(len(f) - 1))

    def test_numpy_off_path_with_grid(self, monkeypatch):
        """The pure-python fallback must agree with numpy on an
        explicit grid and return plain lists."""
        import repro.telemetry.bankstats as bankstats

        samples = [1.0, 2.0, 3.0, 4.0]
        grid = [0.5, 2.5, 4.0, 5.0]
        ref_x, ref_f = bank_deviation_cdf(samples, grid=grid)
        monkeypatch.setattr(bankstats, "load_numpy", lambda: None)
        x, f = bank_deviation_cdf(samples, grid=grid)
        assert isinstance(x, list) and isinstance(f, list)
        assert x == [0.5, 2.5, 4.0, 5.0]
        assert f == [0.0, 0.5, 1.0, 1.0]
        assert list(ref_x) == x and [float(v) for v in ref_f] == f

    def test_numpy_off_path_without_grid(self, monkeypatch):
        import repro.telemetry.bankstats as bankstats

        monkeypatch.setattr(bankstats, "load_numpy", lambda: None)
        x, f = bank_deviation_cdf([3.0, 1.0, 2.0])
        assert x == [1.0, 2.0, 3.0]
        assert f == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]
        assert bank_deviation_cdf([]) == ([], [])


_NUMPY_FREE_RUNS = """
import sys

import repro
from repro import Cluster, Host, RequestKind, cascade_lake
from repro.experiments.quadrants import QUADRANTS, quadrant_experiment

host = Host(cascade_lake())
host.add_stream_cores(1, store_fraction=0.5)
host.add_raw_dma(RequestKind.WRITE)
assert host.run(1_000.0, 2_000.0).mem_bw_total > 0
cluster = Cluster(cascade_lake(), n_hosts=2)
for member in cluster.hosts:
    member.add_stream_cores(1, store_fraction=1.0)
assert cluster.run(1_000.0, 2_000.0).host(1).mem_bw_total > 0
quadrant_experiment(QUADRANTS[1]).sweep((1,), 1_000.0, 2_000.0, jobs=1)
assert "numpy" not in sys.modules, "a simulation run imported numpy"
"""


class TestNumpyLoadsLazily:
    def test_runs_and_sweeps_never_import_numpy(self, tmp_path):
        """numpy is for snapshot and analysis helpers only: importing
        the package, a host run, a 2-host rack run and a serial sweep
        (what a sweep worker executes) must not load it."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_FREE_RUNS],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
