"""Runtime invariant checking (REPRO_VALIDATE): probes, engine checks,
differential parity, and violation reporting."""

import dataclasses
import heapq
import sys

import pytest

from repro import Host, RequestKind, cascade_lake
from repro.sim.engine import Simulator
from repro.validate import (
    InvariantViolation,
    ValidatingSimulator,
    Validator,
    dispatch_equivalence_selftest,
    enabled,
    tolerance,
    verify_heap,
)
from repro.validate.harness import (
    assert_results_identical,
    differential_point,
    result_payload,
)

WARMUP = 1_000.0
MEASURE = 3_000.0


@pytest.fixture(autouse=True)
def clean_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    monkeypatch.delenv("REPRO_VALIDATE_TOL", raising=False)


def _small_host(validate=None):
    host = Host(cascade_lake(), validate=validate)
    host.add_stream_cores(2, store_fraction=0.0)
    host.add_raw_dma(RequestKind.WRITE, name="dma")
    return host


class TestEnableKnobs:
    def test_off_by_default(self):
        assert not enabled()
        result = _small_host().run(WARMUP, MEASURE)
        assert result.invariant_checks == 0

    @pytest.mark.parametrize("value", ["1", "on", "yes", "true", "TRUE"])
    def test_env_values_enable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert enabled()

    @pytest.mark.parametrize("value", ["", "0", "off", "no", "false"])
    def test_env_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert not enabled()

    def test_env_knob_builds_validating_host(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        host = _small_host()
        assert isinstance(host.sim, ValidatingSimulator)
        assert host.run(WARMUP, MEASURE).invariant_checks > 0

    def test_explicit_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        host = _small_host(validate=False)
        assert not isinstance(host.sim, ValidatingSimulator)
        assert host.run(WARMUP, MEASURE).invariant_checks == 0

    def test_tolerance_default(self):
        assert tolerance() == 0.25

    def test_tolerance_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE_TOL", "0.5")
        assert tolerance() == 0.5

    @pytest.mark.parametrize("bad", ["zero", "-0.1", "0"])
    def test_tolerance_rejects_bad_values(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_VALIDATE_TOL", bad)
        with pytest.raises(ValueError, match="REPRO_VALIDATE_TOL"):
            tolerance()


class TestValidatedRuns:
    def test_validated_run_passes_checks(self):
        result = _small_host(validate=True).run(WARMUP, MEASURE)
        assert result.invariant_checks > 0

    def test_validated_run_is_float_identical(self):
        """Validation observes; it must never perturb the simulation."""
        validated = _small_host(validate=True).run(WARMUP, MEASURE)
        plain = _small_host(validate=False).run(WARMUP, MEASURE)
        assert_results_identical(validated, plain, "validated vs plain")
        assert validated.events_processed == plain.events_processed

    def test_store_heavy_quadrant_validates(self):
        host = Host(cascade_lake(), validate=True)
        host.add_stream_cores(2, store_fraction=1.0)
        host.add_raw_dma(RequestKind.WRITE, name="dma")
        assert host.run(WARMUP, MEASURE).invariant_checks > 0

    def test_p2m_read_workload_validates(self):
        host = Host(cascade_lake(), validate=True)
        host.add_nvme(kind=RequestKind.READ)
        assert host.run(WARMUP, MEASURE).invariant_checks > 0


class TestSeededCorruption:
    """Tampered state must surface as a structured violation."""

    def _run_validated(self):
        host = _small_host(validate=True)
        host.run(WARMUP, MEASURE)
        return host

    def test_queue_count_tamper_detected(self):
        host = self._run_validated()
        host.mc.channels[0].rpq_pool.occ.value += 1
        with pytest.raises(InvariantViolation) as excinfo:
            host._validator.end_window(host)
        assert "mc.ch0" in str(excinfo.value)

    def test_credit_leak_detected(self):
        host = self._run_validated()
        host.cores[0].lfb.alloc_count += 1  # phantom acquisition
        with pytest.raises(InvariantViolation, match="credit-conservation"):
            host._validator.end_window(host)

    def test_cha_counter_tamper_detected(self):
        host = self._run_validated()
        host.cha.ingress_occ.value += 1
        with pytest.raises(InvariantViolation, match="cha.ingress"):
            host._validator.end_window(host)

    def test_littles_law_disagreement_detected(self):
        checker = Validator(tolerance=0.25, min_samples=1)
        with pytest.raises(InvariantViolation, match="littles-law"):
            # Occupancy says L = 50/10 = 5 ns; timestamps say 1 ns.
            checker._check_littles_law_pool(
                "pool", 50.0, 100.0, 1000, 1.0, 100.0
            )

    def test_throughput_bound_violation_detected(self):
        checker = Validator(tolerance=0.25, min_samples=1)
        with pytest.raises(InvariantViolation, match="throughput-bound"):
            # R * L = 10 credits in flight against a capacity of 5.
            checker._check_littles_law_pool(
                "pool", 10.0, 5.0, 1000, 1.0, 100.0
            )

    def test_statistical_checks_skip_thin_samples(self):
        checker = Validator(tolerance=0.25, min_samples=200)
        checker._check_littles_law_pool("pool", 50.0, 100.0, 10, 1.0, 100.0)
        assert checker.checks_passed == 0


class TestValidatingSimulator:
    def test_matches_base_simulator_exactly(self):
        delays = [5.0, 1.0, 1.0, 3.0, 0.0, 9.0, 3.0]
        base, checking = Simulator(), ValidatingSimulator()
        base_order, checking_order = [], []
        for i, d in enumerate(delays):
            base.schedule(d, base_order.append, i)
            checking.schedule(d, checking_order.append, i)
        base.run_until(100.0)
        checking.run_until(100.0)
        assert base_order == checking_order
        assert base.events_processed == checking.events_processed
        assert base.now == checking.now

    def test_run_until_backwards_raises(self):
        sim = ValidatingSimulator()
        sim.run_until(10.0)
        with pytest.raises(ValueError):
            sim.run_until(5.0)

    def test_malformed_heap_entry_detected(self):
        sim = ValidatingSimulator()
        sim._buckets[1.0] = ("not-callable", ())
        heapq.heappush(sim._heap, 1.0)
        with pytest.raises(InvariantViolation, match="heap-entry-shape"):
            sim.run_until(10.0)

    def test_time_travelling_entry_detected(self):
        sim = ValidatingSimulator()
        sim.run_until(10.0)
        # t < now, bypassing schedule()
        sim._buckets[1.0] = (print, ())
        sim._heap.append(1.0)
        with pytest.raises(InvariantViolation, match="clock-monotonicity"):
            sim.run(max_events=10)

    def test_desynchronised_bucket_detected(self):
        sim = ValidatingSimulator()
        heapq.heappush(sim._heap, 1.0)  # pending instant with no bucket
        with pytest.raises(InvariantViolation, match="heap-bucket-sync"):
            sim.run_until(10.0)
        sim = ValidatingSimulator()
        sim.schedule(1.0, lambda: None)
        sim._heap.clear()  # bucket with no pending instant
        with pytest.raises(InvariantViolation, match="heap-bucket-sync"):
            verify_heap(sim)

    def test_run_drains_cancelled_residue_at_max_events(self):
        sim = ValidatingSimulator()
        fired = []
        for i in range(3):
            sim.schedule(float(i + 1), fired.append, i)
        sim.schedule_cancellable(50.0, fired.append, "never").cancel()
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_verify_heap_counts_entries(self):
        sim = ValidatingSimulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        assert sim.verify_heap() == 5

    def test_verify_heap_detects_corruption(self):
        sim = Simulator()
        for i in range(6):
            sim.schedule(float(i), lambda: None)
        # Break the heap property behind heapq's back.
        sim._heap[0], sim._heap[-1] = sim._heap[-1], sim._heap[0]
        with pytest.raises(InvariantViolation, match="heap-order"):
            verify_heap(sim)

    def test_dispatch_equivalence_selftest_passes(self):
        dispatch_equivalence_selftest()

    def test_callbacks_fire_from_the_production_loop(self):
        """A validated run dispatches every event from Simulator._drain
        itself, not from a checked copy of the loop: through run_until,
        budgeted chunks and run, with same-instant and cancellable
        entries filed from inside callbacks."""
        sim = ValidatingSimulator()
        callers = []

        def hit(depth):
            callers.append(sys._getframe(1).f_code)
            if depth:
                sim.schedule(0.0, hit, depth - 1)
                event = sim.schedule_cancellable(1.0, hit, depth - 1)
                if depth % 2:
                    event.cancel()

        for i in range(20):
            sim.schedule(float(i % 5), hit, 3)
            sim.schedule_at_cancellable(float(i % 3), hit, 2)
        sim._drain(3.0, 7)
        sim.run_until(4.0)
        sim.run(max_events=10_000)
        assert len(callers) == sim.events_processed > 100
        assert set(callers) == {Simulator._drain.__code__}

        # A validated host run: the checking loop itself makes no
        # Python-level call but its entry check and the base loop.
        host = _small_host(validate=True)
        called = set()
        checking_loop = ValidatingSimulator._drain.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_back.f_code is checking_loop:
                called.add(frame.f_code.co_name)

        host.start()
        sys.setprofile(profile)
        try:
            host.sim.run_until(2_000.0)
        finally:
            sys.setprofile(None)
        assert host.sim.events_processed > 1_000
        assert called == {"_drain", "_check_entry"}

    def test_entry_planted_at_the_current_instant_is_checked_first(self):
        """An entry a callback files at the instant being dispatched is
        checked before it fires, even when the same callback cancels
        the Event queued behind it (a cancelled Event fires nothing, so
        it must not stretch the checked hand-off)."""
        sim = ValidatingSimulator()
        fired = []
        later = []

        def plant():
            later[0].cancel()
            # args must be a tuple; filed behind schedule()'s back
            sim._file(sim.now, (fired.append, ["planted"]))

        sim.schedule(1.0, plant)
        later.append(sim.schedule_cancellable(1.0, fired.append, "event"))
        with pytest.raises(InvariantViolation, match="heap-entry-shape"):
            sim.run_until(10.0)
        assert fired == []


class TestDifferentialHarness:
    def test_differential_point_quadrant(self):
        from repro.experiments.quadrants import QUADRANTS, quadrant_experiment

        modes = differential_point(
            quadrant_experiment(QUADRANTS[1]), 1, WARMUP, MEASURE
        )
        assert set(modes) == {"serial", "parallel", "cached", "validated"}
        assert modes["validated"][0].colocated.invariant_checks > 0
        assert modes["serial"][0].colocated.invariant_checks == 0

    def test_assert_identical_ignores_diagnostics(self):
        result = _small_host(validate=True).run(WARMUP, MEASURE)
        twin = dataclasses.replace(
            result, sim_wall_s=999.0, events_per_sec=1.0, invariant_checks=0
        )
        assert_results_identical(result, twin)

    def test_assert_identical_names_differing_field(self):
        result = _small_host(validate=False).run(WARMUP, MEASURE)
        twin = dataclasses.replace(
            result, events_processed=result.events_processed + 1
        )
        with pytest.raises(AssertionError, match="events_processed"):
            assert_results_identical(result, twin, "twin")

    def test_result_payload_strips_diagnostics(self):
        result = _small_host(validate=False).run(WARMUP, MEASURE)
        payload = result_payload(result)
        assert "sim_wall_s" not in payload
        assert "events_per_sec" not in payload
        assert "invariant_checks" not in payload
        assert "events_processed" in payload


class TestInvariantViolation:
    def test_message_carries_structure(self):
        violation = InvariantViolation(
            "mc.ch0.wpq",
            "occupancy-bounds",
            "WPQ count 99 outside [0, 64]",
            window=(1000.0, 4000.0),
            details={"count": 99},
        )
        text = str(violation)
        assert "[mc.ch0.wpq]" in text
        assert "occupancy-bounds" in text
        assert "1000.0..4000.0" in text
        assert "count=99" in text
        assert violation.component == "mc.ch0.wpq"
        assert violation.identity == "occupancy-bounds"
        assert isinstance(violation, AssertionError)

    def test_validator_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            Validator(tolerance=0.0)
