"""Checkpoint/restore, preemption and the no-progress watchdog."""

import os
import pickle
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro import Host, RequestKind, cascade_lake
from repro.sim import checkpoint, watchdog
from repro.sim.engine import Simulator
from repro.validate import ValidatingSimulator
from repro.validate.harness import (
    _environment,
    assert_results_identical,
    resume_differential,
)

WARMUP, MEASURE = 2_000.0, 6_000.0


@pytest.fixture(autouse=True)
def clean_checkpoint_env(monkeypatch):
    for name in (
        "REPRO_CKPT",
        "REPRO_CKPT_PATH",
        "REPRO_CKPT_DIR",
        "REPRO_WATCHDOG",
        "REPRO_CHAOS",
    ):
        monkeypatch.delenv(name, raising=False)
    checkpoint.disarm_preempt()
    checkpoint.end_task()
    yield
    checkpoint.disarm_preempt()
    checkpoint.end_task()


def _build_host():
    host = Host(cascade_lake())
    host.add_stream_cores(2, store_fraction=0.5)
    host.add_raw_dma(RequestKind.WRITE)
    return host


# ----------------------------------------------------------------------
# Engine observers: the canonical pending walk
# ----------------------------------------------------------------------


class _Recorder:
    """Picklable callback target that logs (tag, now) firings."""

    def __init__(self):
        self.log = []
        self.sim = None

    def hit(self, tag):
        self.log.append((tag, self.sim.now))


class TestPendingEntries:
    def test_pending_entries_covers_every_entry_shape(self):
        sim = Simulator()
        rec = _Recorder()
        rec.sim = sim
        sim.schedule(5.0, rec.hit, "a")
        sim.schedule(5.0, rec.hit, "b")  # same-instant list bucket
        sim.schedule(9.0, rec.hit, "c")  # singleton bucket
        keep = sim.schedule_cancellable(7.0, rec.hit, "keep")
        dead = sim.schedule_cancellable(7.0, rec.hit, "dead")
        dead.cancel()
        for tag in ("t1", "t2", "t3"):  # a same-delay run at t=3
            sim.schedule(3.0, rec.hit, tag)

        entries = list(sim.pending_entries())
        # 2 tuples at t=5, 1 at t=9, 2 Events at t=7, 3 tuples at t=3.
        assert len(entries) == 8
        assert {t for t, _ in entries} == {3.0, 5.0, 7.0, 9.0}
        assert keep in [e for _, e in entries]
        assert dead in [e for _, e in entries]  # lazily deleted, still walked
        for time, entry in entries:
            if isinstance(entry, type(keep)):
                assert entry.time == time
        assert [e[1] for t, e in entries if t == 3.0] == [("t1",), ("t2",), ("t3",)]
        # pending counts every entry; pending_live excludes the
        # cancelled Event.
        assert sim.pending == 8
        assert sim.pending_live == 7
        assert sorted(sim.pending_instants()) == [3.0, 5.0, 7.0, 9.0]

    @pytest.mark.parametrize("engine", [Simulator, ValidatingSimulator])
    def test_pending_walk_agrees_with_pending_property(self, engine):
        sim = engine()
        rec = _Recorder()
        rec.sim = sim
        rng = random.Random(42)
        for _ in range(200):
            sim.schedule(rng.choice([1.0, 2.5, 2.5, 40.0, 900.0]), rec.hit, "x")
        for _ in range(5):
            sim.schedule(2.5, rec.hit, "m")
        walked = sum(1 for _ in sim.pending_entries())
        assert walked == sim.pending == 205


# ----------------------------------------------------------------------
# Engine pickling: a snapshot clone replays the identical sequence
# ----------------------------------------------------------------------


class _Feeder:
    """Self-rescheduling generator of a deterministic mixed workload."""

    def __init__(self, sim, rec, rng_seed):
        self.sim = sim
        self.rec = rec
        self.rng = random.Random(rng_seed)
        self.n = 0

    def tick(self):
        self.n += 1
        self.rec.hit(f"tick{self.n}")
        if self.n < 400:
            self.sim.schedule(self.rng.choice([0.0, 1.0, 3.5]), self.tick)
            if self.n % 7 == 0:
                for k in range(3):
                    self.sim.schedule(2.0, self.rec.hit, f"burst{self.n}.{k}")
            if self.n % 11 == 0:
                event = self.sim.schedule_cancellable(
                    5.0, self.rec.hit, f"cancellable{self.n}"
                )
                if self.n % 22 == 0:
                    event.cancel()


class TestEnginePickleRoundTrip:
    @pytest.mark.parametrize("engine", [Simulator, ValidatingSimulator])
    def test_cloned_simulator_fires_identical_suffix(self, engine):
        sim = engine()
        rec = _Recorder()
        rec.sim = sim
        rng = random.Random(7)
        feeder = _Feeder(sim, rec, rng.random())
        sim.schedule(0.0, feeder.tick)
        # Advance partway, snapshot, then race the original against the
        # clone: both must fire the identical remaining sequence.
        sim._drain(1e9, 137)
        blob = pickle.dumps((sim, rec), protocol=4)
        sim.run_until(10_000.0)
        sim2, rec2 = pickle.loads(blob)
        sim2.run_until(10_000.0)
        assert rec2.log == rec.log
        assert sim2.now == sim.now
        assert sim2.events_processed == sim.events_processed


# ----------------------------------------------------------------------
# REPRO_CKPT parsing and plan plumbing
# ----------------------------------------------------------------------


class TestIntervalSpec:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("", (None, None)),
            ("off", (None, None)),
            ("on", (checkpoint.DEFAULT_EVERY_EVENTS, None)),
            ("events:5000", (5000, None)),
            ("25000", (25000, None)),
            ("time:750.5", (None, 750.5)),
        ],
    )
    def test_parse(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_CKPT", raw)
        assert checkpoint.interval_spec() == expected

    @pytest.mark.parametrize("raw", ["soon", "events:-1", "time:0", "0x10", "-5"])
    def test_garbage_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CKPT", raw)
        with pytest.raises(ValueError, match="REPRO_CKPT"):
            checkpoint.interval_spec()

    def test_cadence_without_destination_warns_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_CKPT", "on")
        monkeypatch.setattr(checkpoint, "_WARNED_NO_PATH", False)
        with pytest.warns(RuntimeWarning, match="no destination"):
            assert checkpoint.active_plan() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert checkpoint.active_plan() is None  # warned once

    def test_destination_without_cadence_is_preemption_only(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CKPT_PATH", str(tmp_path / "c.ckpt"))
        plan = checkpoint.active_plan()
        assert plan is not None
        assert plan.every_events is None and plan.every_ns is None

    def test_task_path_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CKPT_PATH", str(tmp_path / "env.ckpt"))
        checkpoint.begin_task(str(tmp_path / "task.ckpt"))
        try:
            assert checkpoint.checkpoint_path().name == "task.ckpt"
        finally:
            checkpoint.end_task()
        assert checkpoint.checkpoint_path().name == "env.ckpt"


# ----------------------------------------------------------------------
# Interrupt/resume differentials (the bit-identical contract)
# ----------------------------------------------------------------------


class TestInterruptResume:
    def test_resume_is_bit_identical_at_random_events(self):
        rng = random.Random(0xC4E1)
        points = sorted(rng.randrange(2_000, 60_000) for _ in range(3))
        resume_differential(
            _build_host, WARMUP, MEASURE, at_events=points, context="default knobs"
        )

    @pytest.mark.parametrize("kernel", ["on", "off"])
    @pytest.mark.parametrize("ddio", [None, "1"])
    def test_resume_across_knob_matrix(self, kernel, ddio):
        rng = random.Random(f"{kernel}-{ddio}")  # str seeds are not salted
        with _environment(REPRO_KERNEL=kernel, REPRO_DDIO=ddio):
            resume_differential(
                _build_host,
                WARMUP,
                MEASURE,
                at_events=(rng.randrange(3_000, 40_000),),
                context=f"kernel={kernel} ddio={ddio}",
            )

    def test_preempted_carries_path_and_warmup_interrupt_resumes(self, tmp_path):
        path = str(tmp_path / "host.ckpt")
        baseline = _build_host().run(WARMUP, MEASURE)
        with _environment(REPRO_CKPT_PATH=path):
            checkpoint.arm_preempt(1_000)  # well inside the warmup window
            try:
                with pytest.raises(checkpoint.Preempted) as excinfo:
                    _build_host().run(WARMUP, MEASURE)
            finally:
                checkpoint.disarm_preempt()
            assert excinfo.value.path == path
            restored = Host.restore(path)
            assert restored._resume_state.phase == "warmup"
            result = restored.resume_run()
        assert_results_identical(baseline, result, context="warmup preempt")

    def test_periodic_checkpoints_are_discarded_on_completion(self, tmp_path):
        path = str(tmp_path / "host.ckpt")
        baseline = _build_host().run(WARMUP, MEASURE)
        with _environment(REPRO_CKPT_PATH=path, REPRO_CKPT="events:2000"):
            result = _build_host().run(WARMUP, MEASURE)
        assert_results_identical(baseline, result, context="periodic cadence")
        assert not os.path.exists(path)  # completed runs leave no blob

    def test_time_cadence_is_result_invisible(self, tmp_path):
        path = str(tmp_path / "host.ckpt")
        baseline = _build_host().run(WARMUP, MEASURE)
        with _environment(REPRO_CKPT_PATH=path, REPRO_CKPT="time:500"):
            result = _build_host().run(WARMUP, MEASURE)
        assert_results_identical(baseline, result, context="time cadence")

    def test_post_restore_validation_walks_the_revived_graph(self, tmp_path):
        path = str(tmp_path / "host.ckpt")
        with _environment(REPRO_CKPT_PATH=path, REPRO_VALIDATE="1"):
            baseline = _build_host().run(WARMUP, MEASURE)
            checkpoint.arm_preempt(5_000)
            try:
                with pytest.raises(checkpoint.Preempted):
                    _build_host().run(WARMUP, MEASURE)
            finally:
                checkpoint.disarm_preempt()
            # restore() runs the structural invariant walk (REPRO_VALIDATE=1);
            # a corrupted revived graph would raise InvariantViolation here.
            result = Host.restore(path).resume_run()
        assert_results_identical(baseline, result, context="validated resume")


# ----------------------------------------------------------------------
# Blob integrity and knob fingerprinting
# ----------------------------------------------------------------------


class TestBlobIntegrity:
    def test_corrupt_blob_quarantined_and_run_falls_back_fresh(self, tmp_path):
        path = tmp_path / "host.ckpt"
        path.write_bytes(b"RRC1" + b"\x00" * 40)
        baseline = _build_host().run(WARMUP, MEASURE)
        with _environment(REPRO_CKPT_PATH=str(path)):
            with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
                result = _build_host().run(WARMUP, MEASURE)
        assert_results_identical(baseline, result, context="corrupt fallback")
        assert list((tmp_path / "quarantine").iterdir())

    def test_foreign_file_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "host.ckpt"
        from repro.experiments.runcache import encode_blob

        path.write_bytes(encode_blob({"format": "something-else"}))
        with pytest.warns(RuntimeWarning, match="not a host checkpoint"):
            with pytest.raises(checkpoint.CheckpointError):
                checkpoint.load(path)

    def test_version_mismatch_refused_without_quarantine(self, tmp_path):
        path = tmp_path / "host.ckpt"
        from repro.experiments.runcache import encode_blob

        # A newer writer, and the previous format (Requests of another
        # shape, a knob fingerprint with other keys).
        for version in (checkpoint.CKPT_VERSION + 1, checkpoint.CKPT_VERSION - 1):
            path.write_bytes(encode_blob({"format": "host-ckpt", "version": version}))
            with pytest.raises(checkpoint.CheckpointError, match="version"):
                checkpoint.load(path)
            assert path.exists()  # mismatched blobs are left intact

    def test_knob_mismatch_refuses_resume(self, tmp_path):
        path = str(tmp_path / "host.ckpt")
        with _environment(REPRO_CKPT_PATH=path, REPRO_KERNEL="on"):
            checkpoint.end_task()  # run numbering as a fresh process would see it
            checkpoint.arm_preempt(5_000)
            try:
                with pytest.raises(checkpoint.Preempted):
                    _build_host().run(WARMUP, MEASURE)
            finally:
                checkpoint.disarm_preempt()
        with _environment(REPRO_KERNEL="off"):
            with pytest.raises(checkpoint.CheckpointError, match="kernel"):
                Host.restore(path)
        # Host.run degrades to a fresh run (with a warning), never garbage.
        with _environment(REPRO_CKPT_PATH=path, REPRO_KERNEL="off"):
            checkpoint.end_task()  # same ordinal as the interrupted run
            with pytest.warns(RuntimeWarning, match="not resuming"):
                result = _build_host().run(WARMUP, MEASURE)
        with _environment(REPRO_KERNEL="off"):
            baseline = _build_host().run(WARMUP, MEASURE)
        assert_results_identical(baseline, result, context="knob fallback")

    def test_run_key_binds_ordinal_and_windows(self):
        host = _build_host()
        checkpoint.begin_task(None)
        first = checkpoint.run_key(host, 1000.0, 2000.0)
        second = checkpoint.run_key(host, 1000.0, 2000.0)
        assert first != second  # ordinal advanced
        checkpoint.begin_task(None)  # reset numbering, as a retry would
        assert checkpoint.run_key(host, 1000.0, 2000.0) == first
        checkpoint.begin_task(None)
        assert checkpoint.run_key(host, 1000.0, 9999.0) != first


#: one 2-core host run in a fresh process: ``seed store_fraction
#: preempt``. With ``preempt`` 1 it stops at a checkpoint (on
#: ``REPRO_CKPT_PATH``); otherwise it prints the result's identity.
_RUN_IN_PROCESS = """
import sys

from repro import Host, cascade_lake
from repro.sim import checkpoint

seed, store_fraction, preempt = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3]
host = Host(cascade_lake(), seed=seed)
host.add_stream_cores(2, store_fraction=store_fraction)
if preempt == "1":
    checkpoint.arm_preempt(5_000)
    try:
        host.run(2_000.0, 6_000.0)
    except checkpoint.Preempted:
        sys.exit(0)
    sys.exit("run completed without being preempted")
result = host.run(2_000.0, 6_000.0)
print(result.lines_written, result.mem_bw_total.hex())
"""


def _run_script(script, *argv, **knobs):
    """Run ``script`` in a fresh interpreter with no ``REPRO_*`` knobs
    but ``knobs`` and the run cache off; return its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    env["REPRO_CACHE"] = "off"
    env.update(knobs)
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_in_process(ckpt_path, *argv):
    return _run_script(_RUN_IN_PROCESS, *argv, REPRO_CKPT_PATH=str(ckpt_path)).split()


class TestRunIdentity:
    def test_resume_never_returns_another_runs_result(self, tmp_path):
        """A blob left by one run must not be resumed by a different
        run on the same path: here the seed and the workload differ
        (C2M-Read vs C2M-ReadWrite) but the core count, config and
        windows match, and each process's run ordinal is 0."""
        path = tmp_path / "host.ckpt"
        _run_in_process(path, "1", "0.0", "1")
        assert path.exists()
        resumed = _run_in_process(path, "2", "1.0", "0")
        fresh_host = Host(cascade_lake(), seed=2)
        fresh_host.add_stream_cores(2, store_fraction=1.0)
        fresh = fresh_host.run(2_000.0, 6_000.0)
        assert fresh.lines_written > 0
        assert resumed == [str(fresh.lines_written), fresh.mem_bw_total.hex()]

    @pytest.mark.parametrize(
        "variant",
        ["seed", "store_fraction", "traffic_class", "region", "device_kind",
         "device_rate"],
    )
    def test_run_key_covers_every_run_input(self, variant):
        def build(**changes):
            host = Host(cascade_lake(), seed=changes.get("seed", 1))
            host.add_stream_cores(
                1,
                store_fraction=changes.get("store_fraction", 0.0),
                traffic_class=changes.get("traffic_class", "c2m"),
                region_bytes=changes.get("region", 1 << 30),
            )
            host.add_raw_dma(
                changes.get("device_kind", RequestKind.WRITE),
                device_rate=changes.get("device_rate"),
            )
            return host

        changed = {
            "seed": 2,
            "store_fraction": 1.0,
            "traffic_class": "other",
            "region": 1 << 29,
            "device_kind": RequestKind.READ,
            "device_rate": 1.0,
        }
        checkpoint.begin_task(None)
        base = checkpoint.run_key(build(), 1000.0, 2000.0)
        checkpoint.begin_task(None)
        other = checkpoint.run_key(
            build(**{variant: changed[variant]}), 1000.0, 2000.0
        )
        assert base != other


_IDENTITY_PROBE = """
import json

from repro import Host, RequestKind, cascade_lake
from repro.experiments.runcache import knob_namespace
from repro.sim.checkpoint import _knob_fingerprint
from repro.validate.harness import result_fingerprint

host = Host(cascade_lake())
host.add_stream_cores(2, store_fraction=0.5)
host.add_raw_dma(RequestKind.WRITE)
result = host.run(1_000.0, 3_000.0)
print(json.dumps({
    "namespace": knob_namespace().decode(),
    "knobs": _knob_fingerprint(),
    "result": result_fingerprint(result),
}, sort_keys=True))
"""


class TestRetiredKnobs:
    def test_retired_knobs_change_no_identity_or_result(self):
        """The calendar-queue engine, macro-request burst and request
        pool switch knobs are gone: set in a fresh interpreter (the pool
        flag used to be read at import), they must leave the run-cache
        namespace, the checkpoint knob fingerprint and a host run's
        result exactly as when unset."""
        retired = {"WHEEL": "1", "BURST": "4", "POOL": "off"}
        unset = _run_script(_IDENTITY_PROBE)
        knobs = {"REPRO_" + k: v for k, v in retired.items()}
        assert _run_script(_IDENTITY_PROBE, **knobs) == unset


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------


class _Spinner:
    """A seeded synthetic livelock: reschedules itself at zero delay."""

    def __init__(self, sim):
        self.sim = sim
        self.fires = 0

    def pump(self):
        self.fires += 1
        self.sim.schedule(0.0, self.pump)


class TestWatchdog:
    def test_synthetic_livelock_hangs_without_watchdog(self):
        sim = Simulator()
        spinner = _Spinner(sim)
        sim.schedule(0.0, spinner.pump)
        # The hang signature: unbounded chunks execute, the clock never
        # moves. (An unchunked run_until(10.0) would simply never return.)
        for _ in range(50):
            assert sim._drain(10.0, 1_000) == 1_000
        assert sim.now == 0.0
        assert sim.events_processed == 50_000
        assert spinner.fires == 50_000

    def test_watchdog_flags_livelock_within_budget(self):
        sim = Simulator()
        spinner = _Spinner(sim)
        sim.schedule(0.0, spinner.pump)
        wd = watchdog.Watchdog(budget=5_000)
        wd.arm(sim)
        chunks = 0
        with pytest.raises(watchdog.StallError) as excinfo:
            while True:
                sim._drain(10.0, 1_000)
                wd.observe(sim)
                chunks += 1
                assert chunks < 100, "watchdog never fired"
        details = excinfo.value.details
        assert details["clock_ns"] == 0.0
        assert details["events_at_stuck_clock"] >= 5_000
        assert details["budget"] == 5_000
        assert details["pending_live"] >= 1
        # Fired within one chunk of the budget, not at some far excess.
        assert sim.events_processed <= 5_000 + 1_000

    def test_clock_advance_resets_the_budget(self):
        sim = Simulator()
        rec = _Recorder()
        rec.sim = sim
        wd = watchdog.Watchdog(budget=300)
        wd.arm(sim)
        # 200 events per instant — under budget each time the clock moves.
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            for _ in range(200):
                sim.schedule(t, rec.hit, "x")
        while sim.pending_live:
            sim._drain(100.0, 128)
            wd.observe(sim)  # must never raise

    def test_watchdog_env_run_is_result_invisible(self):
        baseline = _build_host().run(WARMUP, MEASURE)
        with _environment(REPRO_WATCHDOG="on"):
            result = _build_host().run(WARMUP, MEASURE)
        assert_results_identical(baseline, result, context="watchdog on")

    def test_dump_state_reports_channels_and_waiting_pools(self):
        host = _build_host()
        host.start()
        host.sim.run_until(1_000.0)
        details = watchdog.dump_state(host.sim, host)
        assert details["clock_ns"] == host.sim.now
        assert details["events_processed"] == host.sim.events_processed
        assert details["channels"], "expected per-channel pump state"
        for entry in details["channels"]:
            assert {"channel", "mode", "busy_until_ns", "pump_armed_at_ns"} <= set(entry)
        assert isinstance(details["pools_with_waiters"], list)

    @pytest.mark.parametrize(
        "raw,budget",
        [("", None), ("off", None), ("on", watchdog.DEFAULT_BUDGET), ("12000", 12000)],
    )
    def test_budget_from_env(self, monkeypatch, raw, budget):
        monkeypatch.setenv("REPRO_WATCHDOG", raw)
        assert watchdog.budget_from_env() == budget

    @pytest.mark.parametrize("raw", ["soon", "-3", "0x10"])
    def test_budget_garbage_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WATCHDOG", raw)
        with pytest.raises(ValueError, match="REPRO_WATCHDOG"):
            watchdog.budget_from_env()
