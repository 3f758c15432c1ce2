"""Supervised sweep executor: retries, timeouts, crashes, journal."""

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments import runcache
from repro.experiments.reporting import render_failures
from repro.experiments.supervisor import (
    Journal,
    SupervisorConfig,
    SweepError,
    _backoff_delay,
    _Task,
    run_supervised,
    stats,
)


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for name in (
        "REPRO_CACHE",
        "REPRO_JOBS",
        "REPRO_RETRIES",
        "REPRO_BACKOFF",
        "REPRO_TASK_TIMEOUT",
        "REPRO_JOURNAL_DIR",
        "REPRO_CHAOS",
    ):
        monkeypatch.delenv(name, raising=False)


# Fast-retrying config for tests; pool_failure_limit generous so crash
# tests exercise isolation rather than degradation unless they mean to.
def _config(**kwargs):
    kwargs.setdefault("backoff_s", 0.01)
    kwargs.setdefault("pool_failure_limit", 10)
    return SupervisorConfig(**kwargs)


def _bump(path):
    """Cross-process execution counter: append a byte, return the count."""
    with open(path, "ab") as fh:
        fh.write(b"x")
    return os.path.getsize(path)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _fail_n_times(n, path, x):
    """Raise on the first ``n`` executions, then return ``x * x``."""
    if _bump(path) <= n:
        raise ValueError(f"transient {x}")
    return x * x


def _exit_n_times(n, path, x):
    """Hard-kill the executing process on the first ``n`` executions."""
    if _bump(path) <= n:
        os._exit(9)
    return x * x


def _exit_always(x):
    os._exit(9)


def _hang_n_times(n, path, x):
    """Sleep far past any test timeout on the first ``n`` executions."""
    if _bump(path) <= n:
        time.sleep(60)
    return x * x


def _count_square(x, path):
    _bump(path)
    return x * x


class _Throttle:
    """Sim callback that wall-sleeps while ``flag`` records attempt 0.

    Scheduled into the host's simulator, so it rides along in mid-run
    checkpoints; the resumed attempt sees the bumped flag and runs at
    full speed.
    """

    def __init__(self, sim, flag, interval_ns, sleep_s):
        self.sim = sim
        self.flag = flag
        self.interval_ns = interval_ns
        self.sleep_s = sleep_s

    def tick(self):
        if os.path.getsize(self.flag) <= 1:
            time.sleep(self.sleep_s)
        self.sim.schedule(self.interval_ns, self.tick)


def _sim_run(flag, preempt_at=0, exit_process=False, throttle=None,
             warmup=1_000.0, measure=20_000.0):
    """A real (small) simulation task for preemption/resume tests.

    On its first execution (tracked via ``flag``) it arms an in-run
    checkpoint preemption at ``preempt_at`` events and/or slows the
    simulation down with a :class:`_Throttle`; later executions run
    clean and resume from whatever checkpoint the first one left.
    """
    from repro import Host, cascade_lake
    from repro.sim import checkpoint

    attempt = _bump(flag)
    host = Host(cascade_lake())
    host.add_stream_cores(1, store_fraction=0.0)
    if attempt == 1 and preempt_at:
        checkpoint.arm_preempt(preempt_at, exit_process=exit_process)
    if throttle is not None:
        interval_ns, sleep_s = throttle
        host.sim.schedule(0.0, _Throttle(host.sim, flag, interval_ns, sleep_s).tick)
    return host.run(warmup, measure)


class TestRetries:
    def test_transient_exception_recovered_serial(self, tmp_path):
        counter = tmp_path / "fails"
        batch = run_supervised(
            [(_square, (2,), {}), (_fail_n_times, (1, str(counter), 3), {})],
            jobs=1,
            config=_config(retries=1),
        )
        assert batch.results == [4, 9]
        assert len(batch.failures) == 1
        failure = batch.failures[0]
        assert failure.recovered and failure.kind == "error"
        assert failure.attempts == 2
        assert "ValueError: transient 3" in failure.outcomes[0]
        assert failure.outcomes[-1] == "ok"

    def test_transient_exception_recovered_parallel(self, tmp_path):
        counter = tmp_path / "fails"
        calls = [(_square, (i,), {}) for i in range(3)]
        calls.append((_fail_n_times, (1, str(counter), 5), {}))
        before = stats.snapshot()
        batch = run_supervised(calls, jobs=2, config=_config(retries=2))
        assert batch.results == [0, 1, 4, 25]
        assert [f.recovered for f in batch.failures] == [True]
        assert stats.delta(before)["retries"] == 1

    def test_retries_exhausted_raises_original_exception(self, tmp_path):
        counter = tmp_path / "fails"
        with pytest.raises(ValueError, match="transient") as excinfo:
            run_supervised(
                [(_fail_n_times, (10, str(counter), 3), {})],
                jobs=1,
                config=_config(retries=2),
            )
        # Three executions: the original attempt plus two retries.
        assert os.path.getsize(counter) == 3
        failures = excinfo.value.sweep_failures
        assert len(failures) == 1 and not failures[0].recovered
        assert failures[0].attempts == 3
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("attempt 3 of 3" in note for note in notes)

    def test_no_retries_by_default(self, tmp_path):
        counter = tmp_path / "fails"
        with pytest.raises(ValueError):
            run_supervised(
                [(_fail_n_times, (1, str(counter), 3), {})], jobs=1
            )
        assert os.path.getsize(counter) == 1

    def test_backoff_is_deterministic_and_bounded(self):
        task = _Task(0, (_square, (1,), {}), "_square(1)")
        task.digest = "abc123"
        cfg = _config(retries=5, backoff_s=0.1)
        task.failures = 1
        first = _backoff_delay(cfg, task)
        assert first == _backoff_delay(cfg, task)
        assert 0.1 <= first <= 0.2  # base * (1 + jitter), jitter in [0, 1)
        task.failures = 3
        assert 0.4 <= _backoff_delay(cfg, task) <= 0.8
        task.failures = 100
        assert _backoff_delay(cfg, task) == 10.0  # hard cap


class TestCrashIsolation:
    def test_killed_worker_recovered_and_batch_completes(self, tmp_path):
        counter = tmp_path / "kills"
        calls = [(_square, (i,), {}) for i in range(3)]
        calls.append((_exit_n_times, (1, str(counter), 7), {}))
        before = stats.snapshot()
        batch = run_supervised(calls, jobs=2, config=_config(retries=2))
        assert batch.results == [0, 1, 4, 49]
        assert [f.kind for f in batch.failures] == ["crash"]
        assert batch.failures[0].attempts == 2
        delta = stats.delta(before)
        assert delta["pool_failures"] >= 1 and delta["crashes"] >= 1

    def test_crash_blames_culprit_and_persists_siblings(self):
        calls = [
            (_square, (11,), {}),
            (_exit_always, (1,), {}),
            (_square, (12,), {}),
        ]
        with pytest.raises(SweepError) as excinfo:
            run_supervised(calls, jobs=2, config=_config(retries=0))
        assert "_exit_always" in str(excinfo.value)
        assert "REPRO_JOBS=1" in str(excinfo.value)
        assert [f.task for f in excinfo.value.failures] == ["_exit_always(1)"]
        # The innocent siblings completed and were persisted despite
        # sharing a pool with the crashing task.
        for arg in (11, 12):
            hit, value = runcache.get(runcache.key_for(_square, (arg,), {}))
            assert hit and value == arg * arg

    def test_degrades_to_serial_after_repeated_pool_failures(self, tmp_path):
        counter = tmp_path / "kills"
        calls = [
            (_square, (5,), {}),
            (_exit_n_times, (2, str(counter), 6), {}),
        ]
        before = stats.snapshot()
        batch = run_supervised(
            calls,
            jobs=2,
            config=_config(retries=5, pool_failure_limit=2),
        )
        assert batch.results == [25, 36]
        assert stats.delta(before)["degraded"] == 1
        # The surviving attempt ran in-process after degradation.
        assert any(f.kind == "crash" and f.recovered for f in batch.failures)


class TestTimeouts:
    def test_hung_task_times_out_and_recovers(self, tmp_path):
        counter = tmp_path / "hangs"
        calls = [
            (_square, (3,), {}),
            (_hang_n_times, (1, str(counter), 4), {}),
        ]
        before = stats.snapshot()
        start = time.monotonic()
        batch = run_supervised(
            calls, jobs=2, config=_config(retries=1, task_timeout_s=1.5)
        )
        elapsed = time.monotonic() - start
        assert batch.results == [9, 16]
        assert [f.kind for f in batch.failures] == ["timeout"]
        assert batch.failures[0].attempts == 2
        assert "REPRO_TASK_TIMEOUT=1.5" in batch.failures[0].outcomes[0]
        assert stats.delta(before)["timeouts"] == 1
        assert elapsed < 30.0  # the 60 s hang was cut off, not awaited

    def test_timeout_exhausted_raises_sweep_error(self, tmp_path):
        counter = tmp_path / "hangs"
        calls = [
            (_square, (3,), {}),
            (_hang_n_times, (10, str(counter), 4), {}),
        ]
        with pytest.raises(SweepError, match="REPRO_TASK_TIMEOUT") as excinfo:
            run_supervised(
                calls, jobs=2, config=_config(retries=0, task_timeout_s=1.0)
            )
        assert excinfo.value.failures[0].kind == "timeout"
        # The innocent sibling still completed and was persisted.
        hit, value = runcache.get(runcache.key_for(_square, (3,), {}))
        assert hit and value == 9


class TestJournal:
    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path):
        journal_dir = tmp_path / "journal"
        counters = [tmp_path / f"count{i}" for i in range(3)]
        flag = tmp_path / "flaky"
        calls = [
            (_count_square, (i, str(counters[i])), {}) for i in range(3)
        ]
        calls.append((_fail_n_times, (1, str(flag), 9), {}))
        cfg = _config(retries=0, journal_dir=journal_dir)
        # First invocation: the flaky task aborts the sweep, but the
        # three finished tasks are checkpointed.
        with pytest.raises(ValueError, match="transient"):
            run_supervised(calls, jobs=1, cache=False, config=cfg)
        assert [os.path.getsize(c) for c in counters] == [1, 1, 1]
        # Second invocation resumes: only the failed task re-executes.
        before = stats.snapshot()
        batch = run_supervised(calls, jobs=1, cache=False, config=cfg)
        assert batch.results == [0, 1, 4, 81]
        assert batch.resumed == 3
        assert stats.delta(before)["journal_hits"] == 3
        assert [os.path.getsize(c) for c in counters] == [1, 1, 1]

    def test_journal_resumes_parallel_batches(self, tmp_path):
        journal_dir = tmp_path / "journal"
        counters = [tmp_path / f"count{i}" for i in range(4)]
        calls = [
            (_count_square, (i, str(counters[i])), {}) for i in range(4)
        ]
        cfg = _config(journal_dir=journal_dir)
        first = run_supervised(calls, jobs=2, cache=False, config=cfg)
        second = run_supervised(calls, jobs=2, cache=False, config=cfg)
        assert first.results == second.results == [0, 1, 4, 9]
        assert second.resumed == 4
        assert [os.path.getsize(c) for c in counters] == [1, 1, 1, 1]

    def test_journal_records_failures_and_attempts(self, tmp_path):
        journal_dir = tmp_path / "journal"
        flag = tmp_path / "flaky"
        cfg = _config(retries=1, journal_dir=journal_dir)
        batch = run_supervised(
            [(_fail_n_times, (1, str(flag), 3), {})], jobs=1, cache=False, config=cfg
        )
        assert batch.results == [9]
        records = [
            json.loads(line)
            for line in (journal_dir / "journal.jsonl").read_text().splitlines()
        ]
        assert records[-1]["status"] == "done"
        assert records[-1]["attempts"] == 2
        assert any("transient" in o for o in records[-1]["outcomes"])

    def test_torn_journal_tail_is_ignored(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        good = json.dumps({"task": "aa", "status": "done", "stored": True})
        (journal_dir / "journal.jsonl").write_text(
            good + "\n" + '{"task": "bb", "status": "do'
        )
        journal = Journal(journal_dir)
        assert journal.completed("aa") is True
        assert journal.load_result("aa") == (False, None)  # no result file
        assert "bb" not in journal._records  # torn line dropped

    def test_corrupt_journal_result_forces_recompute(self, tmp_path):
        journal_dir = tmp_path / "journal"
        counter = tmp_path / "count"
        calls = [(_count_square, (6, str(counter)), {}), (_square, (8,), {})]
        cfg = _config(journal_dir=journal_dir)
        run_supervised(calls, jobs=1, cache=False, config=cfg)
        # Truncate every checkpointed result: the checksum fails, so
        # the resume recomputes instead of returning garbage.
        for path in journal_dir.glob("*.pkl"):
            path.write_bytes(path.read_bytes()[:10])
        batch = run_supervised(calls, jobs=1, cache=False, config=cfg)
        assert batch.results == [36, 64]
        assert batch.resumed == 0
        assert os.path.getsize(counter) == 2

    def test_journal_never_replays_across_knob_settings(self, tmp_path, monkeypatch):
        """A sweep journaled under REPRO_DDIO=1 and rerun without it on
        the same journal directory must recompute, and must not seed
        the run cache with DDIO results under the DDIO-off key."""
        from repro.experiments.quadrants import QUADRANTS, quadrant_experiment

        def ddio_domains():
            (point,) = quadrant_experiment(QUADRANTS[1]).sweep(
                (1,), 1_000.0, 2_000.0, jobs=1
            )
            runs = (point.colocated, point.c2m_isolated_run, point.p2m_isolated_run)
            return ["llc.ddio" in run.domain_snapshots for run in runs]

        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "journal"))
        monkeypatch.setenv("REPRO_DDIO", "1")
        assert ddio_domains() == [True, True, True]
        monkeypatch.delenv("REPRO_DDIO")
        assert ddio_domains() == [False, False, False]
        monkeypatch.delenv("REPRO_JOURNAL_DIR")
        assert ddio_domains() == [False, False, False]  # the cache alone


class TestSerialSemantics:
    def test_serial_batch_runs_all_tasks_despite_failure(self, tmp_path):
        """Serial and parallel agree: a failing task does not abandon
        its unstarted siblings (regression — serial used to stop at
        the first error)."""
        counter = tmp_path / "after"
        calls = [
            (_square, (2,), {}),
            (_boom, (1,), {}),
            (_count_square, (9, str(counter)), {}),
        ]
        with pytest.raises(ValueError, match="boom"):
            run_supervised(calls, jobs=1, config=_config())
        # The task *after* the failure still executed and persisted.
        assert os.path.getsize(counter) == 1
        hit, value = runcache.get(runcache.key_for(_square, (2,), {}))
        assert hit and value == 4

    def test_multiple_failures_report_first_and_count_rest(self):
        with pytest.raises(ValueError, match="boom 1") as excinfo:
            run_supervised(
                [(_boom, (1,), {}), (_boom, (2,), {})], jobs=1, config=_config()
            )
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("1 other task(s)" in note for note in notes)
        assert len(excinfo.value.sweep_failures) == 2


class TestPreemption:
    """Mid-run checkpoint preemption: interrupted tasks resume, not rerun."""

    def _baseline(self, tmp_path, **kwargs):
        flag = tmp_path / "baseline-flag"
        flag.write_bytes(b"xx")  # attempt >= 2: no preemption, no throttle
        batch = run_supervised(
            [(_sim_run, (str(flag),), kwargs)], jobs=1, cache=False, config=_config()
        )
        return batch.results[0]

    def test_serial_preempt_checkpoints_and_resumes(self, tmp_path):
        from repro.validate.harness import assert_results_identical

        baseline = self._baseline(tmp_path)
        journal_dir = tmp_path / "journal"
        flag = tmp_path / "flag"
        cfg = _config(retries=1, journal_dir=journal_dir, task_timeout_s=60.0)
        before = stats.snapshot()
        batch = run_supervised(
            [(_sim_run, (str(flag),), {"preempt_at": 6_000})],
            jobs=1,
            cache=False,
            config=cfg,
        )
        assert_results_identical(
            baseline, batch.results[0], context="serial preempt resume"
        )
        # One preempted attempt, resumed and recovered on the retry.
        assert os.path.getsize(flag) == 2
        assert stats.delta(before)["retries"] == 1
        assert [f.recovered for f in batch.failures] == [True]
        assert "Preempted" in batch.failures[0].outcomes[0]
        # The journal recorded the checkpoint lineage...
        records = [
            json.loads(line)
            for line in (journal_dir / "journal.jsonl").read_text().splitlines()
        ]
        preempted = [r for r in records if r["status"] == "preempted"]
        assert preempted and preempted[0]["ckpt"].endswith(".ckpt")
        assert records[-1]["status"] == "done"
        # ...and the blob was cleaned up once the task completed.
        assert not list(journal_dir.glob("*.ckpt"))

    def test_worker_preempt_exit_resumes(self, tmp_path):
        from repro.validate.harness import assert_results_identical

        baseline = self._baseline(tmp_path)
        journal_dir = tmp_path / "journal"
        flag = tmp_path / "flag"
        cfg = _config(retries=2, journal_dir=journal_dir, task_timeout_s=60.0)
        batch = run_supervised(
            [
                (_square, (4,), {}),
                (_sim_run, (str(flag),), {"preempt_at": 6_000, "exit_process": True}),
            ],
            jobs=2,
            cache=False,
            config=cfg,
        )
        assert batch.results[0] == 16
        assert_results_identical(
            baseline, batch.results[1], context="worker preempt resume"
        )
        # The worker exited with PREEMPT_EXIT_CODE (a pool break), so
        # the failure surfaces as a recovered crash; the flag proves the
        # retry resumed instead of simulating from scratch a third time.
        assert any(f.kind == "crash" and f.recovered for f in batch.failures)
        records = [
            json.loads(line)
            for line in (journal_dir / "journal.jsonl").read_text().splitlines()
        ]
        assert any(r["status"] == "preempted" for r in records)
        assert not list(journal_dir.glob("*.ckpt"))

    def test_timed_out_task_checkpoints_and_resumes(self, tmp_path):
        from repro.validate.harness import assert_results_identical

        throttle = (100.0, 0.02)  # ~0.8 s of wall-sleep on attempt 0
        baseline = self._baseline(
            tmp_path, throttle=throttle, warmup=1_000.0, measure=3_000.0
        )
        journal_dir = tmp_path / "journal"
        flag = tmp_path / "flag"
        cfg = _config(retries=2, journal_dir=journal_dir, task_timeout_s=0.3)
        before = stats.snapshot()
        batch = run_supervised(
            [
                (_square, (5,), {}),
                (
                    _sim_run,
                    (str(flag),),
                    {"throttle": throttle, "warmup": 1_000.0, "measure": 3_000.0},
                ),
            ],
            jobs=2,
            cache=False,
            config=cfg,
        )
        assert batch.results[0] == 25
        assert_results_identical(
            baseline, batch.results[1], context="timeout preempt resume"
        )
        assert stats.delta(before)["timeouts"] >= 1
        assert any(f.kind == "timeout" and f.recovered for f in batch.failures)
        # The pool teardown's SIGTERM made the worker checkpoint: the
        # journal carries the lineage and the retry resumed from it.
        records = [
            json.loads(line)
            for line in (journal_dir / "journal.jsonl").read_text().splitlines()
        ]
        assert any(r["status"] == "preempted" for r in records)
        assert not list(journal_dir.glob("*.ckpt"))


class TestConfig:
    def test_from_env_defaults_are_conservative(self):
        cfg = SupervisorConfig.from_env()
        assert cfg.retries == 0
        assert cfg.task_timeout_s == 0.0
        assert cfg.journal_dir is None

    def test_from_env_reads_knobs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RETRIES", "4")
        monkeypatch.setenv("REPRO_BACKOFF", "0.5")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path))
        cfg = SupervisorConfig.from_env()
        assert cfg.retries == 4
        assert cfg.backoff_s == 0.5
        assert cfg.task_timeout_s == 12.5
        assert cfg.journal_dir == Path(tmp_path)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("REPRO_RETRIES", "many"),
            ("REPRO_RETRIES", "-1"),
            ("REPRO_TASK_TIMEOUT", "soon"),
            ("REPRO_BACKOFF", "-0.5"),
        ],
    )
    def test_from_env_rejects_garbage(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=name):
            SupervisorConfig.from_env()


class TestReporting:
    def test_render_failures_lists_attempts_and_kind(self, tmp_path):
        counter = tmp_path / "fails"
        batch = run_supervised(
            [(_fail_n_times, (1, str(counter), 3), {})],
            jobs=1,
            config=_config(retries=1),
        )
        text = render_failures(batch.failures)
        assert "_fail_n_times" in text
        assert "error" in text
        assert "yes" in text  # recovered column
        lines = text.splitlines()
        assert any(" 2 " in line for line in lines)  # attempt count
