"""Supervised, fault-tolerant execution of independent sweep tasks.

:mod:`repro.experiments.parallel` fans a figure sweep out over a
process pool; this module is the supervisor that keeps that sweep
alive when individual tasks fail. It adds, on top of the plain pool:

* **per-task wall-clock timeouts** (``REPRO_TASK_TIMEOUT`` seconds,
  measured from submission; ``0``/unset disables) — a hung worker is
  terminated and the task counts a ``timeout`` attempt;
* **bounded retries with exponential backoff** (``REPRO_RETRIES``
  extra attempts per task, default 0; ``REPRO_BACKOFF`` base delay,
  default 0.05 s) plus *deterministic* jitter hashed from the task
  identity, so a retried sweep is exactly reproducible;
* **crash isolation** — when a worker dies (OOM kill, interpreter
  abort) the pool is broken and every in-flight task is a suspect:
  suspects are requeued one-at-a-time on fresh pools until the task
  that actually breaks the pool is identified and blamed, while
  innocent bystanders are requeued without consuming a retry;
* **graceful degradation** — after ``pool_failure_limit`` broken
  pools the remaining tasks run serially in-process (in-process
  execution cannot enforce timeouts, and chaos never injects kills
  in-process);
* **a sweep journal** (``REPRO_JOURNAL_DIR``) that checkpoints every
  task's status/attempts as JSON lines and its result as a
  checksummed pickle, so an interrupted suite resumes without
  recomputing finished runs — even for calls the content-keyed run
  cache cannot key, or with ``REPRO_CACHE=off``;
* **mid-run checkpoint resume** (:mod:`repro.sim.checkpoint`) — when
  checkpointing, task timeouts or chaos ``preempt`` faults are in
  play, each task gets a per-digest checkpoint file next to the
  journal. A timed-out task's SIGTERM (pool teardown) makes the
  worker checkpoint-and-exit mid-simulation; the retried attempt
  resumes from the blob instead of recomputing, bit-identical, and
  the journal records the checkpoint lineage (``preempted`` entries).

Failures are structured :class:`TaskFailure` records (description,
attempt outcomes, timings, traceback digest). Recovered failures ride
along on the :class:`BatchResult`; permanent ones are raised — the
original exception for ordinary task errors (annotated with the task),
a :class:`SweepError` carrying the records for crashes and timeouts.

All defaults are conservative: with retries, timeouts, journal and
chaos off, the fast path is the same cache-resolve + pool fan-out as
before.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import pickle
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import chaos, runcache
from repro.sim import checkpoint

#: a unit of work: (callable, positional args, keyword args)
Call = Tuple[Callable[..., Any], tuple, dict]


# ----------------------------------------------------------------------
# Public records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of a task that failed at least once.

    ``recovered`` distinguishes a task that eventually produced its
    result (the record rides along on the batch) from a permanent
    failure (the record travels on the raised :class:`SweepError`, or
    on the original exception's ``sweep_failures`` attribute).
    """

    task: str  #: short task description
    index: int  #: position in the submitted batch
    kind: str  #: final failure kind: "error" | "crash" | "timeout"
    attempts: int  #: attempts executed (including a final success)
    outcomes: Tuple[str, ...]  #: one summary line per attempt
    elapsed_s: float  #: wall-clock across all attempts
    traceback_digest: str  #: stable 12-hex digest of the traceback
    recovered: bool


@dataclass
class BatchResult:
    """Results of a supervised batch, in submission order."""

    results: List[Any]
    failures: List[TaskFailure]  #: recovered faults (batch succeeded)
    cached: int = 0  #: tasks served from the run cache
    resumed: int = 0  #: tasks restored from the journal


class SweepError(RuntimeError):
    """A sweep failed on crashes/timeouts; carries the failure records."""

    def __init__(self, message: str, failures: Sequence[TaskFailure]):
        super().__init__(message)
        self.failures: List[TaskFailure] = list(failures)


@dataclass
class SupervisorStats:
    """Process-wide counters for retry/requeue accounting.

    Benchmarks snapshot these around a figure build so retry and
    requeue counts land in ``extra_info`` next to the timings.
    """

    retries: int = 0
    requeues: int = 0
    pool_failures: int = 0
    timeouts: int = 0
    crashes: int = 0
    degraded: int = 0
    journal_hits: int = 0
    executed: int = 0  #: tasks that ran to completion (not cache/journal hits)
    recovered_failures: List[TaskFailure] = field(default_factory=list)

    _COUNTERS = (
        "retries",
        "requeues",
        "pool_failures",
        "timeouts",
        "crashes",
        "degraded",
        "journal_hits",
        "executed",
    )

    def snapshot(self) -> Dict[str, int]:
        out = {name: getattr(self, name) for name in self._COUNTERS}
        out["recovered"] = len(self.recovered_failures)
        return out

    def delta(self, before: Dict[str, int]) -> Dict[str, int]:
        now = self.snapshot()
        return {name: now[name] - before.get(name, 0) for name in now}


#: module-wide stats, accumulated across every supervised batch
stats = SupervisorStats()


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be a number, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {raw!r}")
    return value


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {raw!r}")
    return value


@dataclass(frozen=True)
class SupervisorConfig:
    """Fault-tolerance knobs (all off/conservative by default)."""

    retries: int = 0  #: extra attempts per task (REPRO_RETRIES)
    backoff_s: float = 0.05  #: base retry delay (REPRO_BACKOFF)
    task_timeout_s: float = 0.0  #: 0 disables (REPRO_TASK_TIMEOUT)
    journal_dir: Optional[Path] = None  #: None disables (REPRO_JOURNAL_DIR)
    pool_failure_limit: int = 3  #: broken pools before degrading to serial

    @classmethod
    def from_env(cls) -> "SupervisorConfig":
        journal = os.environ.get("REPRO_JOURNAL_DIR", "").strip()
        return cls(
            retries=_env_int("REPRO_RETRIES", 0),
            backoff_s=_env_float("REPRO_BACKOFF", 0.05),
            task_timeout_s=_env_float("REPRO_TASK_TIMEOUT", 0.0),
            journal_dir=Path(journal) if journal else None,
        )


# ----------------------------------------------------------------------
# Internal task state
# ----------------------------------------------------------------------


class _Task:
    __slots__ = (
        "index",
        "call",
        "desc",
        "digest",
        "payload",
        "cache_key",
        "failures",
        "outcomes",
        "last_kind",
        "isolated",
        "mode",
        "done",
        "result",
        "failed",
        "exception",
        "elapsed",
        "executed",
    )

    def __init__(self, index: int, call: Call, desc: str):
        self.index = index
        self.call = call
        self.desc = desc
        self.digest = ""
        self.payload: Optional[bytes] = None
        self.cache_key: Optional[str] = None
        self.failures = 0  # attempts consumed by failures
        self.outcomes: List[str] = []
        self.last_kind = ""
        self.isolated = False
        self.mode = "serial"
        self.done = False
        self.result: Any = None
        self.failed = False
        self.exception: Optional[BaseException] = None
        self.elapsed = 0.0
        self.executed = False  # ran at least once (not cache/journal)


def _task_digest(call: Call, desc: str, index: int) -> str:
    """Stable identity of a task across processes and resumed sweeps.

    Mirrors the run-cache key (code fingerprint + knob namespace +
    pickled call spec) but exists even when the cache is disabled;
    unpicklable calls fall back to description + batch position, which
    is stable across identical re-invocations of the same sweep.
    """
    import hashlib

    fn, args, kwargs = call
    digest = hashlib.sha256()
    digest.update(runcache.code_fingerprint().encode())
    digest.update(runcache.knob_namespace())
    try:
        digest.update(pickle.dumps((fn, args, sorted(kwargs.items())), protocol=4))
    except Exception:
        digest.update(f"unpicklable|{index}|{desc}".encode())
    return digest.hexdigest()


def _traceback_digest(exc: Optional[BaseException], kind: str, desc: str) -> str:
    import hashlib

    if exc is not None:
        text = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
    else:
        text = f"{kind}|{desc}"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _failure_of(task: _Task, recovered: bool) -> TaskFailure:
    return TaskFailure(
        task=task.desc,
        index=task.index,
        kind=task.last_kind or "error",
        attempts=task.failures + (1 if recovered else 0),
        outcomes=tuple(task.outcomes),
        elapsed_s=task.elapsed,
        traceback_digest=_traceback_digest(task.exception, task.last_kind, task.desc),
        recovered=recovered,
    )


def _backoff_delay(cfg: SupervisorConfig, task: _Task) -> float:
    """Exponential backoff with deterministic per-(task, attempt) jitter."""
    import hashlib

    if cfg.backoff_s <= 0:
        return 0.0
    base = cfg.backoff_s * (2.0 ** max(0, task.failures - 1))
    seed = hashlib.sha256(f"{task.digest}|{task.failures}".encode()).digest()
    jitter = int.from_bytes(seed[:8], "big") / 2.0**64  # [0, 1)
    return min(10.0, base * (1.0 + jitter))


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------


class Journal:
    """Append-only per-task checkpoint log plus result files.

    Layout under the journal directory::

        journal.jsonl     one JSON record per task status transition
        <digest>.pkl      checksummed pickled result of a finished task

    Records are keyed by the task digest, so a resumed (or partially
    edited) sweep reuses exactly the tasks whose identity is
    unchanged. A torn trailing line from an interrupted writer is
    ignored on load.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.log = self.root / "journal.jsonl"
        self._records = self._load()

    def _load(self) -> Dict[str, dict]:
        records: Dict[str, dict] = {}
        try:
            text = self.log.read_text()
        except OSError:
            return records
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn tail from an interrupted append
            if isinstance(record, dict) and "task" in record:
                records[record["task"]] = record
        return records

    def completed(self, digest: str) -> bool:
        record = self._records.get(digest)
        return bool(record) and record.get("status") == "done" and record.get("stored", False)

    def load_result(self, digest: str) -> Tuple[bool, Any]:
        try:
            blob = (self.root / f"{digest}.pkl").read_bytes()
        except OSError:
            return False, None
        return runcache.decode_blob(blob)

    def store_result(self, digest: str, value: Any) -> bool:
        import tempfile

        try:
            blob = runcache.encode_blob(value)
        except Exception:
            return False
        path = self.root / f"{digest}.pkl"
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def record(
        self,
        task: _Task,
        status: str,
        stored: bool = False,
        ckpt: Optional[str] = None,
    ) -> None:
        entry = {
            "task": task.digest,
            "desc": task.desc,
            "status": status,
            "stored": stored,
            "attempts": task.failures + (1 if status == "done" else 0),
            "outcomes": list(task.outcomes),
            "elapsed_s": round(task.elapsed, 6),
        }
        if ckpt is not None:
            entry["ckpt"] = ckpt
        self._records[task.digest] = entry
        try:
            with open(self.log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry) + "\n")
        except OSError:  # pragma: no cover - read-only journal dir
            pass


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _execute_payload(
    payload: bytes,
    identity: str,
    attempt: int,
    ckpt_path: Optional[str] = None,
) -> Any:
    """Worker-side entry point: chaos hook, then the task itself.

    ``ckpt_path`` is the task's per-digest checkpoint file (inside the
    journal directory): ``Host.run`` resumes from it if a previous
    attempt was preempted mid-run, and writes to it when this attempt
    is preempted (SIGTERM from a pool teardown, or the chaos
    ``preempt`` fault).
    """
    checkpoint.begin_task(ckpt_path)
    try:
        chaos.maybe_inject(identity, attempt, in_worker=True)
        fn, args, kwargs = pickle.loads(payload)
        return fn(*args, **kwargs)
    finally:
        checkpoint.end_task()


def _kill_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Tear a pool down without waiting on hung or dead workers."""
    if pool is None:
        return
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already reaped
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover
        pass
    for proc in list(processes.values()):
        try:
            proc.join(timeout=1.0)
        except Exception:  # pragma: no cover
            pass


@dataclass
class _RunContext:
    config: SupervisorConfig
    journal: Optional[Journal]
    recovered: List[TaskFailure] = field(default_factory=list)


def _ckpt_path(ctx: _RunContext, task: _Task) -> Optional[str]:
    """The task's checkpoint file, when mid-run resume is in play.

    Checkpoints live next to the journal (they are its mid-run
    extension: the journal resumes finished tasks, the checkpoint
    resumes the interrupted one) and are enabled when the environment
    asks for checkpointing, when task timeouts can preempt runs, or
    when chaos injects ``preempt`` faults.
    """
    if ctx.journal is None or not task.digest:
        return None
    if not checkpoint.preemption_wanted(ctx.config.task_timeout_s):
        return None
    return str(ctx.journal.root / f"{task.digest}.ckpt")


def _note_checkpoint(ctx: _RunContext, task: _Task) -> None:
    """Journal the checkpoint lineage of an interrupted attempt."""
    path = _ckpt_path(ctx, task)
    if path is None or not os.path.exists(path):
        return
    ctx.journal.record(task, "preempted", ckpt=os.path.basename(path))


def _record_failure(
    ctx: _RunContext,
    task: _Task,
    kind: str,
    exc: Optional[BaseException],
    retry_cb: Callable[[_Task], None],
) -> None:
    """Consume one attempt; schedule a retry or mark the task failed."""
    if kind == "error":
        summary = f"{type(exc).__name__}: {exc}" if exc is not None else "error"
    elif kind == "crash":
        summary = "crash: worker process died (pool broken)"
        stats.crashes += 1
    else:
        summary = f"timeout: exceeded REPRO_TASK_TIMEOUT={ctx.config.task_timeout_s:g}s"
        stats.timeouts += 1
    task.outcomes.append(summary)
    task.last_kind = kind
    task.exception = exc
    task.failures += 1
    _note_checkpoint(ctx, task)
    if task.failures <= ctx.config.retries:
        stats.retries += 1
        retry_cb(task)
        return
    task.failed = True
    if ctx.journal is not None:
        ctx.journal.record(task, "failed")


def _complete(ctx: _RunContext, task: _Task, value: Any) -> None:
    task.done = True
    task.result = value
    task.executed = True
    stats.executed += 1
    task.outcomes.append("ok")
    runcache.put(task.cache_key, value)
    if ctx.journal is not None:
        stored = ctx.journal.store_result(task.digest, value)
        ctx.journal.record(task, "done", stored=stored)
    path = _ckpt_path(ctx, task)
    if path is not None:
        try:
            os.unlink(path)
        except OSError:
            pass
    if task.failures > 0:
        failure = _failure_of(task, recovered=True)
        ctx.recovered.append(failure)
        stats.recovered_failures.append(failure)


def _run_serial(tasks: Sequence[_Task], ctx: _RunContext) -> None:
    """In-process execution: retries with inline backoff, no timeouts.

    Unlike the pre-supervisor serial path, a failing task does *not*
    abort the batch: remaining tasks still run (and persist), and the
    error is raised only after the whole batch has been driven to a
    terminal state.
    """

    def retry_later(task: _Task) -> None:
        delay = _backoff_delay(ctx.config, task)
        if delay > 0:
            time.sleep(delay)

    for task in sorted(tasks, key=lambda t: t.index):
        task.mode = "serial"
        ckpt_path = _ckpt_path(ctx, task)
        while not task.done and not task.failed:
            start = time.monotonic()
            fn, args, kwargs = task.call
            checkpoint.begin_task(ckpt_path)
            try:
                chaos.maybe_inject(task.digest, task.failures, in_worker=False)
                value = fn(*args, **kwargs)
            except Exception as exc:
                # A checkpoint.Preempted lands here too: the attempt
                # counts as an ordinary error and the retry resumes
                # from the blob the preemption wrote.
                task.elapsed += time.monotonic() - start
                _record_failure(ctx, task, "error", exc, retry_later)
            else:
                task.elapsed += time.monotonic() - start
                _complete(ctx, task, value)
            finally:
                checkpoint.end_task()


def _run_pool(
    tasks: Sequence[_Task], workers: int, ctx: _RunContext
) -> List[_Task]:
    """Supervised pool execution.

    Returns the tasks handed back for serial execution after the pool
    failed ``pool_failure_limit`` times; ``[]`` otherwise.
    """
    cfg = ctx.config
    queue: deque = deque(sorted(tasks, key=lambda t: t.index))
    waiting: List[Tuple[float, int, _Task]] = []  # backoff heap
    isolate: deque = deque()  # crash suspects, run one at a time
    inflight: Dict[Any, Tuple[_Task, float]] = {}
    seq = itertools.count()
    pool: Optional[ProcessPoolExecutor] = None
    pool_failures = 0

    from repro.experiments.parallel import _mark_worker

    def retry_later(task: _Task) -> None:
        delay = _backoff_delay(cfg, task)
        heapq.heappush(waiting, (time.monotonic() + delay, next(seq), task))

    def abandon_pool() -> None:
        nonlocal pool
        _kill_pool(pool)
        pool = None

    def remaining() -> List[_Task]:
        left = [t for _, _, t in waiting]
        left += list(queue) + list(isolate)
        left += [t for t, _ in inflight.values()]
        inflight.clear()
        return left

    try:
        while queue or waiting or isolate or inflight:
            now = time.monotonic()
            while waiting and waiting[0][0] <= now:
                _, _, task = heapq.heappop(waiting)
                (isolate if task.isolated else queue).append(task)

            # Schedule: isolated suspects run strictly alone.
            while len(inflight) < workers and (isolate or queue):
                if any(t.isolated for t, _ in inflight.values()):
                    break
                if isolate:
                    if inflight:
                        break
                    task = isolate.popleft()
                else:
                    task = queue.popleft()
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=workers, initializer=_mark_worker
                    )
                try:
                    future = pool.submit(
                        _execute_payload,
                        task.payload,
                        task.digest,
                        task.failures,
                        _ckpt_path(ctx, task),
                    )
                except BrokenProcessPool:
                    # Pool died between rounds: rebuild on next pass.
                    abandon_pool()
                    pool_failures += 1
                    stats.pool_failures += 1
                    (isolate if task.isolated else queue).appendleft(task)
                    if pool_failures >= cfg.pool_failure_limit:
                        stats.degraded += 1
                        return remaining()
                    continue
                inflight[future] = (task, time.monotonic())

            if not inflight:
                if waiting:
                    time.sleep(max(0.0, waiting[0][0] - time.monotonic()))
                continue

            timeout = None
            if cfg.task_timeout_s > 0:
                deadline = (
                    min(start for _, start in inflight.values())
                    + cfg.task_timeout_s
                )
                timeout = max(0.0, deadline - time.monotonic())
            if waiting:
                wake = max(0.0, waiting[0][0] - time.monotonic())
                timeout = wake if timeout is None else min(timeout, wake)

            done, _ = wait(list(inflight), timeout=timeout, return_when=FIRST_COMPLETED)

            crash_victims: List[_Task] = []
            for future in done:
                task, start = inflight.pop(future)
                task.elapsed += time.monotonic() - start
                task.mode = "parallel"
                try:
                    value = future.result()
                except BrokenProcessPool:
                    crash_victims.append(task)
                except Exception as exc:
                    _record_failure(ctx, task, "error", exc, retry_later)
                else:
                    _complete(ctx, task, value)

            if crash_victims:
                # The pool is broken: every task that was in flight is a
                # suspect (the executor poisons all pending futures, so
                # the crashing worker cannot be identified from here).
                victims = crash_victims + [t for t, _ in inflight.values()]
                for task, start in inflight.values():
                    task.elapsed += time.monotonic() - start
                inflight.clear()
                abandon_pool()
                pool_failures += 1
                stats.pool_failures += 1
                if len(victims) == 1:
                    # Ran alone: this task broke the pool. Blame it.
                    _record_failure(ctx, victims[0], "crash", None, retry_later)
                else:
                    # Ambiguous: requeue all suspects for isolated
                    # (one-at-a-time) execution without consuming a
                    # retry — the culprit will crash alone and be
                    # blamed; bystanders complete untouched.
                    stats.requeues += len(victims)
                    for task in victims:
                        task.outcomes.append("interrupted: sibling broke the pool")
                        task.isolated = True
                        isolate.append(task)
                if pool_failures >= cfg.pool_failure_limit:
                    stats.degraded += 1
                    return remaining()
                continue

            if cfg.task_timeout_s > 0 and inflight:
                now = time.monotonic()
                expired = [
                    future
                    for future, (_, start) in inflight.items()
                    if now - start >= cfg.task_timeout_s
                ]
                if expired:
                    # A pool cannot cancel a running task; tear it down
                    # and requeue the innocent in-flight siblings.
                    survivors = [
                        (task, start)
                        for future, (task, start) in inflight.items()
                        if future not in expired
                    ]
                    timed_out = [inflight[future][0] for future in expired]
                    for task, start in inflight.values():
                        task.elapsed += now - start
                    inflight.clear()
                    abandon_pool()
                    for task in timed_out:
                        task.mode = "parallel"
                        _record_failure(ctx, task, "timeout", None, retry_later)
                    stats.requeues += len(survivors)
                    for task, _ in survivors:
                        task.outcomes.append(
                            "interrupted: pool torn down after sibling timeout"
                        )
                        (isolate if task.isolated else queue).append(task)
    finally:
        _kill_pool(pool)
    return []


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_supervised(
    calls: Sequence[Call],
    jobs: Optional[int] = None,
    cache: bool = True,
    config: Optional[SupervisorConfig] = None,
) -> BatchResult:
    """Execute independent calls under supervision.

    Resolution order per task: run cache → journal → execution (pool
    when ``jobs > 1``, every call pickles and we are not already in a
    worker; serial otherwise). Raises after the whole batch reached a
    terminal state; completed siblings are always persisted first.
    """
    from repro.experiments import parallel as par

    cfg = config if config is not None else SupervisorConfig.from_env()
    calls = [(fn, tuple(args), dict(kwargs)) for fn, args, kwargs in calls]
    tasks = [_Task(i, call, par._describe(call)) for i, call in enumerate(calls)]
    batch = BatchResult(results=[], failures=[])

    if cache:
        for task in tasks:
            fn, args, kwargs = task.call
            task.cache_key = runcache.key_for(fn, args, kwargs)
            hit, value = runcache.get(task.cache_key)
            if hit:
                task.done = True
                task.result = value
                batch.cached += 1

    pending = [t for t in tasks if not t.done]
    for task in pending:
        task.digest = _task_digest(task.call, task.desc, task.index)

    journal = Journal(cfg.journal_dir) if cfg.journal_dir is not None else None
    if journal is not None:
        for task in pending:
            if journal.completed(task.digest):
                ok, value = journal.load_result(task.digest)
                if ok:
                    task.done = True
                    task.result = value
                    batch.resumed += 1
                    stats.journal_hits += 1
                    # Re-seed the run cache so later sweeps hit it too.
                    runcache.put(task.cache_key, value)
        pending = [t for t in pending if not t.done]

    n_jobs = par.default_jobs() if jobs is None else max(1, int(jobs))
    use_pool = n_jobs > 1 and not par._IN_WORKER and len(pending) > 1
    if use_pool:
        try:
            for task in pending:
                task.payload = pickle.dumps(task.call, protocol=4)
        except Exception:
            use_pool = False  # unpicklable builder: serial fallback

    ctx = _RunContext(config=cfg, journal=journal)
    if use_pool:
        leftovers = _run_pool(pending, min(n_jobs, len(pending)), ctx)
        if leftovers:
            _run_serial(leftovers, ctx)
    else:
        _run_serial(pending, ctx)

    batch.failures = sorted(ctx.recovered, key=lambda f: f.index)

    failed = [t for t in tasks if t.failed]
    if failed:
        permanent = [_failure_of(t, recovered=False) for t in failed]
        first = failed[0]
        n_more = len(failed) - 1
        if first.exception is not None:
            par._annotate(
                first.exception,
                f"raised in {first.mode} task {first.desc}"
                + (f" (attempt {first.failures} of {cfg.retries + 1})"
                   if first.failures > 1 else ""),
            )
            if n_more:
                par._annotate(
                    first.exception,
                    f"{n_more} other task(s) in the batch also failed",
                )
            try:
                first.exception.sweep_failures = permanent  # type: ignore[attr-defined]
            except Exception:  # pragma: no cover - exotic exception class
                pass
            raise first.exception
        if first.last_kind == "timeout":
            message = (
                f"task {first.desc} exceeded REPRO_TASK_TIMEOUT="
                f"{cfg.task_timeout_s:g}s on every attempt "
                f"({first.failures} of {cfg.retries + 1})"
            )
        else:
            message = (
                f"parallel worker crashed while running {first.desc}; "
                f"rerun with REPRO_JOBS=1 to execute serially"
            )
        if n_more:
            message += f"; {n_more} other task(s) also failed"
        raise SweepError(message, permanent)

    batch.results = [t.result for t in tasks]
    return batch
