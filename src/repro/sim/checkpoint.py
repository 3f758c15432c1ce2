"""Deterministic checkpoint/restore of a live simulation.

A checkpoint is one checksummed blob — the same ``RRC1`` + sha256
framing as the run cache (:mod:`repro.experiments.runcache`), with the
same quarantine discipline for corrupt files — holding the pickled
:class:`~repro.topology.host.Host` object graph mid-run: the engine
heap + FIFO buckets (+ wheel slots/cursor), every credit pool with its
waiter callbacks, reservations and occupancy integrals, the SoA DRAM
kernel arrays + open-row dicts + head caches, bank-regulator token
buckets, the LLC tag store + ddio pool, CHA/IIO/LFB/PCIe/core
in-flight state and telemetry counters. Module-level state the host
pickle cannot see — the :mod:`repro.sim.records` Request free list —
rides in the same pickle (identity-preserving via the shared memo),
along with a :class:`RunState` cursor recording where inside
``Host.run`` the run was and a fingerprint of the behaviour-affecting
environment knobs.

Determinism discipline: when a checkpoint plan is active, ``Host.run``
drives its windows through ``Simulator._drain_limited`` in fixed event
chunks. The engine re-files a partially-dispatched bucket's suffix
*ahead of* same-instant later arrivals, so chunked dispatch executes
the exact event sequence of an unchunked drain — checkpoints, watchdog
probes and preemption points at chunk boundaries can never perturb
results, and a restored run finishes **bit-identical** to an
uninterrupted one.

Knobs:

* ``REPRO_CKPT`` — snapshot cadence: ``events:N`` (every N executed
  events), ``time:T`` (every T simulated ns), a bare integer (events),
  or ``on`` for the default cadence. Requires a destination.
* ``REPRO_CKPT_PATH`` / ``REPRO_CKPT_DIR`` — destination file (or
  directory, file ``host.ckpt``). The sweep supervisor overrides both
  with a per-task path in its journal directory (:func:`begin_task`).

Preemption: while a plan is active and the drive runs on the main
thread, SIGTERM is routed to *checkpoint-and-stop* — the current chunk
finishes, a final checkpoint is written, and the run either exits with
:data:`PREEMPT_EXIT_CODE` (pool workers) or raises :class:`Preempted`
(in-process runs). The next attempt resumes from the blob instead of
recomputing. :func:`arm_preempt` triggers the same path at a
deterministic event count (the chaos ``preempt`` fault and the tests).
"""

from __future__ import annotations

import contextlib
import os
import signal
import tempfile
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

#: exit status of a worker that checkpointed and stopped on SIGTERM /
#: an armed preemption (EX_TEMPFAIL: the task is retryable — resume).
PREEMPT_EXIT_CODE = 75

#: events per ``_drain_limited`` chunk when a plan or watchdog drives
#: the run. Large enough to keep loop overhead invisible, small enough
#: that a SIGTERM is honoured within milliseconds.
CHUNK_EVENTS = 4096

DEFAULT_EVERY_EVENTS = 200_000

#: bumped whenever the pickled host graph changes shape
CKPT_VERSION = 2
_FORMAT = "host-ckpt"


class CheckpointError(RuntimeError):
    """A checkpoint blob could not be loaded/validated."""


class Preempted(RuntimeError):
    """An in-process run was checkpointed and stopped mid-run.

    ``path`` is the checkpoint file; finish the run with
    ``Host.restore(path).resume_run()``.
    """

    def __init__(self, message: str, path: str):
        super().__init__(message)
        self.path = path


@dataclass
class RunState:
    """Where inside ``Host.run`` an interrupted run was.

    Everything ``_run_phases`` needs to finish the run exactly as the
    uninterrupted one would: the phase and its absolute end time, the
    measurement-window origin (``t_start`` / ``events_before``, so the
    resumed RunResult's deltas match), and the run identity that gates
    resumption. ``seq`` counts checkpoints written (lineage).
    """

    run_key: str
    warmup_ns: float
    measure_ns: float
    phase: str = "warmup"
    t_end: float = 0.0
    t_start: float = 0.0
    events_before: int = 0
    seq: int = 0


# ----------------------------------------------------------------------
# Knob parsing and per-task destination plumbing
# ----------------------------------------------------------------------

_TASK_CKPT: Optional[str] = None
_RUN_ORDINAL = 0
_WARNED_NO_PATH = False


def interval_spec() -> Tuple[Optional[int], Optional[float]]:
    """Parse ``REPRO_CKPT`` into ``(every_events, every_ns)``."""
    raw = os.environ.get("REPRO_CKPT", "").strip().lower()
    if raw in ("", "off", "0", "no", "false"):
        return (None, None)
    if raw in ("on", "1", "yes", "true"):
        return (DEFAULT_EVERY_EVENTS, None)
    kind, _, value = raw.partition(":")
    try:
        if kind == "events":
            events = int(value)
        elif kind == "time":
            every_ns = float(value)
            if not every_ns > 0:
                raise ValueError
            return (None, every_ns)
        else:
            events = int(raw)
        if events <= 0:
            raise ValueError
        return (events, None)
    except ValueError:
        raise ValueError(
            f"REPRO_CKPT must be on/off, events:N, time:T or an event "
            f"count, got {raw!r}"
        ) from None


def begin_task(path: Optional[str]) -> None:
    """Enter a supervised task: set its checkpoint file, reset run
    numbering and clear any stale preemption state (pool workers are
    reused across tasks)."""
    global _TASK_CKPT, _RUN_ORDINAL
    _TASK_CKPT = path
    _RUN_ORDINAL = 0
    disarm_preempt()


def end_task() -> None:
    """Leave a supervised task (see :func:`begin_task`)."""
    begin_task(None)


def checkpoint_path() -> Optional[Path]:
    """The active checkpoint destination, or ``None``.

    A supervisor-provided per-task path wins over ``REPRO_CKPT_PATH``,
    which wins over ``REPRO_CKPT_DIR``.
    """
    if _TASK_CKPT:
        return Path(_TASK_CKPT)
    path = os.environ.get("REPRO_CKPT_PATH", "").strip()
    if path:
        return Path(path)
    directory = os.environ.get("REPRO_CKPT_DIR", "").strip()
    if directory:
        return Path(directory) / "host.ckpt"
    return None


def active_plan() -> Optional["CheckpointPlan"]:
    """The checkpoint plan ``Host.run`` should follow, or ``None``.

    A destination without a cadence is a *preemption-only* plan: the
    run is driven in chunks (so SIGTERM / armed preemption can
    checkpoint-and-stop, and an existing blob is resumed) but no
    periodic snapshots are written.
    """
    global _WARNED_NO_PATH
    path = checkpoint_path()
    every_events, every_ns = interval_spec()
    if path is None:
        if (every_events, every_ns) != (None, None) and not _WARNED_NO_PATH:
            _WARNED_NO_PATH = True
            warnings.warn(
                "REPRO_CKPT is set but no destination is configured; "
                "set REPRO_CKPT_PATH or REPRO_CKPT_DIR (checkpointing "
                "stays off)",
                RuntimeWarning,
                stacklevel=2,
            )
        return None
    return CheckpointPlan(path, every_events, every_ns)


def preemption_wanted(task_timeout_s: float = 0.0) -> bool:
    """Whether the supervisor should hand tasks checkpoint paths.

    True when the user asked for checkpoints (``REPRO_CKPT*``), when
    task timeouts can preempt runs mid-flight, or when chaos injects
    ``preempt`` faults — the three ways a run can be interrupted with
    the expectation of resuming.
    """
    if checkpoint_path() is not None or interval_spec() != (None, None):
        return True
    if task_timeout_s > 0:
        return True
    from repro.experiments import chaos

    cfg = chaos.config()
    return cfg is not None and cfg.preempt > 0.0


class CheckpointPlan:
    """A destination plus cadence, with due-time tracking."""

    __slots__ = ("path", "every_events", "every_ns", "_next_events", "_next_ns")

    def __init__(
        self,
        path: Path,
        every_events: Optional[int],
        every_ns: Optional[float],
    ):
        self.path = Path(path)
        self.every_events = every_events
        self.every_ns = every_ns
        self._next_events: Optional[int] = None
        self._next_ns: Optional[float] = None

    def arm(self, sim) -> None:
        """Start cadence tracking from the simulator's position."""
        if self.every_events is not None:
            self._next_events = sim.events_processed + self.every_events
        if self.every_ns is not None:
            self._next_ns = sim.now + self.every_ns

    def due(self, sim) -> bool:
        """Whether a periodic snapshot is due at this chunk boundary."""
        if self._next_events is not None and sim.events_processed >= self._next_events:
            return True
        if self._next_ns is not None and sim.now >= self._next_ns:
            return True
        return False

    def advance(self, sim) -> None:
        """Move the cadence past the simulator's position."""
        if self._next_events is not None:
            while sim.events_processed >= self._next_events:
                self._next_events += self.every_events
        if self._next_ns is not None:
            while sim.now >= self._next_ns:
                self._next_ns += self.every_ns

    def discard(self) -> None:
        """Remove the blob — the run completed, nothing to resume."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


# ----------------------------------------------------------------------
# Snapshot / restore
# ----------------------------------------------------------------------


def _knob_fingerprint() -> Dict[str, Any]:
    """Behaviour-affecting environment knobs, resolved to values.

    A checkpoint written under one knob set must not silently resume
    under another: the restored object graph would keep the old
    behaviour (it is baked into the constructed components) while
    fresh state used the new, and the "bit-identical to uninterrupted"
    contract would be unfalsifiable. Compared on restore. The
    resolution itself is one :meth:`~repro.sim.knobs.KnobSet.resolve`
    — the same object hosts and clusters are constructed from.
    """
    from repro.sim.knobs import KnobSet

    return KnobSet.resolve().fingerprint()


def _workload_inputs(workload) -> tuple:
    """What a core's workload contributes to a run's identity."""
    region = getattr(workload, "region", None)
    return (
        type(workload).__name__,
        workload.traffic_class,
        getattr(workload, "store_fraction", None),
        region.n_lines if region is not None else None,
    )


def _device_inputs(name: str, device) -> tuple:
    """What a device contributes to a run's identity: its kind
    (class and DMA directions) and its rates."""
    return (
        name,
        type(device).__name__,
        device.traffic_class,
        device.workload.emits_writes,
        device.workload.emits_reads,
        device.device_rate,
        getattr(device, "ingress_rate", None),
    )


def run_key(host, warmup_ns: float, measure_ns: float) -> str:
    """Stable identity of one ``Host.run`` call within a task.

    Hashes the host's construction parameters (config, seed, each
    core's workload, each device's kind and rate), the window sizes and
    a per-task ordinal (tasks like ``ColocationExperiment.point`` call
    ``Host.run`` several times on one checkpoint path; the ordinal
    binds the blob to the interrupted call, and earlier calls simply
    miss and run fresh). :func:`begin_task` resets the numbering so a
    retried attempt counts identically.
    """
    global _RUN_ORDINAL
    ordinal = _RUN_ORDINAL
    _RUN_ORDINAL += 1
    import hashlib
    import pickle

    digest = hashlib.sha256()
    ident = (
        ordinal,
        float(warmup_ns),
        float(measure_ns),
        host.seed,
        host.burst,
        host.validate,
        [_workload_inputs(core.workload) for core in host.cores],
        sorted(_device_inputs(name, dev) for name, dev in host.devices.items()),
    )
    digest.update(repr(ident).encode())
    digest.update(pickle.dumps(host.config, protocol=4))
    return digest.hexdigest()


def save(host, state: RunState, path) -> Path:
    """Write one atomic, checksummed checkpoint blob.

    The Request free list is pickled in the same blob as the host
    graph, so pool entries that are also reachable from the host keep
    their identity through the shared pickle memo.
    """
    from repro.experiments.runcache import encode_blob
    from repro.sim import records

    payload = {
        "format": _FORMAT,
        "version": CKPT_VERSION,
        "state": state,
        "knobs": _knob_fingerprint(),
        "pool": records.snapshot_pool(),
        "host": host,
    }
    blob = encode_blob(payload)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".ckpt-tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def _quarantine(path: Path, reason: str) -> None:
    """Move a corrupt blob aside (same discipline as the run cache)."""
    qdir = path.parent / "quarantine"
    where = "deleted"
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        os.replace(path, qdir / path.name)
        where = f"quarantined to {qdir / path.name}"
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(path)
    warnings.warn(
        f"corrupt checkpoint {path} ({reason}); {where}",
        RuntimeWarning,
        stacklevel=3,
    )


def load(path) -> Dict[str, Any]:
    """Read and verify a checkpoint blob; corrupt files are
    quarantined and raise :class:`CheckpointError`."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    from repro.experiments.runcache import decode_blob

    ok, payload = decode_blob(blob)
    if not ok:
        _quarantine(path, "bad frame or checksum")
        raise CheckpointError(f"corrupt checkpoint {path}")
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        _quarantine(path, "not a host checkpoint")
        raise CheckpointError(f"{path} is not a host checkpoint")
    if payload.get("version") != CKPT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {payload.get('version')!r}, "
            f"expected {CKPT_VERSION}"
        )
    return payload


def restore_payload(payload: Dict[str, Any]):
    """Reinstall a loaded checkpoint; returns the live host.

    Refuses a knob mismatch (see :func:`_knob_fingerprint`), restores
    the module-level Request pool, and — when ``REPRO_VALIDATE=1`` —
    runs the structural post-restore invariant walk over the revived
    graph before handing it back.
    """
    saved = payload.get("knobs", {})
    current = _knob_fingerprint()
    mismatched = {
        key: (value, current.get(key))
        for key, value in saved.items()
        if current.get(key) != value
    }
    if mismatched:
        raise CheckpointError(
            f"environment knobs changed since checkpoint: {mismatched} "
            f"(saved, current) — resume under the original knobs or run fresh"
        )
    from repro.sim import records

    records.restore_pool(payload["pool"])
    host = payload["host"]
    host._resume_state = payload["state"]
    from repro.validate.invariants import enabled as validate_enabled

    if validate_enabled():
        from repro.validate.probes import Validator

        validator = host._validator if host._validator is not None else Validator()
        validator.post_restore(host)
    return host


_CLUSTER_FORMAT = "cluster-ckpt"


def save_cluster(cluster, path) -> Path:
    """Snapshot a whole :class:`~repro.topology.cluster.Cluster`.

    Same blob discipline as a host checkpoint — one checksummed pickle
    of the full object graph (hosts, fabric, the shared engine, every
    pool/waiter), the module-level Request free list riding in the
    same memo, and the knob fingerprint gating restore.
    """
    from repro.experiments.runcache import encode_blob
    from repro.sim import records

    payload = {
        "format": _CLUSTER_FORMAT,
        "version": CKPT_VERSION,
        "knobs": _knob_fingerprint(),
        "pool": records.snapshot_pool(),
        "cluster": cluster,
    }
    blob = encode_blob(payload)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".ckpt-tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def load_cluster(path):
    """Revive a :func:`save_cluster` blob; returns the live cluster.

    Verifies frame + checksum (corrupt blobs are quarantined), the
    format/version markers, and the knob fingerprint — a rack
    checkpointed under one knob set must not silently resume under
    another — then restores the shared Request pool.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    from repro.experiments.runcache import decode_blob

    ok, payload = decode_blob(blob)
    if not ok:
        _quarantine(path, "bad frame or checksum")
        raise CheckpointError(f"corrupt checkpoint {path}")
    if not isinstance(payload, dict) or payload.get("format") != _CLUSTER_FORMAT:
        _quarantine(path, "not a cluster checkpoint")
        raise CheckpointError(f"{path} is not a cluster checkpoint")
    if payload.get("version") != CKPT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {payload.get('version')!r}, "
            f"expected {CKPT_VERSION}"
        )
    saved = payload.get("knobs", {})
    current = _knob_fingerprint()
    mismatched = {
        key: (value, current.get(key))
        for key, value in saved.items()
        if current.get(key) != value
    }
    if mismatched:
        raise CheckpointError(
            f"environment knobs changed since checkpoint: {mismatched} "
            f"(saved, current) — resume under the original knobs or run fresh"
        )
    from repro.sim import records

    records.restore_pool(payload["pool"])
    return payload["cluster"]


def try_resume(path, key: str):
    """Resume from ``path`` if it holds this exact run; else ``None``.

    Missing, corrupt, foreign-run or knob-mismatched blobs all fall
    back to a fresh (still deterministic) run — resumption is an
    optimisation, never a correctness dependency.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        payload = load(path)
    except CheckpointError:
        return None
    state = payload.get("state")
    if not isinstance(state, RunState) or state.run_key != key:
        return None
    try:
        return restore_payload(payload)
    except CheckpointError as exc:
        warnings.warn(
            f"not resuming from {path}: {exc}", RuntimeWarning, stacklevel=2
        )
        return None


# ----------------------------------------------------------------------
# Preemption (SIGTERM and armed event counts)
# ----------------------------------------------------------------------

_SIGTERM_SEEN = False
_ARMED_AT: Optional[int] = None
_EXIT_ON_PREEMPT = False


def _on_sigterm(signum, frame) -> None:
    global _SIGTERM_SEEN
    _SIGTERM_SEEN = True


def request_preempt() -> None:
    """Ask the current drive to checkpoint-and-stop at the next chunk
    boundary (what the SIGTERM handler does; exposed for tests)."""
    global _SIGTERM_SEEN
    _SIGTERM_SEEN = True


def arm_preempt(events: int, exit_process: bool = False) -> None:
    """Preempt deterministically once ``events_processed`` reaches
    ``events``. ``exit_process`` makes the preemption exit with
    :data:`PREEMPT_EXIT_CODE` (the chaos fault in pool workers)
    instead of raising :class:`Preempted`."""
    global _ARMED_AT, _EXIT_ON_PREEMPT
    _ARMED_AT = int(events)
    _EXIT_ON_PREEMPT = bool(exit_process)


def disarm_preempt() -> None:
    """Clear armed/pending preemption state."""
    global _ARMED_AT, _EXIT_ON_PREEMPT, _SIGTERM_SEEN
    _ARMED_AT = None
    _EXIT_ON_PREEMPT = False
    _SIGTERM_SEEN = False


def preempt_reason(sim) -> Optional[str]:
    """Why the drive should stop now, or ``None`` to keep going."""
    if _SIGTERM_SEEN:
        return "sigterm"
    if _ARMED_AT is not None and sim.events_processed >= _ARMED_AT:
        return "armed"
    return None


def execute_preempt(host, state: RunState, plan: CheckpointPlan, reason: str):
    """Checkpoint, then stop the run (exit or raise; never returns)."""
    state.seq += 1
    save(host, state, plan.path)
    exit_process = _EXIT_ON_PREEMPT if reason == "armed" else _in_worker()
    disarm_preempt()
    if exit_process:
        os._exit(PREEMPT_EXIT_CODE)
    raise Preempted(
        f"run preempted ({reason}) at {state.seq} checkpoints, "
        f"t={host.sim.now:.1f} ns; resume from {plan.path}",
        str(plan.path),
    )


def _in_worker() -> bool:
    from repro.experiments import parallel

    return parallel._IN_WORKER


@contextlib.contextmanager
def sigterm_to_checkpoint(enabled: bool = True):
    """Route SIGTERM to checkpoint-and-stop for the enclosed drive.

    Installed only on the main thread (signal API constraint); the
    previous handler is restored on exit. Off the main thread the
    drive still honours :func:`request_preempt` / :func:`arm_preempt`.
    """
    if not enabled or threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
