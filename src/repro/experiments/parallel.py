"""Process-parallel fan-out for independent simulation runs.

Every figure in the paper is a sweep of *independent* simulations
(isolated C2M, isolated P2M, colocated — per core count, per quadrant),
so the harness fans them out over a ``ProcessPoolExecutor`` and
reassembles results in submission order. Determinism is unaffected:
each run builds its own :class:`~repro.topology.host.Host` from an
explicit seed, so a run computes the identical :class:`RunResult`
whether it executes in this process or a worker.

Execution is supervised by :mod:`repro.experiments.supervisor`, which
adds per-task timeouts, bounded retries with deterministic backoff,
crash isolation and journal-based resume — all off or conservative by
default. Control knobs and behaviour:

* ``REPRO_JOBS=N`` sets the worker count (default: the CPUs actually
  available to this process — container/cgroup affinity, not the
  machine's raw core count). ``REPRO_JOBS=1`` forces serial in-process
  execution.
* Calls that cannot be pickled (closures, ad-hoc lambdas) gracefully
  fall back to serial execution for the whole batch.
* Results are memoized through :mod:`repro.experiments.runcache`
  (disable with ``REPRO_CACHE=off``), so runs shared between figures
  — e.g. the C2M-isolated run appearing in Figs. 3, 7, 11 and 12 —
  execute once per code version.
* ``REPRO_TASK_TIMEOUT`` / ``REPRO_RETRIES`` / ``REPRO_BACKOFF`` /
  ``REPRO_JOURNAL_DIR`` configure fault tolerance, and ``REPRO_CHAOS``
  injects deterministic faults; see the supervisor module and
  ``DESIGN.md`` §7.
* An unrecovered worker crash surfaces as a
  :class:`~repro.experiments.supervisor.SweepError` naming the task
  and suggesting ``REPRO_JOBS=1``; an unrecovered ordinary exception
  inside a task propagates unchanged, annotated with the task that
  raised it. Either way the batch is driven to a terminal state first
  — in serial mode too — so completed sibling results are persisted
  before the error propagates.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: a unit of work: (callable, positional args, keyword args)
Call = Tuple[Callable[..., Any], tuple, dict]

# Set in pool workers so library code that fans out internally cannot
# recursively spawn pools.
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS``, else the CPUs available to us.

    Containers and batch schedulers routinely pin a process to a CPU
    subset; ``os.sched_getaffinity`` reflects that mask while
    ``os.cpu_count`` reports the whole machine, so prefer the former
    where the platform provides it.
    """
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}") from exc
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            n = len(affinity(0))
            if n > 0:
                return n
        except OSError:  # pragma: no cover - affinity query denied
            pass
    return os.cpu_count() or 1


def _callable_name(fn: Callable[..., Any]) -> str:
    """Short display name for any callable.

    Plain functions and bound methods have ``__qualname__``;
    ``functools.partial`` and callable instances have neither
    ``__qualname__`` nor ``__name__``, so fall back to a structural
    name rather than embedding the object's full repr.
    """
    name = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", None)
    if name is not None:
        return name
    if isinstance(fn, functools.partial):
        return f"functools.partial({_callable_name(fn.func)})"
    return type(fn).__name__


def _describe(call: Call) -> str:
    fn, args, kwargs = call
    owner = getattr(fn, "__self__", None)
    if owner is not None and hasattr(fn, "__name__"):
        name = f"{type(owner).__name__}.{fn.__name__}"
    else:
        name = _callable_name(fn)
    parts = [repr(a) for a in args] + [f"{k}={v!r}" for k, v in kwargs.items()]
    text = f"{name}({', '.join(parts)})"
    return text if len(text) <= 200 else text[:197] + "..."


def _annotate(exc: BaseException, note: str) -> None:
    """Attach a context note to an exception without changing its type.

    ``BaseException.add_note`` exists only on Python >= 3.11 while the
    package floor is 3.10 (``requires-python = ">=3.10"``); on older
    interpreters set ``__notes__`` by hand, which tracebacks on 3.11+
    render identically and callers can always inspect.
    """
    add_note = getattr(exc, "add_note", None)
    if callable(add_note):
        add_note(note)  # py310-ok: guarded by the getattr above
        return
    try:
        notes = getattr(exc, "__notes__", None)
        if notes is None:
            exc.__notes__ = [note]
        else:
            notes.append(note)
    except Exception:  # pragma: no cover - exotic exception classes
        pass


def run_calls(
    calls: Sequence[Call],
    jobs: Optional[int] = None,
    cache: bool = True,
) -> List[Any]:
    """Execute independent calls, fanning out over processes.

    Returns results in input order. Cached results are returned
    without executing; the remainder run under the fault-tolerant
    supervisor (:func:`repro.experiments.supervisor.run_supervised`) —
    in a process pool when ``jobs > 1``, every call pickles and we are
    not already inside a worker, serially in-process otherwise. Use
    :func:`run_supervised` directly for the structured
    :class:`~repro.experiments.supervisor.BatchResult` (recovered
    :class:`~repro.experiments.supervisor.TaskFailure` records,
    cache/journal hit counts).
    """
    from repro.experiments.supervisor import run_supervised

    return run_supervised(calls, jobs=jobs, cache=cache).results
