"""Content-keyed disk cache for simulation runs.

The paper's figures re-run the same isolated simulations verbatim: the
C2M-isolated STREAM run for a given (preset, core count, seed, window)
appears in Figs. 3, 7, 11 and 12, and every bench invocation repeats
runs of the previous one. Those runs are pure functions of their inputs
(the simulator is deterministic), so their :class:`RunResult`\\ s are
cached on disk keyed by

* the pickled call spec — callable identity, experiment/builder
  configuration, seed, warmup/measure windows, and every other
  argument — and
* a fingerprint of the ``repro`` package source, so any code change
  invalidates the whole cache.

Entries are stored as ``magic + sha256(payload) + payload`` and
verified on every read: an unreadable, truncated or bit-flipped entry
is moved to a ``quarantine/`` subdirectory with a one-line warning
(instead of silently treated as a miss and deleted), so corruption is
visible and the evidence survives for inspection while the run is
transparently recomputed.

Environment knobs:

* ``REPRO_CACHE=off`` (or ``0``/``no``/``false``) disables the cache;
* ``REPRO_CACHE_DIR=<path>`` overrides the cache directory (default
  ``$XDG_CACHE_HOME/repro/runcache`` or ``~/.cache/repro/runcache``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from pathlib import Path
from typing import Any, Optional, Tuple

_MISS = object()
_code_fingerprint: Optional[str] = None

#: entry format marker; bump when the on-disk layout changes
_MAGIC = b"RRC1"
_DIGEST_BYTES = 32


def enabled() -> bool:
    """Whether the run cache is active (``REPRO_CACHE`` escape hatch)."""
    return os.environ.get("REPRO_CACHE", "on").lower() not in (
        "off",
        "0",
        "no",
        "false",
    )


def cache_dir() -> Path:
    """Directory holding cached run results."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "runcache"


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file (cache-key code version)."""
    global _code_fingerprint
    if _code_fingerprint is None:
        import repro

        digest = hashlib.sha256()
        package_root = Path(repro.__file__).parent
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _code_fingerprint = digest.hexdigest()[:20]
    return _code_fingerprint


def knob_namespace() -> bytes:
    """The knob settings that select a result's namespace.

    These knobs change a run's result (or what it records) without
    appearing in its pickled call spec, so every identity derived from
    a call spec hashes these bytes too: the run-cache key
    (:func:`key_for`) and the sweep journal's task digest
    (:func:`repro.experiments.supervisor._task_digest`). A result
    computed under one setting can then never be replayed under
    another.
    """
    from repro.sim.knobs import KnobSet

    knobs = KnobSet.resolve()
    return b"|".join(
        (
            # Validated and unvalidated runs are float-identical by
            # contract, but their RunResults differ in the recorded
            # check count — and a REPRO_VALIDATE=1 suite must actually
            # execute its checks rather than replay an unvalidated one.
            b"validate=1" if knobs.validate else b"validate=0",
            # Burst (macro-event) runs are approximations of the
            # per-line simulation: results at different REPRO_BURST
            # factors must never replay each other.
            f"burst={knobs.burst}".encode(),
            # The DDIO and per-bank-regulation force-knobs change host
            # behaviour without appearing in the pickled spec (the
            # HostConfig defaults stay off).
            f"ddio={knobs.ddio}".encode(),
            f"bankreg={knobs.bank_reg}".encode(),
            # The uncore kernel is float-identical by contract, but a
            # stored result must never mask a divergence: keep the
            # namespaces apart so REPRO_UNCORE=off actually recomputes
            # (same reasoning as the DRAM kernel's code_fingerprint
            # coverage).
            f"uncore={knobs.uncore}".encode(),
        )
    )


def key_for(fn: Any, args: tuple = (), kwargs: Optional[dict] = None) -> Optional[str]:
    """Cache key for a call, or ``None`` if it cannot be keyed.

    Unpicklable specs (closures, lambdas, hosts) return ``None`` so
    callers fall through to plain execution.
    """
    if not enabled():
        return None
    try:
        spec = pickle.dumps((fn, args, sorted((kwargs or {}).items())), protocol=4)
    except Exception:
        return None
    digest = hashlib.sha256()
    digest.update(code_fingerprint().encode())
    digest.update(knob_namespace())
    digest.update(spec)
    return digest.hexdigest()


def encode_blob(value: Any) -> bytes:
    """Serialize a value with an integrity header (magic + sha256).

    Shared with the sweep journal
    (:class:`repro.experiments.supervisor.Journal`) so every persisted
    result — cache entry or checkpoint — is checksummed the same way.
    Raises if the value cannot be pickled.
    """
    payload = pickle.dumps(value, protocol=4)
    return _MAGIC + hashlib.sha256(payload).digest() + payload


def decode_blob(blob: bytes) -> Tuple[bool, Any]:
    """Verify and deserialize an :func:`encode_blob` blob.

    Returns ``(ok, value)``; any header, checksum or unpickling
    problem is ``(False, None)`` — never an exception.
    """
    header = len(_MAGIC) + _DIGEST_BYTES
    if len(blob) < header or not blob.startswith(_MAGIC):
        return False, None
    digest = blob[len(_MAGIC) : header]
    payload = blob[header:]
    if hashlib.sha256(payload).digest() != digest:
        return False, None
    try:
        return True, pickle.loads(payload)
    except Exception:
        return False, None


def _path_for(key: str) -> Path:
    return cache_dir() / key[:2] / f"{key}.pkl"


def _quarantine(path: Path, reason: str) -> None:
    """Move a bad entry aside (or drop it) and say so, once, out loud."""
    quarantine_dir = cache_dir() / "quarantine"
    where = "deleted"
    try:
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        os.replace(path, quarantine_dir / path.name)
        where = f"moved to {quarantine_dir}"
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
    warnings.warn(
        f"run-cache entry {path.name} is {reason}; {where}, "
        f"the run will be recomputed",
        RuntimeWarning,
        stacklevel=3,
    )


def get(key: Optional[str]) -> Tuple[bool, Any]:
    """Look up a key; returns ``(hit, value)``."""
    if key is None:
        return False, None
    path = _path_for(key)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return False, None
    except OSError:
        _quarantine(path, "unreadable")
        return False, None
    ok, value = decode_blob(blob)
    if ok:
        return True, value
    _quarantine(path, "corrupt (checksum or format mismatch)")
    return False, None


def put(key: Optional[str], value: Any) -> None:
    """Store a value under a key (atomic, checksummed, best-effort)."""
    if key is None:
        return
    path = _path_for(key)
    try:
        blob = encode_blob(value)
    except Exception:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
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
        # A read-only or full cache directory never fails the run.
        return
    from repro.experiments import chaos

    chaos.maybe_corrupt_cache(path, key)


def cached_call(fn: Any, *args: Any, **kwargs: Any) -> Any:
    """Run ``fn(*args, **kwargs)`` through the cache."""
    key = key_for(fn, args, kwargs)
    hit, value = get(key)
    if hit:
        return value
    value = fn(*args, **kwargs)
    put(key, value)
    return value
