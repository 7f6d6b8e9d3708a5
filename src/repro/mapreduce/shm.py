"""Zero-copy shared-memory data plane for :class:`ParallelRuntime`.

The process-pool backend used to re-pickle each task's whole payload —
the serialized runtime, the job (carrying the partition plan), and the
task's point records — into the executor pipe *per task attempt*, and
again for every speculative duplicate.  That transport cost is exactly
the term the paper's communication model (Sec. III) does not have: the
framework's win is that communication scales with support-area overlap,
not with how many times the scheduler ships a partition.

This module makes the dispatch path pluggable:

* :class:`PickleTransport` — the status-quo wire format, made explicit:
  each task envelope carries ``pickle.dumps((runtime, job, payload))``,
  so its cost is measured instead of hidden in the executor's feeder
  thread.
* :class:`ShmTransport` — the zero-copy plane.  A :class:`ShmArena`
  writes the job context once and each phase's task payloads once into
  ``multiprocessing.shared_memory`` segments; only tiny ``(segment,
  offset, size, buffers)`` descriptors (:class:`ShmRef`) travel through
  the pool.  Workers attach read-only views, cache the decoded job
  context per process — until the first task of the next job, which
  evicts both — and retries / speculative duplicates reuse the same
  segment instead of re-pickling.

One payload encoding: pickle protocol 5 with out-of-band buffers.  The
pickle stream of a payload holds its structure; every contiguous numpy
array in it — the columns of a :class:`~repro.mapreduce.batch
.RecordBatch` block, of each batch in a reducer's ``{key: [batch, ...]}``
input, the plan's tables in the job context — is laid out in the
segment as raw bytes, and a worker rebuilds it as a read-only view of
the segment, not a copy.  What is columnar is so because its type says
so; nothing guesses a layout from a payload's elements, and a payload
without arrays is simply a pickle stream with no buffers.  Decoded
payloads compare equal to the originals, which is what lets the
differential suite assert byte-identical outlier sets, counters, and
``distance_evals`` across transports.

Segment lifecycle is deterministic and crash-safe: the runtime
releases the arena in a ``finally`` (so failure-injected
and timed-out runs clean up too), and every segment this process created
is tracked in :func:`live_segments` so tests can assert nothing leaks
into ``/dev/shm``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import uuid
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Tuple

import numpy as np

__all__ = [
    "TRANSPORTS",
    "SEGMENT_PREFIX",
    "ShmRef",
    "ShmArena",
    "PickleEnvelope",
    "ShmEnvelope",
    "open_envelope",
    "resolve_ref",
    "Transport",
    "PickleTransport",
    "ShmTransport",
    "make_transport",
    "live_segments",
    "close_attachments",
    "install_exit_cleanup",
    "stale_segments",
    "clean_stale_segments",
]

#: Transport names accepted by ``ParallelRuntime(transport=...)``.
TRANSPORTS = ("pickle", "shm")

#: Prefix of every segment this module creates (kept short: POSIX shm
#: names are limited to 31 chars on some platforms).
SEGMENT_PREFIX = "repro-dp"

#: Array offsets are aligned so reconstructed views are element-aligned.
_ALIGN = 16

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL


# ----------------------------------------------------------------------
# Descriptors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShmRef:
    """Descriptor of one packed payload, small enough to ship through
    the pool pipe whatever the payload holds: its pickle stream is
    ``size`` bytes at ``offset``; the ``(offset, nbytes)`` table of its
    ``buffers`` out-of-band buffers follows, in the segment too."""

    segment: str
    offset: int
    size: int
    buffers: int


def _aligned(cursor: int) -> int:
    return -(-cursor // _ALIGN) * _ALIGN


# ----------------------------------------------------------------------
# Parent side: the arena
# ----------------------------------------------------------------------
#: Names of segments created by this process and not yet unlinked.
_LIVE_SEGMENTS: set[str] = set()


def live_segments() -> frozenset[str]:
    """Segments this process created and has not unlinked yet."""
    return frozenset(_LIVE_SEGMENTS)


# ----------------------------------------------------------------------
# Orphan protection
# ----------------------------------------------------------------------
#: Where POSIX shared memory is a filesystem (Linux).  The stale-segment
#: sweep is a no-op elsewhere; in-process cleanup works everywhere.
_SHM_DIR = "/dev/shm"

_exit_cleanup_installed = False


def _cleanup_live_segments() -> None:
    """Unlink every segment this process still owns (idempotent)."""
    for name in list(_LIVE_SEGMENTS):
        try:
            segment = shared_memory.SharedMemory(name=name)
            segment.close()
            segment.unlink()
        except FileNotFoundError:
            pass
        _LIVE_SEGMENTS.discard(name)


def install_exit_cleanup() -> None:
    """Make sure a dying driver unlinks its segments.

    The transports already unlink in ``finally``, which covers normal
    returns and handled exceptions.  This adds the two survivable abnormal
    exits: interpreter shutdown with segments still live (``atexit``) and
    SIGTERM (the handler chains to a previous Python handler, stays
    ignored where the signal was ignored, and otherwise dies by the
    default action).  SIGKILL is unsurvivable by definition — ``repro
    clean-shm`` sweeps up after it.

    Idempotent; called from ``ParallelRuntime.__init__`` so any process
    that can create segments has the hooks.  Installed only in the main
    thread (signal handlers cannot be set elsewhere).
    """
    global _exit_cleanup_installed
    if _exit_cleanup_installed:
        return
    import atexit
    import signal
    import threading

    atexit.register(_cleanup_live_segments)
    if threading.current_thread() is threading.main_thread():
        previous = signal.getsignal(signal.SIGTERM)

        def _on_sigterm(signum, frame):
            _cleanup_live_segments()
            if callable(previous):
                previous(signum, frame)
            elif previous != signal.SIG_IGN:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)

        try:
            signal.signal(signal.SIGTERM, _on_sigterm)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            pass
    _exit_cleanup_installed = True


def stale_segments(min_age_seconds: float = 60.0) -> List[Dict[str, Any]]:
    """Repo-prefixed ``/dev/shm`` segments no live run should still own.

    A segment is a candidate when its name carries :data:`SEGMENT_PREFIX`,
    it is not one of *this* process's live segments, and it has not been
    modified for ``min_age_seconds`` (so a concurrently running job's
    fresh segments are left alone).  Returns dicts with ``name``,
    ``bytes`` and ``age_seconds``, oldest first.
    """
    if not os.path.isdir(_SHM_DIR):
        return []
    own = live_segments()
    now = time.time()
    found: List[Dict[str, Any]] = []
    for entry in os.listdir(_SHM_DIR):
        if not entry.startswith(SEGMENT_PREFIX + "-"):
            continue
        if entry in own:
            continue
        path = os.path.join(_SHM_DIR, entry)
        try:
            stat = os.stat(path)
        except OSError:
            continue  # raced with another sweep
        age = now - stat.st_mtime
        if age < min_age_seconds:
            continue
        found.append(
            {"name": entry, "bytes": stat.st_size, "age_seconds": age}
        )
    found.sort(key=lambda item: -item["age_seconds"])
    return found


def clean_stale_segments(
    min_age_seconds: float = 60.0, dry_run: bool = False
) -> List[Dict[str, Any]]:
    """Unlink stale repo-prefixed segments; return what was (or would
    be) removed.  The recovery tool behind ``repro clean-shm``."""
    victims = stale_segments(min_age_seconds)
    if dry_run:
        return victims
    removed: List[Dict[str, Any]] = []
    for victim in victims:
        try:
            os.unlink(os.path.join(_SHM_DIR, victim["name"]))
        except OSError:
            continue  # raced with the owner or another sweep
        removed.append(victim)
    return removed


class ShmArena:
    """Owner of one job's shared-memory segments.

    ``pack`` writes a batch of payloads into one fresh segment and
    returns their descriptors; ``pack_object`` stores a single pickled
    object (the job context).  :meth:`release` unlinks every segment —
    the runtime calls it in a ``finally`` so segments never outlive the
    run, crashed or not.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._segments: List[shared_memory.SharedMemory] = []
        self._released = False
        self.segment_bytes = 0
        self.segments_created = 0

    # -- packing -------------------------------------------------------
    def pack(self, payloads: Dict[Any, Any]) -> Dict[Any, ShmRef]:
        """Encode ``payloads`` into one new segment; return descriptors."""
        if self._released:
            raise RuntimeError("arena already released")
        # Lay out every stream, buffer table and buffer back to back,
        # aligned so rebuilt arrays are element-aligned.
        cursor = 0
        spans: List[Tuple[int, Any]] = []  # (offset, bytes to write)
        layout: Dict[Any, Tuple[int, int, int]] = {}
        for tid, payload in payloads.items():
            buffers: List[pickle.PickleBuffer] = []
            stream = pickle.dumps(
                payload, protocol=_PICKLE_PROTO,
                buffer_callback=buffers.append,
            )
            raws = [buffer.raw() for buffer in buffers]
            start = _aligned(cursor)
            table_at = _aligned(start + len(stream))
            cursor = table_at + 16 * len(raws)
            offsets = []
            for raw in raws:
                cursor = _aligned(cursor)
                offsets.append(cursor)
                cursor += raw.nbytes
            table = np.array(
                [(at, raw.nbytes) for at, raw in zip(offsets, raws)],
                dtype=np.int64,
            ).tobytes()
            spans += [(start, stream), (table_at, table), *zip(offsets, raws)]
            layout[tid] = (start, len(stream), len(raws))

        segment = self._create_segment(cursor)
        for offset, part in spans:
            segment.buf[offset:offset + len(part)] = part
        return {
            tid: ShmRef(segment.name, *span) for tid, span in layout.items()
        }

    def pack_object(self, obj: Any) -> ShmRef:
        """Pack ``obj`` alone into its own segment (the job context)."""
        return self.pack({0: obj})[0]

    # -- lifecycle -----------------------------------------------------
    @property
    def segments(self) -> List[str]:
        return [seg.name for seg in self._segments]

    def release(self) -> None:
        """Unlink all segments.  Idempotent, so double-release in error
        paths stays harmless."""
        if not self._released:
            self._released = True
            self._unlink_all()

    def _create_segment(self, size: int) -> shared_memory.SharedMemory:
        for _ in range(16):
            name = (
                f"{SEGMENT_PREFIX}-{os.getpid() % 10**7}-"
                f"{uuid.uuid4().hex[:8]}"
            )
            try:
                segment = shared_memory.SharedMemory(
                    name=name, create=True, size=max(1, size)
                )
            except FileExistsError:  # pragma: no cover - uuid collision
                continue
            self._segments.append(segment)
            self.segment_bytes += segment.size
            self.segments_created += 1
            _LIVE_SEGMENTS.add(segment.name)
            return segment
        raise RuntimeError(
            "could not allocate a uniquely named shared-memory segment"
        )  # pragma: no cover

    def _unlink_all(self) -> None:
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _LIVE_SEGMENTS.discard(segment.name)
        self._segments.clear()


# ----------------------------------------------------------------------
# Worker side: attach + decode
# ----------------------------------------------------------------------
#: Per-process attachment cache: segment name -> SharedMemory handle.
_ATTACHMENTS: Dict[str, shared_memory.SharedMemory] = {}
#: Per-process decoded-object cache (the job context), keyed by span.
_OBJECT_CACHE: Dict[Tuple[str, int], Any] = {}


def _attach(segment: str) -> shared_memory.SharedMemory:
    handle = _ATTACHMENTS.get(segment)
    if handle is None:
        handle = shared_memory.SharedMemory(name=segment)
        # Attaching registers the segment with the resource tracker a
        # second time.  Under fork (Linux default) the worker shares the
        # parent's tracker, whose cache is a set — the re-registration
        # dedupes and the parent's unlink cleans it, so unregistering
        # here would instead race the parent's unlink into a tracker
        # KeyError.  Under spawn the worker has its *own* tracker that
        # would unlink the segment out from under the parent at worker
        # exit, so there the extra registration must be dropped.
        if multiprocessing.get_start_method() != "fork":
            try:  # pragma: no cover - non-fork platforms
                resource_tracker.unregister(handle._name, "shared_memory")
            except Exception:
                pass
        _ATTACHMENTS[segment] = handle
    return handle


def close_attachments() -> None:
    """Close this process's cached attachments and decoded contexts.

    The eviction rule of a long-lived worker (:func:`open_envelope`): an
    unlinked segment stays allocated for as long as a process maps it.
    """
    # Cached payloads are views of the segments: drop them first.
    _OBJECT_CACHE.clear()
    for name, handle in list(_ATTACHMENTS.items()):
        try:
            handle.close()
        except BufferError:
            # A view of it is still referenced — an attempt abandoned at
            # its timeout is still reading its block.  Kept, and closed
            # by a later eviction.
            continue
        del _ATTACHMENTS[name]


def resolve_ref(ref: ShmRef, cache: bool = False) -> Any:
    """Rebuild the payload a descriptor points at; its arrays are
    read-only views of the segment.

    ``cache=True`` memoizes the decoded object per process — used for
    the job context so each worker unpickles the runtime + job (plan
    included) once per job instead of once per task.
    """
    key = (ref.segment, ref.offset)
    if cache and key in _OBJECT_CACHE:
        return _OBJECT_CACHE[key]
    buf = _attach(ref.segment).buf.toreadonly()
    table = np.frombuffer(
        buf, dtype=np.int64, count=2 * ref.buffers,
        offset=_aligned(ref.offset + ref.size),
    )
    payload = pickle.loads(
        buf[ref.offset:ref.offset + ref.size],
        buffers=[
            buf[start:start + nbytes]
            for start, nbytes in table.reshape(-1, 2).tolist()
        ],
    )
    if cache:
        _OBJECT_CACHE[key] = payload
    return payload


# ----------------------------------------------------------------------
# Envelopes: what actually crosses the executor pipe
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PickleEnvelope:
    """Status-quo wire format: the full context + payload, pickled."""

    task_id: int
    blob: bytes


@dataclass(frozen=True)
class ShmEnvelope:
    """Zero-copy wire format: two descriptors, nothing else."""

    task_id: int
    context: ShmRef
    payload: ShmRef


def open_envelope(envelope) -> Tuple[Any, Any, int, Any]:
    """Worker entry: resolve an envelope to ``(runtime, job, task_id,
    payload)``, attaching/caching shared memory as needed."""
    if isinstance(envelope, PickleEnvelope):
        runtime, job, payload = pickle.loads(envelope.blob)
        return runtime, job, envelope.task_id, payload
    if envelope.context.segment not in _ATTACHMENTS:
        # First task of a new job in this process: the previous job's
        # segments are unlinked by now, so a pool worker never maps more
        # than one job's.
        close_attachments()
    runtime, job = resolve_ref(envelope.context, cache=True)
    payload = resolve_ref(envelope.payload)
    return runtime, job, envelope.task_id, payload


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class Transport:
    """Parent-side dispatch codec for one job run.

    Subclasses encode each phase's task payloads into envelopes; the
    runtime measures nothing itself — encode time and bytes are
    accounted here so both transports are costed identically.
    """

    name = "?"

    def __init__(self) -> None:
        self.tasks = 0
        self.dispatch_seconds = 0.0
        self.dispatch_bytes = 0
        self.context_bytes = 0

    def open_job(self, runtime, job) -> None:
        raise NotImplementedError

    def encode_tasks(
        self, payloads: Dict[int, Any]
    ) -> Tuple[Dict[int, Any], Dict[int, int]]:
        """Encode a phase's payloads; return (envelopes, bytes-per-task)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources; must be called in a ``finally``."""

    def stats(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "tasks": self.tasks,
            "dispatch_seconds": self.dispatch_seconds,
            "dispatch_bytes": self.dispatch_bytes,
            "context_bytes": self.context_bytes,
            "segments": 0,
            "segment_bytes": 0,
        }


class PickleTransport(Transport):
    """Re-pickle the full context + payload per task (the baseline)."""

    name = "pickle"

    def __init__(self) -> None:
        super().__init__()
        self._context: Tuple[Any, Any] | None = None

    def open_job(self, runtime, job) -> None:
        self._context = (runtime, job)

    def encode_tasks(self, payloads):
        runtime, job = self._context
        envelopes: Dict[int, Any] = {}
        sizes: Dict[int, int] = {}
        start = time.perf_counter()
        for tid, payload in payloads.items():
            blob = pickle.dumps(
                (runtime, job, payload), protocol=_PICKLE_PROTO
            )
            envelopes[tid] = PickleEnvelope(tid, blob)
            sizes[tid] = len(blob)
        self.dispatch_seconds += time.perf_counter() - start
        self.dispatch_bytes += sum(sizes.values())
        self.context_bytes += sum(sizes.values())  # context rides along
        self.tasks += len(payloads)
        return envelopes, sizes


class ShmTransport(Transport):
    """Write payloads to shared memory once; dispatch descriptors."""

    name = "shm"

    def __init__(self) -> None:
        super().__init__()
        self.arena: ShmArena | None = None
        self._context_ref: ShmRef | None = None

    def open_job(self, runtime, job) -> None:
        start = time.perf_counter()
        self.arena = ShmArena(label=getattr(job, "name", ""))
        self._context_ref = self.arena.pack_object((runtime, job))
        self.dispatch_seconds += time.perf_counter() - start
        self.context_bytes = self.arena.segment_bytes

    def encode_tasks(self, payloads):
        envelopes: Dict[int, Any] = {}
        sizes: Dict[int, int] = {}
        start = time.perf_counter()
        refs = self.arena.pack(payloads)
        for tid, ref in refs.items():
            envelope = ShmEnvelope(tid, self._context_ref, ref)
            envelopes[tid] = envelope
            sizes[tid] = len(pickle.dumps(envelope, protocol=_PICKLE_PROTO))
        self.dispatch_seconds += time.perf_counter() - start
        self.dispatch_bytes += sum(sizes.values())
        self.tasks += len(payloads)
        return envelopes, sizes

    def close(self) -> None:
        if self.arena is not None:
            self.arena.release()

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        if self.arena is not None:
            stats["segments"] = self.arena.segments_created
            stats["segment_bytes"] = self.arena.segment_bytes
        return stats


def make_transport(spec) -> Transport:
    """Build a transport from a name (or pass an instance through)."""
    if isinstance(spec, Transport):
        return spec
    if spec == "pickle":
        return PickleTransport()
    if spec == "shm":
        return ShmTransport()
    raise ValueError(
        f"unknown transport {spec!r}; known: {TRANSPORTS}"
    )
