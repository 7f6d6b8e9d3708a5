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
  offset, shape, dtype)`` descriptors (:class:`ShmRef`) travel through
  the pool.  Workers attach read-only views, cache the decoded job
  context per process, and retries / speculative duplicates reuse the
  same segment instead of re-pickling.

Payload encodings (tried in order, first match wins):

* ``"block"`` — an input block of ``(id, point)`` records
  (:func:`records_as_arrays`): one int64 id array
  plus one ``(n, d)`` point array, original dtype preserved bit-exactly
  (float32 inputs stay float32).  Decoded records hand the mapper
  read-only row views into the segment — no copy.
* ``"groups"`` — a reducer input ``{int key: [(int, ..., point-tuple)]}``
  mapping with uniform value arity, the shape both detection shuffles
  produce: key/offset/int-column/point arrays, key order and per-key
  value order preserved exactly.
* ``"pickle"`` — anything else is pickled *once* into the segment; the
  descriptor still keeps the executor pipe payload O(1).

All three decode to objects that compare equal to the originals, which
is what lets the differential suite assert byte-identical outlier sets,
counters, and ``distance_evals`` across transports.

Segment lifecycle is deterministic and crash-safe: the runtime
releases the arena in a ``finally`` (so failure-injected
and timed-out runs clean up too), and every segment this process created
is tracked in :func:`live_segments` so tests can assert nothing leaks
into ``/dev/shm``.
"""

from __future__ import annotations

import multiprocessing
import operator
import os
import pickle
import time
import uuid
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "TRANSPORTS",
    "SEGMENT_PREFIX",
    "ArrayRef",
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
class ArrayRef:
    """One array (or raw byte span) inside a segment."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str  # numpy dtype string, or "bytes" for a raw pickle span


@dataclass(frozen=True)
class ShmRef:
    """Descriptor of one encoded payload: everything a worker needs to
    attach and rebuild it, small enough to ship through the pool pipe."""

    segment: str
    kind: str  # "block" | "groups" | "pickle"
    arrays: Tuple[ArrayRef, ...]


# ----------------------------------------------------------------------
# Payload codecs (encode: payload -> (kind, arrays-or-bytes);
#                 decode: segment views -> payload)
# ----------------------------------------------------------------------
def records_as_arrays(
    records: Sequence,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Columnar ``(ids, points)`` arrays for ``(id, point)`` records.

    The detection pipeline's HDFS record format is ``(id, point)`` with a
    plain-int id and a 1-D numeric point of uniform dimensionality.  When
    ``records`` matches that shape, return ``(ids int64 (n,), points
    (n, d))`` with the points' original dtype preserved — the columnar
    form the shared-memory transport writes into its segments.  Return
    ``None`` for anything else (empty blocks, mixed shapes, non-numeric
    payloads); callers then fall back to generic serialization.
    """
    if not records:
        return None
    first = records[0]
    if type(first) is not tuple or len(first) != 2:
        return None
    p0 = first[1]
    if (
        not isinstance(p0, np.ndarray)
        or p0.ndim != 1
        or p0.dtype.kind not in "fiu"
    ):
        return None
    # Validation runs as C-level set/map passes over whole columns
    # rather than a per-record Python loop: this sits on the dispatch
    # hot path of the shared-memory transport.  The uniform-dtype check
    # is load-bearing — np.stack would silently upcast a mixed
    # float32/float64 column, changing detector arithmetic downstream.
    if (
        set(map(type, records)) != {tuple}
        or set(map(len, records)) != {2}
    ):
        return None
    ids = [r[0] for r in records]
    rows = [r[1] for r in records]
    if set(map(type, ids)) != {int} or set(map(type, rows)) != {np.ndarray}:
        return None
    get_dtype = operator.attrgetter("dtype")
    get_shape = operator.attrgetter("shape")
    if (
        set(map(get_dtype, rows)) != {p0.dtype}
        or set(map(get_shape, rows)) != {p0.shape}
    ):
        return None
    try:
        id_col = np.asarray(ids, dtype=np.int64)
    except OverflowError:  # ids beyond int64 range
        return None
    # np.stack copies row by row in C (handling non-contiguous inputs)
    # and keeps the uniform dtype verified above.
    return id_col, np.stack(rows)


def _encode_block(payload) -> Optional[Tuple[str, List[np.ndarray]]]:
    if not isinstance(payload, (tuple, list)):
        return None
    columns = records_as_arrays(payload)
    if columns is None:
        return None
    ids, points = columns
    return "block", [ids, points]


def _decode_block(views: List[np.ndarray]) -> List[tuple]:
    ids, points = views
    return list(zip(ids.tolist(), points))


def _encode_groups(payload) -> Optional[Tuple[str, List[np.ndarray]]]:
    if not isinstance(payload, dict):
        return None
    keys: List[int] = []
    counts: List[int] = []
    flat: List[tuple] = []
    for key, values in payload.items():
        if type(key) is not int or not isinstance(values, list):
            return None
        keys.append(key)
        counts.append(len(values))
        flat.extend(values)
    arity = ndim = None
    for value in flat:  # cheap structural scan; element types come below
        if type(value) is not tuple or not value:
            return None
        point = value[-1]
        if type(point) is not tuple:
            return None
        if arity is None:
            arity, ndim = len(value), len(point)
        elif len(value) != arity or len(point) != ndim:
            return None
    if arity is None:  # no values at all; shapes still carry the layout
        arity, ndim = 1, 0
    n_values = len(flat)
    # Element validation is vectorized: dtype *inference* (no forced
    # dtype) makes numpy reject mixed or non-numeric columns for us —
    # a float in an int column infers float64, a string infers object,
    # both fall back to the pickle codec.  Columns are converted one at
    # a time because a 1-D asarray over scalars is ~2x cheaper than a
    # 2-D asarray over row tuples.  The one silent coercion is
    # bool-for-int (True -> 1), which compares equal on decode.
    try:
        if arity > 1:
            cols = []
            for i in range(arity - 1):
                col = np.asarray([v[i] for v in flat])
                if col.dtype != np.int64 or col.ndim != 1:
                    return None
                cols.append(col)
            int_cols = np.stack(cols, axis=1)
        else:
            int_cols = np.empty((n_values, 0), dtype=np.int64)
        if ndim > 0 and n_values:
            points_list = [v[-1] for v in flat]
            pcols = []
            for j in range(ndim):
                col = np.asarray([p[j] for p in points_list])
                if col.dtype != np.float64 or col.ndim != 1:
                    return None
                pcols.append(col)
            points = np.stack(pcols, axis=1)
        else:
            points = np.empty((n_values, ndim), dtype=np.float64)
    except (ValueError, OverflowError):  # ragged rows, huge ints
        return None
    offsets = np.zeros(len(keys) + 1, dtype=np.int64)
    if counts:
        np.cumsum(counts, out=offsets[1:])
    return "groups", [
        np.asarray(keys, dtype=np.int64),
        offsets,
        int_cols,
        points,
    ]


def _decode_groups(views: List[np.ndarray]) -> Dict[int, list]:
    keys, offsets, int_cols, points = views
    key_list = keys.tolist()
    bounds = offsets.tolist()
    ints = int_cols.tolist()
    pts = points.tolist()
    values = [
        (*ints[i], tuple(pts[i])) for i in range(len(ints))
    ]
    return {
        key: values[bounds[j]:bounds[j + 1]]
        for j, key in enumerate(key_list)
    }


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
        plans: Dict[Any, Tuple[str, list]] = {}
        for tid, payload in payloads.items():
            plan = _encode_block(payload) or _encode_groups(payload)
            if plan is None:
                plan = "pickle", [
                    pickle.dumps(payload, protocol=_PICKLE_PROTO)
                ]
            plans[tid] = plan

        # Lay out every array/blob back to back, aligned.
        cursor = 0
        placed: Dict[Any, List[Tuple[int, Any]]] = {}
        for tid, (_, parts) in plans.items():
            spans = []
            for part in parts:
                cursor = -(-cursor // _ALIGN) * _ALIGN
                spans.append((cursor, part))
                cursor += (
                    len(part) if isinstance(part, bytes) else part.nbytes
                )
            placed[tid] = spans

        segment = self._create_segment(cursor)
        refs: Dict[Any, ShmRef] = {}
        for tid, (kind, _) in plans.items():
            array_refs = []
            for offset, part in placed[tid]:
                if isinstance(part, bytes):
                    segment.buf[offset:offset + len(part)] = part
                    array_refs.append(
                        ArrayRef(offset, (len(part),), "bytes")
                    )
                else:
                    dest = np.ndarray(
                        part.shape, dtype=part.dtype,
                        buffer=segment.buf, offset=offset,
                    )
                    dest[...] = part
                    array_refs.append(
                        ArrayRef(offset, part.shape, part.dtype.str)
                    )
            refs[tid] = ShmRef(segment.name, kind, tuple(array_refs))
        return refs

    def pack_object(self, obj: Any) -> ShmRef:
        """Pickle ``obj`` once into its own segment (the job context)."""
        return self.pack({0: _AlwaysPickle(obj)})[0]

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


class _AlwaysPickle:
    """Wrapper that forces the generic pickle encoding for its value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __reduce__(self):
        return _rebuild_value, (self.value,)


def _rebuild_value(value):
    return value


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
    """Close this process's cached attachments (test/bench hygiene)."""
    for handle in _ATTACHMENTS.values():
        handle.close()
    _ATTACHMENTS.clear()
    _OBJECT_CACHE.clear()


def _views(ref: ShmRef) -> List[Any]:
    buf = _attach(ref.segment).buf
    out: List[Any] = []
    for aref in ref.arrays:
        if aref.dtype == "bytes":
            out.append(bytes(buf[aref.offset:aref.offset + aref.shape[0]]))
        else:
            view = np.ndarray(
                aref.shape, dtype=np.dtype(aref.dtype),
                buffer=buf, offset=aref.offset,
            )
            view.flags.writeable = False
            out.append(view)
    return out


def resolve_ref(ref: ShmRef, cache: bool = False) -> Any:
    """Rebuild the payload a descriptor points at.

    ``cache=True`` memoizes the decoded object per process — used for
    the job context so each worker unpickles the runtime + job (plan
    included) once per job instead of once per task.
    """
    key = (ref.segment, ref.arrays[0].offset if ref.arrays else 0)
    if cache and key in _OBJECT_CACHE:
        return _OBJECT_CACHE[key]
    views = _views(ref)
    if ref.kind == "block":
        payload = _decode_block(views)
    elif ref.kind == "groups":
        payload = _decode_groups(views)
    elif ref.kind == "pickle":
        payload = pickle.loads(views[0])
    else:  # pragma: no cover - descriptor corruption
        raise ValueError(f"unknown payload kind {ref.kind!r}")
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
