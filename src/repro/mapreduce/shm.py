"""Zero-copy shared-memory data plane for :class:`ParallelRuntime`.

A pool task reaches its worker through shared memory and nothing else.
Re-pickling each task's whole payload — the runtime, the job (carrying
the partition plan), and the task's point records — into the executor
pipe per attempt, and again for every speculative duplicate, is a
transport cost the paper's communication model (Sec. III) does not
have: the framework's win is that communication scales with
support-area overlap, not with how many times the scheduler ships a
partition.  So :class:`ShmTransport` has a :class:`ShmArena` write the
job context once and each phase's task payloads once into
``multiprocessing.shared_memory`` segments; only tiny ``(segment,
offset, size, buffers)`` descriptors (:class:`ShmRef`) travel through
the pool.  Workers attach read-only views, cache the decoded job
context per process — until the first task of the next job, which
evicts both — and retries / speculative duplicates reuse the same
segment instead of re-pickling.

The shuffle stays in shared memory too.  The driver names one **spill**
segment per map dispatch; a worker whose map output is all
:class:`~repro.mapreduce.batch.RecordBatch` values writes their columns
there once, back to back (:func:`write_spill`), and returns a
:class:`Spill` — ``(key, start, stop)`` row ranges — instead of the
rows.  The driver maps the spill read-only and hands the job loop real
batch views of it (:meth:`ShmArena.open_spill`); a reduce payload
pickles each such view as ``(spill, start, stop)``, and a worker maps
each spill once per job to rebuild it.  Output that is not all batches
(the sampling job's ``(bucket, count)`` pairs) returns in-band.

One payload encoding: pickle protocol 5 with out-of-band buffers.  The
pickle stream of a payload holds its structure; every contiguous numpy
array in it — the columns of a :class:`~repro.mapreduce.batch
.RecordBatch` block, of each batch in a reducer's ``{key: [batch, ...]}``
input that is not a spill view, the plan's tables in the job context —
is laid out in the segment as raw bytes, and a worker rebuilds it as a
read-only view of the segment, not a copy.  What is columnar is so
because its type says so; nothing guesses a layout from a payload's
elements, and a payload without arrays is simply a pickle stream with
no buffers.  Decoded payloads compare equal to the originals, which is
what lets the differential suite assert byte-identical outlier sets,
counters, and ``distance_evals`` between the pool and the serial
runtime.

Segment lifecycle is deterministic and crash-safe: every segment this
process created, and every spill name it handed out, is tracked in
:func:`live_segments` from before a worker can see it; the runtime
releases the arena — its segments and its spills, a speculation
loser's or a killed worker's included — in a ``finally`` (so
failure-injected and timed-out runs clean up too), and tests assert
nothing leaks into ``/dev/shm``.
"""

from __future__ import annotations

import io
import mmap
import multiprocessing
import os
import pickle
import time
import uuid
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .batch import RecordBatch

__all__ = [
    "SEGMENT_PREFIX",
    "ShmRef",
    "Spill",
    "ShmArena",
    "ShmEnvelope",
    "open_envelope",
    "resolve_ref",
    "write_spill",
    "ShmTransport",
    "live_segments",
    "close_attachments",
    "install_exit_cleanup",
    "stale_segments",
    "clean_stale_segments",
]

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


@dataclass(frozen=True)
class Spill:
    """A map task's output left in its spill segment: the ``nbytes`` of
    the segment and, per output pair in emission order, its key and the
    ``[start, stop)`` rows of its batch."""

    segment: str
    nbytes: int
    groups: List[Tuple[Any, int, int]]


def _aligned(cursor: int) -> int:
    return -(-cursor // _ALIGN) * _ALIGN


# ----------------------------------------------------------------------
# The spill layout
# ----------------------------------------------------------------------
#: A spill's columns, in the order they are laid out.
_SPILL_COLUMNS = (
    ("ids", np.int64), ("points", np.float64), ("tags", np.int8),
    ("keys", np.int64),
)

#: A spill opens with four int64 words: rows, point width, and whether
#: the tag and key columns follow.
_SPILL_HEADER = 4


def _spill_layout(rows: int, width: int, tags: int, keys: int):
    """``(offsets, size)`` of a spill: one 16-byte aligned offset per
    column of :data:`_SPILL_COLUMNS` (``None`` for an absent one)."""
    cursor, offsets = 8 * _SPILL_HEADER, []
    for (_name, dtype), count in zip(
        _SPILL_COLUMNS,
        (rows, rows * width, rows if tags else None, rows if keys else None),
    ):
        if count is None:
            offsets.append(None)
            continue
        cursor = _aligned(cursor)
        offsets.append(cursor)
        cursor += count * np.dtype(dtype).itemsize
    return offsets, cursor


def _spill_columns(buf) -> Tuple[Optional[np.ndarray], ...]:
    """The full columns of the spill in ``buf``, as views of it."""
    rows, width, tags, keys = np.frombuffer(
        buf, np.int64, count=_SPILL_HEADER
    ).tolist()
    offsets, _ = _spill_layout(rows, width, tags, keys)
    columns = []
    for (name, dtype), at in zip(_SPILL_COLUMNS, offsets):
        if at is None:
            columns.append(None)
        elif name == "points":
            columns.append(np.frombuffer(
                buf, dtype, count=rows * width, offset=at
            ).reshape(rows, width))
        else:
            columns.append(np.frombuffer(buf, dtype, count=rows, offset=at))
    return tuple(columns)


def _rows(columns, start: int, stop: int) -> RecordBatch:
    return RecordBatch(*(
        None if column is None else column[start:stop]
        for column in columns
    ))


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


def _unlink(name: str) -> None:
    """Unlink segment ``name`` if it exists and stop tracking it."""
    try:
        segment = shared_memory.SharedMemory(name=name)
        segment.close()
        segment.unlink()
    except FileNotFoundError:
        pass  # a spill its worker never wrote, or already unlinked
    _LIVE_SEGMENTS.discard(name)


def _cleanup_live_segments() -> None:
    """Unlink every segment this process still owns (idempotent)."""
    for name in list(_LIVE_SEGMENTS):
        _unlink(name)


def install_exit_cleanup() -> None:
    """Make sure a dying driver unlinks its segments.

    The transport already unlinks in ``finally``, which covers normal
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
    # A forked child — a pool worker — inherits the hooks but owns none
    # of its parent's segments: a pool torn down after a worker death
    # SIGTERMs its survivors, which must not unlink the running job's
    # context from under the replacement workers.
    os.register_at_fork(after_in_child=_LIVE_SEGMENTS.clear)
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
    object (the job context).  ``spill_name`` hands out the name of one
    map dispatch's spill and ``open_spill`` maps a committed one.
    :meth:`release` unlinks every segment and spill — the runtime calls
    it in a ``finally`` so segments never outlive the run, crashed or
    not.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._segments: List[shared_memory.SharedMemory] = []
        self._spills: List[str] = []
        # id(batch) -> (batch, spill, start, stop) for every batch view
        # of a spill: what ``pack`` ships as a spill reference.  Holding
        # the batch keeps its id from being reused.
        self._spill_views: Dict[int, Tuple[RecordBatch, str, int, int]] = {}
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
            stream = io.BytesIO()
            # ``persistent_id`` runs once per pickled object: a job
            # context pickles 3-4x slower through it, so only payloads
            # that can reference a spill take it.
            pickler = (
                _SpillPickler(stream, buffers.append, self._spill_views)
                if self._spill_views
                else pickle.Pickler(
                    stream, _PICKLE_PROTO, buffer_callback=buffers.append
                )
            )
            pickler.dump(payload)
            stream = stream.getbuffer()
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

    # -- spills --------------------------------------------------------
    def spill_name(self) -> str:
        """A fresh spill name for one map dispatch, tracked from now on:
        whether its worker writes it, dies writing it or never runs,
        :meth:`release` unlinks whatever exists under it."""
        if self._released:
            raise RuntimeError("arena already released")
        name = _segment_name()
        self._spills.append(name)
        _LIVE_SEGMENTS.add(name)
        return name

    def open_spill(self, spill: Spill) -> List[Tuple[Any, RecordBatch]]:
        """A committed map task's ``(key, batch)`` output, each batch a
        read-only view of its spill that :meth:`pack` ships as a
        reference."""
        columns = _spill_columns(_map_readonly(spill.segment))
        pairs = []
        for key, start, stop in spill.groups:
            batch = _rows(columns, start, stop)
            self._spill_views[id(batch)] = (batch, spill.segment, start, stop)
            pairs.append((key, batch))
        self.segments_created += 1
        self.segment_bytes += spill.nbytes
        return pairs

    # -- lifecycle -----------------------------------------------------
    @property
    def segments(self) -> List[str]:
        return [seg.name for seg in self._segments]

    def release(self) -> None:
        """Unlink all segments and spills.  Idempotent, so double-release
        in error paths stays harmless."""
        if not self._released:
            self._released = True
            self._unlink_all()

    def _create_segment(self, size: int) -> shared_memory.SharedMemory:
        for _ in range(16):
            try:
                segment = shared_memory.SharedMemory(
                    name=_segment_name(), create=True, size=max(1, size)
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
        # The driver's spill views stay readable for whoever still holds
        # them (their mapping goes with the last one); the names go now.
        self._spill_views.clear()
        for name in self._spills:
            _unlink(name)
        self._spills.clear()


def _segment_name() -> str:
    return f"{SEGMENT_PREFIX}-{os.getpid() % 10**7}-{uuid.uuid4().hex[:8]}"


def _map_readonly(name: str) -> mmap.mmap:
    """A read-only mapping of segment ``name`` that lives exactly as long
    as the arrays viewing it, and holds one file descriptor (an attached
    ``SharedMemory`` holds two).  Nothing closes it, so a view still
    held when its job ends (by a traceback, say) can neither keep the
    segment from being unlinked nor make a close fail."""
    handle = shared_memory.SharedMemory(name=name)
    _disown(handle)
    try:
        # ``SharedMemory`` has no public accessor for its descriptor;
        # mmap duplicates it, so the handle closes at once.
        return mmap.mmap(handle._fd, handle.size, access=mmap.ACCESS_READ)
    finally:
        handle.close()


class _SpillPickler(pickle.Pickler):
    """Pickles a batch view of a spill as ``(spill, start, stop)``."""

    def __init__(self, stream, buffer_callback, spill_views) -> None:
        super().__init__(
            stream, _PICKLE_PROTO, buffer_callback=buffer_callback
        )
        self._spill_views = spill_views

    def persistent_id(self, obj):
        # A registered view is alive (the arena holds it), so no other
        # live object can carry its id.
        held = self._spill_views.get(id(obj))
        return None if held is None else held[1:]


# ----------------------------------------------------------------------
# Worker side: attach + decode
# ----------------------------------------------------------------------
#: Per-process attachment cache: segment name -> SharedMemory handle.
_ATTACHMENTS: Dict[str, shared_memory.SharedMemory] = {}
#: Per-process decoded-object cache (the job context), keyed by span.
_OBJECT_CACHE: Dict[Tuple[str, int], Any] = {}
#: Per-process spill cache: spill name -> its columns, views of a
#: read-only mapping that goes with the last of them.
_MAPPED_SPILLS: Dict[str, Tuple[Optional[np.ndarray], ...]] = {}


def _attach(segment: str) -> shared_memory.SharedMemory:
    handle = _ATTACHMENTS.get(segment)
    if handle is None:
        handle = shared_memory.SharedMemory(name=segment)
        _disown(handle)
        _ATTACHMENTS[segment] = handle
    return handle


def _disown(handle: shared_memory.SharedMemory) -> None:
    """Leave ``handle``'s segment to the driver's resource tracker.

    Attaching or creating registers the segment with the resource
    tracker.  Under fork (Linux default) the worker shares the parent's
    tracker, whose cache is a set — the registration dedupes and the
    parent's unlink cleans it, so unregistering here would instead race
    the parent's unlink into a tracker KeyError.  Under spawn the worker
    has its *own* tracker that would unlink the segment out from under
    the parent at worker exit, so there the registration must be dropped.
    """
    if multiprocessing.get_start_method() != "fork":
        try:  # pragma: no cover - non-fork platforms
            resource_tracker.unregister(handle._name, "shared_memory")
        except Exception:
            pass


def close_attachments() -> None:
    """Close this process's cached attachments and decoded objects.

    The eviction rule of a long-lived worker (:func:`open_envelope`): an
    unlinked segment stays allocated for as long as a process maps it.
    """
    # Cached payloads are views of the segments: drop them first.  A
    # spill's mapping needs no close: it goes with its last view.
    _OBJECT_CACHE.clear()
    _MAPPED_SPILLS.clear()
    for name, handle in list(_ATTACHMENTS.items()):
        try:
            handle.close()
        except BufferError:
            # A view of it is still referenced — an attempt abandoned at
            # its timeout is still reading its block.  Kept, and closed
            # by a later eviction.
            continue
        del _ATTACHMENTS[name]


def _spill_rows(spill: str, start: int, stop: int) -> RecordBatch:
    """Rows ``[start, stop)`` of ``spill``: each spill is mapped and its
    columns decoded once per job in this process."""
    columns = _MAPPED_SPILLS.get(spill)
    if columns is None:
        columns = _MAPPED_SPILLS[spill] = _spill_columns(
            _map_readonly(spill)
        )
    return _rows(columns, start, stop)


class _SpillUnpickler(pickle.Unpickler):
    """Rebuilds the ``(spill, start, stop)`` references of a payload."""

    def persistent_load(self, pid):
        return _spill_rows(*pid)


def resolve_ref(ref: ShmRef, cache: bool = False) -> Any:
    """Rebuild the payload a descriptor points at; its arrays are
    read-only views of the segment (or of the spills it references).

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
    payload = _SpillUnpickler(
        io.BytesIO(buf[ref.offset:ref.offset + ref.size]),
        buffers=[
            buf[start:start + nbytes]
            for start, nbytes in table.reshape(-1, 2).tolist()
        ],
    ).load()
    if cache:
        _OBJECT_CACHE[key] = payload
    return payload


def write_spill(name: str, pairs: Sequence[tuple]) -> Optional[Spill]:
    """Worker side: write a map task's ``(key, batch)`` output into a new
    segment ``name`` — each column of every batch once, back to back —
    and return its :class:`Spill`.  ``None`` (the output goes back
    in-band) when there is no output, or when its values are not all
    batches of one width carrying the same optional columns."""
    batches = [value for _, value in pairs]
    if not batches or any(type(b) is not RecordBatch for b in batches):
        return None

    def shape(batch):
        return (batch.points.shape[1], batch.tags is not None,
                batch.keys is not None)

    if any(shape(b) != shape(batches[0]) for b in batches):
        return None
    bounds = np.cumsum([0] + [len(b) for b in batches]).tolist()
    header = (bounds[-1], *shape(batches[0]))
    size = _spill_layout(*header)[1]
    segment = shared_memory.SharedMemory(name=name, create=True, size=size)
    _disown(segment)
    try:
        _fill_spill(segment.buf, header, batches)
    finally:
        segment.close()
    return Spill(name, size, [
        (key, start, stop)
        for (key, _), start, stop in zip(pairs, bounds, bounds[1:])
    ])


def _fill_spill(buf, header, batches) -> None:
    # Apart so that no view of ``buf`` outlives it: the segment closes
    # right after.
    np.frombuffer(buf, np.int64, count=_SPILL_HEADER)[:] = header
    for (name, _dtype), column in zip(_SPILL_COLUMNS, _spill_columns(buf)):
        if column is not None:
            np.concatenate([getattr(b, name) for b in batches], out=column)


# ----------------------------------------------------------------------
# What actually crosses the executor pipe
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShmEnvelope:
    """One task's wire format: two descriptors, nothing else."""

    task_id: int
    context: ShmRef
    payload: ShmRef


def open_envelope(envelope: ShmEnvelope) -> Tuple[Any, Any, int, Any]:
    """Worker entry: resolve an envelope to ``(runtime, job, task_id,
    payload)``, attaching/caching shared memory as needed."""
    if envelope.context.segment not in _ATTACHMENTS:
        # First task of a new job in this process: the previous job's
        # segments and spills are unlinked by now, so a pool worker maps
        # at most one job's segments and that job's spills.
        close_attachments()
    runtime, job = resolve_ref(envelope.context, cache=True)
    payload = resolve_ref(envelope.payload)
    return runtime, job, envelope.task_id, payload


class ShmTransport:
    """Parent-side dispatch for one job run: write the job context and
    each phase's payloads to shared memory once, dispatch descriptors,
    name each map dispatch's spill and map the committed ones.

    The runtime measures nothing itself — encode and spill-mapping time
    and bytes are accounted here, and :meth:`stats` is what
    ``JobResult.transport`` carries: ``segments`` / ``segment_bytes``
    count the committed spills beside the arena's own segments, and
    ``dispatch_bytes`` is envelope bytes only.
    """

    name = "shm"

    def __init__(self) -> None:
        self.tasks = 0
        self.dispatch_seconds = 0.0
        self.dispatch_bytes = 0
        self.context_bytes = 0
        self.arena: ShmArena | None = None
        self._context_ref: ShmRef | None = None

    def open_job(self, runtime, job) -> None:
        start = time.perf_counter()
        self.arena = ShmArena(label=getattr(job, "name", ""))
        self._context_ref = self.arena.pack_object((runtime, job))
        self.dispatch_seconds += time.perf_counter() - start
        self.context_bytes = self.arena.segment_bytes

    def encode_tasks(
        self, payloads: Dict[int, Any]
    ) -> Tuple[Dict[int, ShmEnvelope], Dict[int, int]]:
        """Encode a phase's payloads; return (envelopes, bytes-per-task)."""
        envelopes: Dict[int, ShmEnvelope] = {}
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

    def spill_name(self) -> str:
        return self.arena.spill_name()

    def open_spill(self, spill: Spill) -> List[Tuple[Any, RecordBatch]]:
        start = time.perf_counter()
        pairs = self.arena.open_spill(spill)
        self.dispatch_seconds += time.perf_counter() - start
        return pairs

    def close(self) -> None:
        """Unlink the job's segments and spills; must be called in a
        ``finally``."""
        if self.arena is not None:
            self.arena.release()

    def stats(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "tasks": self.tasks,
            "dispatch_seconds": self.dispatch_seconds,
            "dispatch_bytes": self.dispatch_bytes,
            "context_bytes": self.context_bytes,
            "segments": self.arena.segments_created if self.arena else 0,
            "segment_bytes": self.arena.segment_bytes if self.arena else 0,
        }
