"""Checksummed, versioned on-disk artifacts (snapshots and manifests).

Every durable file the recovery layer writes — streaming snapshots,
checkpoint manifests — shares one envelope so corruption and version
skew are detected the same way everywhere:

``{"format": "repro-artifact", "kind": ..., "version": ...,
"crc32": ..., "payload": ...}``

The CRC covers the *canonical* JSON serialization of the payload
(sorted keys, no whitespace), and the file carries exactly those bytes
after ``"payload":`` — the envelope is written compactly and the payload
serialised once.  A bit flip anywhere in the payload is caught on read;
the reader re-serialises what it parses, so artifacts written in the
older indented layout load too.  Writes are atomic (temp file in the
same directory + ``fsync`` + ``os.replace`` + directory ``fsync``): a
crash mid-save leaves either the previous artifact or none, never a
torn one.  ndarray values travel as base64 bytes
(:func:`encode_array` / :func:`decode_array`).

Readers raise :class:`SnapshotError` with a machine-checkable
``reason`` (``missing`` / ``unreadable`` / ``corrupt`` /
``version_mismatch`` / ``kind_mismatch``) so callers can decide which
failures degrade to a clean re-run and which are configuration errors.
"""

from __future__ import annotations

import base64
import json
import os
import stat
import tempfile
import zlib
from functools import reduce
from operator import iconcat
from typing import Any, Iterable

import numpy as np

from .diskguard import DiskPressureError, is_disk_full

__all__ = [
    "SnapshotError",
    "canonical_bytes",
    "decode_array",
    "encode_array",
    "payload_crc32",
    "write_artifact",
    "write_atomic",
    "read_artifact",
]

_FORMAT = "repro-artifact"
#: Element types a JSON array holds without nesting anything.
_SCALARS = frozenset({str, int, float, bool, type(None)})
_ROWS = frozenset({list, tuple})


class SnapshotError(Exception):
    """A durable artifact could not be trusted or read.

    ``reason`` is one of ``"missing"``, ``"unreadable"``, ``"corrupt"``,
    ``"version_mismatch"``, ``"kind_mismatch"``.
    """

    def __init__(self, path: str, reason: str, detail: str = "") -> None:
        self.path = path
        self.reason = reason
        self.detail = detail
        message = f"{path}: {reason}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


def canonical_bytes(payload: Any) -> bytes:
    """Deterministic serialization the checksum is computed over."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def payload_crc32(payload: Any) -> int:
    return zlib.crc32(canonical_bytes(payload)) & 0xFFFFFFFF


def _non_str_key(node: Any) -> list | None:
    """Key path to the first dict key under ``node`` that is not a str.

    JSON writes such a key as a string, so the checksum of the live
    payload would not be the one a reader recomputes from the file.
    Containers whose children cannot hold a dict are cleared in C
    (:func:`_flat`), so a payload's bulk — lists of numbers — is never
    walked in Python."""
    if isinstance(node, dict):
        for key, value in node.items():
            if not isinstance(key, str):
                return [key]
            if type(value) not in _SCALARS:
                found = _non_str_key(value)
                if found is not None:
                    return [key, *found]
    elif isinstance(node, (list, tuple)) and not _flat(node):
        for i, item in enumerate(node):
            found = _non_str_key(item)
            if found is not None:
                return [i, *found]
    return None


def _flat(items: list | tuple) -> bool:
    """Whether ``items`` are scalars, or rows of numbers, decided in C:
    ``sum`` refuses a str, list or dict among the numbers it adds."""
    try:
        sum(items)
        return True
    except TypeError:
        pass
    if _SCALARS.issuperset(map(type, items)):
        return True
    if not _ROWS.issuperset(map(type, items)):
        return False
    try:
        sum(reduce(iconcat, items, []))
        return True
    except TypeError:
        return False


def write_artifact(path: str, kind: str, version: int, payload: Any) -> None:
    """Atomically write a checksummed artifact to ``path``.

    The file is the compact envelope with the payload written as the
    very bytes its ``crc32`` covers (:func:`canonical_bytes`), so the
    payload is serialised once.  A dict key that is not a ``str`` is a
    ``TypeError`` before anything touches the directory.  A full disk
    raises a typed
    :class:`~repro.recovery.diskguard.DiskPressureError`; the write is
    staged in a temp file, so the previous artifact (or its absence) is
    untouched either way.
    """
    bad = _non_str_key(payload)
    if bad is not None:
        where = "payload" + "".join(f"[{key!r}]" for key in bad)
        raise TypeError(
            f"{where}: artifact dict keys must be str, not "
            f"{type(bad[-1]).__name__}"
        )
    body = canonical_bytes(payload)
    head = json.dumps(
        {
            "format": _FORMAT,
            "kind": kind,
            "version": version,
            "crc32": zlib.crc32(body) & 0xFFFFFFFF,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    # The envelope less its closing brace, then the payload.
    write_atomic(path, [head[:-1] + b',"payload":', body, b"}"])


def write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    """Durably replace ``path`` with the concatenated ``chunks``.

    The bytes go to a temp file in the same directory, which is
    ``fsync``-ed and ``os.replace``-d onto ``path``; the directory is
    then ``fsync``-ed so the rename itself survives a crash.  A reader
    sees the old file (or none) or the new one, never a torn one.  A
    full disk raises a typed
    :class:`~repro.recovery.diskguard.DiskPressureError` and leaves no
    temp file behind.

    A symlink at ``path`` is written through: its target is replaced,
    and the link stays.  A pipe, terminal or device at ``path`` (``-o
    /dev/stdout``) has nothing to replace: the bytes are written to it,
    and a full device is a ``DiskPressureError`` too.
    """
    if _is_special(path):
        try:
            with open(path, "wb") as f:
                for chunk in chunks:
                    f.write(chunk)
        except BaseException as exc:
            _reraise_typed(path, exc)
        return
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        _reraise_typed(path, exc)
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _reraise_typed(path: str, exc: BaseException) -> None:
    """Raise ``exc`` again, a full disk as a ``DiskPressureError``."""
    if is_disk_full(exc) and not isinstance(exc, DiskPressureError):
        raise DiskPressureError(path, "enospc", str(exc)) from exc
    raise exc


def _is_special(path: str) -> bool:
    """Whether ``path`` exists and is not a regular file."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        return False


def encode_array(array: np.ndarray) -> dict:
    """An ndarray as an artifact value: its little-endian bytes in
    base64, with the dtype and shape that rebuild it bit for bit."""
    array = np.asarray(array)
    data = array.astype(array.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": data.dtype.str,
        "shape": list(data.shape),
        "b64": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def decode_array(value: Any, dtype: Any) -> np.ndarray:
    """The array :func:`encode_array` stored, as a writable ``dtype``
    array.  A plain JSON list — how version-1 snapshots stored arrays —
    is read as before."""
    if isinstance(value, dict):
        data = np.frombuffer(
            base64.b64decode(value["b64"]), dtype=np.dtype(value["dtype"])
        )
        return data.reshape(value["shape"]).astype(dtype)
    return np.asarray(value, dtype=dtype)


def read_artifact(
    path: str, kind: str, version: int | tuple[int, ...]
) -> Any:
    """Read and validate an artifact; return its payload.

    ``version`` is the one version the reader accepts, or a tuple of
    every version it reads.  Raises :class:`SnapshotError` on any
    problem — the caller chooses whether that degrades to a fresh run or
    aborts.
    """
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except FileNotFoundError:
        raise SnapshotError(path, "missing") from None
    except OSError as exc:
        raise SnapshotError(path, "unreadable", str(exc)) from exc
    try:
        raw = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Bit flips can break the encoding before they break the JSON.
        raise SnapshotError(
            path, "corrupt", f"not UTF-8: {exc}"
        ) from exc
    try:
        body = json.loads(raw)
    except ValueError as exc:
        raise SnapshotError(path, "corrupt", f"not JSON: {exc}") from exc
    if not isinstance(body, dict) or body.get("format") != _FORMAT:
        raise SnapshotError(path, "corrupt", "missing artifact envelope")
    if body.get("kind") != kind:
        raise SnapshotError(
            path, "kind_mismatch",
            f"expected {kind!r}, found {body.get('kind')!r}",
        )
    versions = version if isinstance(version, tuple) else (version,)
    if body.get("version") not in versions:
        raise SnapshotError(
            path, "version_mismatch",
            f"expected {' or '.join(map(str, versions))}, "
            f"found {body.get('version')!r}",
        )
    payload = body.get("payload")
    expected = body.get("crc32")
    actual = payload_crc32(payload)
    if expected != actual:
        raise SnapshotError(
            path, "corrupt",
            f"crc32 mismatch: stored {expected}, computed {actual}",
        )
    return payload
