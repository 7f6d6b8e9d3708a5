"""Disk-pressure guard: typed ENOSPC failures instead of corrupt WALs.

A full disk is the one failure the recovery layer's fsync discipline
cannot write its way out of — ``write()`` or ``fsync()`` raising
``ENOSPC`` mid-append would otherwise surface as an arbitrary
``OSError`` somewhere inside a commit, with a half-written journal
tail behind it.  This module gives every durable writer one shared
vocabulary:

* :class:`DiskPressureError` — the typed, machine-checkable failure
  the journal and artifact writers raise for ``ENOSPC``/``EDQUOT``
  (and for a breached low-watermark).  The service worker catches it,
  flips the store into *degrade mode* (new submissions rejected with
  ``QueueFull(reason="disk")``), and settles the job as failed with
  ``failure_kind="disk"`` — running work finishes, nothing corrupts.
* :func:`free_bytes` / :func:`check_watermark` — the low-watermark
  probe the serve driver polls so the service degrades *before* the
  kernel starts returning ``ENOSPC``.
* chaos injectors — ``REPRO_CHAOS_ENOSPC_AFTER_COMMITS=<n>`` makes the
  journal raise a synthetic :class:`DiskPressureError` after ``n``
  durable appends, and ``REPRO_CHAOS_ENOSPC_AT=<site>`` fails a single
  named write site (``result`` / ``trace`` = the worker's result.json /
  trace.jsonl write).
  Both let the fault-matrix harness exercise the full degrade path on
  a machine whose disk is, inconveniently, not full.
"""

from __future__ import annotations

import errno
import os
import shutil
from typing import Optional

__all__ = [
    "DiskPressureError",
    "ENOSPC_AFTER_ENV",
    "ENOSPC_AT_ENV",
    "free_bytes",
    "check_watermark",
    "is_disk_full",
    "injected_enospc_after",
    "maybe_inject_enospc",
]

#: Chaos: raise DiskPressureError after this many successful journal
#: appends (per journal instance).
ENOSPC_AFTER_ENV = "REPRO_CHAOS_ENOSPC_AFTER_COMMITS"
#: Chaos: fail one named write site ("result" / "trace" = the worker's
#: result.json / trace.jsonl).
ENOSPC_AT_ENV = "REPRO_CHAOS_ENOSPC_AT"

_DISK_FULL_ERRNOS = frozenset({errno.ENOSPC, errno.EDQUOT})


class DiskPressureError(OSError):
    """A durable write could not land because the disk is (nearly) full.

    ``reason`` is machine-checkable: ``"enospc"`` (the kernel refused
    the write), ``"watermark"`` (free space fell below the configured
    low watermark), or ``"injected"`` (a chaos hook).  Subclasses
    ``OSError`` so callers that only know about ``ENOSPC`` keep
    working; carries ``errno.ENOSPC`` for the same reason.
    """

    def __init__(self, path: str, reason: str, detail: str = "") -> None:
        message = f"{path}: disk pressure ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(errno.ENOSPC, message)
        self.path = path
        self.reason = reason
        self.detail = detail


def is_disk_full(exc: BaseException) -> bool:
    """Is this OSError the kernel saying the disk/quota is exhausted?"""
    return (
        isinstance(exc, OSError)
        and exc.errno in _DISK_FULL_ERRNOS
    )


def free_bytes(path: str) -> int:
    """Free bytes on the filesystem holding ``path`` (nearest existing
    ancestor, so it works for paths about to be created)."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        parent = os.path.dirname(probe)
        if parent == probe:  # pragma: no cover - filesystem root
            break
        probe = parent
    return shutil.disk_usage(probe).free


def check_watermark(path: str, low_watermark_bytes: int) -> int:
    """Raise :class:`DiskPressureError` if free space is below the
    watermark; returns the free byte count otherwise.  A watermark of
    0 (or negative) disables the check."""
    free = free_bytes(path)
    if low_watermark_bytes > 0 and free < low_watermark_bytes:
        raise DiskPressureError(
            path, "watermark",
            f"free {free} bytes < low watermark {low_watermark_bytes}",
        )
    return free


# -- chaos injection ----------------------------------------------------
def injected_enospc_after() -> Optional[int]:
    """The journal-append injection threshold, or None when unset."""
    raw = os.environ.get(ENOSPC_AFTER_ENV)
    if raw is None or raw == "":
        return None
    return int(raw)


def maybe_inject_enospc(site: str, path: str) -> None:
    """Raise a synthetic :class:`DiskPressureError` when the named
    write site is targeted by ``REPRO_CHAOS_ENOSPC_AT``."""
    if os.environ.get(ENOSPC_AT_ENV) == site:
        raise DiskPressureError(
            path, "injected", f"chaos: ENOSPC at site {site!r}"
        )
