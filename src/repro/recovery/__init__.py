"""Durable checkpoint/recovery layer: crash-safe detection runs.

Three pieces, one contract — a killed process never costs correctness,
only the uncommitted fraction of the work:

* :mod:`~repro.recovery.snapshot` — checksummed, versioned, atomically
  written artifacts (the envelope under snapshots and manifests);
* :mod:`~repro.recovery.journal` — the append-only fsynced WAL of
  per-partition verdicts;
* :mod:`~repro.recovery.checkpoint` — :func:`run_checkpointed`, the
  resumable twin of :func:`repro.core.detect_outliers`;
* :mod:`~repro.recovery.diskguard` — typed disk-pressure failures
  (:class:`DiskPressureError`) and the low-watermark probe behind the
  service tier's degrade mode.

Streaming snapshots (:meth:`repro.streaming.StreamingDetector.save`)
build on the same artifact envelope.
"""

from .checkpoint import (
    JOURNAL_FILE,
    MANIFEST_FILE,
    CheckpointedResult,
    CheckpointMismatch,
    dataset_fingerprint,
    read_manifest,
    run_checkpointed,
)
from .diskguard import (
    ENOSPC_AFTER_ENV,
    ENOSPC_AT_ENV,
    DiskPressureError,
    check_watermark,
    free_bytes,
)
from .journal import (
    CHAOS_KILL_ENV,
    JournalCorrupt,
    ResultJournal,
    SimulatedCrash,
)
from .snapshot import (
    SnapshotError,
    canonical_bytes,
    payload_crc32,
    read_artifact,
    write_artifact,
    write_atomic,
)

__all__ = [
    "CHAOS_KILL_ENV",
    "ENOSPC_AFTER_ENV",
    "ENOSPC_AT_ENV",
    "JOURNAL_FILE",
    "MANIFEST_FILE",
    "CheckpointMismatch",
    "CheckpointedResult",
    "DiskPressureError",
    "JournalCorrupt",
    "ResultJournal",
    "SimulatedCrash",
    "SnapshotError",
    "canonical_bytes",
    "check_watermark",
    "dataset_fingerprint",
    "free_bytes",
    "payload_crc32",
    "read_artifact",
    "read_manifest",
    "run_checkpointed",
    "write_artifact",
    "write_atomic",
]
