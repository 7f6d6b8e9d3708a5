"""Durable checkpoint/recovery layer: journal, manifest, snapshots.

The contract under test (ISSUE 5): a driver killed at *any* partition
commit boundary resumes to a byte-identical outlier set, re-executing
only uncommitted partitions; any corrupted artifact (bit-flip, torn
write, version skew) degrades toward recomputation — never toward wrong
or silently partial output.
"""

import gc
import json
import os
import tempfile
import warnings
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, brute_force_outliers, detect_outliers
from repro.data import region_dataset
from repro.mapreduce import (
    ClusterConfig,
    LocalRuntime,
    SchedulerConfig,
    ScriptedFailures,
    SimulatedTaskFailure,
)
from repro.metrics import resolve_metric
from repro.observability import Tracer
from repro.params import OutlierParams
from repro.recovery import (
    CheckpointMismatch,
    JOURNAL_FILE,
    MANIFEST_FILE,
    CheckpointedResult,
    JournalCorrupt,
    ResultJournal,
    SimulatedCrash,
    SnapshotError,
    canonical_bytes,
    dataset_fingerprint,
    read_artifact,
    read_manifest,
    run_checkpointed,
    write_artifact,
)
from repro.recovery.snapshot import decode_array

from .helpers import batch_rows


def small_dataset(n=260, seed=3) -> Dataset:
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal((10.0, 10.0), 1.2, size=(n - 20, 2)),
        rng.uniform(0.0, 55.0, size=(20, 2)),
    ])
    return Dataset.from_points(pts)


DATASET = small_dataset()
PARAMS = OutlierParams(r=1.5, k=10)
SIZING = dict(n_partitions=8, n_reducers=4, seed=5)

#: The uninterrupted reference answer every recovery path must hit.
ORACLE = detect_outliers(
    DATASET, PARAMS, strategy="DMT", detector="nested_loop", **SIZING
).outlier_ids


def checkpointed(checkpoint_dir, **kwargs) -> CheckpointedResult:
    merged = dict(SIZING)
    merged.update(kwargs)
    return run_checkpointed(DATASET, PARAMS, checkpoint_dir, **merged)


# ----------------------------------------------------------------------
# Journal unit behavior
# ----------------------------------------------------------------------
class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultJournal(path) as journal:
            journal.append("partition", pid=3, outliers=[7, 1])
            journal.append("partition", pid=5, outliers=[])
        records, torn = ResultJournal.replay(path)
        assert not torn
        assert [r["pid"] for r in records] == [3, 5]
        assert records[0]["outliers"] == [7, 1]
        assert [r["seq"] for r in records] == [0, 1]

    def test_missing_file_is_empty(self, tmp_path):
        records, torn = ResultJournal.replay(str(tmp_path / "nope"))
        assert records == [] and not torn

    def test_torn_tail_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultJournal(path) as journal:
            journal.append("partition", pid=0, outliers=[1])
        with open(path, "a") as f:
            f.write('{"kind": "partition", "seq": 1, "pid')  # no \n
        records, torn = ResultJournal.replay(path)
        assert torn
        assert [r["pid"] for r in records] == [0]

    def test_interior_bitflip_is_corrupt(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultJournal(path) as journal:
            journal.append("partition", pid=0, outliers=[1, 2, 3])
            journal.append("partition", pid=1, outliers=[])
        blob = bytearray(open(path, "rb").read())
        blob[15] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(JournalCorrupt):
            ResultJournal.replay(path)

    def test_seq_gap_is_corrupt(self, tmp_path):
        # A journal spliced from two runs must not replay silently.
        path = str(tmp_path / "j.jsonl")
        with ResultJournal(path) as journal:
            journal.append("partition", pid=0, outliers=[])
        line = open(path).read()
        open(path, "w").write(line + line)  # seq 0 appears twice
        with pytest.raises(JournalCorrupt):
            ResultJournal.replay(path)

    def test_resume_continues_sequence(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultJournal(path) as journal:
            journal.append("partition", pid=0, outliers=[])
        with ResultJournal.open_for_resume(path) as journal:
            journal.append("partition", pid=1, outliers=[])
        records, _ = ResultJournal.replay(path)
        assert [r["seq"] for r in records] == [0, 1]

    def test_abort_after_commits_raises(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultJournal(path, abort_after_commits=2) as journal:
            journal.append("partition", pid=0, outliers=[])
            with pytest.raises(SimulatedCrash):
                journal.append("partition", pid=1, outliers=[])
        # Both appends hit the disk before the simulated kill.
        records, _ = ResultJournal.replay(path)
        assert len(records) == 2


# ----------------------------------------------------------------------
# Artifact envelope
# ----------------------------------------------------------------------
class TestArtifact:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "a.json")
        write_artifact(path, "t", 1, {"x": [1, 2], "y": "z"})
        assert read_artifact(path, "t", 1) == {"x": [1, 2], "y": "z"}

    @pytest.mark.parametrize("mutate,reason", [
        (lambda d: d.update(kind="other"), "kind_mismatch"),
        (lambda d: d.update(version=2), "version_mismatch"),
        (lambda d: d["payload"].update(x=99), "corrupt"),
    ])
    def test_validation(self, tmp_path, mutate, reason):
        path = str(tmp_path / "a.json")
        write_artifact(path, "t", 1, {"x": 1})
        doc = json.load(open(path))
        mutate(doc)
        json.dump(doc, open(path, "w"))
        with pytest.raises(SnapshotError) as err:
            read_artifact(path, "t", 1)
        assert err.value.reason == reason

    def test_missing(self, tmp_path):
        with pytest.raises(SnapshotError) as err:
            read_artifact(str(tmp_path / "nope"), "t", 1)
        assert err.value.reason == "missing"

    def test_compact_layout_literal(self, tmp_path):
        path = tmp_path / "a.json"
        write_artifact(str(path), "t", 1, {"y": "z", "x": [1, 2.5]})
        assert path.read_bytes() == (
            b'{"format":"repro-artifact","kind":"t","version":1,'
            b'"crc32":2604762975,"payload":{"x":[1,2.5],"y":"z"}}'
        )

    def test_file_carries_the_bytes_its_crc_covers(self, tmp_path):
        path = tmp_path / "s.snap"
        detector = _stream(batches=2)
        detector.save(str(path))
        blob = path.read_bytes()
        head, _, tail = blob.partition(b'"payload":')
        assert tail.endswith(b"}")
        payload = read_artifact(str(path), "streaming-snapshot", 2)
        assert tail[:-1] == canonical_bytes(payload)
        assert json.loads(head[:-1] + b"}")["crc32"] == zlib.crc32(
            tail[:-1]
        )

    def test_payload_serialised_once_per_write(self, tmp_path, monkeypatch):
        from repro.recovery import snapshot

        calls = []

        def counting(payload):
            calls.append(payload)
            return canonical_bytes(payload)

        monkeypatch.setattr(snapshot, "canonical_bytes", counting)
        write_artifact(str(tmp_path / "a.json"), "t", 1, {"x": [[1.0]]})
        write_artifact(str(tmp_path / "b.json"), "t", 1, {"y": 2})
        assert len(calls) == 2

    def test_indented_artifact_still_loads(self, tmp_path):
        """The layout artifacts had before the compact envelope."""
        path = tmp_path / "old.json"
        path.write_text(
            '{\n "format": "repro-artifact",\n "kind": "t",\n'
            ' "version": 1,\n "crc32": 2817772184,\n "payload": {\n'
            '  "x": [\n   1,\n   2\n  ],\n  "y": "z"\n }\n}'
        )
        assert read_artifact(str(path), "t", 1) == {"x": [1, 2], "y": "z"}

    def test_stream_snapshot_crc_unchanged(self, tmp_path):
        """Same state, same checksum: the literal pins the bytes of a
        version-2 payload, whose array columns are base64."""
        path = tmp_path / "s.snap"
        _stream(batches=3).save(str(path))
        assert json.loads(path.read_bytes())["crc32"] == 298148655

    @pytest.mark.parametrize("payload,where", [
        ({"x": {2: "a", 10: "b"}}, "payload['x'][2]"),
        ({"rows": [[0.0, 1.0]], "meta": [{"a": 1}, {3.5: 0}]},
         "payload['meta'][1][3.5]"),
        ({"rows": [[0.0, 1.0], [{None: 1}]]}, "payload['rows'][1][0][None]"),
        ([1, "s", ({True: 0},)], "payload[2][0][True]"),
    ])
    def test_non_str_keys_refused_before_any_write(
        self, tmp_path, payload, where
    ):
        """JSON turns such keys into strings, so the artifact would fail
        its own checksum on read; nothing reaches the directory."""
        with pytest.raises(TypeError) as err:
            write_artifact(str(tmp_path / "a.json"), "t", 1, payload)
        assert str(err.value).startswith(where + ":")
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Checkpointed detection
# ----------------------------------------------------------------------
class TestCheckpointedRun:
    def test_fresh_run_matches_oracle(self, tmp_path):
        result = checkpointed(str(tmp_path / "ckpt"))
        assert result.outlier_ids == ORACLE
        assert not result.resumed
        assert result.replayed_partitions == []
        assert result.counters.get("recovery", "journal_commits") == \
            result.n_partitions

    def test_rerun_replays_everything(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        first = checkpointed(ckpt)
        again = checkpointed(ckpt)
        assert again.resumed
        assert again.executed_partitions == []
        assert again.replayed_partitions == sorted(
            first.replayed_partitions + first.executed_partitions
        )
        assert again.outlier_ids == ORACLE

    @settings(max_examples=12, deadline=None)
    @given(boundary=st.integers(min_value=1, max_value=13))
    def test_crash_at_any_boundary_resumes_identically(self, boundary):
        """Kill-and-resume property: every commit boundary is safe.

        ``abort_after_commits`` simulates the SIGKILL (the journal is
        already fsynced when it fires, exactly like the real chaos
        hook); the resumed run must replay precisely the committed
        partitions and still produce the oracle answer.
        """
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = os.path.join(tmp, "ckpt")
            with pytest.raises(SimulatedCrash):
                checkpointed(ckpt, abort_after_commits=boundary)
            resumed = checkpointed(ckpt)
            assert resumed.resumed
            assert len(resumed.replayed_partitions) == boundary
            assert resumed.outlier_ids == ORACLE
            got = resumed.counters.get
            assert got("recovery", "partitions_replayed") == boundary
            assert got("recovery", "partitions_executed") == len(
                resumed.executed_partitions
            )

    def test_exhausted_reducer_journals_nothing_and_reruns(self, tmp_path):
        """A reducer that runs out of attempts fails the run before any
        of its partitions reach the journal, so the re-run detects them
        instead of replaying an empty verdict."""
        task = 1  # reduce task 0 is also the DMT sampling job's reducer
        clean = checkpointed(str(tmp_path / "clean"))
        owned = {
            pid
            for span in clean.trace.walk()
            if span.name == "journal_commit"
            and span.attrs.get("task_id") == task
            for pid in span.attrs["partitions"]
        }
        assert owned
        ckpt = str(tmp_path / "ckpt")
        failing = LocalRuntime(
            ClusterConfig(),
            failure_injector=ScriptedFailures({("reduce", task): 99}),
            scheduler=SchedulerConfig(max_attempts=2),
        )
        with pytest.raises(SimulatedTaskFailure):
            checkpointed(ckpt, runtime=failing)
        records, _ = ResultJournal.replay(os.path.join(ckpt, JOURNAL_FILE))
        journaled = {record["pid"] for record in records}
        assert journaled and not journaled & owned
        resumed = checkpointed(ckpt)
        assert resumed.replayed_partitions == sorted(journaled)
        assert owned <= set(resumed.executed_partitions)
        assert resumed.outlier_ids == brute_force_outliers(DATASET, PARAMS)

    def test_torn_journal_tail_resumes(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(SimulatedCrash):
            checkpointed(ckpt, abort_after_commits=3)
        journal = os.path.join(ckpt, JOURNAL_FILE)
        with open(journal, "a") as f:
            f.write('{"kind": "partition", "seq": 3')  # torn write
        resumed = checkpointed(ckpt)
        assert resumed.outlier_ids == ORACLE
        assert len(resumed.replayed_partitions) == 3
        assert resumed.counters.get(
            "recovery", "torn_tail_dropped"
        ) == 1

    def test_corrupt_journal_falls_back_to_full_rerun(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(SimulatedCrash):
            checkpointed(ckpt, abort_after_commits=3)
        journal = os.path.join(ckpt, JOURNAL_FILE)
        blob = bytearray(open(journal, "rb").read())
        blob[20] ^= 0x01
        open(journal, "wb").write(bytes(blob))
        with pytest.warns(RuntimeWarning, match="journal"):
            resumed = checkpointed(ckpt)
        assert resumed.outlier_ids == ORACLE
        assert resumed.replayed_partitions == []
        assert resumed.counters.get(
            "recovery", "journal_discarded"
        ) == 1

    def test_corrupt_manifest_falls_back_to_fresh_run(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        checkpointed(ckpt)
        manifest = os.path.join(ckpt, MANIFEST_FILE)
        blob = bytearray(open(manifest, "rb").read())
        blob[len(blob) // 2] ^= 0x01
        open(manifest, "wb").write(bytes(blob))
        with pytest.warns(RuntimeWarning, match="manifest"):
            result = checkpointed(ckpt)
        assert result.outlier_ids == ORACLE
        assert not result.resumed
        assert result.counters.get(
            "recovery", "manifest_discarded"
        ) == 1

    def test_different_run_raises_not_clobbers(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        checkpointed(ckpt)
        with pytest.raises(CheckpointMismatch):
            run_checkpointed(
                DATASET, OutlierParams(r=2.5, k=4), ckpt, **SIZING
            )
        # The original checkpoint survives the rejected attempt.
        assert read_manifest(ckpt)["config"]["r"] == PARAMS.r

    def test_fingerprint_binds_to_content(self):
        other = small_dataset(seed=4)
        assert dataset_fingerprint(DATASET) != dataset_fingerprint(other)
        assert dataset_fingerprint(DATASET) == dataset_fingerprint(
            small_dataset()
        )


# ----------------------------------------------------------------------
# Streaming snapshots
# ----------------------------------------------------------------------
def _stream(batches=3, **kwargs):
    from repro.streaming import StreamingDetector

    detector = StreamingDetector(
        PARAMS, strategy="DMT", detector="nested_loop", seed=5, **kwargs
    )
    cuts = np.array_split(np.arange(DATASET.n), batches)
    for rows in cuts:
        detector.ingest(DATASET.subset(rows))
    return detector


def _scripted_stream(points, n_bulk, n_batches=6, rebuild_at=3):
    """``(dataset, steps)``: row sets to ingest in order.  Step 0 is a
    bulk load spanning the bounding box of everything but the topmost
    point; the rest arrives as ``n_batches`` appends local in x, and the
    topmost point ends append ``rebuild_at`` — the one forced rebuild."""
    trigger = int(points[:, 1].argmax())
    others = np.setdiff1d(np.arange(len(points)), [trigger])
    pinned = others[np.unique(np.concatenate([
        points[others].argmin(axis=0), points[others].argmax(axis=0)
    ]))]
    rest = np.setdiff1d(others, pinned)
    np.random.default_rng(0).shuffle(rest)
    order = np.concatenate([pinned, rest])
    tail = order[n_bulk:]
    tail = tail[np.argsort(points[tail, 0], kind="stable")]
    steps = [order[:n_bulk]] + np.array_split(tail, n_batches)
    steps[1 + rebuild_at] = np.append(steps[1 + rebuild_at], trigger)
    return Dataset.from_points(points), steps


#: Steps ingested before each save: right after the bulk load, between
#: appends, right after the forced rebuild (step 4).
CUTS = (1, 3, 5)
CACHE_HITS = [False, True, True, True, False, True, True]


def _task_costs(report):
    return [
        task.cost_units for job in report.jobs
        for task in job.map_tasks + job.reduce_tasks
    ]


def _partition_rows(detector):
    """The stream's routed records, per partition, as ``(tag, id,
    point)`` rows in the order a reducer concatenates them."""
    return {
        pid: [row for batch in batches for row in batch_rows(batch)]
        for pid, batches in detector._partition_records.items()
    }


def _tag_split(detector, ordered_pool=True):
    """Per partition, what the reducer builds its arrays from: the core
    records and the support pool, each in list order."""
    split = {}
    for pid, records in _partition_rows(detector).items():
        pool = [rec for rec in records if rec[0] != 0]
        split[pid] = (
            [rec for rec in records if rec[0] == 0],
            pool if ordered_pool else sorted(pool),
        )
    return split


def _counters_outside(detector, groups):
    return {
        group: names
        for group, names in detector.counters.as_dict().items()
        if group not in groups
    }


def _saved_payload(detector, path):
    """The payload ``save`` writes, less the count of saves itself."""
    detector.save(path)
    payload = read_artifact(path, "streaming-snapshot", 2)
    payload["counters"].pop("recovery", None)
    return payload


def _as_lists(value):
    """``value`` with every encoded array column as the JSON list a
    version-1 snapshot stored."""
    if not isinstance(value, dict):
        return value
    if set(value) == {"dtype", "shape", "b64"}:
        return decode_array(value, value["dtype"]).tolist()
    return {key: _as_lists(item) for key, item in value.items()}


def _old_format(detector, payload):
    """``payload`` as the oldest version-1 ``save`` wrote it: array
    columns as JSON lists, and the routed records stored beside the
    state they are derived from."""
    return dict(_as_lists(payload), partition_records={
        str(pid): [
            [tag, pt_id, list(point)] for tag, pt_id, point in records
        ]
        for pid, records in _partition_rows(detector).items()
    })


class TestStreamingSnapshot:
    def _live_and_clones(self, tmp_path, data, steps, **kwargs):
        """Run the script on one detector, saving at every cut; yield
        ``(live, reports, cut, clone)`` per cut, each clone loaded from
        its cut and fed the remaining steps."""
        from repro.streaming import StreamingDetector

        live = StreamingDetector(seed=5, **kwargs)
        reports = []
        for i, rows in enumerate(steps):
            reports.append(live.ingest(data.subset(rows)))
            if i + 1 in CUTS:
                live.save(str(tmp_path / f"cut{i + 1}.snap"))
        assert [r.cache_hit for r in reports] == CACHE_HITS
        for cut in CUTS:
            clone = StreamingDetector.load(str(tmp_path / f"cut{cut}.snap"))
            resumed = [
                clone.ingest(data.subset(rows)) for rows in steps[cut:]
            ]
            yield live, reports[cut:], clone, resumed

    @pytest.mark.parametrize("tier", ["exact", "fast"])
    def test_restored_stream_is_the_same_stream(self, tmp_path, tier):
        """Routed records are re-derived at load, not stored: a stream
        restored at any cut behaves like the uninterrupted one — cost
        units included under the exact tier; under the fast tier the
        support pools come back in canonical order, so only the scan
        counts may move."""
        exact = tier == "exact"
        params = OutlierParams(r=2.0, k=6)
        data, steps = _scripted_stream(
            region_dataset("NE", base_n=600, seed=4).points, n_bulk=700
        )
        for live, want, clone, got in self._live_and_clones(
            tmp_path, data, steps, params=params, tier=tier,
            n_partitions=8, n_reducers=4,
        ):
            for a, b in zip(got, want):
                assert (a.cache_hit, a.dirty_partitions, a.outlier_ids) == (
                    b.cache_hit, b.dirty_partitions, b.outlier_ids
                )
                if exact:
                    assert _task_costs(a) == _task_costs(b)
            may_differ = {"recovery"} if exact else {
                "recovery", "dod", "kernel"
            }
            pinned = _counters_outside(clone, may_differ)
            assert pinned == _counters_outside(live, may_differ)
            assert "streaming" in pinned and (exact or "tier" in pinned)
            assert _tag_split(clone, exact) == _tag_split(live, exact)
            assert clone.outlier_ids == brute_force_outliers(data, params)

    def test_restored_haversine_stream_matches(self, tmp_path):
        points = np.random.default_rng(4).uniform(
            (40.0, -75.0), (44.0, -70.0), size=(300, 2)
        )
        params = OutlierParams(r=60.0, k=4)
        data, steps = _scripted_stream(points, n_bulk=180)
        within = resolve_metric("haversine").within_block(
            points, points, params.r
        )
        oracle = set(np.flatnonzero(within.sum(axis=1) - 1 < params.k))
        for live, want, clone, got in self._live_and_clones(
            tmp_path, data, steps, params=params, metric="haversine",
            n_partitions=6, n_reducers=3,
        ):
            assert live.plan.strategy == "MetricSafe"
            assert [r.outlier_ids for r in got] == [
                r.outlier_ids for r in want
            ]
            assert clone.outlier_ids == oracle

    def test_old_snapshot_with_records_loads_to_the_same_state(
        self, tmp_path
    ):
        from repro.streaming import StreamingDetector

        new_path, old_path = (
            str(tmp_path / name) for name in ("new.snap", "old.snap")
        )
        detector = _stream(batches=3, tier="fast")
        payload = _saved_payload(detector, new_path)
        old_payload = _old_format(detector, payload)
        # Derived state is not persisted: the key is gone, and with it
        # more than half of the file (1 + the replication rate).
        assert "partition_records" not in payload
        assert any(old_payload["partition_records"].values())
        assert len(canonical_bytes(payload)) * 2 <= len(
            canonical_bytes(old_payload)
        )
        write_artifact(old_path, "streaming-snapshot", 1, old_payload)

        extra = np.random.default_rng(9).normal(
            (10.0, 10.0), 1.2, size=(40, 2)
        )
        states = []
        for path in (new_path, old_path):
            clone = StreamingDetector.load(path)
            state = [
                _saved_payload(clone, str(tmp_path / "state.snap")),
                _tag_split(clone),
            ]
            report = clone.ingest_points(extra.copy())
            state += [
                report.cache_hit, report.dirty_partitions,
                report.outlier_ids, _task_costs(report),
            ]
            states.append(state)
        assert states[0] == states[1]
        assert states[0][0] == payload

    def test_detector_retains_no_report_or_trace(self):
        from repro.streaming import StreamingDetector

        detector = StreamingDetector(PARAMS, seed=5)
        report = detector.ingest(DATASET)
        trace = weakref.ref(report.trace)
        del report
        gc.collect()
        assert trace() is None
        assert not hasattr(detector, "reports")

    def test_supplied_tracer_collects_every_batch(self):
        tracer = Tracer()
        detector = _stream(batches=3, tracer=tracer)
        assert detector.tracer is tracer
        assert [root.name for root in tracer.roots] == ["stream_batch"] * 3

    def test_roundtrip_preserves_stream_state(self, tmp_path):
        from repro.streaming import StreamingDetector

        path = str(tmp_path / "snap.json")
        detector = _stream(batches=3)
        detector.save(path)
        clone = StreamingDetector.load(path)
        assert clone.n_seen == detector.n_seen
        assert clone.outlier_ids == detector.outlier_ids
        # The restored stream must keep *behaving* like the original.
        extra = np.random.default_rng(9).normal(
            (10.0, 10.0), 1.2, size=(40, 2)
        )
        a = detector.ingest_points(extra.copy())
        b = clone.ingest_points(extra.copy())
        assert a.outlier_ids == b.outlier_ids
        assert detector.outlier_ids == clone.outlier_ids

    def test_bitflip_falls_back_to_clean_start(self, tmp_path):
        from repro.streaming import StreamingDetector

        path = str(tmp_path / "snap.json")
        _stream(batches=2).save(path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 3] ^= 0x04
        open(path, "wb").write(bytes(blob))
        with pytest.warns(RuntimeWarning, match="snapshot"):
            fresh = StreamingDetector.restore(path, PARAMS, seed=5)
        assert fresh.n_seen == 0
        assert fresh.counters.get(
            "recovery", "snapshot_fallbacks"
        ) == 1

    def test_missing_snapshot_starts_clean_silently(self, tmp_path):
        from repro.streaming import StreamingDetector

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh = StreamingDetector.restore(
                str(tmp_path / "nope.json"), PARAMS, seed=5
            )
        assert fresh.n_seen == 0

    def test_param_mismatch_raises(self, tmp_path):
        from repro.streaming import StreamingDetector

        path = str(tmp_path / "snap.json")
        _stream(batches=2).save(path)
        with pytest.raises(ValueError, match="r, k, strategy"):
            StreamingDetector.restore(
                path, OutlierParams(r=9.0, k=2), seed=5
            )
