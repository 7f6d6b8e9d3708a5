"""The durable-write layer: ``write_atomic``'s descriptors, error paths
and special files, a full disk at each CLI writer, and the byte
encoding of snapshot array columns."""

import errno
import os
import stat

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import ci_smoke
from repro.params import OutlierParams
from repro.recovery import DiskPressureError
from repro.recovery.snapshot import (
    decode_array,
    encode_array,
    read_artifact,
    write_artifact,
    write_atomic,
)
from repro.streaming import StreamingDetector

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def old_file(tmp_path):
    path = tmp_path / "a.json"
    write_atomic(str(path), [b"old"])
    return path


class TestDescriptors:
    @needs_proc
    def test_no_descriptor_leaks_after_a_replacing_write(self, old_file):
        before = open_fds()
        write_atomic(str(old_file), [b"new"])
        assert open_fds() == before
        assert old_file.read_bytes() == b"new"
        assert os.listdir(old_file.parent) == [old_file.name]

    @needs_proc
    def test_no_descriptor_leaks_after_a_first_write(self, tmp_path):
        before = open_fds()
        write_atomic(str(tmp_path / "fresh.json"), [b"new"])
        assert open_fds() == before

    @needs_proc
    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_enospc_leaks_nothing_and_keeps_the_previous_file(
        self, monkeypatch, old_file, step
    ):
        def full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        before = open_fds()
        monkeypatch.setattr(os, step, full)
        with pytest.raises(DiskPressureError):
            write_atomic(str(old_file), [b"new"])
        monkeypatch.undo()
        assert open_fds() == before
        assert old_file.read_bytes() == b"old"
        assert os.listdir(old_file.parent) == [old_file.name]


def test_a_symlinked_path_is_written_through(tmp_path):
    """As ``open(path, "w")`` did for the CLI's outputs: the target gets
    the bytes, and the link stays a link."""
    (tmp_path / "target.json").write_bytes(b"old")
    link = tmp_path / "link.json"
    link.symlink_to("target.json")
    write_atomic(str(link), [b"new"])
    assert link.is_symlink()
    assert (tmp_path / "target.json").read_bytes() == b"new"
    assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]


def test_a_pipe_is_written_to_not_replaced(tmp_path):
    """``-o /dev/stdout`` and the like: a pipe, terminal or device has
    nothing to replace, so it gets the bytes and stays what it was."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_atomic(str(fifo), [b"new", b"\n"])
        assert os.read(reader, 64) == b"new\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


# ----------------------------------------------------------------------
# A full disk at each writer a CLI command reaches
# ----------------------------------------------------------------------
@pytest.fixture
def csv_points(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "points.csv"
    np.savetxt(path, rng.uniform(0, 20, size=(120, 2)), delimiter=",")
    return str(path)


DETECT = ["detect", "{csv}", "-r", "2.0", "-k", "5", "--strategy", "uniSpace"]
WRITERS = {
    "detect --output": DETECT + ["-o", "{out}"],
    "detect --trace-out": DETECT + ["--trace-out", "{out}"],
    "plan --output": [
        "plan", "{csv}", "-r", "2.0", "-k", "5", "--partitions", "4",
        "--reducers", "2", "-o", "{out}",
    ],
    "ci_smoke --update": None,
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_full_disk_at_a_cli_writer_keeps_the_previous_file(
    tmp_path, monkeypatch, csv_points, writer
):
    out = tmp_path / "out.json"
    out.write_bytes(b"previous")

    def full(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", full)
    with pytest.raises(DiskPressureError):
        if WRITERS[writer] is None:
            monkeypatch.setattr(
                ci_smoke, "run_smoke", lambda trace_out=None: {"n": 1}
            )
            ci_smoke.main(["--update", str(out)])
        else:
            main([
                arg.format(csv=csv_points, out=out)
                for arg in WRITERS[writer]
            ])
    assert out.read_bytes() == b"previous"
    assert sorted(os.listdir(tmp_path)) == ["out.json", "points.csv"]


@pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs /dev/full"
)
@pytest.mark.parametrize(
    "writer", sorted(w for w in WRITERS if WRITERS[w] is not None)
)
def test_a_full_device_at_a_cli_writer_is_disk_pressure(csv_points, writer):
    """``-o /dev/full``: a device is written to, not replaced, and its
    ENOSPC is typed like a full disk's."""
    with pytest.raises(DiskPressureError):
        main([
            arg.format(csv=csv_points, out="/dev/full")
            for arg in WRITERS[writer]
        ])


# ----------------------------------------------------------------------
# Array columns as bytes
# ----------------------------------------------------------------------
EDGE_FLOATS = np.array([
    [0.0, -0.0], [5e-324, -5e-324], [2.2250738585072014e-308 / 3, 1.0],
    [1e308, -1e308], [np.inf, -np.inf], [np.nan, 1.7976931348623157e308],
])
EDGE_INTS = np.array(
    [np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max],
    dtype=np.int64,
)


@pytest.mark.parametrize("array", [
    EDGE_FLOATS, EDGE_INTS, EDGE_FLOATS.T, EDGE_FLOATS.astype(">f8"),
    np.zeros((0, 2)), np.arange(6, dtype=np.int64).reshape(2, 3),
], ids=["floats", "ints", "transposed", "big-endian", "empty", "2d-ints"])
def test_encoded_array_round_trips_bit_for_bit(tmp_path, array):
    path = str(tmp_path / "a.json")
    write_artifact(path, "t", 2, {"a": encode_array(array)})
    back = decode_array(read_artifact(path, "t", 2)["a"], array.dtype)
    assert back.shape == array.shape
    assert back.tobytes() == np.ascontiguousarray(array).tobytes()
    assert back.flags.writeable


def test_decode_reads_a_version_one_list():
    back = decode_array([[1.5, -0.0], [2.0, 3.0]], float)
    assert back.tobytes() == np.array([[1.5, -0.0], [2.0, 3.0]]).tobytes()
    assert decode_array([3, 4], np.int64).dtype == np.int64


def test_stream_snapshot_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    points = rng.normal(0.0, 3.0, size=(160, 2))
    points[:4] = [[-0.0, 0.0], [5e-324, -0.0], [-5e-324, 1e-310], [0.0, 0.0]]
    ids = np.arange(160, dtype=np.int64)
    ids[0], ids[-1] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    detector = StreamingDetector(
        OutlierParams(r=1.0, k=4), n_partitions=4, n_reducers=2, seed=5,
    )
    detector.ingest_points(points, ids)
    path = str(tmp_path / "s.snap")
    detector.save(path)
    loaded = StreamingDetector.load(path)
    for name in ("_points", "_ids"):
        mine, theirs = getattr(detector, name), getattr(loaded, name)
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
        assert mine.tobytes() == theirs.tobytes()
    for name in ("baseline_counts", "live_counts"):
        assert getattr(detector._cache, name).tobytes() == getattr(
            loaded._cache, name
        ).tobytes()
    assert loaded.outlier_ids == detector.outlier_ids
