"""The numpy kernel stays well ahead of the scalar ``python`` oracle.

The ratio is of backend-body walls (``Kernel.wall_seconds``): the work the
two backends implement differently, without the planning, shuffle and
record assembly both share.  Each run hands the detector one kernel
instance, so a serial run's partition scans all add into its
``wall_seconds``; each backend takes the minimum of two runs.  Both
backends scan the same reduce tasks, so this ratio equals the per-task
one.

The workload is the MA region at ``base_n=1500``, DMT over 8 partitions
and 4 reducers on a 4-node cluster with 250-record blocks, Nested-Loop
at r=2, k=12, seed 7.  The floor of 5.54 is three quarters of 7.38, the
higher of the two readings once pinned for this workload (the other was
6.36); on a 2-vCPU x86-64 box the ratio reads 15-19.
"""

from repro import OutlierParams, detect_outliers
from repro.data import region_dataset
from repro.kernels import make_kernel
from repro.mapreduce import ClusterConfig, make_runtime

SPEEDUP_FLOOR = 5.54
REPEATS = 2


def kernel_wall(dataset, backend: str) -> float:
    """The least backend-body wall of ``REPEATS`` serial runs."""
    walls = []
    for _ in range(REPEATS):
        kernel = make_kernel(backend)
        cluster = ClusterConfig(nodes=4, hdfs_block_records=250)
        with make_runtime(cluster, workers=0) as runtime:
            detect_outliers(
                dataset, OutlierParams(r=2.0, k=12),
                strategy="DMT", detector="nested_loop",
                n_partitions=8, n_reducers=4,
                cluster=cluster, runtime=runtime, seed=7, kernel=kernel,
            )
        walls.append(kernel.wall_seconds)
    return min(walls)


def test_numpy_kernel_speedup_over_python_oracle(once, benchmark):
    dataset = region_dataset("MA", base_n=1500, seed=7)

    def ratio():
        return kernel_wall(dataset, "python") / kernel_wall(dataset, "numpy")

    speedup = once(ratio)
    benchmark.extra_info["kernel_speedup_ratio"] = round(speedup, 2)
    assert speedup >= SPEEDUP_FLOOR
