"""Simulated MapReduce substrate (jobs, runtimes, cluster model)."""

from .batch import RecordBatch
from .cluster import LOCAL_TEST_CLUSTER, ClusterConfig, makespan
from .counters import Counters
from .failures import (
    SPECULATIVE_ATTEMPT_BASE,
    CompositeInjector,
    FailureInjector,
    HangingTasks,
    RandomFailures,
    ScriptedFailures,
    SimulatedTaskFailure,
    SlowTasks,
    WorkerKill,
)
from .job import (
    DictPartitioner,
    HashPartitioner,
    MapReduceJob,
    Mapper,
    Partitioner,
    Reducer,
    TaskContext,
)
from .parallel import ParallelRuntime, make_runtime
from .runtime import JobResult, LocalRuntime, TaskStats
from .scheduler import SchedulerConfig, TaskScheduler, TaskTimeout
from .shm import (
    TRANSPORTS,
    PickleTransport,
    ShmArena,
    ShmTransport,
    Transport,
    clean_stale_segments,
    install_exit_cleanup,
    live_segments,
    make_transport,
    stale_segments,
)

__all__ = [
    "ClusterConfig",
    "LOCAL_TEST_CLUSTER",
    "makespan",
    "Counters",
    "FailureInjector",
    "RandomFailures",
    "ScriptedFailures",
    "SimulatedTaskFailure",
    "SlowTasks",
    "HangingTasks",
    "WorkerKill",
    "CompositeInjector",
    "SPECULATIVE_ATTEMPT_BASE",
    "SchedulerConfig",
    "TaskScheduler",
    "TaskTimeout",
    "Mapper",
    "Reducer",
    "Partitioner",
    "HashPartitioner",
    "DictPartitioner",
    "MapReduceJob",
    "TaskContext",
    "RecordBatch",
    "JobResult",
    "LocalRuntime",
    "ParallelRuntime",
    "make_runtime",
    "TaskStats",
    "TRANSPORTS",
    "Transport",
    "PickleTransport",
    "ShmTransport",
    "ShmArena",
    "make_transport",
    "live_segments",
    "install_exit_cleanup",
    "stale_segments",
    "clean_stale_segments",
]
