"""MapReduce programming interfaces.

User code implements :class:`Mapper` and :class:`Reducer` (and optionally a
custom :class:`Partitioner`), then bundles them into a
:class:`MapReduceJob` for the runtime.  The interfaces follow Hadoop's
contract:

* ``map(key, value, ctx)`` yields zero or more ``(key, value)`` pairs
  (``map_block(records, ctx)`` does the same for a whole input block);
* the framework shuffles pairs to reducers by ``partitioner(key)``, groups
  by key, and sorts groups by key within each reducer;
* ``reduce(key, values, ctx)`` yields zero or more output records
  (``reduce_block(groups, ctx)`` does the same for a whole reduce
  task's key groups).

The :class:`TaskContext` carries counters and a *cost units* channel — the
deterministic work measure used for makespan simulation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..params import check_whole
from .counters import Counters

__all__ = [
    "TaskContext",
    "Mapper",
    "Reducer",
    "Partitioner",
    "HashPartitioner",
    "DictPartitioner",
    "MapReduceJob",
]


class TaskContext:
    """Per-task context handed to map and reduce calls.

    ``span`` is the current attempt's trace span (set by the runtime's
    retry loop); user code may attach child spans to it — the detection
    reducers attach each detector invocation's span this way.  It is
    ``None`` when a task body is invoked outside the runtime.
    """

    def __init__(self, task_id: int) -> None:
        self.task_id = task_id
        self.counters = Counters()
        self.span = None  # Optional[repro.observability.Span]
        self._cost_units = 0.0

    def add_cost(self, units: float) -> None:
        """Report deterministic work performed by this task.

        A task that never calls this costs zero units.
        """
        self._cost_units += units

    @property
    def cost_units(self) -> float:
        return self._cost_units


class Mapper:
    """Map side of a job: a subclass defines :meth:`map`, or
    :meth:`map_block`, or both (then ``map`` is the per-record reference
    the block path is tested against — the runtime calls ``map_block``
    only)."""

    def map(self, key: Any, value: Any, ctx: TaskContext) -> Iterable[tuple]:
        """Process one input record; yield ``(key, value)`` pairs."""
        raise NotImplementedError(
            f"{type(self).__name__} defines neither map nor map_block"
        )

    def map_block(self, records, ctx: TaskContext) -> Iterable[tuple]:
        """Process one whole input block; the runtime's only entry.

        ``records`` is a slice of the job's input: a
        :class:`~repro.mapreduce.batch.RecordBatch` of point rows, or a
        list of generic records.  A point mapper overrides this to emit
        one ``(key, batch)`` pair per key: a real MapReduce worker's
        per-record cost is a few machine instructions, while a
        Python-level per-record loop would dominate the simulation and
        distort phase breakdowns.  The default is that loop — one
        :meth:`map` call per record, a record being a ``(key, value)``
        pair (a batch iterates as ``(id, point)``) or a bare value.
        """
        for record in records:
            if isinstance(record, tuple) and len(record) == 2:
                key, value = record
            else:
                key, value = None, record
            yield from self.map(key, value, ctx)


class Reducer(abc.ABC):
    """Reduce side of a job: :meth:`reduce` per key group, and
    :meth:`reduce_block` over a whole reduce task's groups — the
    runtime's only entry, the twin of :meth:`Mapper.map_block`."""

    @abc.abstractmethod
    def reduce(
        self, key: Any, values: list, ctx: TaskContext
    ) -> Iterable[Any]:
        """Process one key group; yield output records."""

    def reduce_block(
        self, groups: dict, ctx: TaskContext
    ) -> Iterable[Any]:
        """Process one reduce task's ``{key: values}`` groups; yield
        output records.  The default is one :meth:`reduce` call per key
        in sorted key order; a reducer whose keys can share work
        overrides it (then ``reduce`` is the per-key reference the block
        path is tested against)."""
        for key in sorted(groups):
            yield from self.reduce(key, groups[key], ctx)


class Partitioner(abc.ABC):
    """Routes a map-output key to a reducer index in ``[0, n_reducers)``."""

    @abc.abstractmethod
    def partition(self, key: Any, n_reducers: int) -> int:
        ...


class HashPartitioner(Partitioner):
    """Hadoop's default: ``hash(key) mod n_reducers``."""

    def partition(self, key: Any, n_reducers: int) -> int:
        return hash(key) % n_reducers


class DictPartitioner(Partitioner):
    """Routes keys via an explicit allocation table.

    This is the vehicle for the paper's Step-3 *allocation plan* (Sec. V-A):
    the pre-processing job decides which partition goes to which reducer and
    the table is distributed to the partitioner of the detection job.
    Unknown keys fall back to hashing so auxiliary keys keep working.
    """

    def __init__(self, table: dict[Any, int]) -> None:
        self._table = dict(table)

    def partition(self, key: Any, n_reducers: int) -> int:
        if key in self._table:
            return self._table[key] % n_reducers
        return hash(key) % n_reducers


@dataclass
class MapReduceJob:
    """A complete job description."""

    name: str
    mapper: Mapper
    reducer: Reducer
    n_reducers: int = 1
    partitioner: Partitioner = field(default_factory=HashPartitioner)

    def __post_init__(self) -> None:
        self.n_reducers = check_whole(self.n_reducers, "n_reducers")
        if self.n_reducers < 1:
            raise ValueError("a job needs at least one reducer")
