"""Helpers shared by test modules."""


def batch_rows(batch):
    """A ``RecordBatch`` as per-record tuples of Python scalars, in row
    order: ``(tag, id, point)`` when it carries tags, else
    ``(id, point)`` — the records the tuple format held."""
    columns = [batch.ids.tolist(), map(tuple, batch.points.tolist())]
    if batch.tags is not None:
        columns.insert(0, batch.tags.tolist())
    return list(zip(*columns))
