"""Helpers shared by test modules."""

import numpy as np

from repro.metrics import resolve_metric


def batch_rows(batch):
    """A ``RecordBatch`` as per-record tuples of Python scalars, in row
    order: ``(tag, id, point)`` when it carries tags, else
    ``(id, point)`` — the records the tuple format held."""
    columns = [batch.ids.tolist(), map(tuple, batch.points.tolist())]
    if batch.tags is not None:
        columns.insert(0, batch.tags.tolist())
    return list(zip(*columns))



def float_edge_points(seed, metric, r, k, n_pools=1, pool_size=8):
    """Seeded pools whose triangle-inequality bounds sit on ``r``.

    Each pool holds a pair ``(p, q)`` a hair beyond ``r`` under
    ``metric``'s own ``within`` predicate (or, mirrored, a hair inside),
    ``k - 1`` points between them — on the segment for norms, on the
    great circle for haversine, anywhere in the pair's bounding box for
    ``minkowski:1`` — and the rest on the same path past ``p``, away
    from ``q``.  So ``q``'s verdict for this ``k`` turns on the pair
    alone, and every pivot bound through those points equals ``d(p, q)``
    in exact arithmetic: its rounding can land on either side of ``r``.
    Quantised pools never reach this case, since there ``d == r`` is
    exactly representable.  Pools sit on a lattice ``6 r`` apart (``r``
    is km and coordinates are (lat, lon) degrees for haversine).
    Returns an ``(n_pools * pool_size, 2)`` array.
    """
    if not 1 <= k < pool_size:
        raise ValueError("need 1 <= k < pool_size")
    rng = np.random.default_rng(seed)
    m = resolve_metric(metric)
    sphere = m.name == "haversine"
    box = m.name == "minkowski" and m.p == 1.0
    unit = r / 111.2 if sphere else r  # ≈ km per degree of latitude
    side = int(np.ceil(np.sqrt(n_pools)))

    def along(p, q, t):
        if sphere:
            a, b = _unit_vector(p), _unit_vector(q)
            omega = np.arccos(np.clip(a @ b, -1.0, 1.0))
            v = np.sin((1.0 - t) * omega) * a + np.sin(t * omega) * b
            return _lat_lon(v)
        if box and t > 0.0:
            t = rng.uniform(0.05, 0.95, size=2)
        return p + t * (q - p)

    pools = []
    for index in range(n_pools):
        cell = np.array(divmod(index, side), dtype=float) - (side - 1) / 2
        p = 6.0 * unit * cell + rng.uniform(-unit, unit, size=2) / 2.0
        angle = rng.uniform(0.0, 2.0 * np.pi)
        step = unit * np.array([np.cos(angle), np.sin(angle)])
        for _ in range(8):  # rescale the step until d(p, q) ~= r
            step *= r / m.distance(p, p + step)
        # Then walk q an ulp at a time until the predicate reads so.
        inside = bool(rng.integers(2))
        q = p + step
        while m.within(p, q, r) != inside:
            q = np.nextafter(q, p if inside else q + step)
        rows = [p, q]
        rows += [along(p, q, rng.uniform(0.05, 0.95)) for _ in range(k - 1)]
        rows += [
            along(p, q, -rng.uniform(0.05, 0.6))
            for _ in range(pool_size - 1 - k)
        ]
        pools.append(np.asarray(rows)[rng.permutation(pool_size)])
    return np.vstack(pools)


def _unit_vector(lat_lon):
    lat, lon = np.radians(lat_lon)
    return np.array(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)]
    )


def _lat_lon(v):
    return np.degrees([np.arctan2(v[2], np.hypot(v[0], v[1])),
                       np.arctan2(v[1], v[0])])
