"""Visualize what the multi-tactic optimizer actually decides.

Renders, side by side in the terminal:

1. the dataset's density structure,
2. the DSHC partition boundaries, and
3. the per-partition algorithm plan (N = Nested-Loop, C = Cell-Based),

making the paper's core idea visible: dense and sparse areas end up in
their own rectangles and get the detector that is cheapest there.

Run:  python examples/visualize_plan.py
"""

import numpy as np

import repro
from repro.dshc import DSHCConfig
from repro.experiments.runs import sample_rate_for
from repro.mapreduce import LocalRuntime
from repro.partitioning import DMTPartitioner, PlanRequest
from repro.viz import render_density, render_plan, render_plan_algorithms


def make_data(seed: int = 3) -> repro.Dataset:
    """A city-and-countryside scene: a large dense urban block on the
    right, mid-density sprawl on the left, sparse strays everywhere."""
    rng = np.random.default_rng(seed)
    sprawl = rng.uniform((0, 0), (60, 100), size=(4_000, 2))
    city = rng.uniform((68, 33), (92, 57), size=(26_000, 2))
    strays = rng.uniform((0, 0), (100, 100), size=(400, 2))
    return repro.Dataset.from_points(
        np.vstack([sprawl, city, strays]), "city-scene"
    )


def main() -> None:
    data = make_data()
    params = repro.OutlierParams(r=2.0, k=12)
    runtime = LocalRuntime(repro.ClusterConfig(nodes=4))
    request = PlanRequest(
        domain=data.bounds,
        params=params,
        n_partitions=20,
        n_reducers=10,
        n_buckets=256,
        sample_rate=sample_rate_for(data.n),
        seed=2,
    )
    plan = DMTPartitioner(DSHCConfig(t_max_fraction=0.5)).build_plan(
        runtime, data.batch(), request
    )

    print(f"dataset: {data.name}  n={data.n}  density={data.density:.2f}")
    print("\n--- density (darker = denser) " + "-" * 30)
    print(render_density(data, width=64, height=20))
    print(f"\n--- DSHC partitions ({plan.n_partitions}) " + "-" * 30)
    print(render_plan(plan, width=64, height=20))
    print("\n--- algorithm plan (N=nested_loop, C=cell_based) " + "-" * 12)
    print(render_plan_algorithms(plan, width=64, height=20))

    usage = {}
    for p in plan.partitions:
        usage[p.algorithm] = usage.get(p.algorithm, 0) + 1
    print(f"\nalgorithm mix: {usage}")


if __name__ == "__main__":
    main()
