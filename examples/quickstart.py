"""Quickstart: detect distance-based outliers with the full DOD pipeline.

Generates a small clustered dataset, runs the multi-tactic pipeline (DMT)
on the simulated MapReduce cluster, and cross-checks the result against
the brute-force oracle.

Run:  python examples/quickstart.py
"""

import repro


def main() -> None:
    # A skewed 2-d dataset: a few dense clusters over a sparse background.
    data = repro.data.clustered_mixture(
        5_000,
        repro.geometry.Rect((0.0, 0.0), (100.0, 100.0)),
        n_clusters=5,
        cluster_fraction=0.8,
        seed=42,
    )

    # Distance-threshold outliers: fewer than k=8 neighbors within r=4.
    params = repro.OutlierParams(r=4.0, k=8)

    # One call runs the whole Fig. 6 workflow: sampling pre-processing,
    # DSHC partitioning, per-partition algorithm selection, cost-balanced
    # allocation, and the single-pass detection job.
    result = repro.detect_outliers(
        data,
        params,
        strategy="DMT",
        n_partitions=16,
        n_reducers=8,
        cluster=repro.ClusterConfig(nodes=4),
    )

    print(f"dataset: n={data.n}, density={data.density:.2f}")
    print(f"outliers found: {len(result.outlier_ids)}")
    print(f"first ten ids: {sorted(result.outlier_ids)[:10]}")
    print(f"strategy: {result.strategy}")
    print(f"detectors used per partition: {result.run.detector_usage}")
    print("stage breakdown (simulated cluster seconds):")
    for stage, seconds in result.breakdown().items():
        print(f"  {stage:10s} {seconds * 1000:8.1f} ms")
    print(f"reducer load imbalance: {result.load_imbalance:.2f} "
          "(1.0 = perfect)")

    # DOD is exact: verify against the O(n^2) oracle.
    oracle = repro.brute_force_outliers(data, params)
    assert result.outlier_ids == oracle, "exactness violated!"
    print("verified: result matches the brute-force oracle exactly")


if __name__ == "__main__":
    main()
