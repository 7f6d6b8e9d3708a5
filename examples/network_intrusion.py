"""Network intrusion detection with distance-based outliers.

One of the paper's motivating applications (Sec. I): connections whose
feature vectors are far from all common traffic patterns are flagged as
potential intrusions.  This example simulates connection records with a
few behavioral modes (web browsing, bulk transfer, ssh keep-alives) plus
injected attack traffic, then flags everything that has too few behavioral
neighbors.

Run:  python examples/network_intrusion.py
"""

import numpy as np

import repro


def simulate_traffic(seed: int = 11) -> tuple[repro.Dataset, set[int]]:
    """Connection features: (log bytes transferred, log duration).

    Returns the dataset and the ground-truth ids of injected attacks.
    """
    rng = np.random.default_rng(seed)
    modes = [
        # (center, spread, count)   -- three normal behavioral modes
        ((6.0, 1.0), 0.45, 6_000),  # web requests: small, short
        ((12.0, 4.0), 0.60, 2_500),  # bulk transfer: large, long
        ((4.0, 7.0), 0.50, 1_500),  # keep-alive sessions: tiny, very long
    ]
    blocks = [
        rng.normal(center, spread, size=(count, 2))
        for center, spread, count in modes
    ]
    normal = np.vstack(blocks)
    # Injected attacks: port-scan bursts and exfiltration, far from all
    # modes.
    attacks = np.vstack([
        rng.normal((1.0, 12.0), 0.3, size=(12, 2)),   # slow scans
        rng.normal((15.0, 0.5), 0.3, size=(8, 2)),    # fast exfiltration
    ])
    points = np.vstack([normal, attacks])
    attack_ids = set(range(len(normal), len(points)))
    return repro.Dataset.from_points(points, "traffic"), attack_ids


def main() -> None:
    data, attack_ids = simulate_traffic()
    # A connection is anomalous if fewer than 15 others behave similarly
    # (within distance 1.0 in log-feature space).
    params = repro.OutlierParams(r=1.0, k=15)

    result = repro.detect_outliers(
        data,
        params,
        strategy="DMT",
        n_partitions=12,
        n_reducers=6,
        cluster=repro.ClusterConfig(nodes=4),
        sample_rate=0.2,
    )

    flagged = result.outlier_ids
    caught = flagged & attack_ids
    false_alarms = flagged - attack_ids
    print(f"connections analyzed: {data.n}")
    print(f"flagged as anomalous: {len(flagged)}")
    print(f"injected attacks caught: {len(caught)}/{len(attack_ids)}")
    print(f"false alarms (unusual but benign traffic): "
          f"{len(false_alarms)}")
    print(f"detectors used: {result.run.detector_usage}")
    assert len(caught) == len(attack_ids), (
        "every injected attack is isolated by construction and must be "
        "flagged"
    )
    print("all injected attacks detected")

    manhattan_section(data, attack_ids)


def manhattan_section(data: "repro.Dataset", attack_ids: set) -> None:
    """The same question under the L1 metric.

    Feature-space distances are a modelling choice: L1 treats a
    connection that is moderately unusual on *both* axes the same as one
    extremely unusual on a single axis, which is often the better fit
    for per-feature anomaly budgets.  Under a non-Euclidean metric the
    grid tactics are gated out, partitioning degrades to MetricSafe, and
    the proximity-graph tactic must still match the exact scan byte for
    byte.
    """
    params = repro.OutlierParams(r=1.0, k=15)
    print("\n--- minkowski:1 (Manhattan distance in log-feature space) ---")
    results = {}
    for detector in ("nested_loop", "proximity_graph"):
        results[detector] = repro.detect_outliers(
            data,
            params,
            detector=detector,
            metric="minkowski:1",
            n_partitions=12,
            n_reducers=6,
            cluster=repro.ClusterConfig(nodes=4),
        )
    exact = results["nested_loop"].outlier_ids
    assert results["proximity_graph"].outlier_ids == exact
    caught = exact & attack_ids
    print(f"flagged under L1: {len(exact)} "
          f"(attacks caught: {len(caught)}/{len(attack_ids)}; "
          "both tactics byte-identical)")
    assert len(caught) == len(attack_ids)


if __name__ == "__main__":
    main()
