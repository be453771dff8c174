"""Cluster-suite walkthrough: a clustering grid on a projection sample, 1-NN
propagation over the full dataset with and without the noise cluster,
farthest-first merging of undersized clusters, and the final seeded subsample.

Run: python demos/cluster_suite.py
"""

import time
from collections import Counter

import numpy as np

from collapse_lab.clustering import ClusterSuiteConfig, build_cluster_suite, dbscan, kmeans


def main():
    t0 = time.time()
    rng = np.random.default_rng(7)
    centers = [(0, 0), (10, 0), (0, 10), (7, 7)]
    points = np.vstack([rng.normal(loc=c, size=(500, 2)) for c in centers])
    print(f"dataset: {len(points)} points in 4 blobs\n")

    km = kmeans(points, 4, seed=0)
    print("k-means, k=4:", dict(sorted(Counter(km.labels.tolist()).items())))
    db = dbscan(points, eps=0.8, min_pts=8)
    print(f"dbscan eps=0.8 min_pts=8: {db.n_clusters} clusters, "
          f"{int((db.labels == -1).sum())} noise points\n")

    cfg = ClusterSuiteConfig(
        projection_sample=800,
        kmeans_ks=(3, 4, 6),
        gmm_ks=(4,),
        dbscan_grid=((0.8, 8), (1.2, 8)),
        quota_per_clustering=4,
        min_cluster_fraction=0.05,
        final_count=20,
        seed=1,
    )
    suite = build_cluster_suite(points, cfg)
    print(f"suite of {len(suite)} clusters "
          f"(grid of 6 clusterings x 2 propagation variants, quota 4 each):")
    by_method = Counter(s["method"] for s in suite)
    print("  method mix:", dict(by_method))
    sizes = [len(s["record_indices"]) for s in suite]
    print(f"  sizes: min {min(sizes)}, median {int(np.median(sizes))}, max {max(sizes)}")
    print(f"  every size >= {int(0.05 * len(points))} (the scaled minimum)")
    print(f"\n[{time.time() - t0:.1f}s]")


if __name__ == "__main__":
    main()
