"""Cluster-suite construction: k-means, full-covariance GMM via EM, DBSCAN,
1-NN label propagation, cluster merging, and the grid procedure that turns a
projection sample into a final set of experimental clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateInputError, InvalidConfigError, InvalidInputError, ShortfallError

__all__ = [
    "ClusterAssignment",
    "ClusterSuiteConfig",
    "kmeans",
    "gmm_em",
    "dbscan",
    "propagate_labels",
    "merge_clusters",
    "build_cluster_suite",
]

NOISE = -1
# propagate_labels: relative gap below which the tree's two nearest count as
# tied, and the float budget of one brute-force block over those queries
_TIE_RTOL = 1e-9
_TIE_BLOCK_VALUES = 1 << 20


@dataclass
class ClusterAssignment:
    """Per-point integer labels (-1 = noise) plus provenance."""

    labels: np.ndarray
    method: str
    params: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        labs = self.labels[self.labels != NOISE]
        return int(labs.max() + 1) if labs.size else 0


def _as_points(points, min_rows=1) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < min_rows:
        raise InvalidInputError(f"points must be 2-D with >= {min_rows} rows")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("points contain non-finite values")
    return points


# ---------------------------------------------------------------------------
# k-means


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total == 0:
            centers[i] = points[rng.integers(n)]
            continue
        probs = closest / total
        centers[i] = points[rng.choice(n, p=probs)]
        closest = np.minimum(closest, np.sum((points - centers[i]) ** 2, axis=1))
    return centers


def kmeans(points, k: int, seed: int = 0, max_iter: int = 300) -> ClusterAssignment:
    """Lloyd's iteration from k-means++ seeding until the assignment reaches a
    fixpoint or the iteration cap."""
    points = _as_points(points)
    n = points.shape[0]
    if k < 1 or k > n:
        raise InvalidInputError(f"k must satisfy 1 <= k <= n (n={n}, k={k})")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(points, k, rng)
    labels = np.full(n, -2)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = points[mask].mean(axis=0)
    return ClusterAssignment(labels=labels, method="kmeans",
                             params={"k": k, "seed": seed},
                             extras={"centers": centers})


# ---------------------------------------------------------------------------
# Gaussian mixture via EM


def _log_gauss(points: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = points.shape[1]
    ridge = 0.0
    for _ in range(3):
        try:
            chol = np.linalg.cholesky(cov + ridge * np.eye(d))
            break
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10, 1e-6 * np.trace(cov) / d, 1e-12)
    else:
        raise DegenerateInputError("component covariance stayed singular after ridge")
    diff = points - mean
    sol = np.linalg.solve(chol, diff.T)
    maha = np.sum(sol ** 2, axis=0)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (d * np.log(2 * np.pi) + log_det + maha)


def gmm_em(points, k: int, seed: int = 0, max_iter: int = 200,
           tol: float = 1e-6) -> ClusterAssignment:
    """Full-covariance Gaussian mixture fit by EM with k-means initialization.

    Stops when the log-likelihood gain drops below ``tol`` or at the iteration
    cap. The per-iteration log-likelihood history is kept in
    ``extras["log_likelihoods"]`` (non-decreasing by the EM property).
    """
    points = _as_points(points)
    n, d = points.shape
    if k < 1 or n < 4 * k:
        raise InvalidInputError(f"need n >= 4k points (n={n}, k={k})")

    init = kmeans(points, k, seed=seed)
    means = np.empty((k, d))
    covs = np.empty((k, d, d))
    weights = np.empty(k)
    for j in range(k):
        mask = init.labels == j
        sub = points[mask] if mask.any() else points
        means[j] = sub.mean(axis=0)
        centered = sub - means[j]
        cov = centered.T @ centered / max(len(sub), 1)
        covs[j] = cov + 1e-6 * np.trace(cov) / d * np.eye(d) + 1e-12 * np.eye(d)
        weights[j] = max(mask.mean(), 1e-12)
    weights /= weights.sum()

    lls = []
    resp = None
    for _ in range(max_iter):
        # E step
        log_p = np.stack([_log_gauss(points, means[j], covs[j]) for j in range(k)], axis=1)
        log_p = log_p + np.log(weights)[None, :]
        mx = log_p.max(axis=1, keepdims=True)
        log_norm = mx[:, 0] + np.log(np.exp(log_p - mx).sum(axis=1))
        ll = float(log_norm.sum())
        resp = np.exp(log_p - log_norm[:, None])
        if lls and ll - lls[-1] < tol:
            lls.append(ll)
            break
        lls.append(ll)
        # M step
        nk = resp.sum(axis=0)
        weights = nk / n
        for j in range(k):
            means[j] = resp[:, j] @ points / nk[j]
            diff = points - means[j]
            cov = (resp[:, j][:, None] * diff).T @ diff / nk[j]
            tr = np.trace(cov)
            if not np.all(np.isfinite(cov)) or np.linalg.det(cov + 1e-12 * np.eye(d)) <= 0:
                cov = cov + 1e-6 * max(tr, 1e-12) / d * np.eye(d)
            covs[j] = cov

    labels = resp.argmax(axis=1)
    return ClusterAssignment(labels=labels, method="gmm",
                             params={"k": k, "seed": seed},
                             extras={"log_likelihoods": lls, "means": means,
                                     "covariances": covs, "weights": weights,
                                     "responsibilities": resp})


# ---------------------------------------------------------------------------
# DBSCAN


def dbscan(points, eps: float, min_pts: int) -> ClusterAssignment:
    """Standard density-based labeling; noise points get label -1."""
    points = _as_points(points)
    if eps <= 0:
        raise InvalidInputError("eps must be > 0")
    if min_pts < 1:
        raise InvalidInputError("min_pts must be >= 1")
    n = points.shape[0]
    tree = cKDTree(points)
    neighbors = tree.query_ball_point(points, r=eps)
    core = np.array([len(nb) >= min_pts for nb in neighbors])

    labels = np.full(n, NOISE)
    cluster = 0
    for i in range(n):
        if labels[i] != NOISE or not core[i]:
            continue
        labels[i] = cluster
        frontier = [i]
        while frontier:
            p = frontier.pop()
            for q in neighbors[p]:
                if labels[q] == NOISE:
                    labels[q] = cluster
                    if core[q]:
                        frontier.append(q)
        cluster += 1
    return ClusterAssignment(labels=labels, method="dbscan",
                             params={"eps": eps, "min_pts": min_pts})


# ---------------------------------------------------------------------------
# 1-NN label propagation


def propagate_labels(sample_points, sample_labels, query_points,
                     exclude_noise: bool = False) -> np.ndarray:
    """Assign each query point the label of its nearest labeled point
    (Euclidean). Exact ties go to the lowest label value. With
    ``exclude_noise`` the noise-labeled reference points are dropped first.

    A k-d tree over the references finds each query's two nearest. Its
    distances may differ from the direct ``((q - r) ** 2).sum()`` by a few
    ulps, so its nearest is taken only when the second lies more than a
    relative 1e-9 farther. Every other query (on duplicate or equidistant
    references) is labeled by that direct expression over all references, in
    blocks of bounded size.
    """
    sample_points = _as_points(sample_points)
    sample_labels = np.asarray(sample_labels)
    query_points = _as_points(query_points)
    if sample_points.shape[0] != sample_labels.shape[0]:
        raise InvalidInputError("sample points and labels must align")
    if exclude_noise:
        keep = sample_labels != NOISE
        if not keep.any():
            raise InvalidInputError("no non-noise reference points to propagate from")
        sample_points = sample_points[keep]
        sample_labels = sample_labels[keep]

    # order references by label so argmin resolves distance ties to the
    # lowest label value
    order = np.argsort(sample_labels, kind="stable")
    ref = sample_points[order]
    ref_labels = sample_labels[order]
    if ref.shape[0] == 1:
        return np.full(query_points.shape[0], ref_labels[0])

    dist, idx = cKDTree(ref).query(query_points, k=2)
    out = ref_labels[idx[:, 0]]
    unsure = np.flatnonzero(dist[:, 1] <= dist[:, 0] * (1 + _TIE_RTOL))
    # rows per block, so that a block's difference array holds at most
    # _TIE_BLOCK_VALUES floats however many references there are
    step = max(1, _TIE_BLOCK_VALUES // ref.size)
    for start in range(0, unsure.size, step):
        rows = unsure[start:start + step]
        d2 = ((query_points[rows, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
        out[rows] = ref_labels[d2.argmin(axis=1)]
    return out


# ---------------------------------------------------------------------------
# merging and the suite


def merge_clusters(clusters, target_size: int, strategy: str = "uniform",
                   seed: int = 0):
    """Merge clusters until the union reaches ``target_size`` members.

    ``clusters`` is a list of (centroid, indices). ``uniform`` draws clusters
    without replacement (seeded); ``farthest-first`` starts from a seeded
    cluster and repeatedly adds the one whose centroid is farthest from the
    running size-weighted merged centroid.
    Returns (member_indices, merged_cluster_positions).
    """
    if not clusters:
        raise InvalidInputError("at least one cluster is required")
    sizes = [len(c[1]) for c in clusters]
    if sum(sizes) < target_size:
        raise ShortfallError(target_size, sum(sizes), "cluster members")
    if strategy not in ("uniform", "farthest-first"):
        raise InvalidInputError(f"unknown merge strategy {strategy!r}")

    rng = np.random.default_rng(seed)
    remaining = list(range(len(clusters)))
    chosen: list[int] = []
    total = 0

    if strategy == "uniform":
        order = rng.permutation(len(clusters))
        for pos in order:
            chosen.append(int(pos))
            total += sizes[pos]
            if total >= target_size:
                break
    else:
        start = int(rng.integers(len(clusters)))
        chosen.append(start)
        remaining.remove(start)
        total = sizes[start]
        centroid = np.asarray(clusters[start][0], dtype=float)
        while total < target_size:
            cents = np.array([clusters[i][0] for i in remaining], dtype=float)
            d2 = ((cents - centroid) ** 2).sum(axis=1)
            far = remaining[int(d2.argmax())]
            # size-weighted running centroid
            c_far = np.asarray(clusters[far][0], dtype=float)
            centroid = (centroid * total + c_far * sizes[far]) / (total + sizes[far])
            chosen.append(far)
            remaining.remove(far)
            total += sizes[far]

    members = np.concatenate([np.asarray(clusters[i][1]) for i in chosen])
    return members, chosen


@dataclass
class ClusterSuiteConfig:
    """Parameters of the full cluster-suite procedure."""

    projection_sample: int = 90_000
    kmeans_ks: tuple = (8, 12, 16, 20, 25)
    gmm_ks: tuple = (8, 12, 16)
    dbscan_grid: tuple = ((0.5, 10), (1.0, 10), (2.0, 20))
    propagation_variants: tuple = (False, True)  # exclude_noise options
    quota_per_clustering: int = 10
    min_cluster_fraction: float = 0.04
    min_cluster_size: int | None = None
    merge_strategy: str = "farthest-first"
    final_count: int = 200
    seed: int = 0

    def validate(self):
        if self.quota_per_clustering < 1:
            raise InvalidConfigError("quota_per_clustering must be >= 1")
        if self.final_count < 1:
            raise InvalidConfigError("final_count must be >= 1")
        if self.min_cluster_size is None and not 0 < self.min_cluster_fraction <= 1:
            raise InvalidConfigError("min_cluster_fraction must be in (0, 1]")
        if self.merge_strategy not in ("uniform", "farthest-first"):
            raise InvalidConfigError(f"unknown merge strategy {self.merge_strategy!r}")


def build_cluster_suite(points, cfg: ClusterSuiteConfig) -> list[dict]:
    """Run the clustering grid on a projection sample, propagate every
    clustering over the full dataset with and without the noise cluster,
    collect up to ``quota_per_clustering`` clusters above the minimum size per
    clustering (merging smaller ones when short), and subsample the final
    cluster set.

    Returns a list of cluster specs:
    {"cluster_id", "method", "params", "record_indices"}.
    """
    cfg.validate()
    points = _as_points(points, min_rows=2)
    n = points.shape[0]
    rng = np.random.default_rng(cfg.seed)

    sample_size = min(cfg.projection_sample, n)
    sample_idx = rng.choice(n, size=sample_size, replace=False)
    sample = points[sample_idx]
    min_size = cfg.min_cluster_size
    if min_size is None:
        min_size = max(1, int(cfg.min_cluster_fraction * n))

    assignments = []
    for k in cfg.kmeans_ks:
        if k <= sample_size:
            assignments.append(kmeans(sample, k, seed=int(rng.integers(2**31))))
    for k in cfg.gmm_ks:
        if 4 * k <= sample_size:
            assignments.append(gmm_em(sample, k, seed=int(rng.integers(2**31))))
    for eps, min_pts in cfg.dbscan_grid:
        assignments.append(dbscan(sample, eps, min_pts))

    candidates = []
    for assign in assignments:
        if np.all(assign.labels == NOISE):
            continue
        for exclude_noise in cfg.propagation_variants:
            full = propagate_labels(sample, assign.labels, points,
                                    exclude_noise=exclude_noise)
            variant = dict(assign.params, exclude_noise=exclude_noise,
                           method=assign.method)
            labels_present = sorted(set(full[full != NOISE].tolist()))
            clusters = []
            for lab in labels_present:
                idx = np.flatnonzero(full == lab)
                clusters.append((points[idx].mean(axis=0), idx))
            big = [c for c in clusters if len(c[1]) >= min_size]
            big.sort(key=lambda c: -len(c[1]))
            taken = big[:cfg.quota_per_clustering]
            small = [c for c in clusters if len(c[1]) < min_size]
            # top up the quota by merging small clusters
            while len(taken) < cfg.quota_per_clustering and small:
                if sum(len(c[1]) for c in small) < min_size:
                    break
                members, chosen = merge_clusters(
                    small, min_size, strategy=cfg.merge_strategy,
                    seed=int(rng.integers(2**31)))
                merged_centroid = points[members].mean(axis=0)
                taken.append((merged_centroid, members))
                small = [c for i, c in enumerate(small) if i not in set(chosen)]
            for centroid, idx in taken:
                candidates.append({
                    "method": variant["method"],
                    "params": {k: v for k, v in variant.items() if k != "method"},
                    "record_indices": np.sort(np.asarray(idx)),
                })

    if len(candidates) < cfg.final_count:
        raise ShortfallError(cfg.final_count, len(candidates), "candidate clusters")
    pick = rng.choice(len(candidates), size=cfg.final_count, replace=False)
    out = []
    for cid, pos in enumerate(sorted(pick.tolist())):
        spec = candidates[pos]
        out.append({"cluster_id": cid, **spec})
    return out
