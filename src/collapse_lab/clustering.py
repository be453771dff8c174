"""Cluster-suite construction: k-means, full-covariance GMM via EM, DBSCAN,
1-NN label propagation, cluster merging, and the grid procedure that turns a
projection sample into a final set of experimental clusters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgesv
from scipy.spatial import cKDTree

from . import _pool
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
# iteration caps of kmeans and gmm_em, and gmm_em's log-likelihood gain to stop at
_KMEANS_MAX_ITER = 300
_GMM_MAX_ITER = 200
_GMM_TOL = 1e-6
# below this, binary64 exp is exactly +0.0 (it is 0 from about -745.13 down)
_EXP_ZERO = -746.0


@dataclass
class ClusterAssignment:
    """Per-point integer labels (-1 = noise) plus what the fit learned."""

    labels: np.ndarray
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


def _sq_distances(columns: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (n, k) from the points, given coordinate-major as
    ``columns`` (d, n), to ``centers`` (k, d), summed one coordinate plane at
    a time."""
    d2 = (columns[0][:, None] - centers[:, 0]) ** 2
    for c in range(1, len(columns)):
        d2 += (columns[c][:, None] - centers[:, c]) ** 2
    return d2


def _kmeans_pp_init(points: np.ndarray, columns: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = _sq_distances(columns, centers[:1])[:, 0]
    for i in range(1, k):
        total = closest.sum()
        if total == 0:
            centers[i] = points[rng.integers(n)]
            continue
        probs = closest / total
        centers[i] = points[rng.choice(n, p=probs)]
        closest = np.minimum(closest, _sq_distances(columns, centers[i:i + 1])[:, 0])
    return centers


def kmeans(points, k: int, seed: int = 0) -> ClusterAssignment:
    """Lloyd's iteration from k-means++ seeding until the assignment reaches a
    fixpoint or the iteration cap.

    Squared distances are summed one coordinate plane at a time over a
    coordinate-major copy of the points, so each step works on (n, k) arrays.
    Up to 7 dimensions that sum is bit for bit the row sum
    ``((points[:, None, :] - centers) ** 2).sum(axis=2)``, as numpy adds fewer
    than 8 terms in order; beyond that the two may differ in the last place.
    The CLI's ``cluster`` command fits a 2-D projection.

    Each centre is the mean of its points' rows, in point order, taken as
    one slice of the points grouped by a stable sort of the labels; an empty
    cluster keeps its centre.
    """
    points = _as_points(points)
    n = points.shape[0]
    if k < 1 or k > n:
        raise InvalidInputError(f"k must satisfy 1 <= k <= n (n={n}, k={k})")
    rng = np.random.default_rng(seed)
    columns = points.T.copy()
    centers = _kmeans_pp_init(points, columns, k, rng)
    labels = np.full(n, -2)
    for _ in range(_KMEANS_MAX_ITER):
        new_labels = _sq_distances(columns, centers).argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        grouped = points[np.argsort(labels, kind="stable")]
        counts = np.bincount(labels, minlength=k)
        ends = np.cumsum(counts)
        for j in np.flatnonzero(counts):
            centers[j] = grouped[ends[j] - counts[j]:ends[j]].mean(axis=0)
    return ClusterAssignment(labels=labels, extras={"centers": centers})


# ---------------------------------------------------------------------------
# Gaussian mixture via EM


def _exp(x: np.ndarray) -> np.ndarray:
    """``np.exp(x)`` bit for bit, computed in ``x``'s own buffer. Entries below
    _EXP_ZERO are exactly 0.0 in binary64 but take numpy's slow scalar path, so
    they are set to 0.0 before the call and again after it."""
    zero = x < _EXP_ZERO
    x[zero] = 0.0
    np.exp(x, out=x)
    x[zero] = 0.0
    return x


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``cov``, with a growing ridge added to its
    diagonal while it is not positive definite."""
    d = cov.shape[0]
    ridge = 0.0
    for _ in range(3):
        try:
            return np.linalg.cholesky(cov + ridge * np.eye(d))
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10, 1e-6 * np.trace(cov) / d, 1e-12)
    raise DegenerateInputError("component covariance stayed singular after ridge")


def _factors(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of the covariance stack ``covs`` (k, d, d) and
    their log-determinants. The stack is factored in one call; only when that
    fails is each matrix factored on its own, with the ridge. A stack that is
    not finite raises: its factors would be NaN without an error, and no
    ridge mends it."""
    if not np.isfinite(covs).all():
        raise DegenerateInputError("component covariance is not finite")
    try:
        chols = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        chols = np.array([_cholesky(cov) for cov in covs])
    return chols, 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)


def _log_gauss(diff: np.ndarray, chol: np.ndarray, log_det: float) -> np.ndarray:
    """Log-density of a Gaussian at the centred points ``diff`` (n, d), given
    its covariance's Cholesky factor and log-determinant. ``diff`` is
    overwritten.

    The Mahalanobis terms are the squared rows of the solution (d, n), added
    one row at a time in row order: the order in which numpy sums a row-major
    (d, n) array over axis 0, as the sum of np.linalg.solve's solution does,
    so the two are equal bit for bit at every d.
    """
    d = diff.shape[1]
    # LAPACK's solve, as np.linalg.solve calls it, but on diff's own buffer:
    # diff.T is already column-major, so no column is copied in or out
    _, _, sol, info = dgesv(chol, diff.T, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    maha = sol[0] ** 2
    for c in range(1, d):
        maha += sol[c] ** 2
    return -0.5 * (d * np.log(2 * np.pi) + log_det + maha)


def _centre(columns: np.ndarray, mean: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``points - mean`` written into ``out`` (n, d), one coordinate plane at
    a time from the points given coordinate-major as ``columns`` (d, n)."""
    for c in range(len(columns)):
        np.subtract(columns[c], mean[c], out=out[:, c])
    return out


def _weigh(resp: np.ndarray, diff: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``resp[:, None] * diff`` written into ``out`` (n, d), one column at a
    time."""
    for c in range(diff.shape[1]):
        np.multiply(resp, diff[:, c], out=out[:, c])
    return out


def gmm_em(points, k: int, seed: int = 0) -> ClusterAssignment:
    """Full-covariance Gaussian mixture fit by EM with k-means initialization.

    Stops when the log-likelihood gain drops below 1e-6 or after 200
    iterations. The per-iteration log-likelihood history is kept in
    ``extras["log_likelihoods"]`` (non-decreasing by the EM property).

    Each E-step factors the k covariances with one stacked Cholesky call;
    only if that fails is each factored on its own, with a ridge. The
    log-determinants come from the factors' diagonals. Each component's
    log-density plus its log weight is written into one (n, k) array, the
    log-sum-exp maximum is a running maximum over the component rows, and
    the responsibilities overwrite that array; the next E-step refills it.
    Both exponentials set the entries below ``_EXP_ZERO`` (-746) to 0 before
    and after the call: binary64 exp is exactly 0 there, but numpy's exp
    takes a slow scalar path on such entries.

    Both steps centre the points on a component's mean one coordinate plane
    at a time, from one coordinate-major copy of the points, into a reused
    row-major (n, d) buffer; the M-step weights the centred points by the
    responsibilities one column at a time into a second one. These are the
    broadcast ``points - mean`` and ``resp[:, j][:, None] * diff`` element
    for element, in the same layout, so the solve and the covariance product
    see the same operands and the fit is the same bit for bit. On 2-D points
    one broadcast op over the 2-wide coordinate axis takes about twice as
    long as its two plane ops.

    A component whose responsibilities all underflow to 0, or a covariance
    that is not finite, raises ``DegenerateInputError``.
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

    columns = points.T.copy()
    diff = np.empty((n, d))
    weighted = np.empty((n, d))
    lls = []
    log_p = np.empty((n, k))
    for _ in range(_GMM_MAX_ITER):
        # E step
        chols, log_dets = _factors(covs)
        log_weights = np.log(weights)
        mx = np.full(n, -np.inf)
        for j in range(k):
            row = _log_gauss(_centre(columns, means[j], diff), chols[j], log_dets[j])
            row += log_weights[j]
            log_p[:, j] = row
            np.maximum(mx, row, out=mx)
        log_norm = mx + np.log(_exp(log_p - mx[:, None]).sum(axis=1))
        ll = float(log_norm.sum())
        resp = _exp(np.subtract(log_p, log_norm[:, None], out=log_p))
        if lls and ll - lls[-1] < _GMM_TOL:
            lls.append(ll)
            break
        lls.append(ll)
        # M step
        nk = resp.sum(axis=0)
        if not nk.all():
            raise DegenerateInputError("a component's responsibilities all underflowed to 0")
        weights = nk / n
        for j in range(k):
            means[j] = resp[:, j] @ points / nk[j]
            _centre(columns, means[j], diff)
            covs[j] = _weigh(resp[:, j], diff, weighted).T @ diff / nk[j]
        # a covariance that is not positive definite takes a ridge; one that
        # is not finite is left for the next E-step's _factors to reject
        for j in np.flatnonzero(np.linalg.det(covs + 1e-12 * np.eye(d)) <= 0):
            covs[j] += 1e-6 * max(np.trace(covs[j]), 1e-12) / d * np.eye(d)

    labels = resp.argmax(axis=1)
    return ClusterAssignment(labels=labels,
                             extras={"log_likelihoods": lls, "means": means,
                                     "covariances": covs, "responsibilities": resp})


# ---------------------------------------------------------------------------
# DBSCAN


def dbscan(points, eps: float, min_pts: int) -> ClusterAssignment:
    """Standard density-based labeling; noise points get label -1."""
    points = _as_points(points)
    if not eps > 0:  # also rejects NaN
        raise InvalidInputError(f"eps must be > 0 (got {eps})")
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
    return ClusterAssignment(labels=labels)


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
    if query_points.shape[1] != sample_points.shape[1]:
        raise InvalidInputError(f"query points have {query_points.shape[1]} coordinates, "
                                f"sample points {sample_points.shape[1]}")
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
    # with one reference the second distance is inf, so no query is unsure
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


def merge_clusters(clusters, target_size: int, seed: int = 0):
    """Merge clusters farthest-first until the union reaches ``target_size``
    members: start from a seeded cluster and repeatedly add the one whose
    centroid is farthest from the running size-weighted merged centroid.

    ``clusters`` is a list of (centroid, indices).
    Returns (member_indices, merged_cluster_positions).
    """
    if not clusters:
        raise InvalidInputError("at least one cluster is required")
    sizes = [len(c[1]) for c in clusters]
    if sum(sizes) < target_size:
        raise ShortfallError(target_size, sum(sizes), "cluster members")

    rng = np.random.default_rng(seed)
    remaining = list(range(len(clusters)))
    start = int(rng.integers(len(clusters)))
    chosen = [start]
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
    quota_per_clustering: int = 10
    min_cluster_fraction: float = 0.04
    final_count: int = 200
    seed: int = 0

    def validate(self):
        if self.quota_per_clustering < 1:
            raise InvalidConfigError("quota_per_clustering must be >= 1")
        if self.final_count < 1:
            raise InvalidConfigError("final_count must be >= 1")
        if not 0 < self.min_cluster_fraction <= 1:
            raise InvalidConfigError("min_cluster_fraction must be in (0, 1]")
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")


def build_cluster_suite(points, cfg: ClusterSuiteConfig) -> list[dict]:
    """Run the clustering grid on a projection sample, propagate every
    clustering over the full dataset with and without the noise cluster,
    collect up to ``quota_per_clustering`` clusters above the minimum size per
    clustering (merging smaller ones farthest-first when short), and subsample
    the final cluster set.

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
    min_size = max(1, int(cfg.min_cluster_fraction * n))

    # every fit's seed is drawn first, in grid order, so merge seeds follow
    fits = [{"method": "kmeans", "k": k, "seed": int(rng.integers(2**31))}
            for k in cfg.kmeans_ks if k <= sample_size]
    fits += [{"method": "gmm", "k": k, "seed": int(rng.integers(2**31))}
             for k in cfg.gmm_ks if 4 * k <= sample_size]
    fits += [{"method": "dbscan", "eps": eps, "min_pts": min_pts}
             for eps, min_pts in cfg.dbscan_grid]

    # the GMM fits take longest, the more components the longer: they go first
    order = sorted(range(len(fits)),
                   key=lambda i: -fits[i]["k"] if fits[i]["method"] == "gmm" else 0)
    fit = functools.partial(_fit, sample, points)
    candidates = []
    for task, (finished, propagated) in zip(fits, _pool.outcomes(fit, fits, order)):
        if not finished:
            raise propagated
        if propagated is None:
            continue
        params = {k: v for k, v in task.items() if k != "method"}
        for exclude_noise, full in zip((False, True), propagated):
            clusters = [np.flatnonzero(full == lab) for lab in np.unique(full[full != NOISE])]
            taken = sorted((idx for idx in clusters if len(idx) >= min_size),
                           key=len, reverse=True)[:cfg.quota_per_clustering]
            # merge_clusters reads the centroids of the small clusters only
            small = [(points[idx].mean(axis=0), idx) for idx in clusters if len(idx) < min_size]
            # top up the quota by merging small clusters
            while (len(taken) < cfg.quota_per_clustering
                   and sum(len(idx) for _, idx in small) >= min_size):
                members, chosen = merge_clusters(small, min_size,
                                                 seed=int(rng.integers(2**31)))
                taken.append(members)
                small = [c for i, c in enumerate(small) if i not in chosen]
            candidates += [{"method": task["method"],
                            "params": dict(params, exclude_noise=exclude_noise),
                            "record_indices": np.sort(idx)} for idx in taken]

    if len(candidates) < cfg.final_count:
        raise ShortfallError(cfg.final_count, len(candidates), "candidate clusters")
    pick = rng.choice(len(candidates), size=cfg.final_count, replace=False)
    return [{"cluster_id": cid, **candidates[pos]} for cid, pos in enumerate(sorted(pick.tolist()))]


def _fit(sample, points, method, **params):
    """The propagations of one clustering of the sample with, then without
    the noise cluster, or None when it labels every point noise. Only DBSCAN
    labels noise; without noise the two are one array."""
    labels = {"kmeans": kmeans, "gmm": gmm_em, "dbscan": dbscan}[method](sample, **params).labels
    noise = labels == NOISE
    if noise.all():
        return None
    full = propagate_labels(sample, labels, points)
    if not noise.any():
        return [full, full]
    return [full, propagate_labels(sample, labels, points, exclude_noise=True)]
