import hashlib
import json
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapse_lab import _pool, clustering
from collapse_lab.clustering import (
    NOISE,
    ClusterSuiteConfig,
    build_cluster_suite,
    dbscan,
    gmm_em,
    kmeans,
    merge_clusters,
    propagate_labels,
)
from collapse_lab.errors import DegenerateInputError, InvalidInputError, ShortfallError


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the suite's fits run on worker processes only where fork exists")


def only_pool_workers() -> bool:
    """Whether the live child processes are the pool's workers and no others."""
    return ({p.pid for p in multiprocessing.active_children()}
            == {p.pid for p, _ in _pool._workers})


# ---------------------------------------------------------------------------
# brute-force reference implementations


def dbscan_reference(points, eps, min_pts):
    """Textbook DBSCAN over a dense distance matrix."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    neighbors = [np.flatnonzero(dist[i] <= eps).tolist() for i in range(n)]
    core = [len(nb) >= min_pts for nb in neighbors]
    labels = [NOISE] * n
    cluster = 0
    for i in range(n):
        if labels[i] != NOISE or not core[i]:
            continue
        labels[i] = cluster
        queue = [i]
        while queue:
            p = queue.pop()
            for q in neighbors[p]:
                if labels[q] == NOISE:
                    labels[q] = cluster
                    if core[q]:
                        queue.append(q)
        cluster += 1
    return np.array(labels)


def propagate_reference(sample_points, sample_labels, query_points, exclude_noise):
    sample_points = np.asarray(sample_points, dtype=float)
    sample_labels = np.asarray(sample_labels)
    if exclude_noise:
        keep = sample_labels != NOISE
        sample_points = sample_points[keep]
        sample_labels = sample_labels[keep]
    out = []
    for q in np.asarray(query_points, dtype=float):
        d = np.sqrt(((sample_points - q) ** 2).sum(axis=1))
        best = d.min()
        candidates = sample_labels[d == best]
        out.append(candidates.min())
    return np.array(out)


def _log_gauss_reference(points, mean, cov):
    """The E-step's log-density with the Mahalanobis terms solved by
    np.linalg.solve."""
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
    sol = np.linalg.solve(chol, (points - mean).T)
    maha = np.sum(sol ** 2, axis=0)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (d * np.log(2 * np.pi) + log_det + maha)


def _log_gauss_at(points, mean, cov):
    """clustering._log_gauss at the points centred on ``mean``, with the
    factor and log-determinant that clustering._factors gives ``cov``."""
    chols, log_dets = clustering._factors(cov[None])
    return clustering._log_gauss(points - mean, chols[0], log_dets[0])


def _kmeans_pp_init_reference(points, k, rng):
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


def kmeans_reference(points, k, seed=0):
    """Lloyd's iteration from k-means++ seeding, with the distances broadcast
    over (point, centre, coordinate) and each centre the mean of one boolean
    mask's rows."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init_reference(points, k, rng)
    labels = np.full(n, -2)
    for _ in range(300):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = points[mask].mean(axis=0)
    return clustering.ClusterAssignment(labels=labels, extras={"centers": centers})


def gmm_em_reference(points, k, seed=0, ridged=None):
    """EM through _log_gauss_reference, with each component's covariance
    checked on its own in the M-step. Each component that takes the M-step's
    ridge is appended to ``ridged``."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    init = kmeans_reference(points, k, seed=seed)
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
    for _ in range(200):
        log_p = np.stack([_log_gauss_reference(points, means[j], covs[j]) for j in range(k)],
                         axis=1)
        log_p = log_p + np.log(weights)[None, :]
        mx = log_p.max(axis=1, keepdims=True)
        log_norm = mx[:, 0] + np.log(np.exp(log_p - mx).sum(axis=1))
        ll = float(log_norm.sum())
        resp = np.exp(log_p - log_norm[:, None])
        if lls and ll - lls[-1] < 1e-6:
            lls.append(ll)
            break
        lls.append(ll)
        nk = resp.sum(axis=0)
        weights = nk / n
        for j in range(k):
            means[j] = resp[:, j] @ points / nk[j]
            diff = points - means[j]
            cov = (resp[:, j][:, None] * diff).T @ diff / nk[j]
            tr = np.trace(cov)
            if np.linalg.det(cov + 1e-12 * np.eye(d)) <= 0:
                cov = cov + 1e-6 * max(tr, 1e-12) / d * np.eye(d)
                if ridged is not None:
                    ridged.append(j)
            covs[j] = cov
    return clustering.ClusterAssignment(
        labels=resp.argmax(axis=1),
        extras={"log_likelihoods": lls, "means": means, "covariances": covs,
                "responsibilities": resp})


@st.composite
def _gauss_fixture(draw):
    """Points, a mean and an SPD covariance L @ L.T in d = 1..8 dimensions at
    scales 1e-4..1e4. With ``pivot`` an entry of L's first column below the
    diagonal outgrows the diagonal, so the LU factorization inside the solve
    swaps rows."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, 400))
    scale = 10.0 ** draw(st.floats(-4, 4))
    pivot = d >= 2 and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = np.tril(rng.normal(size=(d, d)), -1)
    factor[np.diag_indices(d)] = rng.uniform(0.1, 1.0, size=d)
    if pivot:
        factor[d - 1, 0] = 10.0 * factor[0, 0]
    factor *= scale
    mean = rng.normal(size=d) * scale
    points = mean + rng.normal(size=(n, d)) @ factor.T * rng.uniform(0.5, 4.0)
    return points, mean, factor @ factor.T, pivot


def _suite_sample(seed, n=1500):
    """n points from the 30-blob layout of the benchmark's suite workload."""
    layout = np.random.default_rng(12345)
    centres, scales = layout.uniform(0.0, 100.0, size=(30, 2)), layout.uniform(1.0, 3.0, size=30)
    rng = np.random.default_rng(seed)
    which = rng.integers(30, size=n)
    return centres[which] + rng.standard_normal((n, 2)) * scales[which, None]


def _blobs(d, seed, n=600, k=5):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-20.0, 20.0, size=(k, d))
    return centres[rng.integers(k, size=n)] + rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)


# integer and half-integer coordinates: equal distances are exact, so ties,
# duplicate references and queries on references are common
_HALF = st.integers(-6, 6).map(lambda v: v / 2)
_POINT = st.tuples(_HALF, _HALF)


@st.composite
def _propagation_fixture(draw):
    refs = draw(st.lists(_POINT, min_size=1, max_size=30))
    labels = draw(st.lists(st.integers(-1, 3), min_size=len(refs), max_size=len(refs)))
    if draw(st.booleans()):  # noise everywhere but one reference
        labels = [NOISE] * len(refs)
        labels[draw(st.integers(0, len(refs) - 1))] = draw(st.integers(0, 3))
    for i in draw(st.lists(st.integers(0, len(refs) - 1), max_size=4)):
        # a duplicate reference under another label
        refs.append(refs[i])
        labels.append(labels[i] + draw(st.integers(1, 3)))
    if all(lab == NOISE for lab in labels):
        labels[0] = 0
    queries = (draw(st.lists(_POINT, min_size=1, max_size=30))
               + draw(st.lists(st.sampled_from(refs), max_size=10)))
    return np.array(refs), np.array(labels), np.array(queries)


# ---------------------------------------------------------------------------


class TestKmeans:
    def test_two_separated_pairs(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        labels = kmeans(pts, 2, seed=0).labels
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_single_cluster_centroid(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
        out = kmeans(pts, 1, seed=0)
        np.testing.assert_allclose(out.extras["centers"][0], pts.mean(axis=0))

    def test_three_blobs(self):
        rng = np.random.default_rng(0)
        blobs = [rng.normal(loc=center, scale=1.0, size=(150, 2))
                 for center in [(0, 0), (20, 0), (0, 20)]]
        pts = np.vstack(blobs)
        truth = np.repeat([0, 1, 2], 150)
        labels = kmeans(pts, 3, seed=1).labels
        # majority mapping per true blob
        correct = 0
        for blob in range(3):
            mask = truth == blob
            values, counts = np.unique(labels[mask], return_counts=True)
            correct += counts.max()
        assert correct / len(pts) >= 0.99

    def test_k_larger_than_n(self):
        with pytest.raises(InvalidInputError):
            kmeans(np.zeros((3, 2)), 4)

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(60, 2))
        a = kmeans(pts, 4, seed=7).labels
        b = kmeans(pts, 4, seed=7).labels
        assert np.array_equal(a, b)


class TestKmeansOracle:
    """kmeans is kmeans_reference, bit for bit, up to 7 dimensions."""

    @staticmethod
    def _assert_same_fit(points, k, seed):
        want = kmeans_reference(points, k, seed=seed)
        got = kmeans(points, k, seed=seed)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.extras["centers"], want.extras["centers"])
        return got

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("k", [8, 12, 16, 20, 25])
    def test_suite_layout(self, seed, k):
        self._assert_same_fit(_suite_sample(seed), k, seed)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
    def test_blobs(self, d):
        self._assert_same_fit(_blobs(d, d), 5, d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lattice_ties(self, d, seed):
        """Rounded points on a small lattice: duplicates and exactly equal
        distances, so argmin's first-index rule decides, and at d = 1, with
        more centres than lattice values, the seeding repeats a centre whose
        cluster stays empty."""
        rng = np.random.default_rng(seed)
        points = np.round(rng.uniform(0.0, 4.0, size=(120, d)))
        got = self._assert_same_fit(points, 6, seed)
        if d == 1:
            assert len(np.unique(got.labels)) < 6

    def test_plane_sums_are_the_row_sums(self):
        """The squared distances are the broadcast row sums bit for bit up to
        d = 7; from d = 8 on numpy sums a row pairwise, so only the rounding
        bound is left."""
        rng = np.random.default_rng(5)
        for d in range(1, 11):
            points = rng.normal(size=(300, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(300, d))
            centers = points[rng.choice(300, size=7, replace=False)] + rng.normal(size=(7, d))
            got = clustering._sq_distances(points.T.copy(), centers)
            want = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            if d <= 7:
                assert np.array_equal(got, want), d
            else:
                np.testing.assert_allclose(got, want, rtol=d * np.finfo(float).eps, atol=0)

    def test_paper_scale(self):
        # one 2-D fit at the paper's 90k projection points and the grid's
        # largest k: the broadcast form of kmeans_reference peaks at about
        # 69 MiB, the coordinate planes at about 38 MiB (two (n, k) arrays;
        # numpy 2.4 on x86-64 Linux)
        points = _suite_sample(0, n=90_000)
        tracemalloc.start()
        try:
            out = kmeans(points, 25, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        assert np.bincount(out.labels, minlength=25).min() > 0


class TestGmmEm:
    def test_single_component_matches_moments(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(loc=(1.0, -2.0), scale=(2.0, 0.5), size=(400, 2))
        out = gmm_em(pts, 1, seed=0)
        np.testing.assert_allclose(out.extras["means"][0], pts.mean(axis=0), atol=1e-9)
        centered = pts - pts.mean(axis=0)
        mle_cov = centered.T @ centered / len(pts)
        # the initial covariance carries the stabilizing ridge; the fit stays
        # within that ridge of the closed-form MLE
        np.testing.assert_allclose(out.extras["covariances"][0], mle_cov,
                                   atol=1e-5 * np.trace(mle_cov))

    def test_two_far_blobs(self):
        rng = np.random.default_rng(4)
        pts = np.vstack([
            rng.normal(loc=(-10, 0), size=(100, 2)),
            rng.normal(loc=(10, 0), size=(100, 2)),
        ])
        out = gmm_em(pts, 2, seed=0)
        resp = out.extras["responsibilities"]
        assert np.all((resp > 0.999) | (resp < 0.001))
        assert len(set(out.labels[:100])) == 1
        assert len(set(out.labels[100:])) == 1
        assert out.labels[0] != out.labels[-1]

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            pts = rng.normal(size=(80, 2)) * rng.uniform(0.5, 2.0, size=2)
            out = gmm_em(pts, 3, seed=trial)
            lls = np.array(out.extras["log_likelihoods"])
            assert np.all(np.diff(lls) >= -1e-8)


class TestExactExp:
    """clustering._exp is np.exp, signs of zero included, computed in its
    argument's buffer."""

    @staticmethod
    def _assert_exp(x):
        want = np.exp(x)
        buffer = x.copy()
        got = clustering._exp(buffer)
        assert got is buffer
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_the_constant_underflows(self):
        assert np.exp(clustering._EXP_ZERO) == 0.0

    def test_special_values(self):
        self._assert_exp(np.array([-np.inf, np.nan, 0.0]))

    def test_around_the_last_nonzero_result(self):
        edge = -745.1332191019412
        self._assert_exp(np.array([np.nextafter(edge, -np.inf), edge, np.nextafter(edge, 0.0)]))

    def test_dense_grid_below_the_subnormals(self):
        self._assert_exp(np.linspace(-1e4, -700, 200_001))

    @pytest.mark.parametrize("fraction", [0.0, 0.17, 1.0])
    def test_e_step_shaped_arrays(self, fraction):
        """(1500, 16) arrays with the given share of entries below the
        constant; the others lie in [-746, 0), the subnormal band included."""
        rng = np.random.default_rng(int(fraction * 100))
        x = rng.uniform(clustering._EXP_ZERO, 0.0, size=(1500, 16))
        below = rng.permutation(x.size).reshape(x.shape) < round(fraction * x.size)
        x[below] = rng.uniform(-3000.0, clustering._EXP_ZERO, size=int(below.sum()))
        assert np.mean(x < clustering._EXP_ZERO) == fraction
        self._assert_exp(x)


class TestGmmEmOracle:
    """gmm_em is gmm_em_reference, bit for bit."""

    @staticmethod
    def _assert_same_fit(points, k, seed):
        ridged = []
        want = gmm_em_reference(points, k, seed=seed, ridged=ridged)
        got = gmm_em(points, k, seed=seed)
        assert np.array_equal(got.labels, want.labels)
        for key in ("log_likelihoods", "means", "covariances", "responsibilities"):
            assert np.array_equal(got.extras[key], want.extras[key]), key
        return ridged

    @given(_gauss_fixture())
    @settings(max_examples=300, deadline=None)
    def test_log_gauss_matches_solve(self, fixture):
        """Equal up to d = 5. Beyond it the solves may differ in the last
        place, as numpy and scipy may link different OpenBLAS builds. The
        log-density can cancel to near 0, so the bound is relative to the
        size of its terms, scaled by the factor's condition number as a
        backward-stable solve's error is."""
        points, mean, cov, pivot = fixture
        chol = np.linalg.cholesky(cov)
        if pivot:
            assert scipy.linalg.lu_factor(chol)[1][0] != 0
        got = _log_gauss_at(points, mean, cov)
        want = _log_gauss_reference(points, mean, cov)
        if points.shape[1] <= 5:
            assert np.array_equal(got, want)
        else:
            size = np.abs(want) + abs(np.linalg.slogdet(cov)[1])
            bound = np.linalg.cond(chol) * np.finfo(float).eps * size
            assert np.all(np.abs(got - want) <= bound)

    def test_same_solution_same_density_at_any_width(self, monkeypatch):
        """Given np.linalg.solve's solution, laid out column-major as LAPACK
        returns it, _log_gauss is the reference bit for bit at every d: the
        Mahalanobis terms sum in the same order (it differs from d = 8 on)."""
        monkeypatch.setattr(clustering, "dgesv", lambda a, b, overwrite_b: (
            None, None, np.asfortranarray(np.linalg.solve(a, b)), 0))
        rng = np.random.default_rng(12)
        for d in range(1, 11):
            factor = np.tril(rng.normal(size=(d, d)), -1) + np.diag(rng.uniform(0.5, 1.0, size=d))
            points = rng.normal(size=(300, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(300, d))
            assert np.array_equal(_log_gauss_at(points, np.zeros(d), factor @ factor.T),
                                  _log_gauss_reference(points, np.zeros(d), factor @ factor.T))

    def test_singular_factor_raises_as_solve_does(self, monkeypatch):
        points, cov = np.ones((3, 2)), np.eye(2)
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.zeros_like(a))
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            _log_gauss_reference(points, np.zeros(2), cov)
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            clustering._log_gauss(points - np.zeros(2), np.linalg.cholesky(cov), 0.0)

    def test_a_failed_stack_is_factored_matrix_by_matrix(self):
        """A rank-1 covariance fails the stacked factorization: it alone takes
        the ridge, the others get their own factors, and a covariance that no
        ridge mends raises."""
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        flat = np.array([[1.0, 3.0], [3.0, 9.0]])
        chols, log_dets = clustering._factors(np.stack([cov, flat, cov]))
        want = [np.linalg.cholesky(cov), np.linalg.cholesky(flat + 1e-6 * 10.0 / 2 * np.eye(2)),
                np.linalg.cholesky(cov)]
        assert np.array_equal(chols, want)
        assert np.array_equal(log_dets, [2.0 * np.sum(np.log(np.diag(c))) for c in want])
        with pytest.raises(DegenerateInputError):
            clustering._factors(np.stack([cov, -np.eye(2)]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_stack_that_is_not_finite_raises(self, bad):
        """The stacked Cholesky gives NaN or infinite factors for such a
        matrix without raising, and no ridge mends it."""
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        covs = np.stack([cov, cov])
        covs[1, 1, 0] = covs[1, 0, 1] = bad
        with pytest.raises(DegenerateInputError, match="^component covariance is not finite$"):
            clustering._factors(covs)

    def test_a_component_without_mass_raises(self, monkeypatch):
        """When every point's responsibility for one component underflows to
        0, the fit raises before the M-step divides by that mass (which would
        warn and give NaN means)."""
        calls = []
        log_gauss = clustering._log_gauss

        def second_far_away(diff, chol, log_det):
            calls.append(None)
            row = log_gauss(diff, chol, log_det)
            return row - 1e4 if len(calls) % 2 == 0 else row

        monkeypatch.setattr(clustering, "_log_gauss", second_far_away)
        with pytest.raises(DegenerateInputError,
                           match="^a component's responsibilities all underflowed to 0$"):
            gmm_em(_blobs(2, 0), 2, seed=0)
        assert len(calls) == 2

    def test_planes_are_the_broadcasts(self):
        """_centre and _weigh are the broadcast ``points - mean`` and
        ``resp[:, None] * diff`` bit for bit, signs of zero included, at
        every width and scale."""
        rng = np.random.default_rng(9)

        def same(got, want):
            return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

        for d in range(1, 11):
            for scale in (1e-3, 1.0, 1e3, 1e8):
                points = rng.normal(size=(257, d)) * scale * 10.0 ** rng.uniform(-1.0, 1.0, size=d)
                mean = points[rng.integers(257)] + rng.normal(size=d) * scale
                resp = rng.uniform(size=257) * (rng.uniform(size=257) < 0.9)
                out = np.full((257, d), np.nan)
                diff = clustering._centre(points.T.copy(), mean, out)
                assert diff is out and same(diff, points - mean), (d, scale)
                weighted = clustering._weigh(resp, diff, np.full((257, d), np.nan))
                assert same(weighted, resp[:, None] * diff), (d, scale)
        # -0.0 - 0.0 is -0.0 and x - x is +0.0; a product with a zero weight
        # is a zero signed by both factors
        points = np.array([[-0.0, 0.0], [0.0, -0.0], [1.5, -2.0]])
        mean, resp = np.array([0.0, -0.0]), np.array([0.0, -0.0, 0.0])
        diff = clustering._centre(points.T.copy(), mean, np.empty((3, 2)))
        assert same(diff, points - mean)
        assert same(clustering._weigh(resp, -diff, np.empty((3, 2))), resp[:, None] * -diff)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("k", [8, 12, 16])
    def test_suite_layout(self, seed, k):
        self._assert_same_fit(_suite_sample(seed), k, seed)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_blobs(self, d, seed):
        """Up to d = 5: beyond it the reference's solve may differ from dgesv
        in the last place (test_log_gauss_matches_solve)."""
        self._assert_same_fit(_blobs(d, seed), 5, seed)

    def test_paper_scale(self, monkeypatch):
        # three EM iterations of one 2-D fit at the paper's 90k projection
        # points and the grid's largest k: with stacked log-densities and
        # fresh exp temporaries it peaked at about 47.7 MiB, with one (n, k)
        # array filled in place and exp in its temporaries at about 38.7 MiB,
        # with the coordinate-major copy of the points and the reused
        # centring and weighting buffers (1.4 MiB each) at about 41.5 MiB, and
        # with the responsibilities written over the log-densities' (n, k)
        # array (11 MiB) at about 30.5 MiB (numpy 2.4 on x86-64 Linux); k
        # centred copies kept from the M-step would add about 22 MiB
        monkeypatch.setattr(clustering, "_GMM_MAX_ITER", 3)
        points = _suite_sample(0, n=90_000)
        tracemalloc.start()
        try:
            out = gmm_em(points, 16, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 34 * 2**20
        assert len(out.extras["log_likelihoods"]) == 3

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e8])
    def test_collinear_points_take_the_ridge(self, scale):
        """Two clumps on one line: the M-step's covariances are rank 1, so
        det(cov + 1e-12 I) <= 0 and the ridge is added."""
        rng = np.random.default_rng(0)
        t = rng.uniform(-1.0, 1.0, size=200)
        points = (np.c_[t, 3 * t] + rng.integers(0, 2, size=200)[:, None] * [0.1, 0.3]) * scale
        assert self._assert_same_fit(points, 2, 0)


class TestDbscan:
    def test_two_pairs_one_noise(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.0], [5.0, 5.0], [5.3, 5.0], [50.0, 50.0]])
        out = dbscan(pts, eps=0.5, min_pts=2)
        assert out.labels[0] == out.labels[1] != NOISE
        assert out.labels[2] == out.labels[3] != NOISE
        assert out.labels[0] != out.labels[2]
        assert out.labels[4] == NOISE

    def test_huge_eps_single_cluster(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(30, 2))
        out = dbscan(pts, eps=100.0, min_pts=2)
        assert set(out.labels.tolist()) == {0}

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_eps_not_positive_rejected(self, eps):
        with pytest.raises(InvalidInputError, match=rf"^eps must be > 0 \(got {eps}\)$"):
            dbscan(np.zeros((3, 2)), eps, 2)

    def test_infinite_eps_single_cluster(self):
        pts = np.random.default_rng(6).normal(size=(30, 2))
        assert set(dbscan(pts, eps=float("inf"), min_pts=2).labels.tolist()) == {0}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_reference_on_random_fixtures(self, d):
        """The labels equal the reference's, numbering included: a cluster
        takes the number of its lowest core point, and a border point joins
        the lowest cluster among its core neighbours. Odd trials put the
        points on a 0.5 lattice, so that pairs lie exactly eps apart; a tenth
        of the points are duplicated, and every tenth trial has eps = inf."""
        rng = np.random.default_rng(7 + d)
        side = {1: 40.0, 2: 10.0, 3: 4.0}[d]
        for trial in range(30):
            n = int(rng.integers(20, 300))
            if trial % 2:
                pts = rng.integers(0, int(2 * side), size=(n, d)) * 0.5
                eps = 0.5 * int(rng.integers(1, 4))
            else:
                pts = rng.uniform(0, side, size=(n, d))
                eps = float(rng.uniform(0.3, 1.5))
            pts = np.vstack([pts, pts[rng.integers(0, n, size=n // 10)]])
            if trial % 10 == 9:
                eps = float("inf")
            min_pts = int(rng.integers(1, 6))
            assert np.array_equal(dbscan(pts, eps, min_pts).labels,
                                  dbscan_reference(pts, eps, min_pts)), (trial, eps, min_pts)


class TestPropagateLabels:
    def test_single_reference(self):
        out = propagate_labels(np.array([[0.0, 0.0]]), np.array([3]),
                               np.random.default_rng(0).normal(size=(10, 2)))
        assert np.all(out == 3)

    def test_tie_breaks_to_lowest_label(self):
        refs = np.array([[0.0, 0.0], [2.0, 0.0]])
        labels = np.array([2, 1])
        out = propagate_labels(refs, labels, np.array([[1.0, 0.0]]))
        assert out[0] == 1

    def test_exclude_noise(self):
        refs = np.array([[0.0, 0.0], [1.0, 0.0]])
        labels = np.array([NOISE, 5])
        queries = np.array([[0.1, 0.0]])
        assert propagate_labels(refs, labels, queries, exclude_noise=False)[0] == NOISE
        assert propagate_labels(refs, labels, queries, exclude_noise=True)[0] == 5

    def test_all_noise_rejected(self):
        with pytest.raises(InvalidInputError):
            propagate_labels(np.zeros((3, 2)), np.full(3, NOISE),
                             np.ones((2, 2)), exclude_noise=True)

    def test_width_mismatch_rejected(self):
        with pytest.raises(InvalidInputError,
                           match=r"^query points have 3 coordinates, sample points 2$"):
            propagate_labels(np.zeros((4, 2)), np.zeros(4, dtype=int), np.zeros((5, 3)))

    def test_idempotent_on_labeled_points(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(50, 2))
        labels = rng.integers(0, 4, size=50)
        out = propagate_labels(pts, labels, pts)
        assert np.array_equal(out, labels)

    def test_matches_reference_on_random_fixtures(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            n_ref = int(rng.integers(5, 100))
            n_query = int(rng.integers(5, 400))
            refs = rng.uniform(0, 5, size=(n_ref, 2))
            labels = rng.integers(-1, 4, size=n_ref)
            if np.all(labels == NOISE):
                labels[0] = 0
            queries = rng.uniform(0, 5, size=(n_query, 2))
            for exclude in (False, True):
                mine = propagate_labels(refs, labels, queries, exclude_noise=exclude)
                ref_out = propagate_reference(refs, labels, queries, exclude)
                assert np.array_equal(mine, ref_out)

    @given(_propagation_fixture())
    @example((np.array([[1.0, 1.0]]), np.array([2]), np.array([[1.0, 1.0], [3.0, -2.5]])))
    @example((np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), np.array([3, 1, NOISE]),
              np.array([[0.0, 0.0], [0.5, 0.0], [-1.0, 0.0]])))
    @example((np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
              np.array([3, 2, NOISE, 1]), np.array([[0.0, 0.0], [0.5, 0.5]])))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_lattice_ties(self, fixture):
        refs, labels, queries = fixture
        for exclude in (False, True):
            mine = propagate_labels(refs, labels, queries, exclude_noise=exclude)
            assert np.array_equal(mine, propagate_reference(refs, labels, queries, exclude))

    def test_paper_scale(self):
        # 90k queries from 45k references, as in a suite on the paper's
        # projection sample: the references are half of the queries, and a
        # hundred of them are duplicated under another label
        rng = np.random.default_rng(11)
        refs = rng.normal(size=(45_000, 2))
        labels = rng.integers(-1, 25, size=45_000)
        dup = rng.choice(45_000, size=100, replace=False)
        refs = np.vstack([refs, refs[dup]])
        labels = np.concatenate([labels, labels[dup] + 1])
        queries = np.vstack([refs[:45_000], rng.normal(size=(45_000, 2))])
        tracemalloc.start()
        try:
            out = propagate_labels(refs, labels, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        rows = np.union1d(rng.choice(len(queries), size=300, replace=False), dup[:20])
        assert np.array_equal(out[rows], propagate_reference(refs, labels, queries[rows], False))


class TestMergeClusters:
    @staticmethod
    def _clusters():
        return [
            (np.array([0.0]), np.array([0, 1, 2])),
            (np.array([1.0]), np.array([3, 4, 5])),
            (np.array([10.0]), np.array([6, 7, 8])),
        ]

    def test_farthest_first_prefers_distant(self):
        members, chosen = merge_clusters(self._clusters(), target_size=6, seed=12)
        # whichever cluster seeds the merge, the farthest centroid joins next
        start = chosen[0]
        expected_next = 2 if start in (0, 1) else 0
        assert chosen[1] == expected_next

    def test_target_within_first_cluster(self):
        members, chosen = merge_clusters(self._clusters(), target_size=2, seed=0)
        assert len(chosen) == 1
        assert len(members) == 3

    def test_seeded_start_reproducible(self):
        a = merge_clusters(self._clusters(), 6, seed=5)
        b = merge_clusters(self._clusters(), 6, seed=5)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]
        starts = {merge_clusters(self._clusters(), 6, seed=s)[1][0] for s in range(20)}
        assert starts == {0, 1, 2}

    def test_shortfall(self):
        with pytest.raises(ShortfallError):
            merge_clusters(self._clusters(), target_size=100)


class TestBuildClusterSuite:
    @staticmethod
    def _points(n=600, seed=10):
        rng = np.random.default_rng(seed)
        return np.vstack([
            rng.normal(loc=(0, 0), size=(n // 3, 2)),
            rng.normal(loc=(8, 0), size=(n // 3, 2)),
            rng.normal(loc=(0, 8), size=(n // 3, 2)),
        ])

    def test_grid_counting(self):
        cfg = ClusterSuiteConfig(
            projection_sample=200,
            kmeans_ks=(2, 3, 4),
            gmm_ks=(),
            dbscan_grid=((1.0, 4), (1.5, 4), (2.0, 4)),
            quota_per_clustering=2,
            min_cluster_fraction=0.05,
            final_count=12,
            seed=0,
        )
        suite = build_cluster_suite(self._points(), cfg)
        # 2 method families x 3 hyperparameters x 2 propagation variants
        variants = {(s["method"], tuple(sorted(s["params"].items()))) for s in suite}
        methods = {(m, dict(p).get("exclude_noise")) for m, p in variants}
        assert len(suite) == 12
        assert {m for m, _ in methods} == {"kmeans", "dbscan"}

    def test_final_count_and_min_size(self):
        cfg = ClusterSuiteConfig(
            projection_sample=300,
            kmeans_ks=(2, 3, 4, 5),
            gmm_ks=(2,),
            dbscan_grid=((1.5, 4),),
            quota_per_clustering=3,
            min_cluster_fraction=0.05,
            final_count=10,
            seed=1,
        )
        pts = self._points()
        suite = build_cluster_suite(pts, cfg)
        assert len(suite) == 10
        min_size = int(0.05 * len(pts))
        for spec in suite:
            assert len(spec["record_indices"]) >= min_size
            assert spec["cluster_id"] in range(10)

    def test_shortfall_error(self):
        cfg = ClusterSuiteConfig(
            projection_sample=150,
            kmeans_ks=(2,),
            gmm_ks=(),
            dbscan_grid=(),
            quota_per_clustering=2,
            min_cluster_fraction=0.05,
            final_count=50,
            seed=2,
        )
        with pytest.raises(ShortfallError):
            build_cluster_suite(self._points(300), cfg)

    @staticmethod
    def _every_method_config():
        """k-means, GMM and DBSCAN each contribute clusters; DBSCAN's first
        setting finds only noise, and k-means' k=12 tops up its quota by
        merging, so merge seeds are drawn after the fits' seeds."""
        return ClusterSuiteConfig(projection_sample=300, kmeans_ks=(2, 12), gmm_ks=(2, 3),
                                  dbscan_grid=((0.2, 50), (1.0, 4), (1.5, 4)),
                                  quota_per_clustering=5, min_cluster_fraction=0.1,
                                  final_count=30, seed=3)

    @staticmethod
    def _digest(suite):
        blob = json.dumps([[s["cluster_id"], s["method"], s["params"],
                            s["record_indices"].tolist()] for s in suite], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    # sha256 of the every-method suite, recorded before build_cluster_suite
    # propagated a labelling without noise only once
    EVERY_METHOD = "4ecd4af7e948afb4023fa9856496f4a45f6402db709fac80d5206b110f66d9ff"

    def test_every_method_suite_digest(self, monkeypatch):
        monkeypatch.setattr(_pool, "_cpu_count", lambda: 1)
        suite = build_cluster_suite(self._points(), self._every_method_config())
        assert self._digest(suite) == self.EVERY_METHOD

    # sha256 of the suite at the benchmark's size, the same digests that
    # perfbench/golden.json records for its suite workload at these seeds
    BENCHMARK_SIZE = {
        0: "72d1fe7e5db433c8cc611e9cfc356111cba504c8a0fbd51c507601365efe4df5",
        42: "bae3104d6cf8de31d57269c43a65a3d096f2206a33afdf5e1f0303dab2a7e1a8",
    }

    @pytest.mark.parametrize("seed", sorted(BENCHMARK_SIZE))
    def test_benchmark_size_suite_digest(self, monkeypatch, seed):
        """The default grid on 3000 points of the benchmark's layout, a
        1500-point sample and 150 final clusters: a change to any k-means,
        GMM or DBSCAN fit of the grid that moves its labels moves the
        digest. (Last-place changes that keep the labels are left to the
        oracle tests.)"""
        monkeypatch.setattr(_pool, "_cpu_count", lambda: 1)
        cfg = ClusterSuiteConfig(projection_sample=1500, final_count=150, seed=seed)
        suite = build_cluster_suite(_suite_sample(seed, n=3000), cfg)
        assert self._digest(suite) == self.BENCHMARK_SIZE[seed]

    def test_one_propagation_per_distinct_labelling(self, monkeypatch):
        """Of the six fits, DBSCAN eps=0.2 labels every sample point noise and
        propagates nothing, eps=1.0 labels 3 of them noise and propagates
        twice, and the other four label none and propagate once."""
        calls = []
        propagate = clustering.propagate_labels

        def counting(sample, labels, points, exclude_noise=False):
            calls.append((int(np.sum(labels == NOISE)), exclude_noise))
            return propagate(sample, labels, points, exclude_noise=exclude_noise)

        monkeypatch.setattr(clustering, "propagate_labels", counting)
        monkeypatch.setattr(_pool, "_cpu_count", lambda: 1)
        suite = build_cluster_suite(self._points(), self._every_method_config())
        assert calls == [(0, False)] * 4 + [(3, False), (3, True), (0, False)]
        assert {(s["method"], s["params"]["exclude_noise"]) for s in suite} == {
            (method, exclude) for method in ("kmeans", "gmm", "dbscan")
            for exclude in (False, True)}

    @needs_fork
    def test_forked_fits_give_the_one_process_suite(self, monkeypatch):
        pools = []
        forked_outcomes = _pool._forked_outcomes
        monkeypatch.setattr(_pool, "_forked_outcomes",
                            lambda workers, *rest: pools.append(workers)
                            or forked_outcomes(workers, *rest))
        suites = {}
        for workers in (1, 2):
            monkeypatch.setattr(_pool, "_cpu_count", lambda: workers)
            suite = build_cluster_suite(self._points(), self._every_method_config())
            assert only_pool_workers()
            suites[workers] = [(s["cluster_id"], s["method"], s["params"],
                                s["record_indices"].tolist()) for s in suite]
        assert pools == [2]
        assert {method for _, method, _, _ in suites[1]} == {"kmeans", "gmm", "dbscan"}
        assert suites[2] == suites[1]

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    def test_a_failing_fit_raises_its_own_error(self, monkeypatch, tmp_path, workers):
        """Both GMM fits raise; the first in grid order (k=2) is the one
        reported, as when the fits ran one after another. Each failing fit
        runs once: its error comes back from the pool, and the fit is not
        run again to raise it."""
        runs = tmp_path / "runs"

        def singular(points, k, seed=0):
            with runs.open("a") as fh:
                fh.write(f"{k}\n")
            raise DegenerateInputError(f"component covariance stayed singular (k={k})")

        monkeypatch.setattr(clustering, "gmm_em", singular)
        monkeypatch.setattr(_pool, "_cpu_count", lambda: workers)
        with pytest.raises(DegenerateInputError,
                           match=r"^component covariance stayed singular \(k=2\)$"):
            build_cluster_suite(self._points(), self._every_method_config())
        assert only_pool_workers()
        assert sorted(runs.read_text().split()) == ["2", "3"]

    @needs_fork
    def test_a_fit_that_kills_its_worker_raises_broken_pool(self, monkeypatch, tmp_path):
        """The GMM k=3 fit ends its worker with os._exit. It runs once, in a
        worker and never in the calling process, and the suite raises
        BrokenProcessPool."""
        from concurrent.futures.process import BrokenProcessPool

        runs, caller = tmp_path / "runs", os.getpid()
        fit = clustering.gmm_em

        def dies_at_three(points, k, seed=0):
            if k != 3:
                return fit(points, k, seed=seed)
            if os.getpid() == caller:
                raise AssertionError("the dying fit ran in the calling process")
            with runs.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            os._exit(7)

        monkeypatch.setattr(clustering, "gmm_em", dies_at_three)
        monkeypatch.setattr(_pool, "_cpu_count", lambda: 2)
        with pytest.raises(BrokenProcessPool):
            build_cluster_suite(self._points(), self._every_method_config())
        assert only_pool_workers()
        assert len(runs.read_text().splitlines()) == 1
