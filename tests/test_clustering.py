import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from collapse_lab.errors import InvalidInputError, ShortfallError


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

    def test_matches_reference_on_random_fixtures(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(20, 500))
            pts = rng.uniform(0, 10, size=(n, 2))
            eps = float(rng.uniform(0.3, 1.5))
            min_pts = int(rng.integers(2, 6))
            mine = dbscan(pts, eps, min_pts).labels
            ref = dbscan_reference(pts, eps, min_pts)
            assert _same_partition(mine, ref)


def _same_partition(a, b):
    """Labels equal up to renaming, with noise fixed."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if not np.array_equal(a == NOISE, b == NOISE):
        return False
    mapping = {}
    for x, y in zip(a, b):
        if x == NOISE:
            continue
        if mapping.setdefault(x, y) != y:
            return False
    reverse = {}
    for x, y in mapping.items():
        if reverse.setdefault(y, x) != x:
            return False
    return True


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
        members, chosen = merge_clusters(self._clusters(), target_size=6,
                                         strategy="farthest-first", seed=12)
        # whichever cluster seeds the merge, the farthest centroid joins next
        start = chosen[0]
        expected_next = 2 if start in (0, 1) else 0
        assert chosen[1] == expected_next

    def test_target_within_first_cluster(self):
        members, chosen = merge_clusters(self._clusters(), target_size=2,
                                         strategy="uniform", seed=0)
        assert len(chosen) == 1
        assert len(members) == 3

    def test_uniform_reproducible(self):
        a = merge_clusters(self._clusters(), 6, "uniform", seed=5)
        b = merge_clusters(self._clusters(), 6, "uniform", seed=5)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_shortfall(self):
        with pytest.raises(ShortfallError):
            merge_clusters(self._clusters(), target_size=100, strategy="uniform")


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
