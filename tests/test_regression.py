import re

import numpy as np
import pytest
from scipy import stats

from collapse_lab.errors import InvalidInputError, RankError
from collapse_lab.regression import (
    DesignMatrix,
    ols_fit,
    property_shift_regression,
    render_table,
    standardize,
    vif,
)


def normal_equations_oracle(X, y, intercept=True):
    """Independent reference: solve the normal equations directly."""
    if intercept:
        X = np.column_stack([np.ones(len(X)), X])
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    resid = y - X @ beta
    df = len(y) - X.shape[1]
    sigma2 = resid @ resid / df
    cov = sigma2 * np.linalg.inv(X.T @ X)
    se = np.sqrt(np.diag(cov))
    return beta, se


def vif_reference(dm):
    """Per-column formulation: each column's R^2 from a full ols_fit on the
    other columns, with the same inf rules as vif."""
    out = np.empty(dm.p)
    for j in range(dm.p):
        names = [nm for i, nm in enumerate(dm.names) if i != j]
        try:
            res = ols_fit(DesignMatrix(np.delete(dm.X, j, axis=1), names), dm.X[:, j])
        except RankError:
            out[j] = np.inf
            continue
        if res.exact_fit or res.r_squared >= 1.0 - 1e-12:
            out[j] = np.inf
        else:
            out[j] = 1.0 / (1.0 - res.r_squared)
    return out


class TestStandardize:
    def test_simple_column(self):
        dm = DesignMatrix(np.array([[1.0], [2.0], [3.0]]), ["x"])
        out = standardize(dm)
        np.testing.assert_allclose(out.X[:, 0], [-1.0, 0.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        dm = DesignMatrix(rng.normal(size=(50, 3)), ["a", "b", "c"])
        once = standardize(dm)
        twice = standardize(once)
        np.testing.assert_allclose(once.X, twice.X, atol=1e-12)

    def test_constant_column_rejected(self):
        dm = DesignMatrix(np.column_stack([np.ones(5), np.arange(5.0)]), ["c", "x"])
        with pytest.raises(InvalidInputError, match="c"):
            standardize(dm)


class TestOlsFit:
    def test_exact_line(self):
        dm = DesignMatrix(np.array([[0.0], [1.0], [2.0]]), ["x"])
        res = ols_fit(dm, np.array([1.0, 3.0, 5.0]))
        assert res.intercept == pytest.approx(1.0)
        assert res.coefficients[0] == pytest.approx(2.0)
        assert res.r_squared == pytest.approx(1.0)
        assert res.exact_fit
        assert res.standard_errors[0] == 0.0
        assert np.isnan(res.p_values[0])

    def test_matches_normal_equations_on_random_fixtures(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            n = int(rng.integers(20, 200))
            p = int(rng.integers(1, 6))
            X = rng.normal(size=(n, p))
            beta_true = rng.normal(size=p)
            y = X @ beta_true + rng.normal(size=n)
            dm = DesignMatrix(X, [f"x{i}" for i in range(p)])
            res = ols_fit(dm, y)
            beta_ref, se_ref = normal_equations_oracle(X, y)
            np.testing.assert_allclose(res.intercept, beta_ref[0], atol=1e-10)
            np.testing.assert_allclose(res.coefficients, beta_ref[1:], atol=1e-10)
            np.testing.assert_allclose(res.standard_errors, se_ref[1:], atol=1e-10)

    def test_null_predictor_p_uniform(self):
        rng = np.random.default_rng(2)
        pvals = []
        for _ in range(1000):
            n = 100
            x_real = rng.normal(size=n)
            x_null = rng.normal(size=n)
            y = 2.0 * x_real + rng.normal(size=n)
            dm = DesignMatrix(np.column_stack([x_real, x_null]), ["real", "null"])
            res = ols_fit(dm, y)
            pvals.append(res.p_values[1])
        ks = stats.kstest(pvals, "uniform").statistic
        assert ks < 0.05

    def test_p_values_match_student_t_survival_oracle(self):
        """Two-sided p-values equal 2 * t.sf(|t|, df) bit for bit, from df 1 up;
        an exact fit has NaN p-values."""
        rng = np.random.default_rng(6)
        for n, p in [(3, 1), (4, 2), (7, 1), (9, 3), (40, 2), (2000, 4)]:
            for _ in range(20):
                X = rng.normal(size=(n, p))
                y = X @ rng.normal(size=p) + rng.normal(scale=rng.choice([1e-3, 1.0, 10.0]),
                                                        size=n)
                res = ols_fit(DesignMatrix(X, [f"x{i}" for i in range(p)]), y)
                assert res.residual_df == n - p - 1
                oracle = 2.0 * stats.t.sf(np.abs(res.t_values), res.residual_df)
                assert np.array_equal(res.p_values, oracle)
        X = rng.normal(size=(10, 2))
        res = ols_fit(DesignMatrix(X, ["a", "b"]), 1.0 + X @ [2.0, -3.0])
        assert res.exact_fit and np.isnan(res.p_values).all()

    def test_rank_deficiency_names_columns(self):
        x = np.random.default_rng(3).normal(size=(30, 1))
        X = np.column_stack([x, 2 * x])
        dm = DesignMatrix(X, ["a", "b"])
        with pytest.raises(RankError):
            ols_fit(dm, np.arange(30.0))

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        dm = DesignMatrix(X, ["a", "b", "c"])
        res = ols_fit(dm, y)
        fitted = res.intercept + X @ res.coefficients
        resid = y - fitted
        for j in range(3):
            assert abs(resid @ X[:, j]) < 1e-9 * len(y)

    def test_r2_non_decreasing_when_adding_predictor(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        y = X[:, 0] + rng.normal(size=60)
        r2 = []
        for p in (1, 2, 3):
            dm = DesignMatrix(X[:, :p], [f"x{i}" for i in range(p)])
            r2.append(ols_fit(dm, y).r_squared)
        assert r2[0] <= r2[1] + 1e-12 and r2[1] <= r2[2] + 1e-12

    def test_scale_equivariance_of_standardized_fit(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        names = ["a", "b", "c"]
        base = ols_fit(standardize(DesignMatrix(X, names)), y)
        scaled = X.copy()
        scaled[:, 1] *= 37.5
        other = ols_fit(standardize(DesignMatrix(scaled, names)), y)
        np.testing.assert_allclose(base.coefficients, other.coefficients, atol=1e-10)
        np.testing.assert_allclose(base.t_values, other.t_values, atol=1e-10)
        np.testing.assert_allclose(base.p_values, other.p_values, atol=1e-10)
        assert base.r_squared == pytest.approx(other.r_squared, abs=1e-10)


class TestVif:
    @staticmethod
    def _orthogonal_pair(n=64):
        rng = np.random.default_rng(7)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        a -= a.mean()
        b -= b.mean()
        b -= a * (a @ b) / (a @ a)
        a /= a.std(ddof=1)
        b /= b.std(ddof=1)
        return a, b

    def test_orthogonal_columns(self):
        a, b = self._orthogonal_pair()
        out = vif(DesignMatrix(np.column_stack([a, b]), ["a", "b"]))
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-9)

    def test_duplicated_column_infinite(self):
        x = np.random.default_rng(8).normal(size=40)
        out = vif(DesignMatrix(np.column_stack([x, x]), ["a", "b"]))
        assert np.isinf(out).all()

    def test_correlation_08_closed_form(self):
        a, b = self._orthogonal_pair()
        x2 = 0.8 * a + 0.6 * b  # unit variance, exact sample correlation 0.8
        out = vif(DesignMatrix(np.column_stack([a, x2]), ["a", "x2"]))
        np.testing.assert_allclose(out, [1.0 / (1.0 - 0.64)] * 2, atol=1e-6)

    def test_lone_predictor_is_one(self):
        """A lone column is regressed on the intercept alone: R^2 about 0."""
        x = np.random.default_rng(11).normal(size=40)
        out = vif(DesignMatrix(x[:, None], ["x"]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_per_column_ols_reference(self):
        """vif equals the per-column ols_fit formulation bit for bit, on
        random, near-collinear, exactly collinear and exact-fit columns."""
        rng = np.random.default_rng(12)
        kinds = {"random": 0, "near": 0, "collinear": 0, "exact": 0, "constant": 0}
        for trial in range(240):
            n = int(rng.integers(8, 301))
            p = int(rng.integers(1, 7))
            X = rng.normal(size=(n, p)) * rng.choice([1e-3, 1.0, 1e3], size=p)
            kind = list(kinds)[trial % len(kinds)]
            if p >= 2 and kind == "near":
                X[:, 1] = X[:, 0] * (1.0 + rng.normal(scale=rng.choice([1e-9, 1e-6]), size=n))
            elif p >= 2 and kind == "collinear":
                X[:, -1] = 2.0 * X[:, 0]
            elif p >= 3 and kind == "exact":
                X[:, 2] = 1.5 - X[:, 0] + 0.25 * X[:, 1]
            elif kind == "constant":
                X[:, -1] = 3.0
            else:
                kind = "random"
            kinds[kind] += 1
            dm = DesignMatrix(X, [f"x{i}" for i in range(p)])
            if trial % 2 and kind != "constant":  # as _fit_group passes it
                dm = standardize(dm)
            np.testing.assert_array_equal(vif(dm), vif_reference(dm))
        assert min(kinds.values()) >= 20


class TestPropertyShiftRegression:
    @staticmethod
    def _observations(n_clusters=40, datasets=("w", "x", "y", "z"), ratios=(0.125, 0.25)):
        rng = np.random.default_rng(9)
        obs = []
        for ds in datasets:
            for ratio in ratios:
                for c in range(n_clusters):
                    props = {k: float(rng.normal()) for k in (
                        "semantic_diversity", "lexical_diversity", "gaussianity",
                        "quality", "positivity", "text_length")}
                    obs.append({
                        "cluster_id": f"{ds}-{c}", "dataset": ds, "ratio": ratio,
                        **props,
                        "rel_diversity": props["quality"] * 0.2 + float(rng.normal(scale=0.5)),
                        "rel_quality": -props["lexical_diversity"] * 0.3 + float(rng.normal(scale=0.5)),
                    })
        return obs

    def test_grouping_all(self):
        fits = property_shift_regression(self._observations(), grouping="all")
        assert len(fits) == 2
        assert all("result" in f for f in fits)

    def test_grouping_per_dataset_per_ratio(self):
        fits = property_shift_regression(self._observations(), grouping="per-dataset-per-ratio")
        assert len(fits) == 4 * 2 * 2  # datasets x ratios x dependents
        assert sum("result" in f for f in fits) == 16

    def test_cross_domain_design_width(self):
        rng = np.random.default_rng(10)
        domains = ("twitter", "reddit", "wikipedia")
        props = ("semantic_diversity", "lexical_diversity", "gaussianity",
                 "quality", "positivity", "text_length")
        obs = []
        for c in range(60):
            row = {"cluster_id": c, "dataset": "mixed", "ratio": 0.25}
            for d in domains:
                for p in props:
                    row[f"{p}:{d}"] = float(rng.normal())
                row[f"rel_diversity:{d}"] = float(rng.normal())
                row[f"rel_quality:{d}"] = float(rng.normal())
            obs.append(row)
        fits = property_shift_regression(obs, grouping="cross-domain-18")
        assert len(fits) == 6  # 2 dependents x 3 domains
        for f in fits:
            assert len(f["result"].names) == 18

    def test_undersized_group_skipped(self):
        obs = self._observations(n_clusters=2)
        fits = property_shift_regression(obs, grouping="per-dataset-per-ratio")
        assert all("skipped" in f for f in fits)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_dependent_skips_its_group(self, bad):
        """A non-finite dependent is skipped with a notice, as a non-finite
        predictor is; the other dependent's fit is unchanged."""
        obs = self._observations()
        clean = property_shift_regression(obs, grouping="all")
        obs[5]["rel_quality"] = bad
        fits = property_shift_regression(obs, grouping="all")
        assert fits[1] == {"group": "all", "dependent": "rel_quality",
                           "skipped": "dependent contains non-finite values"}
        np.testing.assert_array_equal(fits[0]["result"].coefficients,
                                      clean[0]["result"].coefficients)

    @pytest.mark.parametrize("key, missing", [("ratio", "a ratio"), ("dataset", "a dataset")])
    def test_per_dataset_per_ratio_needs_both_keys(self, key, missing):
        obs = self._observations()
        del obs[2][key]
        with pytest.raises(InvalidInputError, match=f"^per-dataset-per-ratio grouping: "
                                                    f"observation 3 lacks {missing}$"):
            property_shift_regression(obs, grouping="per-dataset-per-ratio")
        assert all("result" in f for f in property_shift_regression(obs, grouping="all"))

    @pytest.mark.parametrize("ratio", ["half", float("nan"), float("inf"), True, None])
    def test_per_dataset_per_ratio_needs_a_finite_ratio(self, ratio):
        """A ratio that is not a finite number (a bool is not one) is named,
        instead of failing the group sort or making a group of one."""
        obs = self._observations()
        obs[2]["ratio"] = ratio
        with pytest.raises(InvalidInputError, match=re.escape(
                f"per-dataset-per-ratio grouping: observation 3 has ratio {ratio!r}, "
                f"not a finite number")):
            property_shift_regression(obs, grouping="per-dataset-per-ratio")
        assert all("result" in f for f in property_shift_regression(obs, grouping="all"))

    def test_render_table_smoke(self):
        fits = property_shift_regression(self._observations(), grouping="all")
        table = render_table(fits)
        assert "R^2" in table
        assert "quality" in table
