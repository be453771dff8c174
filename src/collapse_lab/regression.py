"""Standardized OLS with inference statistics, variance inflation factors, and
the grouped property-to-shift regressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import InvalidInputError, RankError

__all__ = [
    "DesignMatrix",
    "RegressionResult",
    "standardize",
    "ols_fit",
    "vif",
    "property_shift_regression",
    "render_table",
]

PROPERTY_KEYS = (
    "semantic_diversity",
    "lexical_diversity",
    "gaussianity",
    "quality",
    "positivity",
    "text_length",
)


@dataclass
class DesignMatrix:
    """n x p predictor matrix with unique column names."""

    X: np.ndarray
    names: list[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2:
            raise InvalidInputError("design matrix must be 2-D")
        if not np.all(np.isfinite(self.X)):
            raise InvalidInputError("design matrix contains non-finite entries")
        if len(self.names) != self.X.shape[1]:
            raise InvalidInputError("one name per column is required")
        if len(set(self.names)) != len(self.names):
            raise InvalidInputError("column names must be unique")
        if self.X.shape[0] <= self.X.shape[1]:
            raise InvalidInputError("need more observations than predictors")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass
class RegressionResult:
    names: list[str]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    r_squared: float
    residual_df: int
    intercept: float | None = None
    intercept_se: float | None = None
    vif: np.ndarray | None = None
    exact_fit: bool = False
    meta: dict = field(default_factory=dict)

    def significance(self, name: str) -> str:
        p = self.p_values[self.names.index(name)]
        if np.isnan(p):
            return ""
        if p < 0.001:
            return "***"
        if p < 0.01:
            return "**"
        if p < 0.05:
            return "*"
        return ""


def standardize(dm: DesignMatrix) -> DesignMatrix:
    """Each column rescaled to zero mean and unit sample standard deviation
    (n-1 denominator)."""
    sd = dm.X.std(axis=0, ddof=1)
    zero = np.flatnonzero(sd == 0)
    if zero.size:
        bad = [dm.names[i] for i in zero]
        raise InvalidInputError(f"zero-variance columns cannot be standardized: {bad}")
    return DesignMatrix((dm.X - dm.X.mean(axis=0)) / sd, list(dm.names))


def ols_fit(dm: DesignMatrix, y, intercept: bool = True) -> RegressionResult:
    """Least squares via QR, with standard errors, t and two-sided p values
    (Student-t, n - p - 1 df with intercept) and R-squared."""
    y = np.asarray(y, dtype=float)
    if y.shape != (dm.n,):
        raise InvalidInputError("response length must match the design matrix")
    X = np.column_stack([np.ones(dm.n), dm.X]) if intercept else dm.X
    names_full = (["(intercept)"] if intercept else []) + list(dm.names)

    q, r = _qr_with_rank_check(X, names_full)
    beta = np.linalg.solve(r, q.T @ y)

    fitted = X @ beta
    resid = y - fitted
    df = dm.n - X.shape[1]
    ssr = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum()) if intercept else float(y @ y)
    r2 = 1.0 - ssr / sst if sst > 0 else float("nan")

    exact = ssr <= 1e-12 * max(sst, 1.0)
    if exact:
        se = np.zeros(X.shape[1])
        t = np.full(X.shape[1], np.inf)
        p = np.full(X.shape[1], np.nan)
    else:
        sigma2 = ssr / df
        rinv = np.linalg.inv(r)
        cov = sigma2 * rinv @ rinv.T
        se = np.sqrt(np.diag(cov))
        with np.errstate(divide="ignore"):
            t = beta / se
        p = 2.0 * stats.t.sf(np.abs(t), df)

    off = 1 if intercept else 0
    return RegressionResult(
        names=list(dm.names),
        coefficients=beta[off:],
        standard_errors=se[off:],
        t_values=t[off:],
        p_values=p[off:],
        r_squared=r2,
        residual_df=df,
        intercept=float(beta[0]) if intercept else None,
        intercept_se=float(se[0]) if intercept else None,
        exact_fit=exact,
    )


def _qr_with_rank_check(X: np.ndarray, names: list[str]):
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    scale = diag.max() if diag.size else 0.0
    bad = diag <= scale * max(X.shape) * np.finfo(float).eps * 10
    if bad.any():
        # identify offending columns via pivoted QR
        from scipy.linalg import qr as sqr

        _, rp, piv = sqr(X, pivoting=True, mode="economic")
        rank = int(np.sum(np.abs(np.diag(rp)) > scale * max(X.shape) * np.finfo(float).eps * 10))
        dependent = [names[i] for i in piv[rank:]]
        raise RankError(dependent)
    return q, r


def vif(dm: DesignMatrix) -> np.ndarray:
    """Variance inflation factor per column: 1 / (1 - R^2 of regressing that
    column on the others, with intercept). Perfect collinearity yields inf."""
    if dm.p < 2:
        raise InvalidInputError("VIF needs at least 2 predictors")
    out = np.empty(dm.p)
    for j in range(dm.p):
        others = np.delete(dm.X, j, axis=1)
        names = [nm for i, nm in enumerate(dm.names) if i != j]
        sub = DesignMatrix(others, names)
        try:
            res = ols_fit(sub, dm.X[:, j], intercept=True)
            r2 = res.r_squared
        except RankError:
            out[j] = np.inf
            continue
        if res.exact_fit or r2 >= 1.0 - 1e-12:
            out[j] = np.inf
        else:
            out[j] = 1.0 / (1.0 - r2)
    return out


def property_shift_regression(observations, grouping: str = "all",
                              dependents: tuple = ("rel_diversity", "rel_quality"),
                              property_keys: tuple = PROPERTY_KEYS,
                              standardize_predictors: bool = True,
                              domains: tuple | None = None) -> list[dict]:
    """Grouped regressions of relative shift magnitudes on data properties.

    ``observations`` is a list of dicts with keys: cluster_id, dataset, ratio,
    the six property values, and the dependent variables. Grouping:

    - "all": one regression per dependent over every observation
    - "per-dataset-per-ratio": one per (dataset, ratio) pair per dependent
    - "cross-domain-18": observations carry per-domain properties named
      "<property>:<domain>" plus per-domain dependents "<dep>:<domain>";
      one regression per (dependent, domain) with all domain-tagged
      properties as predictors.

    Undersized groups are skipped with an explicit notice in the output.
    Returns a list of {"group", "dependent", "result" | "skipped"}.
    """
    if grouping not in ("all", "per-dataset-per-ratio", "cross-domain-18"):
        raise InvalidInputError(f"unknown grouping {grouping!r}")
    out = []

    if grouping == "cross-domain-18":
        if not domains:
            raise InvalidInputError("cross-domain grouping requires the domain list")
        pred_names = [f"{p}:{d}" for d in domains for p in property_keys]
        for dep in dependents:
            for dom in domains:
                key = f"{dep}:{dom}"
                rows = [o for o in observations if key in o]
                out.append(_fit_group(rows, pred_names, key,
                                      group=f"domain={dom}",
                                      standardize_predictors=standardize_predictors))
        return out

    def groups():
        if grouping == "all":
            yield "all", list(observations)
        else:
            seen = {}
            for o in observations:
                seen.setdefault((o["dataset"], o["ratio"]), []).append(o)
            for (ds, ratio), rows in sorted(seen.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
                yield f"{ds}@r={ratio}", rows

    for label, rows in groups():
        for dep in dependents:
            out.append(_fit_group(rows, list(property_keys), dep, group=label,
                                  standardize_predictors=standardize_predictors))
    return out


def _fit_group(rows, pred_names, dep_key, group, standardize_predictors):
    needed = len(pred_names) + 2
    if len(rows) <= needed:
        return {"group": group, "dependent": dep_key, "skipped":
                f"group has {len(rows)} observations, needs > {needed}"}
    X = np.array([[float(o[p]) for p in pred_names] for o in rows])
    y = np.array([float(o[dep_key]) for o in rows])
    dm = DesignMatrix(X, pred_names)
    if standardize_predictors:
        dm = standardize(dm)
    result = ols_fit(dm, y, intercept=True)
    result.vif = vif(dm)
    result.meta["bonferroni"] = np.minimum(result.p_values * len(pred_names), 1.0)
    return {"group": group, "dependent": dep_key, "result": result}


def render_table(fits: list[dict]) -> str:
    """Plain-text coefficient table with significance stars, one column per
    (group, dependent) regression."""
    cols = [f for f in fits if "result" in f]
    if not cols:
        return "(no regressions ran)"
    names = cols[0]["result"].names
    width = max(len(n) for n in names) + 2
    header = " " * width + " | ".join(
        f"{f['group']}:{f['dependent']}"[:24].rjust(24) for f in cols)
    lines = [header, "-" * len(header)]
    for i, name in enumerate(names):
        cells = []
        for f in cols:
            res = f["result"]
            cell = f"{res.coefficients[i]:+.4f}{res.significance(name):<3}"
            cells.append(cell.rjust(24))
        lines.append(name.ljust(width) + " | ".join(cells))
    lines.append("-" * len(header))
    lines.append("R^2".ljust(width) + " | ".join(
        f"{f['result'].r_squared:.3f}".rjust(24) for f in cols))
    skipped = [f for f in fits if "skipped" in f]
    for f in skipped:
        lines.append(f"skipped {f['group']}:{f['dependent']}: {f['skipped']}")
    return "\n".join(lines)
