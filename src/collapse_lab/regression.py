"""Standardized OLS with inference statistics, variance inflation factors, and
the grouped property-to-shift regressions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

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
    intercept: float
    vif: np.ndarray | None = None
    exact_fit: bool = False
    p_bonferroni: np.ndarray | None = None

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


def ols_fit(dm: DesignMatrix, y) -> RegressionResult:
    """Least squares with an intercept via QR, with standard errors, t and
    two-sided p values (Student-t, n - p - 1 df) and R-squared."""
    y = np.asarray(y, dtype=float)
    if y.shape != (dm.n,):
        raise InvalidInputError("response length must match the design matrix")
    beta, r, ssr, r2, exact = _least_squares(dm.X, y, dm.names)
    df = dm.n - len(beta)
    if exact:
        se = np.zeros(len(beta))
        t = np.full(len(beta), np.inf)
        p = np.full(len(beta), np.nan)
    else:
        sigma2 = ssr / df
        rinv = np.linalg.inv(r)
        cov = sigma2 * rinv @ rinv.T
        se = np.sqrt(np.diag(cov))
        with np.errstate(divide="ignore"):
            t = beta / se
        p = 2.0 * stdtr(df, -np.abs(t))

    return RegressionResult(
        names=list(dm.names),
        coefficients=beta[1:],
        standard_errors=se[1:],
        t_values=t[1:],
        p_values=p[1:],
        r_squared=r2,
        residual_df=df,
        intercept=float(beta[0]),
        exact_fit=exact,
    )


def _least_squares(X: np.ndarray, y: np.ndarray, names: list[str]):
    """``y`` on an intercept and ``X`` via QR: the coefficients (intercept first),
    R, the residual sum of squares, R-squared and whether the fit is exact."""
    X = np.column_stack([np.ones(X.shape[0]), X])
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    tol = (diag.max() if diag.size else 0.0) * max(X.shape) * np.finfo(float).eps * 10
    if (diag <= tol).any():
        # identify offending columns via pivoted QR
        from scipy.linalg import qr as sqr

        _, rp, piv = sqr(X, pivoting=True, mode="economic")
        rank = int(np.sum(np.abs(np.diag(rp)) > tol))
        names = ["(intercept)"] + list(names)
        raise RankError([names[i] for i in piv[rank:]])
    beta = np.linalg.solve(r, q.T @ y)
    resid = y - X @ beta
    ssr = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ssr / sst if sst > 0 else float("nan")
    return beta, r, ssr, r2, ssr <= 1e-12 * max(sst, 1.0)


def vif(dm: DesignMatrix) -> np.ndarray:
    """Variance inflation factor per column: 1 / (1 - R^2 of regressing that
    column on the others, with intercept). A lone column is regressed on the
    intercept alone, so its VIF is 1. Perfect collinearity yields inf."""
    out = np.empty(dm.p)
    for j in range(dm.p):
        try:
            _, _, _, r2, exact = _least_squares(np.delete(dm.X, j, axis=1), dm.X[:, j],
                                                dm.names[:j] + dm.names[j + 1:])
        except RankError:
            out[j] = np.inf
            continue
        out[j] = np.inf if exact or r2 >= 1.0 - 1e-12 else 1.0 / (1.0 - r2)
    return out


def property_shift_regression(observations, grouping: str = "all",
                              dependents: tuple = ("rel_diversity", "rel_quality"),
                              property_keys: tuple = PROPERTY_KEYS) -> list[dict]:
    """Grouped regressions of relative shift magnitudes on standardized data
    properties.

    ``observations`` is a list of dicts with keys: cluster_id, dataset, ratio,
    the property values, and the dependent variables. Grouping:

    - "all": one regression per dependent over every observation
    - "per-dataset-per-ratio": one per (dataset, ratio) pair per dependent;
      an observation without a dataset or a ratio, or whose ratio is not a
      finite number, raises InvalidInputError
    - "cross-domain-18": observations carry per-domain properties named
      "<property>:<domain>" plus per-domain dependents "<dep>:<domain>";
      the domains are the suffixes of the dependents' columns, and there is
      one regression per (dependent, domain) with all domain-tagged
      properties as predictors.

    An observation without a dependent's key is left out of that dependent's
    fits, and one without a predictor's key out of every fit of its group.
    A group that is too small, has a constant or non-finite dependent or cannot
    be fitted is skipped with an explicit notice in the output.
    Returns a list of {"group", "dependent", "result" | "skipped"}.
    """
    if grouping not in ("all", "per-dataset-per-ratio", "cross-domain-18"):
        raise InvalidInputError(f"unknown grouping {grouping!r}")
    out = []

    if grouping == "cross-domain-18":
        prefixes = tuple(f"{dep}:" for dep in dependents)
        domains = list(dict.fromkeys(k.split(":", 1)[1] for o in observations for k in o
                                     if k.startswith(prefixes)))
        if not domains:
            raise InvalidInputError("cross-domain grouping needs <dependent>:<domain> columns")
        pred_names = [f"{p}:{d}" for d in domains for p in property_keys]
        for dep in dependents:
            for dom in domains:
                out.append(_fit_group(observations, pred_names, f"{dep}:{dom}",
                                      group=f"domain={dom}"))
        return out

    def groups():
        if grouping == "all":
            yield "all", list(observations)
        else:
            seen = {}
            for n, o in enumerate(observations, 1):
                if "dataset" not in o or "ratio" not in o:
                    raise InvalidInputError(f"{grouping} grouping: observation {n} lacks "
                                            f"{'a dataset' if 'ratio' in o else 'a ratio'}")
                ratio = o["ratio"]
                if (isinstance(ratio, bool) or not isinstance(ratio, numbers.Real)
                        or not math.isfinite(ratio)):
                    raise InvalidInputError(f"{grouping} grouping: observation {n} has ratio "
                                            f"{ratio!r}, not a finite number")
                seen.setdefault((o["dataset"], ratio), []).append(o)
            for (ds, ratio), rows in sorted(seen.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
                yield f"{ds}@r={ratio}", rows

    for label, rows in groups():
        for dep in dependents:
            out.append(_fit_group(rows, list(property_keys), dep, group=label))
    return out


def _fit_group(rows, pred_names, dep_key, group):
    rows = [o for o in rows if dep_key in o and all(p in o for p in pred_names)]
    needed = len(pred_names) + 2
    if len(rows) <= needed:
        return {"group": group, "dependent": dep_key, "skipped":
                f"group has {len(rows)} observations, needs > {needed}"}
    X = np.array([[float(o[p]) for p in pred_names] for o in rows])
    y = np.array([float(o[dep_key]) for o in rows])
    if not np.all(np.isfinite(y)):
        return {"group": group, "dependent": dep_key, "skipped":
                "dependent contains non-finite values"}
    if np.all(y == y[0]):
        return {"group": group, "dependent": dep_key, "skipped":
                f"dependent is constant ({float(y[0])!r}) in all {len(rows)} observations"}
    try:
        dm = standardize(DesignMatrix(X, pred_names))
        result = ols_fit(dm, y)
    except InvalidInputError as exc:  # a constant or collinear predictor, or a non-finite value
        return {"group": group, "dependent": dep_key, "skipped": str(exc)}
    result.vif = vif(dm)
    result.p_bonferroni = np.minimum(result.p_values * len(pred_names), 1.0)
    return {"group": group, "dependent": dep_key, "result": result}


def render_table(fits: list[dict]) -> str:
    """Plain-text coefficient table with significance stars, one column per
    (group, dependent) regression."""
    skipped = [f"skipped {f['group']}:{f['dependent']}: {f['skipped']}"
               for f in fits if "skipped" in f]
    cols = [f for f in fits if "result" in f]
    if not cols:
        return "\n".join(["(no regressions ran)"] + skipped)
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
    return "\n".join(lines + skipped)
