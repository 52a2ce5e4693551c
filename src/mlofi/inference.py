"""OLS and Ridge fits, penalty selection and multicollinearity diagnostics.

Ridge solves (X'X + lam*D) b = X'y where D is the identity by default
(the penalty covers the intercept too; set ``penalize_intercept=False``
for the conventional variant that leaves the intercept free). Standard
errors use the sandwich s2 * A^-1 X'X A^-1 with A = X'X + lam*D, which
reduces to the familiar s2 * (X'X)^-1 at lam = 0. Both methods report
t statistics and two-sided p-values against a t distribution with
rows - n_coeffs degrees of freedom.

Cross-validation folds are contiguous, time-ordered blocks: shuffling
serially correlated intervals into random folds would leak information
between fit and validation sets. ``fold_rows`` is the one fold loop of the
penalty search and the RMSE protocol. Each training fold forms X'X and X'y
once and solves the whole penalty grid in one batched ``ridge_coefficients``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import stats as st

from .errors import DegenerateColumn, NumericalFailure, RankDeficient, TooFewRows
from .sampling import RegressionProblem

#: Relative singular-value cutoff for the OLS rank check.
RANK_RTOL = 1e-10

#: Penalty grid: 50 log-spaced candidates spanning 1e-5 .. 1e5.
LAMBDA_GRID_SIZE = 50
LAMBDA_GRID_LO = 1e-5
LAMBDA_GRID_HI = 1e5

#: Penalty selection needs at least this many rows in every CV fold.
MIN_ROWS_PER_FOLD = 10


def default_lambda_grid() -> np.ndarray:
    # geomspace pins both endpoints exactly to the stated bounds.
    return np.geomspace(LAMBDA_GRID_LO, LAMBDA_GRID_HI, LAMBDA_GRID_SIZE)


@dataclass
class RegressionFit:
    """Fitted coefficients with their sampling statistics.

    ``coeffs[0]`` is the intercept; ``coeffs[m]`` the weight on the
    level-m imbalance component. ``lambda_`` is 0 for plain OLS.
    """

    coeffs: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    sigma2_hat: float
    r2: float
    adj_r2: float
    lambda_: float
    dof: int


def _finish_fit(
    X: np.ndarray, y: np.ndarray, coeffs: np.ndarray, cov_unscaled: np.ndarray, lam: float
) -> RegressionFit:
    """Shared residual-variance / SE / R2 bookkeeping for both methods."""
    n, p = X.shape
    dof = n - p
    resid = y - X @ coeffs
    sse = float(resid @ resid)
    sigma2 = sse / dof
    var = sigma2 * np.diag(cov_unscaled)
    se = np.sqrt(np.maximum(var, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, coeffs / se, 0.0)
    pvals = 2.0 * st.t.sf(np.abs(t), dof)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst > 0.0:
        r2 = 1.0 - sse / sst
    else:
        r2 = 1.0 if sse <= 1e-300 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / dof
    return RegressionFit(coeffs, se, t, pvals, sigma2, r2, adj_r2, lam, dof)


def fit_ols(problem: RegressionProblem) -> RegressionFit:
    """Least-squares fit via SVD with an explicit rank check."""
    X, y = problem.X, problem.y
    n, p = X.shape
    if n < p + 1:
        raise TooFewRows(f"{n} rows cannot support {p} coefficients")
    svals = np.linalg.svd(X, compute_uv=False)
    if svals[-1] <= RANK_RTOL * svals[0]:
        raise RankDeficient(
            f"design matrix numerically singular (smin/smax = "
            f"{svals[-1] / svals[0]:.3e})"
        )
    coeffs, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    xtx = X.T @ X
    cov_unscaled = np.linalg.inv(xtx)
    return _finish_fit(X, y, coeffs, cov_unscaled, lam=0.0)


def fit_ridge(
    problem: RegressionProblem, lam: float, penalize_intercept: bool = True
) -> RegressionFit:
    """Closed-form penalized fit b = (X'X + lam*D)^-1 X'y."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    X, y = problem.X, problem.y
    n, p = X.shape
    if n < p + 1:
        raise TooFewRows(f"{n} rows cannot support {p} coefficients")
    xtx = X.T @ X
    penalty = np.eye(p)
    if not penalize_intercept:
        penalty[0, 0] = 0.0
    A = xtx + lam * penalty
    xty = X.T @ y
    try:
        c, low = sla.cho_factor(A)
        coeffs = sla.cho_solve((c, low), xty)
        a_inv = sla.cho_solve((c, low), np.eye(p))
    except sla.LinAlgError:
        try:
            coeffs = np.linalg.solve(A, xty)
            a_inv = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"ridge solve failed: {exc}") from exc
    if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(a_inv))):
        raise NumericalFailure("ridge solve produced non-finite values")
    cov_unscaled = a_inv @ xtx @ a_inv
    return _finish_fit(X, y, coeffs, cov_unscaled, lam=lam)


def ridge_coefficients(
    X: np.ndarray, y: np.ndarray, lambdas, penalize_intercept: bool = True
) -> np.ndarray:
    """One coefficient row per penalty in ``lambdas``, from one batched solve."""
    p = X.shape[1]
    penalty = np.eye(p)
    if not penalize_intercept:
        penalty[0, 0] = 0.0
    A = X.T @ X + np.asarray(lambdas, dtype=float)[:, None, None] * penalty
    try:
        coeffs = np.linalg.solve(A, X.T @ y)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"ridge solve failed: {exc}") from exc
    if not np.all(np.isfinite(coeffs)):
        raise NumericalFailure("ridge solve produced non-finite values")
    return coeffs


def contiguous_folds(n_rows: int, folds: int) -> list[np.ndarray]:
    """Split row indices 0..n-1 into time-ordered contiguous blocks."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    return list(np.array_split(np.arange(n_rows), folds))


def fold_rows(
    X: np.ndarray, y: np.ndarray, folds: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (X_train, y_train, X_val, y_val) for each contiguous fold, in order."""
    n = X.shape[0]
    blocks = contiguous_folds(n, folds)
    if n < folds:
        raise TooFewRows(f"{n} rows cannot fill {folds} folds")
    for idx in blocks:
        val = np.zeros(n, dtype=bool)
        val[idx] = True
        yield X[~val], y[~val], X[val], y[val]


@dataclass
class LambdaSearch:
    """Cross-validation trace over the penalty grid."""

    grid: np.ndarray
    cv_errors: np.ndarray  # mean validation MSE per grid point
    lambda_hat: float  # argmin; ties resolve to the smaller penalty


def select_lambda(
    X: np.ndarray,
    y: np.ndarray,
    folds: int = 5,
    grid: np.ndarray | None = None,
    penalize_intercept: bool = True,
) -> LambdaSearch:
    """Pick the penalty minimizing mean K-fold validation MSE.

    Folds are contiguous blocks of the (time-ordered) pooled rows. The
    ascending grid means np.argmin already resolves ties toward the
    smaller penalty.
    """
    if grid is None:
        grid = default_lambda_grid()
    n = X.shape[0]
    if n < MIN_ROWS_PER_FOLD * folds:
        raise TooFewRows(
            f"{n} rows give fewer than {MIN_ROWS_PER_FOLD} per fold with {folds} folds"
        )
    # Summed per penalty in fold order, as a per-(lambda, fold) loop would.
    cv_errors = np.zeros(len(grid))
    for X_train, y_train, X_val, y_val in fold_rows(X, y, folds):
        coeffs = ridge_coefficients(X_train, y_train, grid, penalize_intercept)
        for gi, c in enumerate(coeffs):
            resid = y_val - X_val @ c
            cv_errors[gi] += float(resid @ resid) / len(resid)
    cv_errors /= folds
    if not np.all(np.isfinite(cv_errors)):
        raise NumericalFailure("non-finite cross-validation error encountered")
    return LambdaSearch(
        grid=grid, cv_errors=cv_errors, lambda_hat=float(grid[int(np.argmin(cv_errors))])
    )


@dataclass
class CollinearityDiagnostics:
    """Sample correlation matrix of the imbalance components."""

    corr: np.ndarray  # M x M, symmetric, unit diagonal
    eigenvalues: np.ndarray  # descending
    degenerate_columns: list[int]  # zero-variance components, excluded


def diagnose_collinearity(components: np.ndarray) -> CollinearityDiagnostics:
    """Pearson correlations and their eigenvalues for pooled components.

    ``components`` is rows x M without the intercept column. Zero-variance
    columns cannot be correlated; they are reported and excluded from the
    matrix rather than silently zero-filled.
    """
    n, m = components.shape
    if n < m + 1:
        raise TooFewRows(f"{n} pooled rows for {m} components")
    sd = components.std(axis=0, ddof=1)
    degenerate = [j for j in range(m) if sd[j] == 0.0]
    if len(degenerate) == m:
        raise DegenerateColumn("all components have zero variance")
    keep = [j for j in range(m) if j not in degenerate]
    sub = components[:, keep]
    centered = sub - sub.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    corr = (corr + corr.T) / 2.0  # enforce exact symmetry
    eig = np.linalg.eigvalsh(corr)[::-1]
    return CollinearityDiagnostics(
        corr=corr, eigenvalues=eig, degenerate_columns=degenerate
    )


@dataclass
class SignificanceSummary:
    """Per-coefficient means across many window fits."""

    mean_coeff: np.ndarray
    mean_se: np.ndarray
    mean_t: np.ndarray
    mean_p: np.ndarray
    pct_significant_95: np.ndarray  # percent of fits with two-sided p < 0.05
    n_fits: int


def significance_summary(fits: list[RegressionFit]) -> SignificanceSummary:
    if not fits:
        raise TooFewRows("no fits to summarize")
    coeffs = np.stack([f.coeffs for f in fits])
    ses = np.stack([f.std_errors for f in fits])
    ts = np.stack([f.t_stats for f in fits])
    ps = np.stack([f.p_values for f in fits])
    return SignificanceSummary(
        mean_coeff=coeffs.mean(axis=0),
        mean_se=ses.mean(axis=0),
        mean_t=ts.mean(axis=0),
        mean_p=ps.mean(axis=0),
        pct_significant_95=100.0 * (ps < 0.05).mean(axis=0),
        n_fits=len(fits),
    )
