"""OLS and Ridge fits, penalty selection and multicollinearity diagnostics.

Ridge solves (X'X + lam*D) b = X'y where D is the identity by default
(the penalty covers the intercept too; set ``penalize_intercept=False``
for the conventional variant that leaves the intercept free). Standard
errors use the sandwich s2 * A^-1 X'X A^-1 with A = X'X + lam*D, which
reduces to the familiar s2 * (X'X)^-1 at lam = 0. Both methods report
t statistics and two-sided p-values against a t distribution with
rows - n_coeffs degrees of freedom, read off its CDF ``scipy.special.stdtr``.

Cross-validation folds are contiguous, time-ordered blocks: shuffling
serially correlated intervals into random folds would leak information
between fit and validation sets. ``fold_rows`` is the one fold loop of the
penalty search and the RMSE protocol. The penalty search forms each
training fold's X'X and X'y in turn, so one training copy is alive at a
time. A penalty's exact score comes from one stacked ``ridge_coefficients``
solve per fold, its validation residuals from one stacked matrix-vector
product and their squared sums from one stacked dot. The search screens the
whole grid from one eigendecomposition per training fold, with a stated
error bound per penalty, and gives the exact score only to the penalties the
bound cannot rule out, or to none when it rules out all but one; its choice is
the first argmin of the exact scores (``select_lambda``). ``fit_ridge`` calls the
LAPACK Cholesky routines ``dpotrf``/``dpotrs`` that ``scipy.linalg.cho_factor``
and ``cho_solve`` wrap, without the wrappers' per-call overhead.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import special

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

#: Safety factor on the penalty screen's first-order error bound.
SCREEN_SAFETY = 10.0


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
    pvals = 2.0 * special.stdtr(dof, -np.abs(t))
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst > 0.0:
        r2 = 1.0 - sse / sst
    else:
        r2 = 1.0 if sse <= 1e-300 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / dof
    return RegressionFit(coeffs, se, t, pvals, sigma2, r2, adj_r2, lam, dof)


def _check_rank(X: np.ndarray, error: type[Exception]) -> None:
    """Raise ``error`` when X's smallest singular value is round-off next to its largest."""
    svals = np.linalg.svd(X, compute_uv=False)
    if svals[-1] <= RANK_RTOL * svals[0]:
        raise error(
            f"design matrix numerically singular (smin/smax = "
            f"{svals[-1] / svals[0]:.3e})"
        )


def fit_ols(problem: RegressionProblem) -> RegressionFit:
    """Least-squares fit via SVD with an explicit rank check."""
    X, y = problem.X, problem.y
    n, p = X.shape
    if n < p + 1:
        raise TooFewRows(f"{n} rows cannot support {p} coefficients")
    _check_rank(X, RankDeficient)
    coeffs, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    xtx = X.T @ X
    cov_unscaled = np.linalg.inv(xtx)
    return _finish_fit(X, y, coeffs, cov_unscaled, lam=0.0)


def _penalty(p: int, penalize_intercept: bool) -> np.ndarray:
    """The penalty matrix D: the identity, less the intercept's 1 when it goes free."""
    penalty = np.eye(p)
    if not penalize_intercept:
        penalty[0, 0] = 0.0
    return penalty


def fit_ridge(
    problem: RegressionProblem, lam: float, penalize_intercept: bool = True
) -> RegressionFit:
    """Closed-form penalized fit b = (X'X + lam*D)^-1 X'y.

    A = X'X + lam*D must admit a Cholesky factor. At lam = 0 the design
    must also pass ``fit_ols``'s rank check: round-off can let a singular
    X'X factor. Either failure raises NumericalFailure.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    X, y = problem.X, problem.y
    n, p = X.shape
    if n < p + 1:
        raise TooFewRows(f"{n} rows cannot support {p} coefficients")
    if lam == 0:
        _check_rank(X, NumericalFailure)
    xtx = X.T @ X
    # asarray_chkfinite keeps cho_factor's and cho_solve's ValueError on
    # non-finite input; clean=0 leaves the lower triangle as cho_factor does.
    factor, info = sla.lapack.dpotrf(
        np.asarray_chkfinite(xtx + lam * _penalty(p, penalize_intercept)), clean=0
    )
    if info > 0:
        raise NumericalFailure(
            f"ridge solve failed: {info}-th leading minor of the array is not positive definite"
        )
    coeffs = sla.lapack.dpotrs(factor, np.asarray_chkfinite(X.T @ y))[0]
    a_inv = sla.lapack.dpotrs(factor, np.eye(p))[0]
    if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(a_inv))):
        raise NumericalFailure("ridge solve produced non-finite values")
    cov_unscaled = a_inv @ xtx @ a_inv
    return _finish_fit(X, y, coeffs, cov_unscaled, lam=lam)


def ridge_coefficients(
    gram: np.ndarray, xty: np.ndarray, lambdas, penalize_intercept: bool = True
) -> np.ndarray:
    """Solve (X'X + lam*D) b = X'y for each penalty in ``lambdas``, in one batched solve.

    ``gram`` is X'X and ``xty`` X'y, or a stack of them (..., p, p) and
    (..., p); the result holds one coefficient row per penalty, (..., penalties, p).
    """
    penalty = _penalty(gram.shape[-1], penalize_intercept)
    A = gram[..., None, :, :] + np.asarray(lambdas, dtype=float)[:, None, None] * penalty
    try:
        coeffs = np.linalg.solve(A, xty[..., None, :, None])[..., 0]
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
    """Yield (X_train, y_train, X_val, y_val) per contiguous fold, in order; val rows are views."""
    n = X.shape[0]
    if n < folds:
        raise TooFewRows(f"{n} rows cannot fill {folds} folds")
    for idx in contiguous_folds(n, folds):
        a, b = idx[0], idx[-1] + 1
        yield np.concatenate((X[:a], X[b:])), np.concatenate((y[:a], y[b:])), X[a:b], y[a:b]


@dataclass
class LambdaSearch:
    """Cross-validation trace over the penalty grid.

    ``cv_errors`` holds the exact stacked-solve score at every penalty the
    screen could not rule out, unless only one was left; the screened score
    elsewhere (see ``select_lambda``).
    """

    grid: np.ndarray
    cv_errors: np.ndarray  # mean validation MSE per grid point
    lambda_hat: float  # first argmin of the exact scores; ties go to the smaller penalty


def _exact_cv_errors(
    gram: np.ndarray, xty: np.ndarray, val_rows: list, lambdas, penalize_intercept: bool
) -> np.ndarray:
    """Mean validation MSE per penalty from one stacked ``ridge_coefficients`` solve."""
    coeffs = ridge_coefficients(gram, xty, lambdas, penalize_intercept)
    # Summed per penalty in fold order, as a per-(lambda, fold) loop would; the stacked
    # products run one gemv and one dot per penalty, so each term keeps its bits.
    cv_errors = np.zeros(len(lambdas))
    for fold_coeffs, (X_val, y_val) in zip(coeffs, val_rows):
        resid = X_val @ fold_coeffs[:, :, None]  # penalties x rows x 1
        np.subtract(y_val[:, None], resid, out=resid)
        cv_errors += (resid.mT @ resid)[:, 0, 0] / len(y_val)
    return cv_errors / len(val_rows)


def _screen_cv_errors(
    gram: np.ndarray, xty: np.ndarray, val_rows: list, grid: np.ndarray, penalize_intercept: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Screened mean validation MSE per penalty and its error bound (``select_lambda``).

    One ``eigh`` of the stacked fold matrices gives every penalty's
    coefficients; with a free intercept the intercept is profiled out first.
    Non-finite input makes both NaN.
    """
    folds, p = xty.shape
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        if penalize_intercept:
            S, r = gram, xty
        else:
            g00, g10 = gram[:, :1, 0], gram[:, 1:, 0]
            S = gram[:, 1:, 1:] - g10[:, :, None] * (g10[:, None, :] / g00[:, :, None])
            r = xty[:, 1:] - g10 * (xty[:, :1] / g00)
        if not np.isfinite(S.sum() + r.sum()):  # non-finite input, or an overflow
            return np.full(len(grid), np.nan), np.full(len(grid), np.nan)
        e, V = np.linalg.eigh(S)
        b = V @ ((V.mT @ r[:, :, None]) / (e[:, :, None] + grid))  # folds x q x penalties
        floor = np.maximum(e[:, :1], 0.0) + grid
        if penalize_intercept:
            # A Gram matrix's largest eigenvalue is its largest in magnitude.
            kappa = (e[:, -1:] + grid) / floor
        else:
            b0 = (xty[:, :1] - (g10[:, None, :] @ b)[:, 0]) / g00
            b = np.concatenate((b0[:, None, :], b), axis=1)
            lift = (1.0 + np.linalg.norm(g10, axis=1, keepdims=True) / g00) ** 2
            trace = np.trace(gram, axis1=1, axis2=2)[:, None]
            kappa = (trace + (p - 1) * grid) * lift * np.maximum(1.0 / g00, 1.0 / floor)
        sse, val_norm = np.empty((folds, len(grid))), np.empty(folds)
        for k, (X_val, y_val) in enumerate(val_rows):
            resid = X_val @ b[k]
            resid -= y_val[:, None]
            np.einsum("ij,ij->j", resid, resid, out=sse[k])
            val_norm[k] = np.linalg.norm(X_val)
        n_val = np.array([len(y_val) for _, y_val in val_rows], dtype=float)[:, None]
        b_norm = np.sqrt(np.einsum("kql,kql->kl", b, b))
        delta = (SCREEN_SAFETY * p * eps * val_norm)[:, None] * kappa * b_norm
        bound = (2.0 * np.sqrt(sse) + delta) * delta / n_val + SCREEN_SAFETY * eps * sse
    return (sse / n_val).sum(axis=0) / folds, bound.sum(axis=0) / folds


def select_lambda(
    X: np.ndarray,
    y: np.ndarray,
    folds: int = 5,
    grid: np.ndarray | None = None,
    penalize_intercept: bool = True,
) -> LambdaSearch:
    """Pick the penalty minimizing mean K-fold validation MSE.

    Folds are contiguous blocks of the (time-ordered) pooled rows. A
    penalty's exact score is what one stacked ``ridge_coefficients`` solve
    and its per-fold residual products give (``_exact_cv_errors``).
    lambda_hat is the first argmin of the exact scores over the grid, so on
    an ascending grid ties go to the smaller penalty. The search gets there
    in three steps:

    - Screen. One ``eigh`` per training fold, G = V diag(e) V', gives every
      penalty's coefficients b = V diag(1/(e + lam)) V' X'y. With a free
      intercept (D != I) the intercept is profiled out first, for any first
      column: e and V are those of the Schur complement
      S = G11 - g10 g01 / g00, which gives b1 from (S + lam I) b1 =
      r1 - g10 r0 / g00 and then b0 = (r0 - g01 b1) / g00, with r = X'y.
    - Bound. B_lam is the mean over folds of
      (2 sqrt(n_k m_k) d_k + d_k^2) / n_k + c eps n_k m_k, where fold k has
      n_k validation rows and screened MSE m_k, and
      d_k = c p eps ||X_val,k||_F kappa_k ||b_k|| is a first-order bound on
      how far either way's validation residuals lie from exact ones
      (eps is machine epsilon, c = ``SCREEN_SAFETY``). kappa_k is the
      condition number of G + lam D: (e_max + lam) / (max(e_min, 0) + lam)
      with D = I, and with a free intercept the upper bound
      (tr G + (p - 1) lam) (1 + ||g10|| / g00)^2 max(1 / g00, 1 / (max(e_min, 0) + lam)).
    - Confirm. The candidates are the penalties whose screened score less
      B_lam is at most the least screened score plus B over the grid; a
      penalty whose score or bound is not finite is always one. Only the
      candidates get their exact score, and lambda_hat is the first argmin
      among them. A lone candidate is lambda_hat without an exact score
      when its penalty is positive and its bound finite: the bound has
      ruled out every other penalty, and G + lam D is positive definite
      there (a finite bound has g00 > 0), so the skipped solve cannot fail.

    ``cv_errors`` holds the exact scores at the re-scored candidates and
    the screened ones elsewhere. When every training fold's X'y is exactly
    zero, every penalty's coefficients are exactly zero, so the exact score at
    ``grid[0]`` is every penalty's and no screen runs. Non-finite input, or
    a zero first column in a training fold with a free intercept, screens
    nothing: every penalty gets the exact solve, and so its NumericalFailure.
    """
    grid = default_lambda_grid() if grid is None else np.asarray(grid, dtype=float)
    n = X.shape[0]
    if n < MIN_ROWS_PER_FOLD * folds:
        raise TooFewRows(
            f"{n} rows give fewer than {MIN_ROWS_PER_FOLD} per fold with {folds} folds"
        )
    grams, xtys, val_rows = [], [], []
    for X_train, y_train, X_val, y_val in fold_rows(X, y, folds):
        grams.append(X_train.T @ X_train)
        xtys.append(X_train.T @ y_train)
        val_rows.append((X_val, y_val))
    gram, xty = np.array(grams), np.array(xtys)
    if not np.any(xty):
        cv_errors = np.repeat(
            _exact_cv_errors(gram, xty, val_rows, grid[:1], penalize_intercept), len(grid)
        )
        candidates = np.arange(len(grid))
    else:
        cv_errors, bound = _screen_cv_errors(gram, xty, val_rows, grid, penalize_intercept)
        # NaN compares false, so a penalty whose screen is not finite stays a candidate.
        candidates = np.flatnonzero(~(cv_errors - bound > np.fmin.reduce(cv_errors + bound)))
        lone = candidates[0]
        if len(candidates) > 1 or not (grid[lone] > 0 and np.isfinite(bound[lone])):
            cv_errors[candidates] = _exact_cv_errors(
                gram, xty, val_rows, grid[candidates], penalize_intercept
            )
    if not np.all(np.isfinite(cv_errors)):
        raise NumericalFailure("non-finite cross-validation error encountered")
    best = candidates[int(np.argmin(cv_errors[candidates]))]
    return LambdaSearch(grid=grid, cv_errors=cv_errors, lambda_hat=float(grid[best]))


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
