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
the first argmin of the exact scores (``select_lambda``).

``select_lambdas`` and ``fit_windows`` run many windows through one block
runner, ``_by_block``: windows of one design shape are stacked in list
order, at most ``SCREEN_BLOCK`` at a time; a block whose stacked call fails
runs again one window at a time, so that each window gets its own result or
error; and one rule, ``_raise_first``, raises the first error in list order
(``fit_windows`` gives None for a rank-deficient OLS window instead). A
search block scores every penalty its screens leave open in one stacked
solve. A fit block takes the Gram matrices, the OLS inverses, the ridge
Cholesky factors, the residuals and the fit statistics from one stacked call
each, with the bits of each window's own fit (``fit_ols``, ``fit_ridge``).
OLS runs ``lstsq`` window by window and takes the rank check from the
singular values it returns, with an SVD only near the cutoff. Every ridge
factor comes from one stacked ``np.linalg.cholesky``, and each window solves
with one call of ``dpotrs``, the LAPACK routine that ``scipy.linalg.cho_solve``
wraps, on [X'y | I]; ``dpotrf`` runs only to name a lone window's failure.

``nested_coefficients`` fits every leading block of columns of a design,
each depth of a nested model, from one triangular factor: a QR for OLS, a
Cholesky factor for ridge. ``nested_adj_r2`` builds evaluate's R^2 curve on
it, and leaves the designs that do not nest to ``fit_windows`` at each depth.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import special

from .errors import DegenerateColumn, NumericalFailure, RankDeficient, TooFewRows
from .sampling import RegressionProblem

#: Relative singular-value cutoff for the OLS rank check.
RANK_RTOL = 1e-10

#: A design nests (``nested_coefficients``) when the matrix its per-depth fit
#: works on, X for OLS and X'X + lam*D for ridge, has its smallest singular
#: value above this multiple of RANK_RTOL times its largest. Dropping columns
#: (a leading block) can neither lower the smallest nor raise the largest, so
#: every depth of such a design passes the OLS rank check with a margin far
#: beyond round-off; a design under it takes the per-depth path.
NEST_RTOL = 100 * RANK_RTOL

#: Penalty grid: 50 log-spaced candidates spanning 1e-5 .. 1e5.
LAMBDA_GRID_SIZE = 50
LAMBDA_GRID_LO = 1e-5
LAMBDA_GRID_HI = 1e5

#: Penalty selection needs at least this many rows in every CV fold.
MIN_ROWS_PER_FOLD = 10

#: Safety factor on the penalty screen's first-order error bound.
SCREEN_SAFETY = 10.0

#: Windows per stacked block in ``select_lambdas`` and ``fit_windows``. A
#: block's arrays grow with its windows: on the 330 one-minute windows of a ZI
#: day at 10 levels, one screen block of all 330 added 16.4 MiB of peak RSS,
#: blocks of 32 none (2.5 MiB traced), and blocks of 16/32/64 searched the day
#: in 76-78/56-61/56-61 ms.
SCREEN_BLOCK = 32


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


def _blocks(
    windows: Sequence[tuple[np.ndarray, np.ndarray]],
) -> Iterator[tuple[list[int], np.ndarray, np.ndarray]]:
    """(indices, X, y) for each block of the (X, y) windows: windows of one design
    shape in list order, at most ``SCREEN_BLOCK`` of them, X (windows x rows x p)
    and y (windows x rows) stacked; a lone window's stack is a view of it."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (X, _) in enumerate(windows):
        groups.setdefault(X.shape, []).append(i)
    for members in groups.values():
        for start in range(0, len(members), SCREEN_BLOCK):
            block = members[start : start + SCREEN_BLOCK]
            if len(block) == 1:
                X, y = windows[block[0]]
                yield block, X[None], y[None]
            else:
                X = np.stack([windows[i][0] for i in block])
                yield block, X, np.stack([windows[i][1] for i in block])


def _by_block(
    windows: Sequence[tuple[np.ndarray, np.ndarray]],
    run: Callable[[list[int], np.ndarray, np.ndarray], list],
) -> list:
    """Every window's result or error, in list order, from ``run(indices, X, y)``
    on each block of ``_blocks``, which gives one result or error per window.

    A block whose stacked call raises LinAlgError or NumericalFailure runs again
    one window at a time, so that each window gets its own result or error; a
    block of one window keeps the error it raised.
    """
    results: list = [None] * len(windows)
    for block, X, y in _blocks(windows):
        try:
            out = run(block, X, y)
        except (np.linalg.LinAlgError, NumericalFailure) as exc:
            if len(block) == 1:
                out = [exc]
            else:
                out = []
                for k, i in enumerate(block):
                    try:
                        out += run([i], X[k : k + 1], y[k : k + 1])
                    except (np.linalg.LinAlgError, NumericalFailure) as err:
                        out.append(err)
        for i, result in zip(block, out):
            results[i] = result
    return results


def _raise_first(results: list, left_out: tuple[type[Exception], ...] = ()) -> list:
    """The results, with None for each error of a ``left_out`` kind; any other
    error raises, the first in list order."""
    for result in results:
        if isinstance(result, Exception) and not isinstance(result, left_out):
            raise result
    return [None if isinstance(result, Exception) else result for result in results]


def _penalty(p: int, penalize_intercept: bool) -> np.ndarray:
    """The penalty matrix D: the identity, less the intercept's 1 when it goes free."""
    penalty = np.eye(p)
    if not penalize_intercept:
        penalty[0, 0] = 0.0
    return penalty


def _sst(y: np.ndarray) -> np.ndarray:
    """Each window's total sum of squares about its mean, y (windows x rows)."""
    return np.sum((y - y.mean(axis=-1, keepdims=True)) ** 2, axis=-1)


def _r2(sse: np.ndarray, sst: np.ndarray, n: int, dof) -> tuple[np.ndarray, np.ndarray]:
    """R^2 and adjusted R^2. A flat response (SST = 0) has R^2 1 when its fit
    is exact (SSE at most 1e-300), else 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(sst > 0.0, 1.0 - sse / sst, np.where(sse <= 1e-300, 1.0, 0.0))
    return r2, 1.0 - (1.0 - r2) * (n - 1) / dof


def _finish_fits(
    X: np.ndarray, y: np.ndarray, coeffs: np.ndarray, cov_unscaled: np.ndarray, lams: list
) -> list[RegressionFit]:
    """Residual variance, SEs, t, p and R^2 of a stack of fits, X (windows x rows x p).

    Each stacked product keeps the bits of its one-window form: the
    residuals come from one matrix-vector product per window, the SSE from
    one dot, and the mean and SST are taken along contiguous rows.
    """
    _, n, p = X.shape
    dof = n - p
    resid = y - (X @ coeffs[..., None])[..., 0]
    sse = (resid[:, None, :] @ resid[..., None])[:, 0, 0]
    sigma2 = sse / dof
    var = sigma2[:, None] * np.diagonal(cov_unscaled, axis1=-2, axis2=-1)
    se = np.sqrt(np.maximum(var, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, coeffs / se, 0.0)
        pvals = 2.0 * special.stdtr(dof, -np.abs(t))
    r2, adj_r2 = _r2(sse, _sst(y), n, dof)
    return [
        RegressionFit(
            coeffs[k], se[k], t[k], pvals[k], float(sigma2[k]), float(r2[k]),
            float(adj_r2[k]), lam, dof,
        )
        for k, lam in enumerate(lams)
    ]


def _rank_check(X: np.ndarray, ks: list[int], error: type, results: list) -> None:
    """Give each window of ``ks`` whose X has smallest over largest singular value at
    most ``RANK_RTOL`` that error, from one stacked SVD; a non-finite X raises LinAlgError."""
    if not ks:
        return
    svals = np.linalg.svd(X if len(ks) == len(X) else X[ks], compute_uv=False)
    for k, (smax, smin) in zip(ks, svals[:, [0, -1]]):
        if smin <= RANK_RTOL * smax:
            results[k] = error(
                f"design matrix numerically singular (smin/smax = {smin / smax:.3e})"
            )


def _fit_block(
    X: np.ndarray, y: np.ndarray, lams: list | None, penalize_intercept: bool
) -> list[RegressionFit | Exception]:
    """The fits of a stack of windows, X (windows x rows x p) and y (windows x rows).

    ``lams`` holds each window's penalty, or is None for OLS. A window whose
    fit fails gets its error in its place. A stacked LAPACK call that fails
    (non-finite input, an exactly singular X'X, a ridge system that does not
    factor) raises LinAlgError for the block, unless one ridge window is left
    to name its own error.
    """
    w, n, p = X.shape
    results: list[RegressionFit | Exception | None] = [None] * w
    for k in range(w):
        if lams is not None and lams[k] < 0:
            results[k] = ValueError("lambda must be >= 0")
        elif n < p + 1:
            results[k] = TooFewRows(f"{n} rows cannot support {p} coefficients")
    live = [k for k in range(w) if results[k] is None]
    if lams is None:
        # lstsq's singular values pass a window that clears the rank check twice
        # over; round-off cannot part them from the SVD's that far. The SVD checks
        # the rest: it raises first on a non-finite X, as the one-window fit does,
        # and fails an X with a zero column, on which lstsq would be wasted.
        solved, tried = {}, np.isfinite(X).all(axis=(1, 2)) & X.any(axis=1).all(axis=1)
        for k in [k for k in live if tried[k]]:
            try:
                coeffs, _, _, s = np.linalg.lstsq(X[k], y[k], rcond=None)
            except np.linalg.LinAlgError:
                continue
            if s[-1] > 2 * RANK_RTOL * s[0]:
                solved[k] = coeffs
        _rank_check(X, [k for k in live if k not in solved], RankDeficient, results)
    else:
        # At lam = 0 round-off can let a singular X'X factor.
        _rank_check(X, [k for k in live if lams[k] == 0], NumericalFailure, results)
    live = [k for k in live if results[k] is None]
    if not live:
        return results
    if len(live) < w:
        X, y = X[live], y[live]
    gram = X.mT @ X
    if lams is None:
        coeffs = np.stack([solved[k] if k in solved else np.linalg.lstsq(X[j], y[j], rcond=None)[0]
                           for j, k in enumerate(live)])
        cov_unscaled = np.linalg.inv(gram)
    else:
        penalty = _penalty(p, penalize_intercept)
        A = gram + np.array([lams[k] for k in live], dtype=float)[:, None, None] * penalty
        xty = X.mT @ y[..., None]
        try:
            # np.linalg.cholesky's upper triangle is dpotrf's, bit for bit. Non-finite
            # input, or a window that does not factor, fails the whole stack.
            if not (np.isfinite(A).all() and np.isfinite(xty).all()):
                raise np.linalg.LinAlgError("non-finite input")
            factors = np.linalg.cholesky(A, upper=True)
        except np.linalg.LinAlgError:
            if len(live) > 1:
                raise
            # One window names its failure as cho_factor, then cho_solve, would:
            # asarray_chkfinite gives their ValueError on non-finite input, and
            # dpotrf's info the text of an A that does not factor.
            try:
                info = sla.lapack.dpotrf(np.asarray_chkfinite(A[0]), clean=0)[1]
                if info == 0:  # A factors, so X'y is what is not finite
                    np.asarray_chkfinite(xty[0])
                results[live[0]] = NumericalFailure(
                    f"ridge solve failed: {info}-th leading minor of the array is not "
                    "positive definite"
                )
            except ValueError as exc:
                results[live[0]] = exc
            return results
        # One dpotrs on [X'y | I] gives b and A^-1 with the bits of two separate calls,
        # in Fortran order: row 0 of the transpose is b.
        rhs = np.concatenate((xty, np.broadcast_to(np.eye(p), A.shape)), axis=-1)
        solutions = np.stack([sla.lapack.dpotrs(f, b)[0].T for f, b in zip(factors, rhs)])
        finite = np.isfinite(solutions).all(axis=(1, 2))
        for k in np.array(live)[~finite]:
            results[k] = NumericalFailure("ridge solve produced non-finite values")
        if not finite.all():
            if not finite.any():
                return results
            live = [k for k, ok in zip(live, finite) if ok]
            X, y, gram, solutions = X[finite], y[finite], gram[finite], solutions[finite]
        # Each A^-1 keeps its Fortran layout in the stack, so the products see the
        # strides that the one-window form gives them.
        coeffs, a_inv = solutions[:, 0], solutions[:, 1:].mT
        cov_unscaled = a_inv @ gram @ a_inv
    lams_live = [0.0] * len(live) if lams is None else [lams[k] for k in live]
    for k, fit in zip(live, _finish_fits(X, y, coeffs, cov_unscaled, lams_live)):
        results[k] = fit
    return results


def _fit_windows(
    problems: Sequence[RegressionProblem], lambdas: Sequence[float] | None, penalize_intercept: bool
) -> list[RegressionFit | Exception]:
    """Every window's fit or error, in list order, from ``_fit_block`` on each block."""

    def run(block: list[int], X: np.ndarray, y: np.ndarray) -> list[RegressionFit | Exception]:
        lams = None if lambdas is None else [lambdas[i] for i in block]
        return _fit_block(X, y, lams, penalize_intercept)

    return _by_block([(problem.X, problem.y) for problem in problems], run)


def fit_windows(
    problems: Sequence[RegressionProblem],
    lambdas: Sequence[float] | None = None,
    penalize_intercept: bool = True,
) -> list[RegressionFit | None]:
    """OLS fits of the windows (``lambdas`` None), or ridge fits at one penalty each.

    The windows run in the blocks of ``_by_block``. Per block the Gram
    matrices, the OLS inverses, the ridge Cholesky factors (lone windows
    included), the residuals, SSE and SST and the p-values each come from one
    stacked call; ``lstsq``, whose singular values give the OLS rank check, and
    one LAPACK ``dpotrs`` per ridge window run window by window. Each fit
    equals the one-window fit, bit for bit (``fit_ols``, ``fit_ridge``).

    An OLS window that fails the rank check gives None. Otherwise the first
    window in list order whose fit fails raises that fit's error once every
    block has run (``_raise_first``).
    """
    return _raise_first(_fit_windows(problems, lambdas, penalize_intercept), (RankDeficient,))


def fit_ols(problem: RegressionProblem) -> RegressionFit:
    """Least-squares fit by ``lstsq``, with an explicit rank check.

    X must have at least p + 1 rows (TooFewRows) and pass the rank check,
    smallest over largest singular value above ``RANK_RTOL`` (RankDeficient),
    from ``lstsq``'s singular values or, within a factor 2 of the cutoff or
    for non-finite X, from an SVD. The one-window case of ``fit_windows``.
    """
    return _raise_first(_fit_windows([problem], None, True))[0]


def fit_ridge(
    problem: RegressionProblem, lam: float, penalize_intercept: bool = True
) -> RegressionFit:
    """Closed-form penalized fit b = (X'X + lam*D)^-1 X'y.

    A = X'X + lam*D must admit a Cholesky factor. At lam = 0 the design
    must also pass ``fit_ols``'s rank check: round-off can let a singular
    X'X factor. Either failure raises NumericalFailure. The one-window case
    of ``fit_windows``.
    """
    return _raise_first(_fit_windows([problem], [lam], penalize_intercept))[0]


def nested_coefficients(
    X: np.ndarray, y: np.ndarray, lam: float | None, penalize_intercept: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """The fits on every leading block of columns of a stack of designs, one
    factorization per design.

    X is (windows x rows x p) and y (windows x rows). OLS (``lam`` None)
    takes one QR of [X y], whose triangle holds R and z = Q'y. Ridge takes one
    Cholesky factor L L' = X'X + lam*D, with R = L' and z = L^-1 X'y. The
    factor of the first j columns' problem is R's leading j x j block, and the
    inverse of that block is the leading block of R^-1 (Hoerl & Kennard 1970
    for ridge). So the fit on the first j columns is
    b_j[i] = sum_{k<j} R^-1[i, k] z[k], and one cumsum over k gives every j.

    Returns (B, ok). Row j - 1 of B (windows x p x p) holds the fit on the
    first j columns, zero beyond them. A window is ok when its input is
    finite, it has more rows than columns, the factor exists (lam > 0 for
    ridge, and every window of the stack has a Cholesky factor), X (OLS, with
    R's singular values) or R'R (ridge, their squares) passes ``NEST_RTOL``,
    and B is finite; B holds zeros for the rest.
    """
    w, n, p = X.shape
    B = np.zeros((w, p, p))
    ok = np.isfinite(X).all(axis=(1, 2)) & np.isfinite(y).all(axis=1)
    if n <= p or not (lam is None or lam > 0):
        ok[:] = False
    live = np.flatnonzero(ok)
    if not len(live):
        return B, ok
    X, y = X[live], y[live]
    try:
        if lam is None:
            triangle = np.linalg.qr(np.concatenate((X, y[..., None]), axis=-1), mode="r")
            R, z = triangle[:, :p, :p], triangle[:, :p, p]
        else:
            R = np.linalg.cholesky(X.mT @ X + lam * _penalty(p, penalize_intercept)).mT
            z = (X.mT @ y[..., None])[..., 0]  # X'y until R^-1 is known
        svals = np.linalg.svd(R, compute_uv=False)
    except np.linalg.LinAlgError:
        # A Cholesky failure, or an SVD of values that overflowed: nothing nests.
        ok[:] = False
        return B, ok
    power = 1 if lam is None else 2
    good = svals[:, -1] ** power > NEST_RTOL * svals[:, 0] ** power
    ok[live] = good
    if not good.any():
        return B, ok
    live, R, z = live[good], R[good], z[good]
    R_inv = np.linalg.inv(R)
    if lam is not None:
        z = (R_inv.mT @ z[..., None])[..., 0]
    with np.errstate(all="ignore"):
        fits = np.cumsum(R_inv.mT * z[..., None], axis=-2)
    finite = np.isfinite(fits).all(axis=(1, 2))
    ok[live] = finite
    B[live[finite]] = fits[finite]
    return B, ok


def nested_adj_r2(
    problems: Sequence[RegressionProblem], lam: float | None, penalize_intercept: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Each window's adjusted R^2 at every depth 1..M, M the problems' common depth.

    Returns (adj_r2, kept), both (windows x M): kept is False where
    ``fit_windows`` at that depth leaves the window out (rank-deficient OLS),
    and adj_r2 is 0 there. Windows of one design shape are stacked, at most
    ``SCREEN_BLOCK`` at a time, and fit at every depth by
    ``nested_coefficients``: one GEMM gives every depth's residuals, and R^2
    follows ``fit_windows``' rule, its SST = 0 case included. A window that
    does not nest is fit by ``fit_windows`` at each depth in turn, so the
    windows left out and the errors raised are those of one ``fit_windows``
    call per depth.
    """
    depth = problems[0].levels
    adj_r2 = np.zeros((len(problems), depth))
    kept = np.zeros((len(problems), depth), dtype=bool)
    rest = []
    for block, X, y in _blocks([(problem.X, problem.y) for problem in problems]):
        B, ok = nested_coefficients(X, y, lam, penalize_intercept)
        rest += [i for i, nests in zip(block, ok) if not nests]
        if not ok.any():
            continue
        X, y, B = X[ok], y[ok], B[ok, 1:]
        _, n, p = X.shape
        # Row j of a window's residuals is the fit on its first j + 2 columns: depth j + 1.
        resid = y[:, None, :] - B @ X.mT
        sse = np.sum(resid * resid, axis=-1)
        _, adj = _r2(sse, _sst(y)[:, None], n, n - np.arange(2, p + 1))
        nested = [i for i, nests in zip(block, ok) if nests]
        adj_r2[nested], kept[nested] = adj, True
    if rest:
        rest.sort()  # list order, so that the first window to fail raises, as in one call
        lambdas = None if lam is None else [lam] * len(rest)
        for m in range(1, depth + 1):
            fits = fit_windows([problems[i].truncated(m) for i in rest], lambdas,
                               penalize_intercept)
            for i, fit in zip(rest, fits):
                if fit is not None:
                    adj_r2[i, m - 1], kept[i, m - 1] = fit.adj_r2, True
    return adj_r2, kept


def ridge_coefficients(
    gram: np.ndarray, xty: np.ndarray, lambdas, penalize_intercept: bool = True
) -> np.ndarray:
    """Solve (X'X + lam*D) b = X'y for each penalty in ``lambdas``, in one batched solve.

    ``gram`` is X'X and ``xty`` X'y, or a stack of them (..., p, p) and
    (..., p); the result holds one coefficient row per penalty, (..., penalties, p).
    ``lambdas`` is one list of penalties for every system, or an array (..., penalties)
    that broadcasts against the stack.
    """
    penalty = _penalty(gram.shape[-1], penalize_intercept)
    A = gram[..., None, :, :] + np.asarray(lambdas, dtype=float)[..., None, None] * penalty
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
    """Yield (X_train, y_train, X_val, y_val) per contiguous fold, in order; val rows are views.

    The rows run along X's second-to-last axis and y's last, so a stack of
    windows with equal row counts splits in one pass.
    """
    n = X.shape[-2]
    if n < folds:
        raise TooFewRows(f"{n} rows cannot fill {folds} folds")
    for idx in contiguous_folds(n, folds):
        a, b = idx[0], idx[-1] + 1
        yield (
            np.concatenate((X[..., :a, :], X[..., b:, :]), axis=-2),
            np.concatenate((y[..., :a], y[..., b:]), axis=-1),
            X[..., a:b, :],
            y[..., a:b],
        )


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
    gram: np.ndarray, xty: np.ndarray, val_rows: list, lambdas: np.ndarray, penalize_intercept: bool
) -> np.ndarray:
    """Each window's mean validation MSE at each of its penalties, ``lambdas``
    (windows x slots, NaN in a slot left empty), from one stacked ``ridge_coefficients``
    solve over every (window, penalty) pair and per fold one stacked residual product.

    ``gram`` (windows x folds x p x p) and ``xty`` (windows x folds x p) stack the
    training folds' X'X and X'y, and ``val_rows`` each fold's validation (X, y).
    """
    pairs = np.nonzero(~np.isnan(lambdas))
    coeffs = np.zeros(lambdas.shape + xty.shape[-2:])  # windows x slots x folds x p
    coeffs[pairs] = ridge_coefficients(
        gram[pairs[0]], xty[pairs[0]], lambdas[pairs][:, None, None], penalize_intercept
    )[:, :, 0]
    # Summed per penalty in fold order, as a per-(lambda, fold) loop would; the stacked
    # products run one gemv and one dot per pair, so each term keeps its bits.
    cv_errors = np.zeros(lambdas.shape)
    for k, (X_val, y_val) in enumerate(val_rows):
        resid = X_val[:, None] @ coeffs[:, :, k, :, None]  # windows x slots x rows x 1
        np.subtract(y_val[:, None, :, None], resid, out=resid)
        cv_errors += (resid.mT @ resid)[..., 0, 0] / y_val.shape[-1]
    return cv_errors / len(val_rows)


def _take(gram: np.ndarray, xty: np.ndarray, val_rows: list, keep: np.ndarray) -> tuple:
    """The stacked search inputs of the windows ``keep`` selects."""
    return gram[keep], xty[keep], [(X_val[keep], y_val[keep]) for X_val, y_val in val_rows]


def _screen_cv_errors(
    gram: np.ndarray, xty: np.ndarray, val_rows: list, grid: np.ndarray, penalize_intercept: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Each window's screened mean validation MSE per penalty and its error bound.

    ``gram`` (windows x folds x p x p) and ``xty`` (windows x folds x p)
    stack the windows' training-fold X'X and X'y, and ``val_rows`` each
    fold's stacked validation rows. One ``eigh`` of all the fold matrices
    gives every penalty's coefficients; with a free intercept the intercept
    is profiled out first (see ``select_lambda``). A window whose input is
    not finite gets NaN in both and stays out of that ``eigh``, where it
    would fail the whole stack.
    """
    windows, folds, p = xty.shape
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        if penalize_intercept:
            S, r = gram, xty
        else:
            g00, g10 = gram[..., :1, 0], gram[..., 1:, 0]
            S = gram[..., 1:, 1:] - g10[..., :, None] * (g10[..., None, :] / g00[..., :, None])
            r = xty[..., 1:] - g10 * (xty[..., :1] / g00)
        # Non-finite input, an overflow, or a zero first column under a free intercept.
        finite = np.isfinite(
            S.reshape(windows, -1).sum(axis=1) + r.reshape(windows, -1).sum(axis=1)
        )
        if not finite.all():
            cv_errors, bound = np.full((2, windows, len(grid)), np.nan)
            if finite.any():
                cv_errors[finite], bound[finite] = _screen_cv_errors(
                    *_take(gram, xty, val_rows, finite), grid, penalize_intercept
                )
            return cv_errors, bound
        e, V = np.linalg.eigh(S)
        # windows x folds x q x penalties
        b = V @ ((V.mT @ r[..., None]) / (e[..., None] + grid))
        floor = np.maximum(e[..., :1], 0.0) + grid
        if penalize_intercept:
            # A Gram matrix's largest eigenvalue is its largest in magnitude.
            kappa = (e[..., -1:] + grid) / floor
        else:
            b0 = (xty[..., :1] - (g10[..., None, :] @ b)[..., 0, :]) / g00
            b = np.concatenate((b0[..., None, :], b), axis=-2)
            lift = (1.0 + np.linalg.norm(g10, axis=-1, keepdims=True) / g00) ** 2
            trace = np.trace(gram, axis1=-2, axis2=-1)[..., None]
            kappa = (trace + (p - 1) * grid) * lift * np.maximum(1.0 / g00, 1.0 / floor)
        sse, val_norm = np.empty((windows, folds, len(grid))), np.empty((windows, folds))
        for k, (X_val, y_val) in enumerate(val_rows):
            resid = X_val @ b[:, k]
            resid -= y_val[..., None]
            np.einsum("wij,wij->wj", resid, resid, out=sse[:, k])
            # Each window's ||X_val||_F from one dot, as np.linalg.norm takes it.
            flat = X_val.reshape(windows, 1, -1)
            val_norm[:, k] = np.sqrt((flat @ flat.mT)[:, 0, 0])
        n_val = np.array([y_val.shape[-1] for _, y_val in val_rows], dtype=float)[:, None]
        b_norm = np.sqrt(np.einsum("wkql,wkql->wkl", b, b))
        delta = (SCREEN_SAFETY * p * eps * val_norm)[..., None] * kappa * b_norm
        bound = (2.0 * np.sqrt(sse) + delta) * delta / n_val + SCREEN_SAFETY * eps * sse
    return (sse / n_val).sum(axis=1) / folds, bound.sum(axis=1) / folds


def _search_block(
    X: np.ndarray, y: np.ndarray, folds: int, grid: np.ndarray, penalize_intercept: bool
) -> list[LambdaSearch | NumericalFailure]:
    """The penalty searches of a stack of windows, X (windows x rows x p) and y (windows x rows).

    One stacked solve scores every penalty left open in the block, and raises
    NumericalFailure for the block if it fails. A window whose cross-validation
    error is not finite gets NumericalFailure in its place.
    """
    grams, xtys, val_rows = [], [], []
    for X_train, y_train, X_val, y_val in fold_rows(X, y, folds):
        grams.append(X_train.mT @ X_train)
        xtys.append((X_train.mT @ y_train[..., None])[..., 0])
        val_rows.append((X_val, y_val))
    gram, xty = np.stack(grams, axis=1), np.stack(xtys, axis=1)
    windows = len(xty)
    # A flat window's X'y is zero in every training fold: it runs no screen.
    live = np.any(xty.reshape(windows, -1), axis=1)
    cv_errors, bound = np.full((2, windows, len(grid)), np.nan)
    if live.any():
        inputs = (gram, xty, val_rows) if live.all() else _take(gram, xty, val_rows, live)
        cv_errors[live], bound[live] = _screen_cv_errors(*inputs, grid, penalize_intercept)
    with np.errstate(invalid="ignore"):
        # NaN compares false, so a penalty whose screen is not finite stays a candidate.
        candidates = ~(cv_errors - bound > np.fmin.reduce(cv_errors + bound, axis=1, keepdims=True))
    first = candidates.argmax(axis=1)
    lone = ((candidates.sum(axis=1) == 1) & (grid[first] > 0)
            & np.isfinite(bound[np.arange(windows), first]))
    # The penalties each window scores exactly: none for a lone candidate, and only
    # grid[0] for a flat window, whose coefficients are zero at every penalty.
    rescore = candidates & ~lone[:, None]
    rescore[~live, 1:] = False
    if rescore.any():
        # Each scoring window's penalties fill its leading slots; NaN pads the rest.
        rows = np.flatnonzero(rescore.any(axis=1))
        pairs = np.nonzero(rescore[rows])
        counts = rescore[rows].sum(axis=1)
        filled = np.arange(counts.max()) < counts[:, None]
        lambdas = np.full(filled.shape, np.nan)
        lambdas[filled] = grid[pairs[1]]
        inputs = (gram, xty, val_rows) if len(rows) == windows else _take(gram, xty, val_rows, rows)
        scores = _exact_cv_errors(*inputs, lambdas, penalize_intercept)
        cv_errors[rows[pairs[0]], pairs[1]] = scores[filled]
    cv_errors[~live] = cv_errors[~live, :1]  # grid[0]'s score is every penalty's
    # The first argmin of the exact scores among each window's candidates.
    best = np.where(candidates, cv_errors, np.inf).argmin(axis=1)
    finite = np.isfinite(cv_errors).all(axis=1)
    failure = NumericalFailure("non-finite cross-validation error encountered")
    return [
        LambdaSearch(grid, cv_errors[w], float(grid[best[w]])) if finite[w] else failure
        for w in range(windows)
    ]


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

    This is the one-window case of ``select_lambdas``, which groups windows
    by row count and screens each group in stacked blocks of at most
    ``SCREEN_BLOCK``, with flat and non-finite windows kept out of a block's
    ``eigh``; each stacked product gives a window the bits of its own.
    """
    return select_lambdas([(X, y)], folds, grid, penalize_intercept)[0]


def select_lambdas(
    windows: Sequence[tuple[np.ndarray, np.ndarray]],
    folds: int = 5,
    grid: np.ndarray | None = None,
    penalize_intercept: bool = True,
) -> list[LambdaSearch]:
    """``select_lambda`` on each (X, y) window, screened in stacked blocks of windows.

    The windows run in the blocks of ``_by_block``: windows whose designs have
    one shape (so one row count and one set of folds), in list order, at most
    ``SCREEN_BLOCK`` at a time. One set of stacked calls gives every window of
    a block its training-fold X'X and X'y, their eigendecompositions, the
    screened scores, the bounds and the exact scores of every penalty the
    screens leave open. A block whose exact solve fails is searched again one
    window at a time. Every search equals ``select_lambda`` on its window
    alone, bit for bit. A window too short for its folds raises TooFewRows
    before any search runs; otherwise the first window in list order whose
    search fails raises that search's error once every block has run
    (``_raise_first``).
    """
    grid = default_lambda_grid() if grid is None else np.asarray(grid, dtype=float)
    for X, _ in windows:
        n = X.shape[0]
        if n < MIN_ROWS_PER_FOLD * folds:
            raise TooFewRows(
                f"{n} rows give fewer than {MIN_ROWS_PER_FOLD} per fold with {folds} folds"
            )
    return _raise_first(
        _by_block(windows, lambda _, X, y: _search_block(X, y, folds, grid, penalize_intercept))
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
