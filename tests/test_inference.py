"""Regression fits against independent high-precision oracles."""

import dataclasses
import datetime as dt
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst
from scipy import linalg as sla

from mlofi import inference
from mlofi.errors import DegenerateColumn, NumericalFailure, RankDeficient, TooFewRows
from mlofi.imbalance import compute_day_samples
from mlofi.inference import (
    MIN_ROWS_PER_FOLD,
    SCREEN_BLOCK,
    RegressionFit,
    contiguous_folds,
    default_lambda_grid,
    diagnose_collinearity,
    fit_ols,
    fit_ridge,
    fit_windows,
    fold_rows,
    select_lambda,
    select_lambdas,
    significance_summary,
)
from mlofi.lobster import SessionConfig
from mlofi.sampling import GridSpec, RegressionProblem, assemble_problems, build_grid
from mlofi.synth import PlantedParams, ZiParams, generate_planted_regression, generate_zi_day

from conftest import (
    mp_regression_oracle,
    oracle_fit_ols,
    oracle_fit_ridge,
    oracle_select_lambda,
)

DATE = dt.date(2016, 1, 4)


def make_problem(X, y, levels=None):
    levels = X.shape[1] - 1 if levels is None else levels
    return RegressionProblem(
        date=DATE, window_index=0, X=np.asarray(X, float),
        y=np.asarray(y, float), levels=levels,
    )


def test_noiseless_line_recovered_exactly():
    x = np.arange(12.0)
    X = np.column_stack([np.ones(12), x])
    y = 2.0 + 3.0 * x
    fit = fit_ols(make_problem(X, y))
    assert fit.coeffs == pytest.approx([2.0, 3.0], abs=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.adj_r2 <= fit.r2 + 1e-15


def test_null_slope_rarely_significant_at_3se():
    rng = np.random.default_rng(7)
    hits = 0
    trials = 400
    for _ in range(trials):
        x = rng.standard_normal(60)
        y = rng.standard_normal(60)
        fit = fit_ols(make_problem(np.column_stack([np.ones(60), x]), y))
        if abs(fit.coeffs[1]) <= 3.0 * fit.std_errors[1]:
            hits += 1
    assert hits / trials >= 0.99


def test_ols_matches_high_precision_oracle():
    rng = np.random.default_rng(42)
    X = np.column_stack([np.ones(20), rng.standard_normal((20, 3))])
    y = rng.standard_normal(20)
    fit = fit_ols(make_problem(X, y))
    coeffs, ses = mp_regression_oracle(X, y)
    np.testing.assert_allclose(fit.coeffs, coeffs, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(fit.std_errors, ses, rtol=1e-10, atol=1e-12)
    # t = coeff / se and p in [0, 1] by construction.
    np.testing.assert_allclose(fit.t_stats, fit.coeffs / fit.std_errors, rtol=1e-12)
    assert np.all((fit.p_values >= 0) & (fit.p_values <= 1))
    assert fit.dof == 20 - 4


def test_rank_deficient_raises():
    x = np.arange(10.0)
    X = np.column_stack([np.ones(10), x, 2 * x])
    with pytest.raises(RankDeficient):
        fit_ols(make_problem(X, x))


def test_ridge_zero_lambda_equals_ols():
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = np.column_stack([np.ones(30), rng.standard_normal((30, 4))])
        y = rng.standard_normal(30)
        ols = fit_ols(make_problem(X, y))
        ridge = fit_ridge(make_problem(X, y), 0.0)
        np.testing.assert_allclose(ridge.coeffs, ols.coeffs, rtol=1e-8)
        np.testing.assert_allclose(ridge.std_errors, ols.std_errors, rtol=1e-8)


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_ridge_on_a_singular_gram_matrix_raises(seed):
    # X = [1, x, 3x] at lam = 0: X'X is singular and admits no Cholesky factor.
    # An LU solve would not notice and return finite garbage instead.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=40)
    X = np.column_stack([np.ones(40), x, 3 * x])
    with pytest.raises(sla.LinAlgError):
        sla.cho_factor(X.T @ X)
    with pytest.raises(NumericalFailure):
        fit_ridge(make_problem(X, rng.normal(size=40)), 0.0)


@pytest.mark.parametrize("seed", [0, 1, 5, 8, 11])
def test_ridge_at_zero_lambda_checks_rank_before_factoring(seed):
    # For these seeds round-off lets the singular X'X of X = [1, x, 3x] factor,
    # and the solve returned standard errors of 3.6e6-1.2e7 or exactly 0.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=40)
    X = np.column_stack([np.ones(40), x, 3 * x])
    sla.cho_factor(X.T @ X)
    with pytest.raises(NumericalFailure, match="numerically singular"):
        fit_ridge(make_problem(X, rng.normal(size=40)), 0.0)


@given(
    n_extra=hst.integers(1, 60),
    p=hst.integers(2, 12),
    seed=hst.integers(0, 2**32 - 1),
    collinear=hst.sampled_from(["none", "duplicate", "near"]),
    lam=hst.sampled_from(list(default_lambda_grid())),
    penalize_intercept=hst.booleans(),
)
def test_ridge_equals_cho_factor_oracle(n_extra, p, seed, collinear, lam, penalize_intercept):
    n = p + n_extra
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1)) * rng.uniform(0.1, 50)])
    if collinear == "duplicate" and p >= 3:
        X[:, -1] = X[:, 1]
    elif collinear == "near" and p >= 3:
        X[:, -1] = X[:, 1] + 1e-7 * rng.standard_normal(n)
    y = X @ rng.standard_normal(p) + rng.standard_normal(n)
    problem = make_problem(X, y)
    fit = fit_ridge(problem, lam, penalize_intercept)
    expected = oracle_fit_ridge(problem, lam, penalize_intercept)
    for field in dataclasses.fields(RegressionFit):
        assert np.array_equal(getattr(fit, field.name), getattr(expected, field.name)), field.name


@pytest.mark.parametrize(
    "column, value, y_first, error",
    [
        (0, 0.0, None, NumericalFailure),
        (0, 0.0, np.inf, NumericalFailure),
        (2, np.nan, None, ValueError),
        (1, np.inf, None, ValueError),
    ],
)
def test_ridge_failure_text_equals_cho_factor_oracle(column, value, y_first, error):
    # A zero intercept column left unpenalized has no Cholesky factor, and that
    # failure comes before a non-finite X'y is refused; a non-finite design is
    # refused before factoring, as cho_factor refuses it.
    rng = np.random.default_rng(9)
    X = np.column_stack([np.ones(30), rng.standard_normal((30, 3))])
    X[:, column] = value
    y = rng.standard_normal(30)
    if y_first is not None:
        y[0] = y_first
    problem = make_problem(X, y)
    with np.errstate(invalid="ignore"), pytest.raises(error) as expected:
        oracle_fit_ridge(problem, 1.0, penalize_intercept=False)
    text = f"^{re.escape(str(expected.value))}$"
    with np.errstate(invalid="ignore"), pytest.raises(error, match=text):
        fit_ridge(problem, 1.0, penalize_intercept=False)


def test_ridge_huge_lambda_shrinks_to_zero():
    rng = np.random.default_rng(4)
    X = np.column_stack([np.ones(30), rng.standard_normal((30, 4))])
    y = 5.0 + X[:, 1] + rng.standard_normal(30)
    ols = fit_ols(make_problem(X, y))
    ridge = fit_ridge(make_problem(X, y), 1e9)
    assert np.linalg.norm(ridge.coeffs) < 1e-3 * np.linalg.norm(ols.coeffs)


def test_ridge_matches_high_precision_oracle_on_collinear_fixture():
    rng = np.random.default_rng(5)
    base = rng.standard_normal(20)
    X = np.column_stack(
        [np.ones(20), base, base + 0.01 * rng.standard_normal(20)]
    )
    y = base + rng.standard_normal(20)
    fit = fit_ridge(make_problem(X, y), 1.0)
    coeffs, ses = mp_regression_oracle(X, y, lam=1.0)
    np.testing.assert_allclose(fit.coeffs, coeffs, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(fit.std_errors, ses, rtol=1e-9, atol=1e-12)


def test_ridge_intercept_penalty_switch():
    rng = np.random.default_rng(6)
    X = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
    y = 10.0 + rng.standard_normal(40)
    lam = 1e4
    both = fit_ridge(make_problem(X, y), lam, penalize_intercept=True)
    free = fit_ridge(make_problem(X, y), lam, penalize_intercept=False)
    assert abs(both.coeffs[0]) < 1.0  # intercept crushed by the penalty
    assert abs(free.coeffs[0] - 10.0) < 1.0  # intercept left unpenalized
    coeffs, _ = mp_regression_oracle(X, y, lam=lam, penalize_intercept=False)
    np.testing.assert_allclose(free.coeffs, coeffs, rtol=1e-9, atol=1e-12)


def test_shrinkage_monotone_across_grid():
    rng = np.random.default_rng(9)
    grid = default_lambda_grid()
    for _ in range(20):
        X = np.column_stack([np.ones(40), rng.standard_normal((40, 5))])
        y = rng.standard_normal(40)
        problem = make_problem(X, y)
        norms = [
            np.linalg.norm(fit_ridge(problem, lam).coeffs) for lam in grid
        ]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12


def test_nested_sse_non_increasing():
    rng = np.random.default_rng(10)
    X = np.column_stack([np.ones(60), rng.standard_normal((60, 6))])
    y = rng.standard_normal(60)
    sses = []
    for m in range(1, 7):
        p = make_problem(X[:, : m + 1], y)
        fit = fit_ols(p)
        sses.append(fit.sigma2_hat * fit.dof)
    for a, b in zip(sses, sses[1:]):
        assert b <= a + 1e-10


def test_residual_orthogonality():
    rng = np.random.default_rng(11)
    X = np.column_stack([np.ones(50), rng.standard_normal((50, 4))])
    y = rng.standard_normal(50)
    fit = fit_ols(make_problem(X, y))
    resid = y - X @ fit.coeffs
    assert np.linalg.norm(X.T @ resid) <= 1e-8 * np.linalg.norm(X.T @ y)


def test_permutation_invariance():
    rng = np.random.default_rng(12)
    X = np.column_stack([np.ones(50), rng.standard_normal((50, 3))])
    y = X @ np.array([1.0, 2.0, -1.0, 0.5]) + rng.standard_normal(50)
    perm = rng.permutation(50)
    f1 = fit_ols(make_problem(X, y))
    f2 = fit_ols(make_problem(X[perm], y[perm]))
    np.testing.assert_allclose(f1.coeffs, f2.coeffs, atol=1e-10)
    np.testing.assert_allclose(f1.std_errors, f2.std_errors, atol=1e-10)
    assert f1.r2 == pytest.approx(f2.r2, abs=1e-10)


def test_select_lambda_interior_minimum_on_collinear_noise():
    problem, _ = generate_planted_regression(
        PlantedParams(
            true_beta=(0.0, 1.0, 1.0, 1.0, 1.0, 1.0),
            noise_sd=4.0,
            collinearity=0.95,
            seed=17,
        ),
        rows=60,
        levels=5,
    )
    search = select_lambda(problem.X, problem.y)
    i = int(np.argmin(search.cv_errors))
    assert 0 < i < len(search.grid) - 1
    assert np.all(np.isfinite(search.cv_errors))
    # Exhaustive check: the reported argmin really is the grid minimum.
    assert search.cv_errors[i] == search.cv_errors.min()
    assert search.lambda_hat == search.grid[i]


def test_select_lambda_prefers_no_penalty_when_noiseless():
    rng = np.random.default_rng(19)
    Z = rng.standard_normal((100, 3))
    Q, _ = np.linalg.qr(Z)
    X = np.column_stack([np.ones(100), Q])
    y = X @ np.array([1.0, 2.0, -1.0, 0.5])
    search = select_lambda(X, y)
    assert search.lambda_hat == search.grid[0]


def traced_select_lambda(X, y, folds, grid, penalize_intercept):
    """``select_lambda``, with the screen's error bounds and a mask of the re-scored penalties.

    A search that runs no screen scores ``grid[0]`` exactly and copies it, so
    every entry is exact and its bounds are 0.
    """
    bounds, rescored = [], []
    screen, exact = inference._screen_cv_errors, inference._exact_cv_errors

    def traced_screen(*args):
        cv_hat, bound = screen(*args)
        bounds.append(bound.copy())
        return cv_hat, bound

    def traced_exact(gram, xty, val_rows, lambdas, penalize_intercept):
        rescored.extend(lambdas)
        return exact(gram, xty, val_rows, lambdas, penalize_intercept)

    with (mock.patch.object(inference, "_screen_cv_errors", traced_screen),
          mock.patch.object(inference, "_exact_cv_errors", traced_exact)):
        search = select_lambda(X, y, folds, grid, penalize_intercept)
    if not bounds:
        return search, np.zeros(len(grid)), np.ones(len(grid), dtype=bool)
    return search, bounds[0][0], np.isin(grid, rescored)  # the bounds of a block of one


def assert_search_matches_oracle(X, y, folds, grid, penalize_intercept):
    """lambda_hat is the oracle's; re-scored entries are its bits, the rest lie within
    their bound of it and, but for lambda_hat's own, above the oracle's score at lambda_hat."""
    search, bound, confirmed = traced_select_lambda(X, y, folds, grid, penalize_intercept)
    cv_errors, lambda_hat = oracle_select_lambda(X, y, folds, grid, penalize_intercept)
    assert search.lambda_hat == lambda_hat
    assert np.array_equal(search.cv_errors[confirmed], cv_errors[confirmed])
    screened = ~confirmed
    assert np.all(np.abs(search.cv_errors - cv_errors)[screened] <= bound[screened])
    chosen = grid == lambda_hat
    assert np.all(cv_errors[screened & ~chosen] > cv_errors[chosen])


@given(
    n=hst.integers(50, 200),
    p=hst.integers(2, 11),
    seed=hst.integers(0, 2**32 - 1),
    duplicate=hst.booleans(),
    zero=hst.booleans(),
    penalize_intercept=hst.booleans(),
)
def test_select_lambda_matches_per_pair_oracle(n, p, seed, duplicate, zero, penalize_intercept):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    if duplicate and p >= 3:
        X[:, 2] = X[:, 1]
    if zero:
        X[:, p - 1] = 0.0
    y = X @ rng.standard_normal(p) + rng.standard_normal(n)
    assert_search_matches_oracle(X, y, 5, default_lambda_grid(), penalize_intercept)


@given(
    data=hst.data(),
    folds=hst.integers(2, 7),
    p=hst.integers(2, 8),
    grid=hst.lists(
        hst.floats(1e-6, 1e6), min_size=1, max_size=60, unique=True
    ).map(sorted),
    seed=hst.integers(0, 2**32 - 1),
    penalize_intercept=hst.booleans(),
)
def test_select_lambda_matches_oracle_on_any_grid_and_folds(
    data, folds, p, grid, seed, penalize_intercept
):
    # n need not divide into folds, so the validation blocks differ in length.
    n = data.draw(hst.integers(MIN_ROWS_PER_FOLD * folds, 400), label="n")
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    y = X @ rng.standard_normal(p) + rng.standard_normal(n)
    assert_search_matches_oracle(X, y, folds, np.array(grid), penalize_intercept)


@given(
    n=hst.integers(50, 200),
    p=hst.integers(2, 9),
    seed=hst.integers(0, 2**32 - 1),
    first=hst.sampled_from(["ones", "scaled", "random"]),
    shift=hst.sampled_from([0.0, 10.0, 1e3]),
    noise=hst.sampled_from([0.0, 1e-6, 1.0]),
)
def test_select_lambda_with_a_free_intercept_matches_the_oracle(n, p, seed, first, shift, noise):
    # The screen profiles the first column out through its Schur complement,
    # whatever that column holds; shifted columns make that elimination cancel.
    rng = np.random.default_rng(seed)
    column = {"ones": np.ones(n), "scaled": np.full(n, 1e3),
              "random": rng.uniform(0.5, 2.0, n)}[first]
    X = np.column_stack([column, shift + rng.standard_normal((n, p - 1))])
    y = X @ rng.standard_normal(p) + noise * rng.standard_normal(n)
    assert_search_matches_oracle(X, y, 5, default_lambda_grid(), False)


def test_select_lambda_on_a_zero_response_scores_one_penalty_and_copies_it():
    # X'y is zero in every training fold, so every penalty's coefficients are zero.
    rng = np.random.default_rng(5)
    X = np.column_stack([np.ones(60), rng.standard_normal((60, 3))])
    grid = default_lambda_grid()
    with (mock.patch.object(inference, "_screen_cv_errors") as screen,
          mock.patch.object(inference, "_exact_cv_errors",
                            wraps=inference._exact_cv_errors) as exact):
        search = select_lambda(X, np.zeros(60), 5, grid)
    screen.assert_not_called()
    assert exact.call_count == 1 and np.array_equal(np.ravel(exact.call_args.args[3]), grid[:1])
    assert search.lambda_hat == grid[0]
    assert np.array_equal(search.cv_errors, np.zeros(len(grid)))


def test_select_lambda_keeps_a_near_tie_on_a_zi_window():
    # The ZI day of the fit-per-window benchmark's seed 2 (ZI seed 52). In its
    # window 2 on the 1-minute grid at 10 levels, the CV errors at grid[0] and
    # grid[1] lie 7.8e-8 apart relative, and the screened errors alone put the
    # minimum at grid[0].
    session = SessionConfig()
    day = generate_zi_day(ZiParams(seed=52), session, DATE)
    grid = build_grid(session, GridSpec(60, 1))
    samples = compute_day_samples(day, grid.boundaries_ns, grid.n_sub, 10).samples
    problem = next(p for p in assemble_problems(samples, grid, 10, session.tick_size, DATE)
                   if p.window_index == 2)
    lambdas = default_lambda_grid()
    search = select_lambda(problem.X, problem.y, 5, lambdas)
    lambda_hat = oracle_select_lambda(problem.X, problem.y, 5, lambdas)[1]
    assert search.lambda_hat == lambda_hat == lambdas[1]


def test_select_lambda_takes_a_lone_candidate_without_the_exact_solve():
    # A well-conditioned design whose bound rules out all penalties but one.
    rng = np.random.default_rng(23)
    X = np.column_stack([np.ones(200), rng.standard_normal((200, 4))])
    y = X @ np.array([0.5, 1.0, -2.0, 0.0, 3.0]) + rng.standard_normal(200)
    grid = default_lambda_grid()
    for penalize_intercept in (True, False):
        with mock.patch.object(inference, "_exact_cv_errors") as exact:
            search = select_lambda(X, y, 5, grid, penalize_intercept)
        exact.assert_not_called()
        assert search.lambda_hat == oracle_select_lambda(X, y, 5, grid, penalize_intercept)[1]


def search_problem():
    rng = np.random.default_rng(3)
    return np.column_stack([np.ones(60), rng.standard_normal((60, 3))]), rng.standard_normal(60)


def test_select_lambda_on_a_zero_first_column_in_a_training_fold_fails_as_the_whole_grid_solve():
    X, y = search_problem()
    X[12:, 0] = 0.0  # the first training fold's first column is zero
    select_lambda(X, y, 5, default_lambda_grid(), True)  # the penalty covers that column
    with pytest.raises(NumericalFailure, match="^ridge solve failed: Singular matrix$"):
        select_lambda(X, y, 5, default_lambda_grid(), False)


@pytest.mark.parametrize("penalize_intercept", [True, False])
@pytest.mark.parametrize("array, cell, value", [
    ("X", (30, 2), np.nan), ("X", (30, 2), np.inf), ("X", (30, 0), -np.inf),
    ("y", 30, np.nan), ("y", 30, np.inf),
])
def test_select_lambda_on_non_finite_input_fails_as_the_whole_grid_solve(
    array, cell, value, penalize_intercept
):
    X, y = search_problem()
    {"X": X, "y": y}[array][cell] = value
    with pytest.raises(NumericalFailure, match="^ridge solve produced non-finite values$"):
        select_lambda(X, y, 5, default_lambda_grid(), penalize_intercept)


#: What a window of the stacked-search property is made as; most are plain.
SEARCH_KINDS = ("plain",) * 6 + (
    "duplicate", "noiseless", "flat", "nan", "inf y", "zero first column", "huge duplicate",
)


def search_window(rng, n, p, kind):
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1)) * rng.uniform(0.1, 50)])
    beta = rng.standard_normal(p)
    y = X @ beta + rng.standard_normal(n)
    if kind == "duplicate":
        X[:, -1] = X[:, 1]
    elif kind == "noiseless":
        y = X @ beta
    elif kind == "flat":
        y[:] = 0.0
    elif kind == "nan":
        X[n // 2, -1] = np.nan
    elif kind == "inf y":
        y[0] = np.inf
    elif kind == "zero first column":
        X[:, 0] = 0.0
    elif kind == "huge duplicate":
        # X'X + lam*I rounds to a singular matrix at small penalties, which the
        # screen's bound cannot rule out: the exact solve fails, the screen does not.
        X[:, 1] *= 1e12
        X[:, -1] = X[:, 1]
    return X, y


@given(
    row_counts=hst.lists(hst.integers(50, 90), min_size=2, max_size=3, unique=True),
    folds=hst.integers(2, 5),
    p=hst.integers(2, 11),
    seed=hst.integers(0, 2**32 - 1),
    penalize_intercept=hst.booleans(),
)
def test_select_lambdas_equals_select_lambda_window_by_window(
    row_counts, folds, p, seed, penalize_intercept
):
    # The first row count's windows split into two blocks, in shuffled order.
    # Flat, non-finite, lone-candidate and several-candidate windows share
    # blocks. Every search keeps the bits of its window's search alone, and the
    # first failing window in list order raises its own error.
    rng = np.random.default_rng(seed)
    counts = [row_counts[0]] * (SCREEN_BLOCK + 3) + row_counts[1:] * 4
    rng.shuffle(counts)
    windows = [search_window(rng, n, p, rng.choice(SEARCH_KINDS)) for n in counts]
    grid = default_lambda_grid()
    expected = []
    with np.errstate(all="ignore"):
        for X, y in windows:
            try:
                expected.append(select_lambda(X, y, folds, grid, penalize_intercept))
            except NumericalFailure as exc:
                expected.append(exc)
        failing = [i for i, want in enumerate(expected) if isinstance(want, Exception)]
        if failing:
            with pytest.raises(NumericalFailure) as raised:
                select_lambdas(windows, folds, grid, penalize_intercept)
            assert str(raised.value) == str(expected[failing[0]])
        keep = [i for i in range(len(windows)) if i not in failing]
        searches = select_lambdas([windows[i] for i in keep], folds, grid, penalize_intercept)
    assert len(searches) == len(keep)
    for i, search in zip(keep, searches):
        assert search.lambda_hat == expected[i].lambda_hat
        assert np.array_equal(search.cv_errors, expected[i].cv_errors)


def block_of_windows(count=6):
    rng = np.random.default_rng(8)
    return [(np.column_stack([np.ones(60), rng.standard_normal((60, 3))]),
             rng.standard_normal(60)) for _ in range(count)]


@pytest.mark.parametrize("penalize_intercept", [True, False])
def test_select_lambdas_fails_a_non_finite_window_not_its_whole_block(penalize_intercept):
    windows = block_of_windows()
    windows[3][0][30, 2] = np.nan
    with pytest.raises(NumericalFailure, match="^ridge solve produced non-finite values$"):
        select_lambdas(windows, 5, default_lambda_grid(), penalize_intercept)
    rest = windows[:3] + windows[4:]
    searches = select_lambdas(rest, 5, default_lambda_grid(), penalize_intercept)
    assert [s.lambda_hat for s in searches] == [
        select_lambda(X, y, 5, default_lambda_grid(), penalize_intercept).lambda_hat
        for X, y in rest
    ]


def test_select_lambdas_fails_a_zero_first_column_under_a_free_intercept():
    windows = block_of_windows()
    windows[4][0][12:, 0] = 0.0  # the first training fold's first column is zero
    select_lambdas(windows, 5, default_lambda_grid(), True)  # the penalty covers that column
    with pytest.raises(NumericalFailure, match="^ridge solve failed: Singular matrix$"):
        select_lambdas(windows, 5, default_lambda_grid(), False)


def test_select_lambdas_raises_the_first_failing_window_in_list_order():
    # Window 1 (61 rows) has its own block, after the 60-row block that holds
    # window 4; window 1's error is raised all the same.
    windows = block_of_windows()
    rng = np.random.default_rng(9)
    windows[1] = (np.column_stack([np.zeros(61), rng.standard_normal((61, 3))]),
                  rng.standard_normal(61))
    windows[4][0][30, 2] = np.inf
    with pytest.raises(NumericalFailure, match="^ridge solve failed: Singular matrix$"):
        select_lambdas(windows, 5, default_lambda_grid(), False)


def exact_solves(windows):
    """``select_lambdas`` on the windows, or its error, and its calls of the exact solve."""
    with mock.patch.object(inference, "_exact_cv_errors",
                           wraps=inference._exact_cv_errors) as exact:
        try:
            result = select_lambdas(windows, 5, default_lambda_grid())
        except NumericalFailure as exc:
            result = exc
    return result, exact.call_count


def test_select_lambdas_scores_a_block_in_one_solve_or_a_failing_one_window_by_window():
    # The screen leaves penalties open in several windows of one block: one
    # stacked solve scores them all. A window whose exact solve fails though its
    # screen is finite fails that solve; each window of the block is then
    # searched on its own, and only the failing one raises.
    rng = np.random.default_rng(14)
    windows = [search_window(rng, 60, 4, "duplicate") for _ in range(4)]
    searches, calls = exact_solves(windows)
    assert calls == 1
    assert [exact_solves([window])[1] for window in windows] == [1, 1, 0, 0]
    windows[2] = search_window(rng, 60, 4, "huge duplicate")
    error, calls = exact_solves(windows)
    assert str(error) == str(exact_solves(windows[2:3])[0]) == "ridge solve failed: Singular matrix"
    assert calls == 1 + 3
    assert [s.lambda_hat for s in exact_solves(windows[:2] + windows[3:])[0]] == [
        s.lambda_hat for s in searches[:2] + searches[3:]
    ]


def test_penalty_search_holds_one_training_fold_at_a_time():
    # Every training copy of X held at once takes folds x one copy; the search's
    # own temporaries stay well under that.
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(20_000), rng.standard_normal((20_000, 10))])
    y = rng.standard_normal(20_000)
    folds = 5
    one_copy = X.nbytes * (folds - 1) // folds
    tracemalloc.start()
    try:
        select_lambda(X, y, folds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < folds * one_copy


@given(
    data=hst.data(),
    folds=hst.integers(2, 7),
    width=hst.integers(1, 4),
    column_view=hst.booleans(),
)
def test_fold_rows_equals_boolean_mask_split(data, folds, width, column_view):
    n = data.draw(hst.integers(folds, 60), label="n")
    X = np.arange(n * (width + 1), dtype=float).reshape(n, width + 1)
    if column_view:
        X = X[:, :width]  # the RMSE curve's strided sub-design
    y = np.arange(n, dtype=float) * 0.5
    splits = list(fold_rows(X, y, folds))
    assert len(splits) == folds
    for (X_tr, y_tr, X_val, y_val), idx in zip(splits, contiguous_folds(n, folds)):
        val = np.zeros(n, dtype=bool)
        val[idx] = True
        for got, want in zip((X_tr, y_tr, X_val, y_val), (X[~val], y[~val], X[val], y[val])):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert np.shares_memory(X_val, X)
        assert np.shares_memory(y_val, y)


def test_contiguous_folds_partition():
    folds = contiguous_folds(103, 5)
    all_idx = np.concatenate(folds)
    assert len(all_idx) == 103
    assert np.array_equal(np.sort(all_idx), np.arange(103))
    assert np.array_equal(all_idx, np.arange(103))  # time order preserved
    for f in folds:
        assert np.array_equal(f, np.arange(f[0], f[-1] + 1))


def test_diagnostics_duplicated_column():
    rng = np.random.default_rng(20)
    a = rng.standard_normal(200)
    b = rng.standard_normal(200)
    comps = np.column_stack([a, a, b])
    diag = diagnose_collinearity(comps)
    assert diag.corr[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert diag.eigenvalues[-1] == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(np.diag(diag.corr), 1.0)
    assert abs(diag.eigenvalues.sum() - 3) < 1e-8


def test_diagnostics_independent_components_small_offdiag():
    rng = np.random.default_rng(21)
    comps = rng.standard_normal((4000, 4))
    diag = diagnose_collinearity(comps)
    off = diag.corr[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) < 3.0 / np.sqrt(4000))


def test_diagnostics_match_two_pass_covariance_oracle():
    rng = np.random.default_rng(22)
    comps = rng.standard_normal((300, 5)) @ rng.standard_normal((5, 5))
    diag = diagnose_collinearity(comps)
    n = comps.shape[0]
    means = comps.sum(axis=0) / n
    cov = np.zeros((5, 5))
    for row in comps:  # naive two-pass accumulation
        d = row - means
        cov += np.outer(d, d)
    cov /= n - 1
    sd = np.sqrt(np.diag(cov))
    expected = cov / np.outer(sd, sd)
    np.testing.assert_allclose(diag.corr, expected, atol=1e-10)
    assert abs(diag.eigenvalues.sum() - 5.0) < 1e-8
    assert np.all(np.diff(diag.eigenvalues) <= 1e-12)  # descending


def test_diagnostics_degenerate_column_reported():
    rng = np.random.default_rng(23)
    comps = np.column_stack(
        [rng.standard_normal(100), np.zeros(100), rng.standard_normal(100)]
    )
    diag = diagnose_collinearity(comps)
    assert diag.degenerate_columns == [1]
    assert diag.corr.shape == (2, 2)
    with pytest.raises(DegenerateColumn):
        diagnose_collinearity(np.zeros((100, 2)))


def test_significance_summary_identical_fits():
    rng = np.random.default_rng(24)
    X = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
    y = X @ np.array([0.5, 1.0, 0.0]) + rng.standard_normal(40)
    fit = fit_ols(make_problem(X, y))
    summary = significance_summary([fit, fit, fit])
    np.testing.assert_allclose(summary.mean_coeff, fit.coeffs)
    np.testing.assert_allclose(summary.mean_p, fit.p_values)
    assert summary.n_fits == 3


def test_significance_summary_counts_at_95():
    rng = np.random.default_rng(25)
    X = np.column_stack([np.ones(40), rng.standard_normal(40)])
    fits = []
    for target_p in (0.04, 0.06):
        # Scale noise until the slope p-value brackets 0.05 as required.
        for scale in np.linspace(0.1, 40.0, 4000):
            y = X[:, 1] + scale * rng.standard_normal(40)
            fit = fit_ols(make_problem(X, y))
            if (fit.p_values[1] < 0.05) == (target_p < 0.05):
                fits.append(fit)
                break
    summary = significance_summary(fits)
    assert summary.pct_significant_95[1] == pytest.approx(50.0)


# -- stacked per-window fits ------------------------------------------------------

#: What a window of the stacked-fit property is made as; most are plain.
WINDOW_KINDS = ("plain",) * 8 + (
    "duplicate", "collinear", "flat", "saturated", "zero intercept", "nan", "inf y", "few rows",
)


def stacked_fit_window(rng, n, p, kind):
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1)) * rng.uniform(0.1, 50)])
    beta = rng.standard_normal(p)
    y = X @ beta + rng.standard_normal(n)
    if kind == "duplicate":
        X[:, -1] = X[:, 1]
    elif kind == "collinear":
        X[:, -1] = 3 * X[:, 1]
    elif kind == "flat":
        y[:] = 0.0
    elif kind == "saturated":
        y = X @ beta
    elif kind == "zero intercept":
        X[:, 0] = 0.0
    elif kind == "nan":
        X[n // 2, -1] = np.nan
    elif kind == "inf y":
        y[0] = np.inf
    elif kind == "few rows":
        X, y = X[:p], y[:p]
    return make_problem(X, y)


def same_fit(got, want):
    return all(
        type(getattr(got, f.name)) is type(getattr(want, f.name))
        and np.array_equal(getattr(got, f.name), getattr(want, f.name), equal_nan=True)
        for f in dataclasses.fields(RegressionFit)
    )


@given(
    ridge=hst.booleans(),
    penalize_intercept=hst.booleans(),
    p=hst.integers(2, 6),
    extra_rows=hst.lists(hst.integers(1, 12), min_size=1, max_size=3, unique=True),
    n_windows=hst.integers(1, SCREEN_BLOCK + 8),
    seed=hst.integers(0, 2**32 - 1),
)
def test_fit_windows_equals_one_window_oracles(
    ridge, penalize_intercept, p, extra_rows, n_windows, seed
):
    # Windows of several row counts in one call, sometimes more of one shape
    # than a block holds: duplicated or collinear columns (OLS gives None),
    # lam = 0 on a singular design, flat and saturated responses, a zero first
    # column (not positive definite under a free intercept), non-finite input
    # and too few rows. Every fit keeps the one-window oracle's bits, and the
    # first failing window in list order raises its own error.
    rng = np.random.default_rng(seed)
    problems = [
        stacked_fit_window(rng, p + int(rng.choice(extra_rows)), p, rng.choice(WINDOW_KINDS))
        for _ in range(n_windows)
    ]
    lambdas = [float(rng.choice([0.0, 1e-5, 1e-2, 1.0, 1e3])) for _ in problems] if ridge else None
    expected = []
    with np.errstate(all="ignore"):
        for i, problem in enumerate(problems):
            try:
                expected.append(
                    oracle_fit_ridge(problem, lambdas[i], penalize_intercept) if ridge
                    else oracle_fit_ols(problem)
                )
            except Exception as exc:  # noqa: BLE001 - any error is the window's own
                expected.append(exc)
        failing = [
            i for i, want in enumerate(expected)
            if isinstance(want, Exception) and not isinstance(want, RankDeficient)
        ]
        if failing:
            first = expected[failing[0]]
            with pytest.raises(Exception) as raised:
                fit_windows(problems, lambdas, penalize_intercept)
            assert type(raised.value) is type(first)
            assert str(raised.value) == str(first)
        keep = [i for i in range(n_windows) if i not in failing]
        fits = fit_windows(
            [problems[i] for i in keep],
            None if lambdas is None else [lambdas[i] for i in keep],
            penalize_intercept,
        )
    assert len(fits) == len(keep)
    for i, fit in zip(keep, fits):
        if isinstance(expected[i], RankDeficient):
            assert fit is None
        else:
            assert same_fit(fit, expected[i])


def test_fit_windows_keeps_each_window_error_its_own():
    # Windows 0 and 2 share a block, window 1 has too few rows. Window 2's
    # non-finite input must not fail window 0, whose fit is fine, nor its block:
    # window 1's error comes first.
    rng = np.random.default_rng(4)
    problems = [stacked_fit_window(rng, 40, 4, kind) for kind in ("plain", "few rows", "nan")]
    for lambdas, error in ((None, np.linalg.LinAlgError), ([1.0] * 3, ValueError)):
        with np.errstate(all="ignore"):
            with pytest.raises(TooFewRows):
                fit_windows(problems, lambdas)
            with pytest.raises(error) as raised:
                fit_windows(problems[::2], lambdas)
        assert type(raised.value) is error
        fit = fit_windows(problems[:1], lambdas)[0]
        want = oracle_fit_ols(problems[0]) if lambdas is None else oracle_fit_ridge(
            problems[0], 1.0
        )
        assert same_fit(fit, want)


def test_fit_windows_gives_none_for_a_rank_deficient_ols_window_only():
    rng = np.random.default_rng(5)
    problems = [stacked_fit_window(rng, 30, 3, kind) for kind in ("plain", "collinear", "plain")]
    fits = fit_windows(problems)
    assert fits[1] is None
    assert all(same_fit(f, oracle_fit_ols(p)) for f, p in zip(fits[::2], problems[::2]))
    with pytest.raises(NumericalFailure, match="numerically singular"):
        fit_windows(problems, [0.0] * 3)
    fits = fit_windows(problems, [1e-2] * 3)
    assert all(same_fit(f, oracle_fit_ridge(p, 1e-2)) for f, p in zip(fits, problems))


@given(
    penalize_intercept=hst.booleans(),
    p=hst.integers(2, 6),
    n_windows=hst.integers(1, SCREEN_BLOCK + 8),
    seed=hst.integers(0, 2**32 - 1),
)
def test_stacked_cholesky_and_one_dpotrs_on_b_and_i_keep_the_bits_of_dpotrf_and_two_dpotrs(
    penalize_intercept, p, n_windows, seed
):
    # The two LAPACK identities the stacked ridge fit rests on, over the designs
    # and penalties of the stacked-fit property: the upper factor of a stacked
    # np.linalg.cholesky is dpotrf's upper triangle, and one dpotrs on [b | I]
    # answers as dpotrs on b and dpotrs on I.
    rng = np.random.default_rng(seed)
    penalty = np.eye(p)
    if not penalize_intercept:
        penalty[0, 0] = 0.0
    systems = []
    with np.errstate(all="ignore"):
        for _ in range(n_windows):
            problem = stacked_fit_window(rng, p + int(rng.integers(1, 13)), p,
                                         rng.choice(WINDOW_KINDS))
            lam = float(rng.choice([0.0, 1e-5, 1e-2, 1.0, 1e3]))
            A = problem.X.T @ problem.X + lam * penalty
            b = problem.X.T @ problem.y
            if np.isfinite(A).all() and np.isfinite(b).all():
                factor, info = sla.lapack.dpotrf(A, clean=0)
                if info == 0:
                    systems.append((A, b, factor))
    if not systems:
        return
    stacked = np.linalg.cholesky(np.stack([A for A, _, _ in systems]), upper=True)
    for (_, b, factor), upper in zip(systems, stacked):
        assert np.array_equal(upper, np.triu(factor))
        merged = sla.lapack.dpotrs(upper, np.column_stack((b, np.eye(p))))[0]
        assert np.array_equal(merged[:, 0], sla.lapack.dpotrs(factor, b)[0])
        assert np.array_equal(merged[:, 1:], sla.lapack.dpotrs(factor, np.eye(p))[0])


@pytest.mark.parametrize("p, extra_rows", [(3, 1), (6, 4), (10, 7), (4, 26)])
def test_fit_ols_fails_a_singular_design_with_the_oracles_svd_text(p, extra_rows):
    # lstsq's own singular values differ from the SVD's in their last bits, and
    # on the first three shapes in the text's smin/smax; the text is the SVD's.
    for kind in ("duplicate", "collinear"):
        problem = stacked_fit_window(np.random.default_rng(0), p + extra_rows, p, kind)
        with pytest.raises(RankDeficient) as want:
            oracle_fit_ols(problem)
        with pytest.raises(RankDeficient) as raised:
            fit_ols(problem)
        assert str(raised.value) == str(want.value)


def test_fit_windows_fails_a_non_finite_ols_window_in_the_rank_check(capfd):
    # The rank check's SVD meets the NaN first, as in the one-window oracle:
    # lstsq would fail with its own text, and LAPACK would print its complaints.
    rng = np.random.default_rng(6)
    problems = [stacked_fit_window(rng, 40, 4, kind) for kind in ("plain", "nan", "plain")]
    with pytest.raises(np.linalg.LinAlgError) as want:
        oracle_fit_ols(problems[1])
    capfd.readouterr()
    with pytest.raises(np.linalg.LinAlgError) as raised:
        fit_windows(problems)
    assert str(raised.value) == str(want.value) == "SVD did not converge"
    assert capfd.readouterr() == ("", "")
