"""Regression fits against independent high-precision oracles."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from mlofi.errors import DegenerateColumn, RankDeficient
from mlofi.inference import (
    contiguous_folds,
    default_lambda_grid,
    diagnose_collinearity,
    fit_ols,
    fit_ridge,
    select_lambda,
    significance_summary,
)
from mlofi.sampling import RegressionProblem
from mlofi.synth import PlantedParams, generate_planted_regression

from conftest import mp_regression_oracle, oracle_select_lambda

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
    grid = default_lambda_grid()
    search = select_lambda(X, y, 5, grid, penalize_intercept)
    cv_errors, lambda_hat = oracle_select_lambda(X, y, 5, grid, penalize_intercept)
    assert np.array_equal(search.cv_errors, cv_errors)
    assert search.lambda_hat == lambda_hat


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
