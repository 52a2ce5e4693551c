"""RMSE protocol, R2 curves, improvement table, seasonality, book summary."""

import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst
from scipy import stats as st

from mlofi.book import EventKind, LobEvent, Side
from mlofi.errors import ConfigError, TooFewRows
from mlofi.evaluation import (
    OLS,
    RIDGE,
    FitSpec,
    adjusted_r2_curve,
    book_summaries,
    fit_all_windows,
    improvement_table,
    pool_rows,
    rmse_curve,
    rmse_protocol,
    seasonality_profile,
)
from mlofi.imbalance import compute_day_samples
from mlofi.inference import (
    MIN_ROWS_PER_FOLD,
    contiguous_folds,
    fit_ols,
    fit_windows,
    nested_adj_r2,
    select_lambda,
)
from mlofi.lobster import SessionConfig
from mlofi.sampling import GridSpec, RegressionProblem, build_grid
from mlofi.synth import PlantedParams, generate_planted_regression

from conftest import events_day

NS = 1_000_000_000
T0 = 36_000 * NS


def planted(seed, rows=120, levels=4, beta=None, noise=1.0, rho=0.0, date=None, window=0):
    beta = beta if beta is not None else (0.0,) + (1.0,) * levels
    problem, _ = generate_planted_regression(
        PlantedParams(true_beta=beta, noise_sd=noise, collinearity=rho, seed=seed),
        rows=rows,
        levels=levels,
    )
    problem.date = date or dt.date(2016, 1, 4)
    problem.window_index = window
    return problem


def assert_points_close(got, want, rtol=1e-12):
    assert [p.levels for p in got] == [p.levels for p in want]
    for field in ("in_sample", "out_sample"):
        np.testing.assert_allclose(
            [getattr(p, field) for p in got], [getattr(p, field) for p in want], rtol=rtol
        )


def per_depth_r2_curve(problems, method, lam=0.0, penalize_intercept=True):
    """The R^2 curve from one ``fit_all_windows`` call per depth: the nested curve's oracle."""
    return [
        float(np.mean([f.adj_r2 for f in fit_all_windows(
            problems, method, m, lam, penalize_intercept)[0]]))
        for m in range(1, problems[0].levels + 1)
    ]


def nested_r2_curve(problems, method, lam=0.0, penalize_intercept=True):
    deep, _ = fit_all_windows(problems, method, problems[0].levels, lam, penalize_intercept)
    return adjusted_r2_curve(problems, method, deep, lam, penalize_intercept)


def test_rmse_protocol_noiseless_is_zero():
    problems = [planted(s, noise=0.0) for s in range(3)]
    point = rmse_protocol(problems, OLS, 4)
    assert point.in_sample < 1e-8
    assert point.out_sample < 1e-8
    ridge_point = rmse_protocol(problems, RIDGE, 4, lam=0.0)
    assert ridge_point.out_sample < 1e-8


def test_rmse_protocol_out_exceeds_in_under_noise():
    wins = 0
    trials = 100
    for s in range(trials):
        problems = [planted(1000 + s, rows=60, levels=4, beta=(0.0,) * 5, noise=1.0)]
        point = rmse_protocol(problems, OLS, 4)
        if point.out_sample >= point.in_sample:
            wins += 1
    assert wins >= 95


def test_rmse_in_sample_non_increasing_in_levels():
    problems = [planted(s, rows=100, levels=8, beta=(0.0,) + (0.5,) * 8) for s in range(2)]
    curve = rmse_curve(problems, OLS, 8)
    ins = [p.in_sample for p in curve]
    for a, b in zip(ins, ins[1:]):
        assert b <= a + 1e-10


def test_overfit_pattern_on_collinear_fixture():
    # Only the first 3 coefficients carry signal; deep OLS should overfit
    # while ridge at the cross-validated penalty stays at or below it.
    beta = (0.0, 1.0, 0.8, 0.6) + (0.0,) * 7
    ridge_wins = 0
    ols_non_monotone = 0
    trials = 40
    for s in range(trials):
        problems = [
            planted(5000 + s, rows=60, levels=10, beta=beta, noise=1.0, rho=0.95)
        ]
        X, y = pool_rows(problems, 10)
        lam = select_lambda(X, y).lambda_hat
        ols_out = [p.out_sample for p in rmse_curve(problems, OLS, 10)]
        ridge10 = rmse_protocol(problems, RIDGE, 10, lam=lam).out_sample
        if any(b > a for a, b in zip(ols_out, ols_out[1:])):
            ols_non_monotone += 1
        if ridge10 <= ols_out[-1]:
            ridge_wins += 1
    assert ols_non_monotone >= 0.9 * trials
    assert ridge_wins >= 0.9 * trials


@pytest.mark.parametrize("method, lam, penalize_intercept", [
    (OLS, 0.0, True), (RIDGE, 0.37, True), (RIDGE, 0.37, False), (RIDGE, 0.0, True),
])
def test_rmse_curve_equals_per_depth_protocol(method, lam, penalize_intercept):
    # Rows pooled once at full depth and read as column prefixes, each training
    # fold factored once, must give the points of pooling and solving each depth
    # on its own, to 1e-12 relative; the problems come out of (date, window)
    # order and include a collinear, rank-poor design.
    beta = (0.0, 1.0, 0.8, 0.6) + (0.0,) * 5
    problems = [
        planted(40 + s, rows=57 + 5 * s, levels=8, beta=beta, rho=0.95, window=2 - s)
        for s in range(3)
    ]
    problems[1].X[:, 6] = problems[1].X[:, 5]
    curve = rmse_curve(problems, method, 8, 5, lam, penalize_intercept)
    want = [rmse_protocol(problems, method, m, 5, lam, penalize_intercept) for m in range(1, 9)]
    assert_points_close(curve, want)


def test_rmse_curve_keeps_the_per_depth_protocol_where_a_fold_does_not_nest():
    # A column that copies another makes every pooled training fold rank-poor
    # from depth 3 on, so OLS takes the minimum-norm lstsq at every depth; ridge
    # at lam = 0 takes the per-depth solve. Both give the per-depth protocol's
    # points bit for bit.
    problems = [planted(60 + s, rows=50 + 7 * s, levels=5, window=s) for s in range(3)]
    want = [rmse_protocol(problems, RIDGE, m, 5, 0.0) for m in range(1, 6)]
    assert rmse_curve(problems, RIDGE, 5, 5, 0.0) == want
    for problem in problems:
        problem.X[:, 3] = 2.0 * problem.X[:, 2]
    want = [rmse_protocol(problems, OLS, m, 5) for m in range(1, 6)]
    assert rmse_curve(problems, OLS, 5, 5) == want


WINDOW_KINDS = ("full", "duplicate", "zero", "flat")


def outcome(fn):
    """fn()'s result, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - any error must match the oracle's
        return type(exc), str(exc)


@given(
    seed=hst.integers(0, 2**32 - 1),
    levels=hst.integers(1, 7),
    windows=hst.lists(
        hst.tuples(hst.sampled_from([0, 1, 7, 40]), hst.sampled_from(WINDOW_KINDS)),
        min_size=1, max_size=12,
    ),
    method=hst.sampled_from([OLS, RIDGE]),
    lam=hst.sampled_from([0.0, 1e-5, 0.37, 40.0]),
    penalize_intercept=hst.booleans(),
)
def test_nested_r2_equals_per_depth_fits(seed, levels, windows, method, lam, penalize_intercept):
    # Windows of several row counts (so several stacked design shapes), with
    # columns scaled over five decades; a column that copies the one before it
    # or is zero makes a window rank-deficient from that depth on only, and a
    # flat response has SST = 0. Every depth must keep the windows that one
    # fit_windows call per depth keeps, with adjusted R^2 within 1e-9
    # relative, and raise what that loop raises.
    rng = np.random.default_rng(seed)
    problems = []
    for k, (extra_rows, kind) in enumerate(windows):
        n = levels + 2 + extra_rows
        scale = 10.0 ** rng.uniform(-2, 3, levels)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, levels)) * scale])
        y = X @ rng.normal(size=levels + 1) + rng.normal(size=n)
        col = int(rng.integers(1, levels + 1))
        if kind == "duplicate":
            X[:, col] = 3.0 * X[:, col - 1]
        elif kind == "zero":
            X[:, col] = 0.0
        elif kind == "flat":
            y = np.zeros(n)
        problems.append(RegressionProblem(dt.date(2016, 1, 4), k, X, y, levels))
    lam_arg = None if method == OLS else lam

    def per_depth():
        lambdas = None if lam_arg is None else [lam] * len(problems)
        fits = [fit_windows([p.truncated(m) for p in problems], lambdas, penalize_intercept)
                for m in range(1, levels + 1)]
        kept = np.array([[f is not None for f in depth] for depth in fits]).T
        adj = np.array([[0.0 if f is None else f.adj_r2 for f in depth] for depth in fits]).T
        return adj, kept

    want, got = outcome(per_depth), outcome(lambda: nested_adj_r2(problems, lam_arg,
                                                                  penalize_intercept))
    if not isinstance(want[0], np.ndarray):
        assert got == want
        return
    assert np.array_equal(got[1], want[1])
    np.testing.assert_allclose(got[0], want[0], rtol=1e-9, atol=1e-12)
    if want[1].any(axis=0).all():
        np.testing.assert_allclose(
            nested_r2_curve(problems, method, lam, penalize_intercept),
            per_depth_r2_curve(problems, method, lam, penalize_intercept),
            rtol=1e-9, atol=1e-12,
        )
    else:
        with pytest.raises(TooFewRows, match="no usable windows at"):
            nested_r2_curve(problems, method, lam, penalize_intercept)


def test_adjusted_r2_perfect_fit():
    # Signal confined to level 1 keeps every nested design exact.
    problems = [
        planted(s, noise=0.0, beta=(1.0, 2.0, 0.0, 0.0, 0.0)) for s in range(2)
    ]
    curve = nested_r2_curve(problems, OLS)
    assert all(abs(v - 1.0) < 1e-10 for v in curve)


def test_adjusted_r2_null_is_near_zero():
    problems = [
        planted(s, rows=30, levels=3, beta=(0.0,) * 4, noise=1.0)
        for s in range(1000)
    ]
    curve = nested_r2_curve(problems, OLS)
    assert curve[-1] <= 0.05


def test_plain_r2_non_decreasing_in_levels_nested():
    problem = planted(77, rows=90, levels=6, beta=(0.0,) + (0.4,) * 6, noise=2.0)
    r2s = []
    for m in range(1, 7):
        fits, _ = fit_all_windows([problem], OLS, m)
        r2s.append(fits[0].r2)
    for a, b in zip(r2s, r2s[1:]):
        assert b >= a - 1e-12


def test_improvement_table_arithmetic():
    from mlofi.evaluation import RmsePoint

    ols = [RmsePoint(1, 1.9, 2.0), RmsePoint(10, 1.3, 1.4)]
    ridge = [RmsePoint(1, 1.9, 2.0), RmsePoint(10, 1.2, 1.3)]
    table = improvement_table(ols, ridge)
    assert table.ofi_rmse == 2.0
    assert table.improvement_ols == pytest.approx(0.30)
    assert table.improvement_ridge == pytest.approx(0.35)
    same = improvement_table(ols, [ols[0], ols[1]])
    assert same.improvement_ridge == pytest.approx(same.improvement_ols)
    flat = improvement_table(
        [RmsePoint(1, 2.0, 2.0), RmsePoint(10, 2.0, 2.0)], None
    )
    assert flat.improvement_ols == pytest.approx(0.0)
    # Derived column recomputes from the stored primitives.
    assert table.improvement_ols == pytest.approx(
        1.0 - table.mlofi_ols_rmse / table.ofi_rmse, abs=1e-10
    )


def test_seasonality_single_date_equals_window_fits():
    problems = [
        planted(100 + i, rows=60, levels=3, window=i, noise=0.5) for i in range(4)
    ]
    prof = seasonality_profile(*fit_all_windows(problems, OLS, 3), 3, n_windows=4)
    for i, p in enumerate(problems):
        np.testing.assert_allclose(prof[i], fit_ols(p).coeffs, atol=1e-12)


def test_seasonality_recovers_planted_trend():
    # Level-1 weight shrinks with the window index; recovered means must
    # fall monotonically enough for a strongly negative rank correlation.
    n_windows, n_dates = 11, 8
    problems = []
    for d in range(n_dates):
        for i in range(n_windows):
            beta = (0.0, 2.0 * (1.0 - 0.05 * i), 0.5, 0.5)
            problems.append(
                planted(
                    seed=d * 100 + i,
                    rows=120,
                    levels=3,
                    beta=beta,
                    noise=0.3,
                    date=dt.date(2016, 1, 4) + dt.timedelta(days=d),
                    window=i,
                )
            )
    prof = seasonality_profile(*fit_all_windows(problems, OLS, 3), 3, n_windows=n_windows)
    rho = st.spearmanr(np.arange(n_windows), prof[:, 1]).statistic
    assert rho < -0.8


def test_seasonality_stationary_within_noise():
    n_windows, n_dates = 5, 30
    problems = []
    for d in range(n_dates):
        for i in range(n_windows):
            problems.append(
                planted(seed=7000 + d * 50 + i, rows=120, levels=2,
                        beta=(0.0, 1.0, 0.5), noise=1.0, window=i)
            )
    fits, windows = fit_all_windows(problems, OLS, 2)
    prof = seasonality_profile(fits, windows, 2, n_windows=n_windows)
    se = np.std([f.coeffs[1] for f in fits], ddof=1) / np.sqrt(n_dates)
    spread = prof[:, 1].max() - prof[:, 1].min()
    assert spread < 6 * se  # pairwise within ~3 SE of each other


def _arrival(oid, size, price, side, ts):
    return LobEvent(ts, EventKind.LIMIT_ARRIVAL, oid, size, price, side)


def summarize_day(day, session, levels=1):
    """The book statistics of one day, replayed over one session-long interval."""
    span = session.length_seconds
    grid = build_grid(session, GridSpec(window_seconds=span, subwindow_seconds=span))
    comp = compute_day_samples(day, grid.boundaries_ns, grid.n_sub, levels)
    return book_summaries([comp.book])


def test_summarize_constant_book():
    session = SessionConfig(session_start=36000, session_end=36600)
    events = [
        _arrival(1, 10, 140000, Side.BUY, T0),
        _arrival(2, 20, 140200, Side.SELL, T0),
    ]
    day = events_day(dt.date(2016, 1, 4), events)
    by_duration, by_event, _ = summarize_day(day, session)
    for summary in (by_duration, by_event):
        assert summary.mean_mid_dollars == pytest.approx(14.01)
        assert summary.mean_spread_dollars == pytest.approx(0.02)
        assert summary.mean_bid_depth[0] == pytest.approx(10.0)
        assert summary.mean_ask_depth[0] == pytest.approx(20.0)
        assert summary.mean_bid_depth[1] == 0.0  # absent level counts zero


def test_concentration_all_at_best():
    session = SessionConfig(session_start=36000, session_end=36600)
    events = [
        _arrival(1, 10, 140000, Side.BUY, T0),
        _arrival(2, 20, 140200, Side.SELL, T0),
        _arrival(3, 5, 140000, Side.BUY, T0 + NS),  # joins best bid
        LobEvent(T0 + 2 * NS, EventKind.EXECUTION_VISIBLE, 2, 5, 140200, Side.SELL),
        LobEvent(T0 + 3 * NS, EventKind.CANCEL_PARTIAL, 3, 2, 140000, Side.BUY),
    ]
    day = events_day(dt.date(2016, 1, 4), events)
    _, _, conc = summarize_day(day, session)
    # First two arrivals improve empty sides (within spread); the rest sit
    # at the best quotes.
    assert conc.count_pct == pytest.approx((40.0, 60.0, 0.0))
    assert conc.n_events == 5


def test_concentration_all_at_best_with_seeded_book():
    from mlofi.lobster import SeedSnapshot

    session = SessionConfig(session_start=36000, session_end=36600)
    seed = SeedSnapshot(bids=((140000, 30),), asks=((140200, 30),))
    events = [
        _arrival(1, 5, 140000, Side.BUY, T0 + NS),
        _arrival(2, 5, 140200, Side.SELL, T0 + 2 * NS),
        LobEvent(T0 + 3 * NS, EventKind.EXECUTION_VISIBLE, 0, 10, 140200, Side.SELL),
        LobEvent(T0 + 4 * NS, EventKind.CANCEL_PARTIAL, 0, 10, 140000, Side.BUY),
    ]
    day = events_day(dt.date(2016, 1, 4), events, seed=seed)
    _, _, conc = summarize_day(day, session)
    assert conc.count_pct == pytest.approx((0.0, 100.0, 0.0))
    assert conc.volume_pct == pytest.approx((0.0, 100.0, 0.0))


def test_concentration_buckets_and_volume():
    session = SessionConfig(session_start=36000, session_end=36600)
    events = [
        _arrival(1, 10, 140000, Side.BUY, T0),
        _arrival(2, 10, 140400, Side.SELL, T0),
        _arrival(3, 4, 140200, Side.BUY, T0 + NS),  # inside the spread
        _arrival(4, 6, 139000, Side.BUY, T0 + 2 * NS),  # deeper
        _arrival(5, 10, 140400, Side.SELL, T0 + 3 * NS),  # at best ask
    ]
    day = events_day(dt.date(2016, 1, 4), events)
    _, _, conc = summarize_day(day, session)
    counts = np.array(conc.count_pct) * conc.n_events / 100.0
    assert counts == pytest.approx([3.0, 1.0, 1.0])
    assert conc.volume_pct == pytest.approx(
        (100.0 * 24 / 40, 100.0 * 10 / 40, 100.0 * 6 / 40)
    )


def test_concentration_volumes_add_up_past_int64():
    # Two bids of 2**62 shares: the day's flow volume passes 2**63, and each
    # bucket's share is still the exact volumes' quotient.
    session = SessionConfig(session_start=36000, session_end=36600)
    events = [
        _arrival(1, 10, 140200, Side.SELL, T0),  # within the spread of an empty side
        _arrival(2, 2**62, 140000, Side.BUY, T0 + NS),
        _arrival(3, 2**62, 140000, Side.BUY, T0 + 2 * NS),  # at the best bid
        _arrival(4, 5, 139900, Side.BUY, T0 + 3 * NS),  # deeper
    ]
    day = events_day(dt.date(2016, 1, 4), events)
    _, _, conc = summarize_day(day, session)
    total = 2**63 + 15
    assert conc.volume_pct == (100.0 * (2**62 + 10) / total, 100.0 * 2**62 / total,
                               100.0 * 5 / total)
    assert conc.count_pct == (50.0, 25.0, 25.0)


def test_summarize_matches_bruteforce_oracle():
    from mlofi.book import BookState

    from conftest import book_levels, fuzz_stream

    rng = np.random.default_rng(77)
    events = fuzz_stream(rng, 800)
    session = SessionConfig(session_start=36000, session_end=57600 - 2 * 3600)
    events = [e for e in events if e.timestamp_ns <= session.end_ns]
    day = events_day(dt.date(2016, 1, 4), events)
    by_duration, by_event, _ = summarize_day(day, session)

    # Naive pass: record every two-sided post-event state and its holding time.
    state = BookState()
    rows, holds = [], []
    for i, ev in enumerate(events):
        state.apply(ev)
        bb, ba = state.best_bid, state.best_ask
        if bb is None or ba is None:
            continue
        bids, asks = ([depth for _, depth in side[:5]] for side in book_levels(state))
        rows.append(
            [(ba + bb) / 2e4, (ba - bb) / 1e4]
            + bids + [0] * (5 - len(bids))
            + asks + [0] * (5 - len(asks))
        )
        nxt = events[i + 1].timestamp_ns if i + 1 < len(events) else session.end_ns
        holds.append((nxt - ev.timestamp_ns) / 1e9)
    rows = np.array(rows, dtype=float)
    holds = np.array(holds)
    assert (holds <= 0).any()  # zero-hold instants count for events only
    for summary, weights in ((by_duration, holds.clip(min=0.0)), (by_event, None)):
        expected = np.average(rows, axis=0, weights=weights)
        got = [summary.mean_mid_dollars, summary.mean_spread_dollars]
        got += list(summary.mean_bid_depth) + list(summary.mean_ask_depth)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
    assert by_duration.weighting == "duration"
    assert by_event.weighting == "event"


def test_adj_r2_recomputes_from_residuals():
    problem = planted(55, rows=90, levels=4, noise=2.0)
    for method, lam in ((OLS, 0.0), (RIDGE, 3.7)):
        fits, _ = fit_all_windows([problem], method, 4, lam=lam)
        fit = fits[0]
        resid = problem.y - problem.X @ fit.coeffs
        sse = float(resid @ resid)
        sst = float(np.sum((problem.y - problem.y.mean()) ** 2))
        n, p = problem.X.shape
        r2 = 1.0 - sse / sst
        adj = 1.0 - (1.0 - r2) * (n - 1) / (n - p)
        assert abs(fit.r2 - r2) < 1e-10
        assert abs(fit.adj_r2 - adj) < 1e-10
        assert fit.adj_r2 <= fit.r2 + 1e-15


def test_fold_partition_exact():
    for n in (100, 101, 104):
        folds = contiguous_folds(n, 5)
        joined = np.concatenate(folds)
        assert np.array_equal(np.sort(joined), np.arange(n))
        sets = [set(f.tolist()) for f in folds]
        for i in range(5):
            for j in range(i + 1, 5):
                assert not (sets[i] & sets[j])


def test_per_window_ridge_skips_window_shrunk_by_discards():
    from mlofi.evaluation import run_evaluation
    from mlofi.sampling import GridSpec

    from conftest import fuzz_stream

    # Two one-minute windows of 1 s intervals. The ask side first appears at
    # 10:00:15, so window 0 keeps 45 rows: enough for a fit, too few for a
    # 5-fold penalty search. Far-away resting orders keep both sides
    # populated afterwards; the fuzzer never touches them.
    session = SessionConfig(session_start=36000, session_end=36120)
    events = [
        _arrival(10**9, 100, 40000, Side.BUY, T0),
        _arrival(10**9 + 1, 100, 60000, Side.SELL, T0 + 15 * NS),
    ]
    events += fuzz_stream(np.random.default_rng(5), 300, start_ts=T0 + 15 * NS)
    events = [e for e in events if e.timestamp_ns <= session.end_ns]
    day = events_day(dt.date(2016, 1, 4), events)
    report = run_evaluation(
        [day], session, GridSpec(window_seconds=60, subwindow_seconds=1),
        levels=2, spec=FitSpec(methods=(OLS, RIDGE), lambda_mode="per-window"),
    )
    assert report.discarded_intervals == 15
    assert report.n_problems == 2
    assert report.significance[RIDGE].n_fits == report.n_problems - 1
    assert report.significance[OLS].n_fits == report.n_problems


@pytest.mark.parametrize("kwargs, message", [
    ({"methods": ()}, "methods must name at least one of ols, ridge"),
    ({"methods": (OLS, "lasso")}, "unknown methods: ['lasso']"),
    ({"lambda_mode": "daily"}, "lambda_mode must be pooled or per-window"),
    ({"folds": 1}, "folds must be >= 2"),
    ({"methods": (OLS, RIDGE, OLS)}, "methods repeated: ['ols']"),
])
def test_fit_spec_rejects_bad_settings(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        FitSpec(**kwargs)


def test_fit_spec_min_window_rows_only_for_per_window_ridge():
    assert FitSpec(folds=7, lambda_mode="per-window").min_window_rows == 7 * MIN_ROWS_PER_FOLD
    assert FitSpec(methods=(RIDGE,), lambda_mode="per-window").min_window_rows == 50
    assert FitSpec(methods=(OLS,), lambda_mode="per-window").min_window_rows == 0
    assert FitSpec(folds=7).min_window_rows == 0


def test_per_window_fit_tables_equal_the_window_by_window_loop():
    # A sparse ZI book: discards leave its two-minute windows of 2 s intervals
    # between 50 and 60 rows, and a few under the 50 a 5-fold search needs, so
    # the searched windows fall into several row counts.
    from mlofi.evaluation import assemble_windows, fit_tables
    from mlofi.inference import fit_ridge, significance_summary
    from mlofi.synth import ZiParams, generate_zi_day

    session = SessionConfig(session_end=12 * 3600)
    params = ZiParams(limit_rate=0.02, market_rate=0.04, price_band=3, seed=3)
    grid = build_grid(session, GridSpec(window_seconds=120, subwindow_seconds=2))
    problems, _, _ = assemble_windows(
        [generate_zi_day(params, session)], grid, 5, session.tick_size
    )
    rows = {p.n_rows for p in problems}
    assert min(rows) < 5 * MIN_ROWS_PER_FOLD and len(rows - {60}) >= 3
    for penalize_intercept in (True, False):
        spec = FitSpec(methods=(RIDGE,), lambda_mode="per-window",
                       penalize_intercept=penalize_intercept)
        lambdas = np.array(spec.lambda_grid)
        fits = [
            fit_ridge(p, select_lambda(p.X, p.y, 5, lambdas, penalize_intercept).lambda_hat,
                      penalize_intercept)
            for p in problems if p.n_rows >= spec.min_window_rows
        ]
        got = fit_tables(problems, spec).significance[RIDGE]
        want = significance_summary(fits)
        assert got.n_fits == want.n_fits == len(fits)
        for field in ("mean_coeff", "mean_se", "mean_t", "mean_p", "pct_significant_95"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
