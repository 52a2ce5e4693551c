"""RMSE protocol, R2 curves, improvement table, seasonality, book summary."""

import datetime as dt

import numpy as np
import pytest
from scipy import stats as st

from mlofi.book import EventKind, LobEvent, Side
from mlofi.evaluation import (
    OLS,
    RIDGE,
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
from mlofi.inference import contiguous_folds, fit_ols, select_lambda
from mlofi.lobster import DaySlice, SessionConfig
from mlofi.sampling import GridSpec, build_grid
from mlofi.synth import PlantedParams, generate_planted_regression

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
    # Rows pooled once at full depth and read as column prefixes must give
    # exactly the points of pooling each depth on its own; the problems come
    # out of (date, window) order and include a collinear, rank-poor design.
    beta = (0.0, 1.0, 0.8, 0.6) + (0.0,) * 5
    problems = [
        planted(40 + s, rows=57 + 5 * s, levels=8, beta=beta, rho=0.95, window=2 - s)
        for s in range(3)
    ]
    problems[1].X[:, 6] = problems[1].X[:, 5]
    curve = rmse_curve(problems, method, 8, 5, lam, penalize_intercept)
    for m, point in enumerate(curve, start=1):
        assert point == rmse_protocol(problems, method, m, 5, lam, penalize_intercept)


def test_adjusted_r2_perfect_fit():
    # Signal confined to level 1 keeps every nested design exact.
    problems = [
        planted(s, noise=0.0, beta=(1.0, 2.0, 0.0, 0.0, 0.0)) for s in range(2)
    ]
    curve = adjusted_r2_curve([fit_all_windows(problems, OLS, m)[0] for m in range(1, 5)])
    assert all(abs(v - 1.0) < 1e-10 for v in curve)


def test_adjusted_r2_null_is_near_zero():
    problems = [
        planted(s, rows=30, levels=3, beta=(0.0,) * 4, noise=1.0)
        for s in range(1000)
    ]
    curve = adjusted_r2_curve([fit_all_windows(problems, OLS, m)[0] for m in range(1, 4)])
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
    day = DaySlice(dt.date(2016, 1, 4), events)
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
    day = DaySlice(dt.date(2016, 1, 4), events)
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
    day = DaySlice(dt.date(2016, 1, 4), events, seed=seed)
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
    day = DaySlice(dt.date(2016, 1, 4), events)
    _, _, conc = summarize_day(day, session)
    counts = np.array(conc.count_pct) * conc.n_events / 100.0
    assert counts == pytest.approx([3.0, 1.0, 1.0])
    assert conc.volume_pct == pytest.approx(
        (100.0 * 24 / 40, 100.0 * 10 / 40, 100.0 * 6 / 40)
    )


def test_summarize_matches_bruteforce_oracle():
    from mlofi.book import BookState, mid_and_spread
    from mlofi.errors import OneSidedBook

    from conftest import fuzz_stream

    rng = np.random.default_rng(77)
    events = fuzz_stream(rng, 800)
    session = SessionConfig(session_start=36000, session_end=57600 - 2 * 3600)
    events = [e for e in events if e.timestamp_ns <= session.end_ns]
    day = DaySlice(dt.date(2016, 1, 4), events)
    by_duration, by_event, _ = summarize_day(day, session)

    # Naive pass: record every two-sided post-event state and its holding time.
    state = BookState()
    rows, holds = [], []
    for i, ev in enumerate(events):
        state.apply(ev)
        try:
            mq = mid_and_spread(state)
        except OneSidedBook:
            continue
        bids = [q.depth for q in state.bid_levels()[:5]]
        asks = [q.depth for q in state.ask_levels()[:5]]
        rows.append(
            [mq.mid_x2 / 2e4, mq.spread / 1e4]
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
    day = DaySlice(dt.date(2016, 1, 4), events)
    report = run_evaluation(
        [day], session, GridSpec(window_seconds=60, subwindow_seconds=1),
        levels=2, methods=[OLS, RIDGE], lambda_mode="per-window",
    )
    assert report.discarded_intervals == 15
    assert report.n_problems == 2
    assert report.significance[RIDGE].n_fits == report.n_problems - 1
    assert report.significance[OLS].n_fits == report.n_problems
