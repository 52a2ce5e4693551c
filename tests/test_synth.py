"""Zero-intelligence generator and planted-regression fixtures."""

import datetime as dt
import hashlib
import math

import numpy as np
import pytest
from scipy import stats as st

from mlofi.book import BookState, EventKind, Side
from mlofi.errors import ConfigError
from mlofi.inference import fit_ols
from mlofi.lobster import SessionConfig, write_message_file
from mlofi.synth import (
    PlantedParams,
    ZiParams,
    generate_planted_regression,
    generate_zi_day,
)

SHORT = SessionConfig(session_start=36000, session_end=36000 + 600)


def test_same_seed_identical_streams():
    params = ZiParams(seed=123)
    d1 = generate_zi_day(params, SHORT)
    d2 = generate_zi_day(params, SHORT)
    assert d1.events == d2.events
    d3 = generate_zi_day(ZiParams(seed=124), SHORT)
    assert d3.events != d1.events


def test_seed_42s_day_writes_the_message_file_it_always_has(tmp_path):
    # The file's digest pins the generator's stream, byte for byte, whether
    # the day is written from its columns or from its events.
    day = generate_zi_day(ZiParams(seed=42), SessionConfig(), dt.date(2016, 1, 4))
    for name, events in (("columns", day.columns), ("events", day.events)):
        path = tmp_path / f"{name}.csv"
        write_message_file(path, events)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "cb75675c20c7c20e0ae235ef0b10645500d6eb89212c8b69bf8bac9381a90e45")


def test_a_high_rate_days_message_file_is_pinned(tmp_path):
    # 68,448 events whose price levels hold long queues, so that cancels
    # deep in a queue and fills at its head both run many times.
    day = generate_zi_day(ZiParams(limit_rate=5, seed=42), SHORT)
    path = tmp_path / "messages.csv"
    write_message_file(path, day.columns)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "8becc9623126a08fee2b34fb0b976d259529b4b2f22f4cc527a0dcb6a417a5b5")


def test_small_session_replays_cleanly():
    day = generate_zi_day(ZiParams(limit_rate=0.02, market_rate=0.05, seed=1), SHORT)
    assert len(day.events) > 0
    state = BookState()
    for ev in day.events:
        state.apply(ev)  # raises InconsistentEvent on any defect
        if state.best_bid is not None and state.best_ask is not None:
            assert state.best_bid < state.best_ask
    assert state.event_seq == len(day.events)


def test_timestamps_within_session_and_ordered():
    day = generate_zi_day(ZiParams(seed=5), SHORT)
    last = -1
    for ev in day.events:
        assert SHORT.start_ns <= ev.timestamp_ns <= SHORT.end_ns
        assert ev.timestamp_ns >= last
        last = ev.timestamp_ns


def test_limit_arrival_interarrivals_are_exponential():
    # The limit-arrival subprocess has constant intensity, so its
    # inter-arrival times are i.i.d. exponential at the configured rate.
    params = ZiParams(limit_rate=0.5, market_rate=0.2, cancel_rate=0.01, seed=42)
    session = SessionConfig(session_start=36000, session_end=36000 + 18000)
    day = generate_zi_day(params, session)
    times = [
        e.timestamp_ns / 1e9
        for e in day.events
        if e.kind is EventKind.LIMIT_ARRIVAL and e.timestamp_ns > session.start_ns
    ]
    gaps = np.diff(times)
    gaps = gaps[gaps > 0]
    rate = params.limit_rate * params.price_band * 2
    assert len(gaps) > 10_000
    stat = st.kstest(gaps, "expon", args=(0, 1.0 / rate)).statistic
    assert stat < 1.63 / np.sqrt(len(gaps))  # 1% critical value


def test_market_order_signs_serially_uncorrelated():
    params = ZiParams(market_rate=0.5, seed=11)
    session = SessionConfig(session_start=36000, session_end=36000 + 18000)
    day = generate_zi_day(params, session)
    signs = []
    last_ts = None
    for e in day.events:
        if e.kind is EventKind.EXECUTION_VISIBLE:
            if e.timestamp_ns != last_ts:  # one sign per sweep
                signs.append(1 if e.side is Side.SELL else -1)
                last_ts = e.timestamp_ns
    s = np.array(signs, dtype=float)
    assert len(s) > 1000
    s -= s.mean()
    rho1 = (s[:-1] @ s[1:]) / (s @ s)
    assert abs(rho1) < 3.0 / np.sqrt(len(s))


def test_zi_param_validation():
    with pytest.raises(ConfigError):
        ZiParams(limit_rate=0.0)
    with pytest.raises(ConfigError):
        ZiParams(mean_size=0.5)
    with pytest.raises(ConfigError):
        PlantedParams(true_beta=(0.0, 1.0), collinearity=1.0)


@pytest.mark.parametrize("name", ["limit_rate", "market_rate", "cancel_rate", "mean_size"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_zi_params_must_be_finite(name, value):
    # An infinite rate would never end a day; NaN passes every comparison.
    with pytest.raises(ConfigError, match="finite"):
        ZiParams(**{name: value})


def test_planted_noiseless_recovery():
    params = PlantedParams(
        true_beta=(1.0, 2.0, -0.5, 0.25), noise_sd=0.0, collinearity=0.3, seed=2
    )
    problem, beta = generate_planted_regression(params, rows=50, levels=3)
    fit = fit_ols(problem)
    np.testing.assert_allclose(fit.coeffs, beta, atol=1e-8)


def test_planted_determinism_and_shape():
    params = PlantedParams(true_beta=(0.0, 1.0, 1.0), seed=9)
    p1, b1 = generate_planted_regression(params, rows=30, levels=2)
    p2, b2 = generate_planted_regression(params, rows=30, levels=2)
    np.testing.assert_array_equal(p1.X, p2.X)
    np.testing.assert_array_equal(p1.y, p2.y)
    assert p1.X.shape == (30, 3)
    assert np.all(p1.X[:, 0] == 1.0)


def test_planted_correlation_hits_target():
    params = PlantedParams(
        true_beta=(0.0,) + (1.0,) * 4, noise_sd=1.0, collinearity=0.6, seed=3
    )
    problem, _ = generate_planted_regression(params, rows=10_000, levels=4)
    F = problem.X[:, 1:]
    corr = np.corrcoef(F, rowvar=False)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off - 0.6) < 0.03)


def test_collinearity_inflates_ols_standard_errors():
    beta = (0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    ratios = []
    for seed in range(500):
        p_ind, _ = generate_planted_regression(
            PlantedParams(true_beta=beta, noise_sd=1.0, collinearity=0.0, seed=seed),
            rows=180,
            levels=5,
        )
        p_col, _ = generate_planted_regression(
            PlantedParams(true_beta=beta, noise_sd=1.0, collinearity=0.95, seed=seed),
            rows=180,
            levels=5,
        )
        se_ind = fit_ols(p_ind).std_errors[1:]
        se_col = fit_ols(p_col).std_errors[1:]
        ratios.append(np.mean(se_col / se_ind))
    assert np.mean(ratios) > 2.0
