"""Grid construction and regression-problem assembly."""

import datetime as dt
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from mlofi.errors import IndivisibleGrid
from mlofi.imbalance import IntervalColumns, MlofiSample
from mlofi.lobster import NS, SessionConfig
from mlofi.sampling import AssemblyStats, Grid, GridSpec, assemble_problems, build_grid

from conftest import oracle_assemble_problems

DATE = dt.date(2016, 1, 4)


def test_default_grid_shape():
    grid = build_grid(SessionConfig(), GridSpec())
    assert grid.n_windows == 11
    assert grid.n_sub == 180
    b = grid.boundaries_ns
    assert len(b) == 11 * 180 + 1
    assert b[0] == 36_000 * NS
    assert b[1] == 36_010 * NS  # first interval (10:00:00, 10:00:10]
    assert b[-1] == (15 * 3600 + 30 * 60) * NS


def test_grid_boundaries_partition_session_exactly():
    grid = build_grid(SessionConfig(), GridSpec())
    b = grid.boundaries_ns
    assert sum(b[j] - b[j - 1] for j in range(1, len(b))) == 19_800 * NS
    K = grid.n_sub
    for i in range(grid.n_windows):
        w = b[i * K : (i + 1) * K + 1]
        assert len(w) == K + 1
        assert w[0] == 36_000 * NS + i * 1800 * NS
        assert w[-1] - w[0] == 1800 * NS


def test_single_window_single_interval():
    session = SessionConfig(session_start=36000, session_end=36000 + 19800)
    grid = build_grid(session, GridSpec(window_seconds=19800, subwindow_seconds=19800))
    assert grid.n_windows == 1
    assert grid.n_sub == 1


def test_indivisible_session_rejected():
    with pytest.raises(IndivisibleGrid):
        build_grid(SessionConfig(), GridSpec(window_seconds=3600, subwindow_seconds=20))


def test_indivisible_subwindow_rejected():
    with pytest.raises(IndivisibleGrid):
        build_grid(SessionConfig(), GridSpec(window_seconds=1800, subwindow_seconds=7))


def test_every_timestamp_maps_to_one_interval():
    grid = build_grid(SessionConfig(), GridSpec())
    b = np.array(grid.boundaries_ns)
    rng = np.random.default_rng(0)
    ts = rng.integers(b[0] + 1, b[-1] + 1, size=5000)
    # Left-open right-closed: index of the unique covering interval.
    idx = np.searchsorted(b, ts, side="left") - 1
    assert np.all(idx >= 0)
    assert np.all(idx < len(b) - 1)
    assert np.all(ts > b[idx])
    assert np.all(ts <= b[idx + 1])


def _sample(i, k, mlofi, delta_p):
    return MlofiSample(
        date=DATE,
        window_index=i,
        sub_index=k,
        start_ns=0,
        end_ns=0,
        mlofi=mlofi,
        buy_volume=0,
        sell_volume=0,
        delta_p=delta_p,
    )


def _full_day_samples(grid, levels, rng):
    samples = []
    for i in range(grid.n_windows):
        for k in range(1, grid.n_sub + 1):
            mlofi = tuple(int(v) for v in rng.integers(-50, 51, size=levels))
            samples.append(_sample(i, k, mlofi, int(rng.integers(-4, 5)) * 100))
    return samples


def test_assemble_full_day():
    grid = build_grid(SessionConfig(), GridSpec())
    rng = np.random.default_rng(1)
    problems = assemble_problems(
        _full_day_samples(grid, 3, rng), grid, 3, 100, DATE
    )
    assert len(problems) == 11
    for p in problems:
        assert p.X.shape == (180, 4)
        assert np.all(p.X[:, 0] == 1.0)
        assert p.y.shape == (180,)


def test_y_is_in_ticks():
    grid = build_grid(
        SessionConfig(session_start=36000, session_end=36060),
        GridSpec(window_seconds=60, subwindow_seconds=10),
    )
    samples = [_sample(0, k, (k,), 200) for k in range(1, 7)]
    problems = assemble_problems(samples, grid, 1, 100, DATE)
    # delta_p of 200 price-half-units is one full tick at tick_size 100.
    assert np.allclose(problems[0].y, 1.0)
    assert list(problems[0].X[:, 1]) == [1, 2, 3, 4, 5, 6]


def test_discarded_intervals_shrink_window():
    grid = build_grid(SessionConfig(), GridSpec())
    rng = np.random.default_rng(2)
    samples = _full_day_samples(grid, 2, rng)
    samples[5] = None
    samples[10] = None
    samples[100] = None
    stats = AssemblyStats()
    problems = assemble_problems(samples, grid, 2, 100, DATE, stats=stats)
    assert problems[0].n_rows == 177
    assert all(p.n_rows == 180 for p in problems[1:])
    assert stats.discarded_intervals == 3


def test_underdetermined_window_raise_or_drop():
    grid = build_grid(
        SessionConfig(session_start=36000, session_end=36120),
        GridSpec(window_seconds=60, subwindow_seconds=10),
    )
    samples = [_sample(0, k, (1, 2, 3), 0) for k in range(1, 7)]
    samples += [_sample(1, k, (1, 2, 3), 0) for k in range(1, 7)]
    samples[1] = None
    samples[2] = None  # window 0 left with 4 < 3 + 2 usable rows
    stats = AssemblyStats()
    problems = assemble_problems(samples, grid, 3, 100, DATE, stats)
    assert len(problems) == 1
    assert problems[0].window_index == 1
    assert problems[0].n_rows == 6
    assert stats.dropped_windows == 1
    assert stats.discarded_intervals == 2
    # Without a stats object the window is still dropped.
    assert [p.window_index for p in assemble_problems(samples, grid, 3, 100, DATE)] == [1]


def test_252_dates_yield_2772_problems():
    grid = build_grid(SessionConfig(), GridSpec())
    rng = np.random.default_rng(3)
    total = 0
    for _ in range(252):
        problems = assemble_problems(
            _full_day_samples(grid, 1, rng), grid, 1, 100, DATE
        )
        total += len(problems)
    assert total == 2772


@given(
    n_windows=hst.integers(1, 6),
    n_sub=hst.integers(1, 14),
    stored=hst.integers(1, 10),
    data=hst.data(),
    discard=hst.sampled_from([0.0, 0.2, 0.6]),
    tick_size=hst.sampled_from([1, 7, 100]),
    magnitude=hst.sampled_from([50, 10**6, 2**52, 2**70]),
    seed=hst.integers(0, 2**32 - 1),
)
def test_assembly_equals_per_row_oracle(
    n_windows, n_sub, stored, data, discard, tick_size, magnitude, seed
):
    # The columns of a day's intervals against the per-row oracle on the same
    # intervals as samples. Discarded intervals shrink windows; those left with
    # fewer than levels + 2 rows are dropped. Flow sums beyond 2**63 convert as
    # float() converts them, and a delta_p of one tick size is half a tick.
    # Every array keeps the oracle's bits and layout.
    levels = data.draw(hst.integers(1, stored), label="levels")
    rng = random.Random(seed)
    grid = Grid(start_ns=0, n_windows=n_windows, n_sub=n_sub, subwindow_ns=NS)
    rows = []
    samples = []
    for i in range(n_windows):
        for k in range(1, n_sub + 1):
            mlofi = tuple(rng.randint(-magnitude, magnitude) for _ in range(stored))
            buy, sell = rng.randint(0, 99), rng.randint(0, 99)
            delta_p = rng.randint(-9, 9) * rng.choice([1, tick_size])
            kept = rng.random() >= discard
            rows.append((mlofi, buy, sell, delta_p if kept else 0, kept))
            samples.append(MlofiSample(
                DATE, i, k, 0, 0, mlofi, buy, sell, delta_p
            ) if kept else None)
    columns = IntervalColumns.from_rows(rows, stored)
    # Flows past int64 stay exact, as Python ints in an object array.
    in_int64 = all(-2**63 <= v < 2**63 for row in rows for v in row[0])
    assert columns.flows.dtype == (np.int64 if in_int64 else object)
    assert columns.flows.shape == (n_windows * n_sub, stored)
    stats = AssemblyStats()
    problems = assemble_problems(columns, grid, levels, tick_size, DATE, stats)
    expected, discarded, dropped = oracle_assemble_problems(
        samples, grid, levels, tick_size, DATE
    )
    assert (stats.discarded_intervals, stats.dropped_windows) == (discarded, dropped)
    assert len(problems) == len(expected)
    for got, want in zip(problems, expected):
        assert (got.date, got.window_index, got.levels) == (want.date, want.window_index, levels)
        for a, b in ((got.X, want.X), (got.y, want.y)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.flags.c_contiguous
            assert np.array_equal(a, b)
    # The samples give the same problems as their columns.
    from_samples = assemble_problems(samples, grid, levels, tick_size, DATE)
    assert len(from_samples) == len(problems)
    for a, b in zip(from_samples, problems):
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_assembly_takes_every_interval_of_the_grid():
    grid = Grid(start_ns=0, n_windows=2, n_sub=3, subwindow_ns=NS)
    columns = IntervalColumns.from_rows([((1,), 0, 0, 0, True)] * 5, 1)
    with pytest.raises(ValueError, match="^5 intervals for a grid of 6$"):
        assemble_problems(columns, grid, 1, 100, DATE)
