"""Flow-delta case rules, interval accumulation, and their invariants."""

import dataclasses
import datetime as dt
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from mlofi import imbalance, lobster
from mlofi.book import ASK_ABSENT, BookState, EventKind, LobEvent, Side, level_snapshot
from mlofi.errors import InconsistentEvent, TooFewRows
from mlofi.evaluation import book_summaries
from mlofi.imbalance import SUMMARY_LEVELS, MlofiSample, compute_day_samples, flow_delta
from mlofi.lobster import DaySlice, EventColumns, SeedSnapshot, SessionConfig
from mlofi.sampling import GridSpec, assemble_problems, build_grid
from mlofi.synth import ZiParams, generate_zi_day

from conftest import (
    book_levels,
    events_day,
    fuzz_stream,
    oracle_assemble_problems,
    oracle_book_summary,
    oracle_day_samples,
    oracle_flow_net,
    oracle_replay,
    replay,
)

NS = 1_000_000_000
T0 = 36_000 * NS
TICK = 100


def arrival(oid, size, price, side=Side.BUY, ts=T0):
    return LobEvent(ts, EventKind.LIMIT_ARRIVAL, oid, size, price, side)


def build_book(events):
    state = BookState()
    for e in events:
        state.apply(e)
    return state


def test_worked_example_flow_vector():
    # Bids 1.40 x10 and 1.39 x10; a buy for 7 arrives at 1.41. The new best
    # pushes every existing bid level one slot deeper, so M=3 sees (7,10,10).
    state = build_book([arrival(1, 10, 140000), arrival(2, 10, 139000)])
    before = level_snapshot(state, 3)
    state.apply(arrival(3, 7, 141000))
    after = level_snapshot(state, 3)
    d = flow_delta(before, after, 3)
    assert d.net == (7, 10, 10)
    assert d.bid_flow == (7, 10, 10)
    assert d.ask_flow == (0, 0, 0)


def test_noop_event_zero_vector():
    state = build_book([arrival(1, 10, 140000)])
    before = level_snapshot(state, 3)
    state.apply(LobEvent(T0, EventKind.EXECUTION_HIDDEN, 9, 5, 140500, Side.SELL))
    after = level_snapshot(state, 3)
    assert flow_delta(before, after, 3).net == (0, 0, 0)


def test_market_order_consuming_best_bid_level():
    # Bids 1.40 x10 / 1.39 x8; a sell market order takes the whole best level.
    state = build_book([arrival(1, 10, 140000), arrival(2, 8, 139000)])
    before = level_snapshot(state, 2)
    state.apply(LobEvent(T0, EventKind.EXECUTION_VISIBLE, 1, 10, 140000, Side.BUY))
    after = level_snapshot(state, 2)
    d = flow_delta(before, after, 2)
    assert d.bid_flow == (-10, -8)
    assert d.net == (-10, -8)


def test_arrival_inside_spread_case_rule():
    # A buy inside the spread contributes its own size at level 1 and the
    # displaced old best-bid depth at level 2, for any arrival size.
    rng = np.random.default_rng(2)
    for _ in range(50):
        r1 = int(rng.integers(1, 50))
        omega = int(rng.integers(1, 50))
        state = build_book(
            [arrival(1, r1, 140000), arrival(2, 30, 140400, Side.SELL)]
        )
        before = level_snapshot(state, 2)
        state.apply(arrival(3, omega, 140200))
        after = level_snapshot(state, 2)
        assert flow_delta(before, after, 2).net == (omega, r1)


def test_arrival_between_level1_and_level2():
    state = build_book([arrival(1, 10, 140000), arrival(2, 10, 139000)])
    before = level_snapshot(state, 2)
    state.apply(arrival(3, 4, 139500))
    after = level_snapshot(state, 2)
    assert flow_delta(before, after, 2).net == (0, 4)


def test_cancel_last_level2_order():
    state = build_book(
        [arrival(1, 10, 140000), arrival(2, 6, 139000), arrival(3, 9, 138000)]
    )
    before = level_snapshot(state, 2)
    state.apply(LobEvent(T0, EventKind.CANCEL_FULL, 2, 6, 139000, Side.BUY))
    after = level_snapshot(state, 2)
    assert flow_delta(before, after, 2).net == (0, -6)


def test_fuzzed_flow_matches_sentinel_oracle():
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(8):
        events = fuzz_stream(rng, 1500)
        for _, before, after in replay(events, 5):
            assert flow_delta(before, after, 5).net == oracle_flow_net(
                before, after, 5
            )
            checked += 1
    assert checked >= 10_000


def test_sign_symmetry_under_mirroring():
    # Swapping sides and reflecting prices about a pivot negates every
    # component (bids become asks and vice versa).
    rng = np.random.default_rng(8)
    pivot = 2 * 500 * 100
    for _ in range(3):
        events = fuzz_stream(rng, 800)
        mirrored = [
            LobEvent(
                e.timestamp_ns,
                e.kind,
                e.order_id,
                e.size,
                pivot - e.price,
                Side.SELL if e.side is Side.BUY else Side.BUY,
            )
            for e in events
        ]
        levels = 4
        nets = [
            flow_delta(b, a, levels).net for _, b, a in replay(events, levels)
        ]
        nets_m = [
            flow_delta(b, a, levels).net for _, b, a in replay(mirrored, levels)
        ]
        assert len(nets) == len(nets_m)
        for n, nm in zip(nets, nets_m):
            assert nm == tuple(-x for x in n)


def test_level1_standalone_rule_matches_vector_head():
    # Track best bid/ask directly (no snapshots) and apply the level-1 rule.
    rng = np.random.default_rng(31)
    events = fuzz_stream(rng, 3000)
    state = BookState()
    inf = float("inf")

    def level1(s):
        bb, ba = s.best_bid, s.best_ask
        b = (bb, s.depth_at(Side.BUY, bb)) if bb is not None else (-inf, 0)
        a = (ba, s.depth_at(Side.SELL, ba)) if ba is not None else (inf, 0)
        return b, a

    for ev in events:
        (bp0, bd0), (ap0, ad0) = level1(state)
        before = level_snapshot(state, 1)
        state.apply(ev)
        (bp1, bd1), (ap1, ad1) = level1(state)
        after = level_snapshot(state, 1)
        w = bd1 if bp1 > bp0 else (bd1 - bd0 if bp1 == bp0 else -bd0)
        v = -ad0 if ap1 > ap0 else (ad1 - ad0 if ap1 == ap0 else ad1)
        assert flow_delta(before, after, 1).net == (w - v,)


def _grid_60_10():
    """Boundaries and sub-windows of six 10 s intervals from 10:00:00."""
    session = SessionConfig(session_start=36000, session_end=36060)
    grid = build_grid(session, GridSpec(window_seconds=60, subwindow_seconds=10))
    return grid.boundaries_ns, grid.n_sub


def _day_samples(events, levels):
    """Replay a hand-built day over six 10 s intervals from 10:00:00."""
    day = events_day(dt.date(2016, 1, 4), events)
    return compute_day_samples(day, *_grid_60_10(), levels).samples


# Baseline book at the session open: bids 1.40 x10 / 1.39 x10, ask 1.45 x5.
_BASELINE = [
    arrival(1, 10, 140000),
    arrival(2, 10, 139000),
    arrival(3, 5, 145000, Side.SELL),
]


def test_accumulate_single_event_interval():
    samples = _day_samples(_BASELINE + [arrival(4, 7, 141000, ts=T0 + 5 * NS)], 3)
    sample = samples[0]
    assert sample.mlofi == (7, 10, 10)
    assert sample.ofi == 7
    assert sample.delta_p == (145000 + 141000) - (145000 + 140000)


def test_accumulate_empty_interval_zero():
    sample = _day_samples(_BASELINE, 3)[0]
    assert sample.mlofi == (0, 0, 0)
    assert sample.ofi == 0
    assert sample.trade_imbalance == 0
    assert sample.delta_p == 0
    assert sample == MlofiSample(
        date=dt.date(2016, 1, 4), window_index=0, sub_index=1,
        start_ns=T0, end_ns=T0 + 10 * NS, mlofi=(0, 0, 0),
        buy_volume=0, sell_volume=0, delta_p=0,
    )


def test_accumulate_offsetting_events_telescope():
    events = _BASELINE + [
        arrival(5, 5, 140000, ts=T0 + NS),
        LobEvent(T0 + 2 * NS, EventKind.CANCEL_FULL, 5, 5, 140000, Side.BUY),
    ]
    assert _day_samples(events, 2)[0].mlofi == (0, 0)


def test_trade_imbalance_signs():
    # Executions against the resting sell are buy market orders, and vice versa.
    events = _BASELINE + [
        arrival(6, 40, 145000, Side.SELL),
        arrival(7, 20, 140000),
        LobEvent(T0 + NS, EventKind.EXECUTION_VISIBLE, 6, 30, 145000, Side.SELL),
        LobEvent(T0 + 2 * NS, EventKind.EXECUTION_VISIBLE, 7, 12, 140000, Side.BUY),
        LobEvent(T0 + 3 * NS, EventKind.EXECUTION_VISIBLE, 6, 5, 145000, Side.SELL),
    ]
    sample = _day_samples(events, 1)[0]
    assert sample.buy_volume == 35
    assert sample.sell_volume == 12
    assert sample.trade_imbalance == 23


def test_additivity_over_interval_split():
    rng = np.random.default_rng(13)
    events = fuzz_stream(rng, 2000)
    levels = 3
    nets = [flow_delta(b, a, levels).net for _, b, a in replay(events, levels)]
    total = tuple(sum(col) for col in zip(*nets))
    for cut in (1, len(nets) // 3, len(nets) // 2, len(nets) - 1):
        left = tuple(sum(col) for col in zip(*nets[:cut]))
        right = tuple(sum(col) for col in zip(*nets[cut:]))
        assert tuple(l + r for l, r in zip(left, right)) == total


def test_day_replay_boundaries_left_open_right_closed():
    # One event exactly at an interior boundary lands in the earlier interval.
    session = SessionConfig(session_start=36000, session_end=36060)
    grid = build_grid(session, GridSpec(window_seconds=60, subwindow_seconds=10))
    events = [
        arrival(1, 10, 140000, Side.BUY, ts=36_000 * NS),
        arrival(2, 10, 140200, Side.SELL, ts=36_000 * NS),
        arrival(3, 7, 140100, Side.BUY, ts=36_010 * NS),  # exactly t_1
    ]
    day = events_day(dt.date(2016, 1, 4), events)
    comp = compute_day_samples(day, grid.boundaries_ns, grid.n_sub, 2)
    assert comp.samples[0].mlofi == (7, 10)
    assert comp.samples[1].mlofi == (0, 0)
    assert comp.discarded_intervals == 0
    # Baseline events at t_0 contribute to no interval.
    assert comp.samples[0].delta_p == (140200 + 140100) - (140200 + 140000)


def test_day_replay_discards_one_sided_intervals():
    session = SessionConfig(session_start=36000, session_end=36060)
    grid = build_grid(session, GridSpec(window_seconds=60, subwindow_seconds=10))
    events = [
        arrival(1, 10, 140000, Side.BUY, ts=36_000 * NS),
        # Ask side appears only after 36020: first two intervals lack a mid.
        arrival(2, 10, 140200, Side.SELL, ts=36_025 * NS),
    ]
    day = events_day(dt.date(2016, 1, 4), events)
    comp = compute_day_samples(day, grid.boundaries_ns, grid.n_sub, 2)
    assert comp.samples[0] is None  # one-sided at both ends
    assert comp.samples[1] is None  # one-sided at start
    assert comp.samples[2] is None  # start mid undefined (carried none)
    assert comp.samples[3] is not None
    assert comp.discarded_intervals == 3


def _assert_replay_matches_oracles(days, levels, subwindow=10, session_end=36300):
    """Each day's replay against ``oracle_day_samples``, and the days'
    tallies against ``oracle_book_summary``, on a grid of one-minute windows
    from 10:00:00; events past the session end are dropped first. The samples
    rebuilt from the replay's interval columns must equal the oracle's, and
    the problems assembled from the columns the oracle assembly's. The loop
    ``oracle_replay`` must give the same."""
    session = SessionConfig(session_start=36000, session_end=session_end)
    grid = build_grid(session, GridSpec(window_seconds=60, subwindow_seconds=subwindow))
    days = [events_day(
        day.trading_date, [e for e in day.events if e.timestamp_ns <= session.end_ns], day.seed,
    ) for day in days]
    tallies = []
    for day in days:
        comp = compute_day_samples(day, grid.boundaries_ns, grid.n_sub, levels)
        assert comp == oracle_replay(day, grid.boundaries_ns, grid.n_sub, levels)
        samples, discarded = oracle_day_samples(day, grid.boundaries_ns, grid.n_sub, levels)
        assert comp.samples == samples
        assert comp.discarded_intervals == discarded
        assert comp.intervals.kept.tolist() == [s is not None for s in samples]
        assert not comp.intervals.delta_p[~comp.intervals.kept].any()
        problems = assemble_problems(comp.intervals, grid, levels, TICK, day.trading_date)
        expected = oracle_assemble_problems(samples, grid, levels, TICK, day.trading_date)[0]
        assert [p.window_index for p in problems] == [p.window_index for p in expected]
        for got, want in zip(problems, expected):
            assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)
        tallies.append(comp.book)

    by_duration, by_event, counts, volumes = oracle_book_summary(days, session)
    for got, raw in (([t.flow_counts for t in tallies], counts),
                     ([t.flow_volumes for t in tallies], volumes)):
        assert [sum(col) for col in zip(*got)] == raw
    if by_duration is None or by_event is None:
        with pytest.raises(TooFewRows):
            book_summaries(tallies)
        return
    got_duration, got_event, conc = book_summaries(tallies)
    for got, expected in ((got_duration, by_duration), (got_event, by_event)):
        values = [got.mean_mid_dollars, got.mean_spread_dollars]
        values += list(got.mean_bid_depth) + list(got.mean_ask_depth)
        assert values == expected  # each the float nearest the exact mean
    assert conc.n_events == sum(counts)
    for got, raw in ((conc.count_pct, counts), (conc.volume_pct, volumes)):
        expected = [100.0 * v / sum(raw) for v in raw] if sum(raw) else [0.0] * 3
        np.testing.assert_allclose(got, expected, rtol=1e-12)


@hst.composite
def fuzzed_days(draw, bands=(6,)):
    """1-3 days of fuzzed events, each on an empty or a seeded book, each
    stream's arrivals at most a band from ``bands`` ticks from the other side.

    A seeded day replays the first part of its stream into a book, takes
    that book as the anonymous seed and keeps the rest of the stream, whose
    cancellations and executions of seeded orders then draw on the seed.
    """
    days = []
    for d in range(draw(hst.integers(1, 3))):
        rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
        events = fuzz_stream(rng, draw(hst.integers(0, 400)), band=draw(hst.sampled_from(bands)))
        seed = None
        if draw(hst.booleans()):
            cut = draw(hst.integers(0, len(events)))
            state = BookState()
            for ev in events[:cut]:
                state.apply(ev)
            bids, asks = book_levels(state)
            seed = SeedSnapshot(bids=tuple(bids), asks=tuple(asks))
            events = events[cut:]
        days.append(events_day(dt.date(2016, 1, 4 + d), events, seed=seed))
    return days


@given(
    days=fuzzed_days(),
    levels=hst.integers(1, 10),
    subwindow=hst.sampled_from([1, 5, 10, 30]),
)
def test_one_replay_matches_per_event_oracles(days, levels, subwindow):
    # Five minutes of session; the longest fuzzed streams run past its end.
    _assert_replay_matches_oracles(days, levels, subwindow)


@given(days=fuzzed_days(bands=(2, 3)), levels=hst.sampled_from([1, 3, 5, 10]))
def test_narrow_band_streams_churn_levels_at_the_row_edge(days, levels):
    # Arrivals at most 2-3 ticks from the other side keep the book a few
    # levels deep, so levels appear and vanish at and beyond the row's edge.
    _assert_replay_matches_oracles(days, levels)


@hst.composite
def horizon_days(draw):
    """(day, levels): a seeded day with horizons, its events aimed at the row's edge.

    The seed holds 1 to depth + 2 levels a side, two ticks apart, and each
    side's deepest seed price is its horizon, as when the orderbook row is
    full. Most events aim at rank depth - 1 or depth of the replay's row
    (depth = max(levels, 5)): an arrival one tick better than the level at
    that rank, or beyond the last level, makes a level appear there unless
    the price is taken; a removal there takes a live order or draws on the
    seed, and may make the level vanish. A removal of an unseen order
    beyond the horizon, a cancellation or an execution at a best quote that
    lies beyond it, leaves the book as it is.
    """
    levels = draw(hst.integers(1, 10))
    depth = max(levels, SUMMARY_LEVELS)
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    anon = {}  # (side, price) -> seeded depth left
    for side, best in ((1, 50_000), (-1, 50_200)):
        for i in range(int(rng.integers(1, depth + 3))):
            anon[(side, best - side * 2 * i * TICK)] = int(rng.integers(1, 20))
    horizon = {s: min(p * s for (t, p) in anon if t == s) * s for s in (1, -1)}
    seed = SeedSnapshot(
        bids=tuple((p, q) for (s, p), q in sorted(anon.items(), reverse=True) if s == 1),
        asks=tuple((p, q) for (s, p), q in sorted(anon.items()) if s == -1),
        bid_horizon=horizon[1],
        ask_horizon=horizon[-1],
    )
    live = {}  # order id -> [side, price, size]
    next_live, next_unseen = 1, 1_000_000

    def prices(side):
        """The side's price levels, best first."""
        held = {p for (s, p), q in anon.items() if s == side and q}
        held |= {p for s, p, _ in live.values() if s == side}
        return sorted(held, key=lambda p: -side * p)

    events = []
    ts = T0
    for _ in range(draw(hst.integers(0, 300))):
        if rng.random() < 0.8:
            ts += int(rng.integers(1, 2 * NS))
        side = 1 if rng.random() < 0.5 else -1
        book = prices(side)
        k = int(rng.choice([0, depth - 1, depth, depth - 1, depth, rng.integers(0, depth + 2)]))
        if rng.random() < 0.4:
            if k < len(book):
                price = book[k] + side * TICK
            else:
                base = book[-1] if book else 50_100 - side * 100
                price = base - side * int(rng.integers(1, 3)) * TICK
            opp = prices(-side)
            if opp and side * (price - opp[0]) >= 0:
                continue  # would cross the other side
            kind, oid, size = EventKind.LIMIT_ARRIVAL, next_live, int(rng.integers(1, 20))
            live[oid] = [side, price, size]
            next_live += 1
        elif k < len(book):
            price = book[k]
            kind = EventKind.EXECUTION_VISIBLE if k == 0 and rng.random() < 0.5 else None
            here = [oid for oid, (s, p, _) in live.items() if s == side and p == price]
            pool = anon.get((side, price), 0)
            beyond = side * (horizon[side] - price) > 0
            if beyond:  # only live orders rest here
                take_live = rng.random() < 0.7
            else:
                take_live = here and (not pool or rng.random() < 0.5)
            if take_live:
                oid = here[int(rng.integers(len(here)))]
                held = live[oid][2]
                size = held if rng.random() < 0.6 else int(rng.integers(1, held + 1))
                kind = kind or (EventKind.CANCEL_FULL if size == held else EventKind.CANCEL_PARTIAL)
                if size == held:
                    del live[oid]
                else:
                    live[oid][2] -= size
            else:
                if beyond:  # the replay skips it: nothing changes
                    size = int(rng.integers(1, 20))
                else:
                    size = pool if rng.random() < 0.6 else int(rng.integers(1, pool + 1))
                    anon[(side, price)] = pool - size
                kind, oid = kind or EventKind.CANCEL_PARTIAL, next_unseen
                next_unseen += 1
        else:
            price = horizon[side] - side * int(rng.integers(1, 4)) * TICK
            kind, oid, size = EventKind.CANCEL_PARTIAL, next_unseen, int(rng.integers(1, 20))
            next_unseen += 1
        events.append(LobEvent(ts, kind, oid, size, price, Side.BUY if side == 1 else Side.SELL))
    return events_day(dt.date(2016, 1, 4), events, seed=seed), levels


@given(day_levels=horizon_days(), subwindow=hst.sampled_from([1, 10, 30]))
def test_replay_at_the_row_edge_of_a_seeded_book_matches_oracles(day_levels, subwindow):
    day, levels = day_levels
    _assert_replay_matches_oracles([day], levels, subwindow)


# Seven levels a side, two ticks apart, so a level fits between any two:
# bids 1.4000 down to 1.3880 (orders 1-7, sizes 11-17), asks 1.4040 up to
# 1.4160 (orders 11-17, sizes 21-27), all at the session open.
_LADDER = [arrival(1 + i, 11 + i, 140000 - 200 * i) for i in range(7)] + [
    arrival(11 + i, 21 + i, 140400 + 200 * i, Side.SELL) for i in range(7)
]


@pytest.mark.parametrize("levels", [1, 3, 5, 10])
@pytest.mark.parametrize("k", range(7))
@pytest.mark.parametrize("side", [Side.BUY, Side.SELL])
def test_a_level_appearing_and_vanishing_at_each_rank_matches_oracles(side, k, levels):
    # At rank k of a side: a level appears one tick better than the level
    # resting there and vanishes again; then the resting level vanishes and
    # comes back, and a partial cancel there moves one cell. With depth =
    # max(levels, 5), a vanishing at k = depth - 1 brings the sixth level
    # into a row of 5, or a sentinel into a row of 10, deeper than the side.
    # Ranks levels..depth-1 move the tally but no flow; ranks from depth on
    # move nothing.
    s = 1 if side is Side.BUY else -1
    oid = 1 + k if side is Side.BUY else 11 + k
    size = 11 + k if side is Side.BUY else 21 + k
    price = (140000 if side is Side.BUY else 140400) - s * 200 * k

    def at(seconds, kind, order, qty, px):
        return LobEvent(T0 + seconds * NS, kind, order, qty, px, side)

    events = _LADDER + [
        at(1, EventKind.LIMIT_ARRIVAL, 99, 5, price + s * TICK),
        at(12, EventKind.CANCEL_FULL, 99, 5, price + s * TICK),
        at(23, EventKind.CANCEL_FULL, oid, size, price),
        at(34, EventKind.LIMIT_ARRIVAL, oid, 4, price),
        at(45, EventKind.CANCEL_PARTIAL, oid, 1, price),
    ]
    day = events_day(dt.date(2016, 1, 4), events)
    _assert_replay_matches_oracles([day], levels, session_end=36060)
    flows = [sample.mlofi for sample in _day_samples(events, levels)]
    if k >= levels:
        assert flows == [(0,) * levels] * 6


@pytest.mark.parametrize("levels", [1, 3])
@pytest.mark.parametrize("side", [Side.BUY, Side.SELL])
def test_a_side_going_empty_and_coming_back_matches_oracles(side, levels):
    # The side's one level is executed away, so the book turns one-sided and
    # adds nothing to the tally, then a level comes back, and the side
    # empties once more by a full cancel.
    price = 140000 if side is Side.BUY else 140200
    other = Side.SELL if side is Side.BUY else Side.BUY
    events = [
        arrival(1, 10, price, side),
        arrival(2, 10, 140200 if side is Side.BUY else 140000, other),
        LobEvent(T0 + 5 * NS, EventKind.EXECUTION_VISIBLE, 1, 10, price, side),
        arrival(3, 6, price, side, ts=T0 + 15 * NS),
        arrival(4, 7, price - (100 if side is Side.BUY else -100), side, ts=T0 + 25 * NS),
        LobEvent(T0 + 35 * NS, EventKind.CANCEL_FULL, 3, 6, price, side),
        LobEvent(T0 + 36 * NS, EventKind.CANCEL_FULL, 4, 7, price - (100 if side is Side.BUY
                                                                     else -100), side),
        arrival(5, 2, price, side, ts=T0 + 55 * NS),
    ]
    day = events_day(dt.date(2016, 1, 4), events)
    _assert_replay_matches_oracles([day], levels, session_end=36060)
    comp = compute_day_samples(day, *_grid_60_10(), levels)
    assert comp.discarded_intervals == 5


def test_removals_beyond_a_seeded_horizon_change_nothing():
    # A seed of five levels a side fills the row (levels 3, depth 5), so each
    # side's fifth price is its horizon. Unseen orders beyond it are removed
    # with no effect, in an interval of its own; then the seeded fifth level
    # vanishes, and no level is known to take its place.
    bids = tuple((140000 - 100 * i, 10 + i) for i in range(5))
    asks = tuple((140200 + 100 * i, 20 + i) for i in range(5))
    seed = SeedSnapshot(bids=bids, asks=asks, bid_horizon=139600, ask_horizon=140600)

    def unseen(seconds, kind, oid, size, price, side):
        return LobEvent(T0 + seconds * NS, kind, oid, size, price, side)

    events = [
        unseen(1, EventKind.CANCEL_PARTIAL, 900, 3, 139500, Side.BUY),
        unseen(2, EventKind.CANCEL_FULL, 901, 8, 139000, Side.BUY),
        unseen(3, EventKind.CANCEL_PARTIAL, 902, 3, 140700, Side.SELL),
        unseen(4, EventKind.CANCEL_FULL, 903, 9, 141200, Side.SELL),
        unseen(15, EventKind.CANCEL_FULL, 904, 14, 139600, Side.BUY),
        unseen(16, EventKind.CANCEL_FULL, 905, 24, 140600, Side.SELL),
        unseen(25, EventKind.CANCEL_PARTIAL, 906, 3, 139500, Side.BUY),
    ]
    day = events_day(dt.date(2016, 1, 4), events, seed=seed)
    _assert_replay_matches_oracles([day], 3, session_end=36060)
    comp = compute_day_samples(day, *_grid_60_10(), 5)
    flows = [sample.mlofi for sample in comp.samples]
    assert flows == [(0,) * 5, (0, 0, 0, 0, -14 + 24)] + [(0,) * 5] * 4


def test_a_replay_error_names_the_day_without_a_file():
    session = SessionConfig(session_start=36000, session_end=36060)
    grid = build_grid(session, GridSpec(window_seconds=60, subwindow_seconds=10))
    events = [arrival(1, 10, 140000, ts=36_001 * NS), arrival(1, 5, 139900, ts=36_002 * NS)]
    day = events_day(dt.date(2016, 1, 4), events)
    message = "^2016-01-04: event 1: order id 1 already live$"
    with pytest.raises(InconsistentEvent, match=message):
        compute_day_samples(day, grid.boundaries_ns, 6, 1)


# -- the columnar replay against the loop ------------------------------------


def _seeded_mid_stream(events, cut, row_levels):
    """The stream after its first ``cut`` events, seeded with the book they
    leave as an orderbook row of ``row_levels`` levels shows it: a side the
    row fills has its deepest price as its horizon, as a parsed seed has."""
    state = BookState()
    for ev in events[:cut]:
        state.apply(ev)
    row = level_snapshot(state, row_levels)
    seed = SeedSnapshot(
        bids=tuple((p, q) for p, q in zip(row[2::4], row[3::4]) if q),
        asks=tuple((p, q) for p, q in zip(row[0::4], row[1::4]) if q),
        bid_horizon=min(row[2::4]), ask_horizon=max(row[0::4]),
    )
    return events[cut:], seed


def _from_file(events, seed, like=None, rows_before=0, skipped=()):
    """A day of ``events`` as if read from a message file, which errors name
    by line (the file is never read)."""
    if like is not None:
        rows_before, skipped = like.rows_before, like.skipped_lines
    day = events_day(dt.date(2016, 1, 4), events, seed)
    return dataclasses.replace(day, path=Path("SYN_2016-01-04_message_10.csv"),
                               rows_before=rows_before, skipped_lines=list(skipped))


def _reuse_ids(events):
    """``events`` with each order id replaced by the smallest that no order
    of the stream left resting holds, as an exchange may reuse ids: an id
    arrives again once its order is gone, and on a seeded book a removal of
    an unseen order takes an id whose order is gone. The book reads the
    events as before."""
    new_id, resting, out = {}, {}, []
    for e in events:
        oid = e.order_id
        if e.kind.value < EventKind.EXECUTION_HIDDEN.value:
            if e.kind is EventKind.LIMIT_ARRIVAL or oid not in new_id:
                free = min(set(range(len(resting) + 1)) - resting.keys())
                if e.kind is EventKind.LIMIT_ARRIVAL:
                    new_id[e.order_id], resting[free] = free, e.size
                oid = free
            else:
                oid = new_id[e.order_id]
                resting[oid] -= e.size
                if not resting[oid]:
                    del resting[oid], new_id[e.order_id]
        out.append(dataclasses.replace(e, order_id=oid))
    return out


def _as_dtype(day, dtype):
    """``day`` with its columns as ``dtype`` arrays (object: of Python ints)."""
    return dataclasses.replace(day, columns=EventColumns(*(c.astype(dtype) for c in day.columns)))


@hst.composite
def replay_cases(draw):
    """(day, boundaries, levels): a fuzzed stream on an empty book or seeded
    mid-stream with horizons, and a grid whose first boundary falls among the
    events, with events at or before it, empty intervals, and often events
    after its last boundary. Often order ids are reused (``_reuse_ids``), and
    often the columns are object arrays of Python ints."""
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    events = fuzz_stream(rng, draw(hst.integers(0, 300)), band=draw(hst.sampled_from([2, 3, 6])))
    seed = None
    if events and draw(hst.booleans()):
        events, seed = _seeded_mid_stream(events, draw(hst.integers(0, len(events))),
                                          draw(hst.integers(1, 10)))
    if draw(hst.booleans()):
        events = _reuse_ids(events)
    times = [e.timestamp_ns for e in events] or [T0]
    if draw(hst.booleans()):
        t0 = draw(hst.sampled_from(times)) - draw(hst.sampled_from([0, 1, NS]))
        step = draw(hst.sampled_from([NS // 4, NS, 3 * NS, 20 * NS]))
        boundaries = [t0 + j * step for j in range(draw(hst.integers(1, 40)) + 1)]
    else:  # event times, some repeated: intervals ending on events, and empty ones
        boundaries = sorted(draw(hst.lists(hst.sampled_from(times), min_size=1, max_size=30)))
    day = _from_file(events, seed, rows_before=draw(hst.integers(0, 3)),
                     skipped=sorted(draw(hst.sets(hst.integers(1, 400), max_size=4))))
    if draw(hst.booleans()):
        day = _as_dtype(day, object)
    return day, boundaries, draw(hst.integers(1, 10))


@given(replay_cases())
def test_the_columnar_replay_takes_each_consistent_day_and_equals_the_loop(case):
    day, boundaries, levels = case
    loop = oracle_replay(day, boundaries, 1, levels)
    columnar = imbalance._replay_columns(day, boundaries, 1, levels)
    assert columnar is not None
    assert columnar.intervals == loop.intervals
    assert columnar.discarded_intervals == loop.discarded_intervals
    assert columnar.book == loop.book
    assert columnar == loop
    # On Python ints or int64 columns alike: equal values, and equal dtypes.
    assert imbalance._replay_columns(_as_dtype(day, np.int64), boundaries, 1, levels) == columnar


def _corrupted(events, i, field, draw):
    """``events`` with one field of event ``i`` changed."""
    ev = events[i]
    if field == "size":
        value = max(1, ev.size + draw(hst.sampled_from([-1, 1, 7, 100])))
    elif field == "price":
        value = max(1, ev.price + TICK * draw(hst.sampled_from([-2, -1, 1, 2])))
    elif field == "order_id":
        value = draw(hst.sampled_from(sorted({e.order_id for e in events}) + [10**9]))
    else:
        value = Side.SELL if ev.side is Side.BUY else Side.BUY
    return events[:i] + [dataclasses.replace(ev, **{field: value})] + events[i + 1:]


@given(replay_cases(), hst.sampled_from(["size", "price", "order_id", "side"]), hst.data())
def test_a_corrupted_event_raises_the_books_error(case, field, data):
    day, boundaries, levels = case
    events = day.events
    book = [i for i, e in enumerate(events) if e.kind.value < EventKind.EXECUTION_HIDDEN.value]
    if not book:
        return
    corrupt = _from_file(_corrupted(events, data.draw(hst.sampled_from(book)), field, data.draw),
                         day.seed, like=day)
    state = corrupt.seed.build_book() if corrupt.seed else BookState()
    try:
        for event in corrupt.events:
            if event.timestamp_ns > boundaries[-1]:
                break
            state.apply(event)
    except InconsistentEvent as exc:
        # Whenever the book finds an error, the columnar replay declines the day.
        assert imbalance._replay_columns(corrupt, boundaries, 1, levels) is None
        with pytest.raises(InconsistentEvent) as raised:
            compute_day_samples(corrupt, boundaries, 1, levels)
        assert (raised.value.event_index, raised.value.reason) == (exc.event_index, exc.reason)
        assert str(raised.value) == (
            f"{corrupt.path}: line {corrupt.line_of(exc.event_index)}: {exc.reason}")
    else:
        assert compute_day_samples(corrupt, boundaries, 1, levels) == oracle_replay(
            corrupt, boundaries, 1, levels)


def _rows_day(rows, seed=None):
    """A day of (seconds from 10:00, type code, order id, size, price,
    direction) rows, on the grid of ``_grid_60_10``."""
    rows = [(T0 + round(t * NS), *rest) for t, *rest in rows]
    return DaySlice(dt.date(2016, 1, 4), EventColumns.from_rows(rows), seed)


# One level a side, each the side's horizon.
_HORIZON_SEED = SeedSnapshot(bids=((140000, 10),), asks=((140100, 10),),
                             bid_horizon=140000, ask_horizon=140100)


@pytest.mark.parametrize("reason, rows, seed", [
    ("order id 1 already live", [(1, 1, 1, 10, 140000, 1), (2, 1, 1, 5, 139900, 1)], None),
    ("buy limit crosses the ask", [(1, 1, 1, 10, 140100, -1), (2, 1, 2, 5, 140100, 1)], None),
    ("sell limit crosses the bid", [(1, 1, 1, 10, 140000, 1), (2, 1, 2, 5, 140000, -1)], None),
    ("execution at 139900 but best BUY is 140000",
     [(1, 1, 1, 10, 140000, 1), (2, 1, 2, 5, 139900, 1), (3, 4, 2, 5, 139900, 1)], None),
    ("execution at 140000 but best SELL is None", [(1, 1, 1, 10, 140000, -1),
                                                    (2, 3, 1, 10, 140000, -1),
                                                    (3, 4, 2, 5, 140000, -1)], None),
    ("order 1 rests at BUY/140000, event says BUY/139900",
     [(1, 1, 1, 10, 140000, 1), (2, 2, 1, 5, 139900, 1)], None),
    ("order 1 rests at BUY/140000, event says SELL/140000",
     [(1, 1, 1, 10, 140000, 1), (2, 2, 1, 5, 140000, -1)], None),
    ("full cancel of 9 but order holds 10", [(1, 1, 1, 10, 140000, 1), (2, 3, 1, 9, 140000, 1)],
     None),
    ("removal of 6 exceeds resting size 5",
     [(1, 1, 1, 10, 140000, 1), (2, 2, 1, 5, 140000, 1), (3, 4, 1, 6, 140000, 1)], None),
    ("cancellation of unseen order 7 needs 11 at 140000 but seeded depth is 10",
     [(1, 2, 7, 11, 140000, 1)], _HORIZON_SEED),
    ("execution of unseen order 8 needs 4 at 140100 but seeded depth is 3",
     [(1, 2, 7, 7, 140100, -1), (2, 4, 8, 4, 140100, -1)], _HORIZON_SEED),
    ("unknown type code 0", [(1, 1, 1, 10, 140000, 1), (2, 0, 1, 10, 140000, 1)], None),
])
def test_the_columnar_replay_declines_each_event_the_book_contradicts(reason, rows, seed):
    # Each contradiction at its edge (a cross at the quote, a removal one
    # share too large), in the last event.
    day = _rows_day(rows, seed)
    boundaries, n_sub = _grid_60_10()
    assert imbalance._replay_columns(day, boundaries, n_sub, 3) is None
    with pytest.raises(
            InconsistentEvent, match=f"^2016-01-04: event {len(rows) - 1}: {re.escape(reason)}$"):
        compute_day_samples(day, boundaries, n_sub, 3)


def test_a_day_the_columnar_replay_declines_and_the_book_accepts_is_an_error():
    day = _rows_day([(1, 1, 1, 10, 140000, 1)])
    boundaries, n_sub = _grid_60_10()
    with mock.patch.object(imbalance, "_replay_columns", return_value=None), pytest.raises(
            RuntimeError, match="^2016-01-04: the columnar replay declined a day that the book "
                                "accepts$"):
        compute_day_samples(day, boundaries, n_sub, 3)


def test_executions_beyond_the_horizon_of_an_empty_side_count_at_the_quote():
    # Each side's one seeded level is cancelled; an execution of an unseen
    # order beyond the horizon then changes nothing, and its bucket is the
    # best quote's, as for every execution.
    day = _rows_day([(1, 3, 7, 10, 140000, 1), (2, 3, 8, 10, 140100, -1),
                     (3, 4, 9, 5, 139900, 1), (4, 4, 10, 5, 140300, -1)], _HORIZON_SEED)
    boundaries, n_sub = _grid_60_10()
    columnar = imbalance._replay_columns(day, boundaries, n_sub, 3)
    assert columnar == oracle_replay(day, boundaries, n_sub, 3)
    assert columnar.book.flow_counts == [0, 4, 0]


_BOOK_ROWS = [(1, 1, 1, 10, 140000, 1), (25, 1, 2, 10, 140100, -1)]


@pytest.mark.parametrize("rows, boundaries, levels, message", [
    (_BOOK_ROWS + [(5, 1, 3, 4, 139900, 1)], None, 3, "the events must be in time order"),
    (_BOOK_ROWS + [(30, 1, 3, 4, 139900, 0)], None, 3,
     "an event's direction is neither 1 (buy) nor -1 (sell)"),
    (_BOOK_ROWS + [(30, 1, 3, 0, 139900, 1)], None, 3, "a book event's size is below 1"),
    (_BOOK_ROWS + [(30, 2, 3, -1, 139900, 1)], None, 3, "a book event's size is below 1"),
    (_BOOK_ROWS + [(30, 1, 3, 4, 0, 1)], None, 3, "a book price lies outside 1..9999999998"),
    (_BOOK_ROWS + [(30, 1, 3, 4, ASK_ABSENT, -1)], None, 3,
     "a book price lies outside 1..9999999998"),
    (_BOOK_ROWS, [], 3, "the interval boundaries must be a nonempty ascending sequence"),
    (_BOOK_ROWS, [T0 + NS, T0], 3,
     "the interval boundaries must be a nonempty ascending sequence"),
    (_BOOK_ROWS, None, 0, "levels must be at least 1, got 0"),
])
def test_input_no_message_file_can_hold_raises_value_error(rows, boundaries, levels, message):
    # Days built through the API only: the parser rejects each of these.
    if boundaries is None:
        boundaries = _grid_60_10()[0]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compute_day_samples(_rows_day(rows), boundaries, 6, levels)


@pytest.mark.parametrize("seed", range(4))
def test_a_reused_order_id_takes_the_columnar_replay_and_matches_the_loop(seed):
    # An order fully cancelled, and its id arriving again: the book takes it.
    events = fuzz_stream(np.random.default_rng(seed), 300)
    gone = next(e for e in events if e.kind is EventKind.CANCEL_FULL)
    t = events[-1].timestamp_ns
    events += [arrival(gone.order_id, 7, TICK, ts=t + NS),
               LobEvent(t + 2 * NS, EventKind.CANCEL_PARTIAL, gone.order_id, 3, TICK, Side.BUY)]
    day = _from_file(events, None)
    boundaries = [events[0].timestamp_ns + j * 5 * NS for j in range(len(events))]
    columnar = imbalance._replay_columns(day, boundaries, 1, 3)
    assert columnar is not None
    assert columnar == oracle_replay(day, boundaries, 1, 3)
    assert compute_day_samples(day, boundaries, 1, 3) == columnar


def test_an_id_arriving_again_after_a_full_cancel_starts_a_new_order():
    # Order 1 is cancelled and arrives again at another price and side; its
    # second cancel removes the new order.
    day = _rows_day([(1, 1, 1, 10, 140000, 1), (2, 1, 2, 10, 140200, -1),
                     (12, 3, 1, 10, 140000, 1), (13, 1, 1, 6, 140100, -1),
                     (24, 2, 1, 4, 140100, -1), (35, 4, 1, 2, 140100, -1)])
    boundaries, n_sub = _grid_60_10()
    columnar = imbalance._replay_columns(day, boundaries, n_sub, 3)
    assert columnar is not None
    assert columnar == oracle_replay(day, boundaries, n_sub, 3)
    assert columnar.intervals.flows[:4, 0].tolist() == [0, -10 - 6, 4, 2]


def test_a_removal_after_its_order_emptied_draws_on_the_seeded_pool():
    # Order 7 joins the seeded bid of 10 and is cancelled; removals of id 7
    # then take the seeded shares, as an unseen order's would, up to all 10.
    day = _rows_day([(1, 1, 7, 5, 140000, 1), (2, 3, 7, 5, 140000, 1),
                     (12, 2, 7, 4, 140000, 1), (23, 4, 7, 6, 140000, 1)], _HORIZON_SEED)
    boundaries, n_sub = _grid_60_10()
    columnar = imbalance._replay_columns(day, boundaries, n_sub, 3)
    assert columnar is not None
    assert columnar == oracle_replay(day, boundaries, n_sub, 3)
    assert columnar.intervals.flows[:3, 0].tolist() == [0, -4, -6]
    # One share more than the pool holds: the book's contradiction.
    day = _rows_day([(1, 1, 7, 5, 140000, 1), (2, 3, 7, 5, 140000, 1),
                     (12, 2, 7, 4, 140000, 1), (23, 4, 7, 7, 140000, 1)], _HORIZON_SEED)
    assert imbalance._replay_columns(day, boundaries, n_sub, 3) is None
    with pytest.raises(InconsistentEvent, match="^2016-01-04: event 3: execution of unseen "
                                                "order 7 needs 7 at 140000 but seeded depth is 6$"):
        compute_day_samples(day, boundaries, n_sub, 3)


def test_an_id_arriving_while_its_order_rests_is_already_live():
    # After a partial cancel order 1 still rests, so its id may not arrive.
    day = _rows_day([(1, 1, 1, 10, 140000, 1), (2, 2, 1, 9, 140000, 1),
                     (3, 1, 1, 5, 139900, 1)])
    boundaries, n_sub = _grid_60_10()
    assert imbalance._replay_columns(day, boundaries, n_sub, 3) is None
    with pytest.raises(InconsistentEvent, match="^2016-01-04: event 2: order id 1 already live$"):
        compute_day_samples(day, boundaries, n_sub, 3)


def test_an_order_id_past_int64_replays_on_python_ints():
    big = 2**64 + 5
    day = _rows_day([(1, 1, big, 10, 140000, 1), (2, 1, 5, 10, 140100, -1),
                     (12, 3, big, 10, 140000, 1), (13, 1, -big, 4, 139900, 1)])
    assert day.columns.order_ids.dtype == object
    boundaries, n_sub = _grid_60_10()
    comp = compute_day_samples(day, boundaries, n_sub, 2)
    assert comp == oracle_replay(day, boundaries, n_sub, 2)
    assert all(c.dtype == np.int64 for c in vars(comp.intervals).values() if c.dtype != bool)
    assert comp.intervals.flows.tolist() == [[0, 0], [-10 + 4, 0]] + [[0, 0]] * 4


@pytest.mark.parametrize("shift, scale", [(10**19, 1), (0, 10**15)])
def test_order_ids_past_int64_or_far_apart_replay_as_the_day_with_its_own_ids(shift, scale):
    # Ids plus 10**19 leave int64 (an object column); ids times 10**15 stay
    # in it, but too far apart for the sort keys. Both replay as the day with
    # its own ids, on Python ints.
    twin, boundaries = _fuzz_day_both_paths_take()
    ids = np.array([shift + scale * i for i in twin.columns.order_ids.tolist()], object)
    day = dataclasses.replace(twin, columns=twin.columns._replace(
        order_ids=lobster._int_column(ids)))
    assert day.columns.order_ids.dtype == (object if shift else np.int64)
    assert all(c.dtype == np.int64 for f, c in day.columns._asdict().items() if f != "order_ids")
    assert compute_day_samples(day, boundaries, 1, 4) == compute_day_samples(twin, boundaries, 1, 4)


@pytest.mark.parametrize("extra, exact", [(0, False), (1, True)])
def test_a_day_of_max_events_replays_on_python_ints(monkeypatch, extra, exact):
    # The fuzzed day's events up to t_N number _MAX_EVENTS - 1 + extra.
    events = fuzz_stream(np.random.default_rng(5), 200)
    boundaries = [events[0].timestamp_ns - NS + j * 3 * NS for j in range(40)]
    replayed = sum(e.timestamp_ns <= boundaries[-1] for e in events)
    monkeypatch.setattr(imbalance, "_MAX_EVENTS", replayed + 1 - extra)
    day = _from_file(events, None)
    with mock.patch.object(imbalance, "_replay_columns", wraps=imbalance._replay_columns) as spy:
        comp = compute_day_samples(day, boundaries, 1, 4)
    assert [call.args[4:] for call in spy.call_args_list] == [()] + [(object,)] * exact
    assert comp == oracle_replay(day, boundaries, 1, 4)


def test_the_columnar_tally_is_exact_past_int64():
    # Quotes near the sentinel held for hours: ask + bid times the
    # nanoseconds held passes 2**63, and the tally's sums stay exact.
    top = ASK_ABSENT - 1
    events = [
        arrival(1, 5, top - 2 * TICK),
        arrival(2, 7, top, Side.SELL),
        arrival(3, 4, top - 3 * TICK, ts=T0 + 1000 * NS),
        LobEvent(T0 + 3000 * NS, EventKind.CANCEL_PARTIAL, 2, 3, top, Side.SELL),
        arrival(4, 9, top - TICK, Side.SELL, ts=T0 + 5000 * NS),
    ]
    day = events_day(dt.date(2016, 1, 4), events)
    boundaries = [T0 + j * 600 * NS for j in range(11)]
    columnar = imbalance._replay_columns(day, boundaries, 1, 3)
    assert columnar is not None
    assert columnar == oracle_replay(day, boundaries, 1, 3)
    assert max(columnar.book.sums[0]) >= 2**63


def test_a_day_with_one_huge_order_takes_the_columnar_replay():
    # The default ZI day with one bid of 1e10 shares below every price of the
    # day: its size times the day's event count passes 2**63, though no flow
    # sum comes near that.
    session = SessionConfig()
    events = generate_zi_day(ZiParams(), session).events
    huge = arrival(max(e.order_id for e in events) + 1, 10**10,
                   min(e.price for e in events) - TICK, ts=events[0].timestamp_ns)
    day = events_day(dt.date(2016, 1, 4), [huge] + events)
    grid = build_grid(session, GridSpec(window_seconds=1800, subwindow_seconds=10))
    columnar = imbalance._replay_columns(day, grid.boundaries_ns, grid.n_sub, 10)
    assert columnar is not None
    assert columnar == oracle_replay(day, grid.boundaries_ns, grid.n_sub, 10)
    assert np.abs(columnar.intervals.flows).max() >= 10**10


@pytest.mark.parametrize("size, exact", [(2**60 - 1, False), (2**60, True)])
def test_the_flow_guard_reruns_on_python_ints_only_flow_sums_that_could_leave_int64(size, exact):
    # One order of ``size`` shares arrives and is cancelled, twice: the four
    # book events bound every depth by 4 * size, and each opens or closes the
    # one level, so the bound on the flow sums is 4 * size + 4 * size.
    day = _rows_day([(1, 1, 1, size, 140000, 1), (12, 3, 1, size, 140000, 1),
                     (23, 1, 2, size, 140000, 1), (34, 3, 2, size, 140000, 1)])
    boundaries, n_sub = _grid_60_10()
    loop = oracle_replay(day, boundaries, n_sub, 3)
    assert loop.intervals.flows[:2].tolist() == [[size, 0, 0], [-size, 0, 0]]
    with mock.patch.object(imbalance, "_replay_columns", wraps=imbalance._replay_columns) as spy:
        assert imbalance._replay_columns(day, boundaries, n_sub, 3) == loop
    assert [call.args[4:] for call in spy.call_args_list] == [()] + [(object,)] * exact
    assert compute_day_samples(day, boundaries, n_sub, 3) == loop


# -- the interval columns ---------------------------------------------------------


def _fuzz_day_both_paths_take():
    events = fuzz_stream(np.random.default_rng(11), 300)
    boundaries = [events[0].timestamp_ns - NS + j * 3 * NS for j in range(40)]
    return _from_file(events, None), boundaries


def _flow_past_int64_day():
    """A day whose first interval's level-1 flow is 2**63 + 3: two bids of
    about 2**62 shares join a new best bid, on a book two-sided from t_0."""
    return _rows_day([(0, 1, 1, 1, 139900, 1), (0, 1, 2, 10, 140100, -1),
                      (1, 1, 3, 2**62 + 1, 140000, 1), (2, 1, 4, 2**62 + 2, 140000, 1),
                      (15, 3, 4, 2**62 + 2, 140000, 1)])


def test_the_columnar_columns_are_int64_arrays_equal_to_the_loops():
    day, boundaries = _fuzz_day_both_paths_take()
    columnar = imbalance._replay_columns(day, boundaries, 1, 4)
    loop = oracle_replay(day, boundaries, 1, 4)
    assert columnar is not None
    assert not columnar.intervals.kept.all() and columnar.intervals.kept.any()
    for name in ("flows", "buy_volumes", "sell_volumes", "delta_p", "kept"):
        a, b = getattr(columnar.intervals, name), getattr(loop.intervals, name)
        assert a.dtype == b.dtype == (bool if name == "kept" else np.int64)
        assert a.shape == b.shape == ((39, 4) if name == "flows" else (39,))
        assert np.array_equal(a, b)
    assert columnar.intervals == loop.intervals
    assert columnar.discarded_intervals == np.count_nonzero(~loop.intervals.kept) > 0


def test_a_flow_past_int64_gives_an_object_column_whose_design_is_float_of_each_int():
    day = _flow_past_int64_day()
    session = SessionConfig(session_start=36000, session_end=36060)
    grid = build_grid(session, GridSpec(window_seconds=60, subwindow_seconds=10))
    comp = compute_day_samples(day, grid.boundaries_ns, grid.n_sub, 2)
    assert comp == oracle_replay(day, grid.boundaries_ns, grid.n_sub, 2)
    cols = comp.intervals
    assert cols.flows.dtype == object
    assert cols.flows.tolist() == [[2**63 + 3, 1], [-(2**62 + 2), 0]] + [[0, 0]] * 4
    assert all(c.dtype == np.int64 for c in (cols.buy_volumes, cols.sell_volumes, cols.delta_p))
    assert cols.kept.all()
    [problem] = assemble_problems(cols, grid, 2, TICK, day.trading_date)
    assert [[v.hex() for v in row] for row in problem.X[:, 1:].tolist()] == [
        [float(v).hex() for v in row] for row in cols.flows.tolist()]
    assert problem.X[0, 1] == float(2**63 + 3) == 2.0**63


@pytest.mark.parametrize("make", ["columnar", "object"])
def test_every_sample_field_is_a_python_int(make):
    if make == "columnar":
        day, boundaries = _fuzz_day_both_paths_take()
        comp = compute_day_samples(day, boundaries, 4, 3)
    else:
        boundaries, n_sub = _grid_60_10()
        comp = compute_day_samples(_flow_past_int64_day(), boundaries, n_sub, 2)
    samples = [s for s in comp.samples if s is not None]
    assert samples
    for s in samples:
        values = (s.window_index, s.sub_index, s.start_ns, s.end_ns, *s.mlofi, s.buy_volume,
                  s.sell_volume, s.delta_p)
        assert all(type(v) is int for v in values)
