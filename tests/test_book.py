"""Book engine: event application, snapshots, mid/spread, invariants."""

import numpy as np
import pytest

from mlofi.book import (
    BookState,
    EventKind,
    LevelQuote,
    LobEvent,
    Side,
    level_snapshot,
    mid_and_spread,
)
from mlofi.errors import InconsistentEvent, OneSidedBook

from conftest import fuzz_stream

NS = 1_000_000_000


def ev(kind, oid, size, price, side, ts=36_000 * NS):
    return LobEvent(ts, kind, oid, size, price, side)


def arrival(oid, size, price, side=Side.BUY, ts=36_000 * NS):
    return ev(EventKind.LIMIT_ARRIVAL, oid, size, price, side, ts)


def test_first_order_into_empty_book():
    state = BookState().apply(arrival(1, 10, 140000))
    assert state.bid_levels() == [LevelQuote(140000, 10)]
    assert state.ask_levels() == []
    assert state.event_seq == 1


def test_worked_example_arrival_above_best():
    # Two resting buys at 1.40/1.39 (x10 each); a buy for 7 arrives at 1.41.
    state = BookState()
    state.apply(arrival(1, 10, 140000))
    state.apply(arrival(2, 10, 139000))
    state.apply(arrival(3, 7, 141000))
    assert state.bid_levels() == [
        LevelQuote(141000, 7),
        LevelQuote(140000, 10),
        LevelQuote(139000, 10),
    ]


def test_execution_consumes_whole_level():
    state = BookState()
    state.apply(arrival(1, 10, 140000))
    state.apply(arrival(2, 5, 141000, Side.SELL))
    state.apply(ev(EventKind.EXECUTION_VISIBLE, 2, 5, 141000, Side.SELL))
    assert state.ask_levels() == []
    assert state.bid_levels() == [LevelQuote(140000, 10)]


def test_level_snapshot_padding_and_order():
    state = BookState()
    for i, price in enumerate((140000, 139000, 138000, 137000), start=1):
        state.apply(arrival(i, i, price))
    snap = level_snapshot(state, 10)
    assert snap.bids[0] == LevelQuote(140000, 1)
    assert snap.bids[3] == LevelQuote(137000, 4)
    assert all(q is None for q in snap.bids[4:])
    assert all(q is None for q in snap.asks)
    prices = [q.price for q in snap.bids if q is not None]
    assert prices == sorted(prices, reverse=True)


def test_empty_book_snapshot_all_absent():
    snap = level_snapshot(BookState(), 2)
    assert snap.bids == (None, None)
    assert snap.asks == (None, None)


def test_mid_and_spread_exact():
    state = BookState()
    state.apply(arrival(1, 10, 139000))
    state.apply(arrival(2, 10, 141000, Side.SELL))
    mq = mid_and_spread(state)
    assert mq.mid_x2 == 280000  # mid 140000, held exactly as 2x
    assert mq.spread == 2000


def test_mid_one_tick_spread_half_tick_mid():
    state = BookState()
    state.apply(arrival(1, 10, 140000))
    state.apply(arrival(2, 10, 140100, Side.SELL))
    mq = mid_and_spread(state)
    assert mq.mid_x2 == 280100  # mid 140050: not representable in whole units
    assert mq.spread == 100


def test_mid_after_worked_example_with_ask():
    state = BookState()
    state.apply(arrival(1, 10, 140000))
    state.apply(arrival(2, 10, 139000))
    state.apply(arrival(3, 7, 141000))
    state.apply(arrival(4, 5, 142000, Side.SELL))
    assert mid_and_spread(state).mid_x2 == 2 * 141500


def test_one_sided_book_raises():
    state = BookState()
    state.apply(arrival(1, 10, 140000))
    with pytest.raises(OneSidedBook):
        mid_and_spread(state)


def test_cancel_exceeding_depth_is_inconsistent():
    state = BookState()
    state.apply(arrival(1, 10, 140000))
    with pytest.raises(InconsistentEvent):
        state.apply(ev(EventKind.CANCEL_PARTIAL, 1, 11, 140000, Side.BUY))


def test_execution_off_the_front_is_inconsistent():
    state = BookState()
    state.apply(arrival(1, 10, 140000))
    state.apply(arrival(2, 10, 139000))
    with pytest.raises(InconsistentEvent) as exc:
        state.apply(ev(EventKind.EXECUTION_VISIBLE, 2, 5, 139000, Side.BUY))
    assert "event 2" in str(exc.value)


def test_crossing_arrival_is_inconsistent():
    state = BookState()
    state.apply(arrival(1, 10, 140000))
    state.apply(arrival(2, 10, 140100, Side.SELL))
    with pytest.raises(InconsistentEvent):
        state.apply(arrival(3, 1, 140100, Side.BUY))


def test_hidden_execution_and_halt_leave_book_but_advance_seq():
    state = BookState()
    state.apply(arrival(1, 10, 140000))
    before = level_snapshot(state, 3)
    state.apply(ev(EventKind.EXECUTION_HIDDEN, 99, 5, 140500, Side.SELL))
    state.apply(ev(EventKind.HALT, 0, 1, 1, Side.BUY))
    state.apply(ev(EventKind.CROSS_TRADE, 0, 50, 140000, Side.BUY))
    assert level_snapshot(state, 3) == before
    assert state.event_seq == 4


def test_seeded_book_absorbs_unseen_cancellations():
    state = BookState.from_snapshot(bids=[(140000, 30)], asks=[(140200, 25)])
    state.apply(ev(EventKind.CANCEL_PARTIAL, 777, 10, 140000, Side.BUY))
    assert state.bid_levels() == [LevelQuote(140000, 20)]
    state.apply(ev(EventKind.EXECUTION_VISIBLE, 778, 25, 140200, Side.SELL))
    assert state.ask_levels() == []
    assert state.seeded_executions == 1
    with pytest.raises(InconsistentEvent):
        state.apply(ev(EventKind.CANCEL_FULL, 779, 21, 140000, Side.BUY))


def test_arrival_then_full_cancel_restores_snapshot():
    rng = np.random.default_rng(11)
    events = fuzz_stream(rng, 200)
    state = BookState()
    for e in events:
        state.apply(e)
    before = level_snapshot(state, 8)
    ts = events[-1].timestamp_ns
    price = (state.best_bid or 50000) - 100
    oid = 10_000_000
    state.apply(LobEvent(ts, EventKind.LIMIT_ARRIVAL, oid, 9, price, Side.BUY))
    state.apply(LobEvent(ts, EventKind.CANCEL_FULL, oid, 9, price, Side.BUY))
    assert level_snapshot(state, 8) == before


def test_fuzzed_streams_keep_invariants():
    rng = np.random.default_rng(5)
    for trial in range(20):
        events = fuzz_stream(rng, 500)
        state = BookState()
        for e in events:
            state.apply(e)
            bids = state.bid_levels()
            asks = state.ask_levels()
            assert all(q.depth >= 1 for q in bids + asks)
            bp = [q.price for q in bids]
            ap = [q.price for q in asks]
            assert bp == sorted(bp, reverse=True)
            assert ap == sorted(ap)
            if bids and asks:
                assert bids[0].price < asks[0].price


def test_replay_is_deterministic():
    rng = np.random.default_rng(21)
    events = fuzz_stream(rng, 1500)

    def run():
        state = BookState()
        for e in events:
            state.apply(e)
        return level_snapshot(state, 10), state.event_seq

    assert run() == run()
