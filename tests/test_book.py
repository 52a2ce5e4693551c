"""Book engine: event application, snapshots, mid/spread, invariants."""

import numpy as np
import pytest

from mlofi.book import (
    ASK_ABSENT,
    BID_ABSENT,
    BookState,
    EventKind,
    LobEvent,
    Side,
    level_snapshot,
)
from mlofi.errors import InconsistentEvent

from conftest import book_levels, fuzz_stream

NS = 1_000_000_000


def ev(kind, oid, size, price, side, ts=36_000 * NS):
    return LobEvent(ts, kind, oid, size, price, side)


def arrival(oid, size, price, side=Side.BUY, ts=36_000 * NS):
    return ev(EventKind.LIMIT_ARRIVAL, oid, size, price, side, ts)


def test_first_order_into_empty_book():
    state = BookState().apply(arrival(1, 10, 140000))
    assert book_levels(state) == ([(140000, 10)], [])
    assert state.event_seq == 1


def test_worked_example_arrival_above_best():
    # Two resting buys at 1.40/1.39 (x10 each); a buy for 7 arrives at 1.41.
    state = BookState()
    state.apply(arrival(1, 10, 140000))
    state.apply(arrival(2, 10, 139000))
    state.apply(arrival(3, 7, 141000))
    assert book_levels(state)[0] == [(141000, 7), (140000, 10), (139000, 10)]


def test_execution_consumes_whole_level():
    state = BookState()
    state.apply(arrival(1, 10, 140000))
    state.apply(arrival(2, 5, 141000, Side.SELL))
    state.apply(ev(EventKind.EXECUTION_VISIBLE, 2, 5, 141000, Side.SELL))
    assert book_levels(state) == ([(140000, 10)], [])


def test_level_snapshot_padding_and_order():
    state = BookState()
    for i, price in enumerate((140000, 139000, 138000, 137000), start=1):
        state.apply(arrival(i, i, price))
    state.apply(arrival(5, 9, 141000, Side.SELL))
    row = level_snapshot(state, 10)
    # ask1p, ask1s, bid1p, bid1s, ... with sentinels for absent levels.
    assert row[:8] == (141000, 9, 140000, 1, ASK_ABSENT, 0, 139000, 2)
    assert row[12:16] == (ASK_ABSENT, 0, 137000, 4)
    assert row[16:] == (ASK_ABSENT, 0, BID_ABSENT, 0) * 6
    assert len(row) == 40


def test_empty_book_snapshot_all_absent():
    assert level_snapshot(BookState(), 2) == (ASK_ABSENT, 0, BID_ABSENT, 0) * 2


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


@pytest.mark.parametrize("kind", [
    EventKind.LIMIT_ARRIVAL,
    EventKind.CANCEL_PARTIAL,
    EventKind.CANCEL_FULL,
    EventKind.EXECUTION_VISIBLE,
    EventKind.EXECUTION_HIDDEN,
])
def test_order_bearing_event_needs_a_positive_size(kind):
    with pytest.raises(ValueError, match=f"^size must be >= 1 for {kind.name}, got 0$"):
        ev(kind, 1, 0, 140000, Side.BUY)


@pytest.mark.parametrize("kind", [EventKind.CROSS_TRADE, EventKind.HALT])
def test_cross_trade_and_halt_take_size_zero(kind):
    assert ev(kind, 0, 0, 140000, Side.SELL).size == 0


def test_seeded_book_absorbs_unseen_cancellations():
    state = BookState.from_snapshot(bids=[(140000, 30)], asks=[(140200, 25)])
    state.apply(ev(EventKind.CANCEL_PARTIAL, 777, 10, 140000, Side.BUY))
    assert book_levels(state) == ([(140000, 20)], [(140200, 25)])
    state.apply(ev(EventKind.EXECUTION_VISIBLE, 778, 25, 140200, Side.SELL))
    assert book_levels(state) == ([(140000, 20)], [])
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
            bids, asks = book_levels(state)
            assert all(depth >= 1 for _, depth in bids + asks)
            bp = [price for price, _ in bids]
            ap = [price for price, _ in asks]
            assert bp == sorted(bp, reverse=True)
            assert ap == sorted(ap)
            if bids and asks:
                assert bids[0][0] < asks[0][0]


def test_replay_is_deterministic():
    rng = np.random.default_rng(21)
    events = fuzz_stream(rng, 1500)

    def run():
        state = BookState()
        for e in events:
            state.apply(e)
        return level_snapshot(state, 10), state.event_seq

    assert run() == run()
