"""Book engine: event application, snapshots, mid/spread, invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


B, S = Side.BUY, Side.SELL
ARRIVAL, PARTIAL, FULL, EXEC = (EventKind.LIMIT_ARRIVAL, EventKind.CANCEL_PARTIAL,
                                EventKind.CANCEL_FULL, EventKind.EXECUTION_VISIBLE)

# Bids 1.40 x10 (order 1) and 1.39 x10 (order 2), ask 1.41 x5 (order 3): events 0-2.
_LIVE = [arrival(1, 10, 140000), arrival(2, 10, 139000), arrival(3, 5, 141000, S)]


def _seeded():
    """Seed rows that fill both sides: bids 1.40 x10 / 1.39 x10 down to a
    1.39 horizon, asks 1.41 x5 / 1.42 x5 up to a 1.42 horizon; live order 1,
    a buy of 4 at 1.395, as event 0."""
    state = BookState.from_snapshot(
        bids=[(140000, 10), (139000, 10)], asks=[(141000, 5), (142000, 5)],
        bid_horizon=139000, ask_horizon=142000,
    )
    return state.apply(arrival(1, 4, 139500))


@pytest.mark.parametrize("bad, message", [
    (arrival(1, 5, 138000), "order id 1 already live"),
    (arrival(9, 1, 141000, B), "buy limit crosses the ask"),
    (arrival(9, 1, 142000, B), "buy limit crosses the ask"),
    (arrival(9, 1, 140000, S), "sell limit crosses the bid"),
    (arrival(9, 1, 139500, S), "sell limit crosses the bid"),
    (ev(PARTIAL, 1, 2, 140000, S), "order 1 rests at BUY/140000, event says SELL/140000"),
    (ev(PARTIAL, 1, 2, 139000, B), "order 1 rests at BUY/140000, event says BUY/139000"),
    (ev(FULL, 3, 5, 141000, B), "order 3 rests at SELL/141000, event says BUY/141000"),
    (ev(EXEC, 2, 1, 140000, B), "order 2 rests at BUY/139000, event says BUY/140000"),
    (ev(FULL, 1, 4, 140000, B), "full cancel of 4 but order holds 10"),
    (ev(FULL, 1, 11, 140000, B), "full cancel of 11 but order holds 10"),
    (ev(PARTIAL, 1, 11, 140000, B), "removal of 11 exceeds resting size 10"),
    (ev(EXEC, 3, 6, 141000, S), "removal of 6 exceeds resting size 5"),
    (ev(EXEC, 2, 5, 139000, B), "execution at 139000 but best BUY is 140000"),
    (ev(EXEC, 9, 5, 142000, S), "execution at 142000 but best SELL is 141000"),
    (ev(EXEC, 9, 5, 140500, S), "execution at 140500 but best SELL is 141000"),
])
def test_live_book_errors_name_the_event_and_leave_the_book(bad, message):
    state = BookState()
    for e in _LIVE:
        state.apply(e)
    before = level_snapshot(state, 4)
    with pytest.raises(InconsistentEvent) as exc:
        state.apply(bad)
    assert str(exc.value) == f"event 3: {message}"
    assert (exc.value.event_index, exc.value.reason) == (3, message)
    assert level_snapshot(state, 4) == before
    assert state.event_seq == 3


@pytest.mark.parametrize("bad, message", [
    # Inside the horizon, an execution must hit the front.
    (ev(EXEC, 7, 1, 139000, B), "execution at 139000 but best BUY is 140000"),
    (ev(EXEC, 7, 1, 142000, S), "execution at 142000 but best SELL is 141000"),
    # Beyond it, too, while a better level rests on the book.
    (ev(EXEC, 7, 1, 138000, B), "execution at 138000 but best BUY is 140000"),
    (ev(EXEC, 7, 1, 143000, S), "execution at 143000 but best SELL is 141000"),
    # An unseen order larger than the seeded pool at its price.
    (ev(PARTIAL, 7, 11, 140000, B),
     "cancellation of unseen order 7 needs 11 at 140000 but seeded depth is 10"),
    (ev(FULL, 7, 6, 142000, S),
     "cancellation of unseen order 7 needs 6 at 142000 but seeded depth is 5"),
    (ev(PARTIAL, 7, 1, 139500, B),
     "cancellation of unseen order 7 needs 1 at 139500 but seeded depth is 0"),
    (ev(EXEC, 7, 11, 140000, B),
     "execution of unseen order 7 needs 11 at 140000 but seeded depth is 10"),
    (ev(EXEC, 7, 6, 141000, S),
     "execution of unseen order 7 needs 6 at 141000 but seeded depth is 5"),
])
def test_seeded_book_errors_name_the_event_and_leave_the_book(bad, message):
    state = _seeded()
    before = level_snapshot(state, 4)
    with pytest.raises(InconsistentEvent) as exc:
        state.apply(bad)
    assert str(exc.value) == f"event 1: {message}"
    assert (exc.value.event_index, exc.value.reason) == (1, message)
    assert level_snapshot(state, 4) == before
    assert (state.event_seq, state.seeded_executions) == (1, 0)


def test_execution_on_an_empty_side_names_no_best():
    state = BookState().apply(arrival(1, 10, 140000))
    with pytest.raises(InconsistentEvent, match="^event 1: execution at 141000 but best SELL "
                                                "is None$"):
        state.apply(ev(EXEC, 2, 1, 141000, S))


def test_seeded_executions_and_event_seq():
    state = _seeded()
    book = level_snapshot(state, 4)
    # Book-neutral kinds advance event_seq only.
    state.apply(ev(EventKind.EXECUTION_HIDDEN, 99, 5, 140500, S))
    state.apply(ev(EventKind.CROSS_TRADE, 0, 50, 140000, B))
    state.apply(ev(EventKind.HALT, 0, 1, 1, B))
    assert (state.event_seq, state.seeded_executions) == (4, 0)
    assert level_snapshot(state, 4) == book
    # An unseen order beyond the horizon: nothing moves and nothing counts.
    state.apply(ev(PARTIAL, 7, 3, 138000, B))
    state.apply(ev(FULL, 8, 3, 143000, S))
    assert (state.event_seq, state.seeded_executions) == (6, 0)
    assert level_snapshot(state, 4) == book
    # An execution of the seeded pool counts; one of a live order does not.
    state.apply(ev(EXEC, 9, 4, 140000, B))
    assert (state.event_seq, state.seeded_executions) == (7, 1)
    state.apply(ev(EXEC, 10, 6, 140000, B))
    assert (state.event_seq, state.seeded_executions) == (8, 2)
    state.apply(ev(EXEC, 1, 4, 139500, B))
    assert (state.event_seq, state.seeded_executions) == (9, 2)
    state.apply(ev(EXEC, 11, 10, 139000, B))
    assert (state.event_seq, state.seeded_executions) == (10, 3)
    assert book_levels(state) == ([], [(141000, 5), (142000, 5)])
    # Past the horizon on an empty side the front may be unseen: nothing moves.
    state.apply(ev(EXEC, 12, 2, 138000, B))
    assert (state.event_seq, state.seeded_executions) == (11, 3)
    assert book_levels(state) == ([], [(141000, 5), (142000, 5)])
    # A live level beyond the horizon, with the unseen front above it.
    state.apply(arrival(13, 3, 137000))
    state.apply(ev(EXEC, 14, 2, 138000, B))
    assert (state.event_seq, state.seeded_executions) == (13, 3)
    assert book_levels(state) == ([(137000, 3)], [(141000, 5), (142000, 5)])


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


@st.composite
def altered_streams(draw):
    """A fuzzed stream on an empty or a seeded book (with or without
    horizons), with up to six events altered in one field, so the book may
    reject them: (seed or None, events)."""
    events = fuzz_stream(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                         draw(st.integers(1, 300)))
    seed = None
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(events)))
        state = BookState()
        for e in events[:cut]:
            state.apply(e)
        bids, asks = book_levels(state)
        horizons = {}
        if draw(st.booleans()) and bids and asks:
            horizons = {"bid_horizon": bids[-1][0], "ask_horizon": asks[-1][0]}
        seed, events = (bids, asks, horizons), events[cut:]
    for _ in range(draw(st.integers(0, 6)) if events else 0):
        i = draw(st.integers(0, len(events) - 1))
        e = events[i]
        change = draw(st.sampled_from(["kind", "order_id", "size", "price", "side"]))
        if change == "kind":
            e = dataclasses.replace(e, kind=draw(st.sampled_from(EventKind)), size=max(e.size, 1))
        elif change == "order_id":
            e = dataclasses.replace(e, order_id=draw(st.integers(1, 400)))
        elif change == "size":
            e = dataclasses.replace(e, size=max(e.size + draw(st.integers(-3, 3)), 1))
        elif change == "price":
            e = dataclasses.replace(e, price=e.price + draw(st.sampled_from([-200, -100, 100])))
        else:
            e = dataclasses.replace(e, side=S if e.side is B else B)
        events[i] = e
    return seed, events


def _full_state(state):
    """Everything an event can change: the full-depth book, the order
    registry, the seeded pools and the counters."""
    n = max(len(state.side_book(B)[1]), len(state.side_book(S)[1]), 1)
    return (level_snapshot(state, n), dict(state._orders), dict(state._anon_bid),
            dict(state._anon_ask), state.event_seq, state.seeded_executions)


@given(altered_streams())
def test_apply_fields_equals_apply(stream):
    seed, events = stream
    states = [BookState() if seed is None else BookState.from_snapshot(seed[0], seed[1], **seed[2])
              for _ in range(2)]
    calls = (lambda e: states[0].apply(e),
             lambda e: states[1].apply_fields(e.kind.value, e.order_id, e.size, e.price,
                                              e.side.value))
    for e in events:
        before = _full_state(states[0])
        outcomes = []
        for state, call in zip(states, calls):
            try:
                assert call(e) is state
                outcomes.append(None)
            except InconsistentEvent as exc:
                outcomes.append((exc.event_index, exc.reason, str(exc)))
                assert _full_state(state) == before  # a rejected event changes nothing
        assert outcomes[0] == outcomes[1]
        assert _full_state(states[0]) == _full_state(states[1])
