"""Message/orderbook parsing, session filters, and the fixture writer."""

import numpy as np
import pytest

from mlofi.book import EventKind, LevelQuote, Side
from mlofi.errors import EmptySession, InconsistentEvent, MalformedRow
from mlofi.lobster import (
    SessionConfig,
    format_timestamp_ns,
    hms_to_seconds,
    parse_message_file,
    parse_message_row,
    parse_orderbook_row,
    parse_timestamp_ns,
    seed_from_orderbook_file,
    session_seed,
    write_message_file,
    write_orderbook_file,
)

from conftest import fuzz_stream

NS = 1_000_000_000


def test_hand_decoded_message_row():
    ev = parse_message_row("34200.189,1,11885113,21,2238100,1", 1)
    assert ev.kind is EventKind.LIMIT_ARRIVAL
    assert ev.side is Side.BUY
    assert ev.size == 21
    assert ev.price == 2238100
    assert ev.timestamp_ns == 34200_189000000


def test_timestamp_fixed_point_is_exact():
    assert parse_timestamp_ns("34200.189", 1) == 34200 * NS + 189_000_000
    assert parse_timestamp_ns("36000", 1) == 36000 * NS
    assert parse_timestamp_ns("36000.000000001", 1) == 36000 * NS + 1
    assert format_timestamp_ns(34200 * NS + 189_000_000) == "34200.189000000"
    with pytest.raises(MalformedRow):
        parse_timestamp_ns("36000.0000000001", 1)  # sub-ns resolution


def test_hidden_rows_dropped_when_excluded(tmp_path):
    path = tmp_path / "messages.csv"
    path.write_text(
        "36001.0,1,1,10,140000,1\n"
        "36002.0,5,2,5,140500,-1\n"
        "36003.0,1,3,10,141000,-1\n"
    )
    day = parse_message_file(path, SessionConfig())
    assert [e.kind for e in day.events] == [
        EventKind.LIMIT_ARRIVAL,
        EventKind.LIMIT_ARRIVAL,
    ]
    day = parse_message_file(path, SessionConfig(exclude_hidden=False))
    assert len(day.events) == 3


def test_session_window_filter(tmp_path):
    path = tmp_path / "messages.csv"
    nine45 = hms_to_seconds("09:45")
    path.write_text(
        f"{nine45}.0,1,1,10,140000,1\n"
        "36001.0,1,2,10,140000,1\n"
        "55000.0,1,3,10,139000,1\n"
    )
    day = parse_message_file(path, SessionConfig())
    assert [e.order_id for e in day.events] == [2, 3]


def test_empty_session_raises(tmp_path):
    path = tmp_path / "messages.csv"
    path.write_text("34000.0,1,1,10,140000,1\n")
    with pytest.raises(EmptySession):
        parse_message_file(path, SessionConfig())


def test_malformed_row_reports_first_offending_line(tmp_path):
    path = tmp_path / "messages.csv"
    path.write_text(
        "36001.0,1,1,10,140000,1\n"
        "36002.0,9,2,10,140000,1\n"
        "garbage\n"
    )
    with pytest.raises(MalformedRow) as exc:
        parse_message_file(path, SessionConfig())
    assert exc.value.line_no == 2


def test_decreasing_timestamps_are_malformed(tmp_path):
    path = tmp_path / "messages.csv"
    path.write_text("36002.0,1,1,10,140000,1\n36001.0,1,2,10,139000,1\n")
    with pytest.raises(MalformedRow) as exc:
        parse_message_file(path, SessionConfig())
    assert exc.value.line_no == 2


def test_orderbook_row_single_level():
    asks, bids = parse_orderbook_row("2239500,100,2231800,100")
    assert asks == (LevelQuote(2239500, 100),)
    assert bids == (LevelQuote(2231800, 100),)


def test_orderbook_row_sentinels_absent():
    asks, bids = parse_orderbook_row("9999999999,0,-9999999999,0")
    assert asks == (None,)
    assert bids == (None,)
    asks, bids = parse_orderbook_row(
        "2239500,100,2231800,100,9999999999,0,-9999999999,0"
    )
    assert asks == (LevelQuote(2239500, 100), None)
    assert bids == (LevelQuote(2231800, 100), None)


def test_orderbook_row_field_count_checked(tmp_path):
    for ragged in ("2239500,100,2231800", "", "2239500,100,2231800,100,2239600"):
        with pytest.raises(MalformedRow):
            parse_orderbook_row(ragged)
    path = tmp_path / "orderbook.csv"
    path.write_text("\n2239500,100,2231800,100,2239600\n")
    with pytest.raises(MalformedRow) as exc:
        seed_from_orderbook_file(path)
    assert exc.value.line_no == 2
    assert "got 5" in str(exc.value)


def test_round_trip_write_parse_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    events = fuzz_stream(rng, 400)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_message_file(p1, events)
    day = parse_message_file(p1, SessionConfig(exclude_hidden=False))
    write_message_file(p2, day.events)
    assert p1.read_bytes() == p2.read_bytes()


def test_parse_recovers_fuzzed_events_exactly(tmp_path):
    rng = np.random.default_rng(9)
    events = fuzz_stream(rng, 300)
    path = tmp_path / "messages.csv"
    write_message_file(path, events)
    day = parse_message_file(path, SessionConfig(exclude_hidden=False))
    assert day.events == events
    last = -1
    for e in day.events:
        assert e.timestamp_ns >= last
        last = e.timestamp_ns


def test_orderbook_writer_and_seed_reader(tmp_path):
    rng = np.random.default_rng(4)
    events = fuzz_stream(rng, 100)
    path = tmp_path / "orderbook.csv"
    write_orderbook_file(path, events, levels=3)
    assert len(path.read_text().splitlines()) == len(events)
    seed = seed_from_orderbook_file(path)  # first row = post-first-event book
    assert len(seed.bids) + len(seed.asks) >= 1
    book = seed.build_book()
    assert book.event_seq == 0


def test_session_seed_is_row_of_last_message_before_session(tmp_path):
    # Orderbook row k is the book after message k; the session (10:00) starts
    # after message 2, so the seed is row 2.
    messages = tmp_path / "messages.csv"
    messages.write_text(
        "35990.000000000,1,1,10,140000,1\n"
        "35995.000000000,1,2,5,140200,-1\n"
        "36000.000000000,1,3,7,140100,1\n"
    )
    orderbook = tmp_path / "orderbook.csv"
    orderbook.write_text(
        "9999999999,0,140000,10\n"
        "140200,5,140000,10\n"
        "140200,5,140100,7\n"
    )
    seed = session_seed(orderbook, messages, SessionConfig())
    assert seed.bids == ((140000, 10),)
    assert seed.asks == ((140200, 5),)


# Row 1 is the book after message 1, two levels deep:
# asks 140200x5, 140300x8; bids 140000x10, 139900x4.
ROW_1 = "140200,5,140000,10,140300,8,139900,4\n"


@pytest.mark.parametrize("message, bids, asks", [
    # An arrival's size comes off; an arrival that opened a level removes it.
    ("1,9,6,140000,1", ((140000, 4), (139900, 4)), ((140200, 5), (140300, 8))),
    ("1,9,5,140200,-1", ((140000, 10), (139900, 4)), ((140300, 8),)),
    # Cancellations and visible executions put their size back; a level they
    # emptied returns and pushes the row's deepest level out.
    ("2,9,3,140300,-1", ((140000, 10), (139900, 4)), ((140200, 5), (140300, 11))),
    ("3,9,2,140050,1", ((140050, 2), (140000, 10)), ((140200, 5), (140300, 8))),
    ("4,9,6,140100,-1", ((140000, 10), (139900, 4)), ((140100, 6), (140200, 5))),
    # Hidden executions, cross trades and halts leave the visible book alone.
    ("5,9,6,140100,-1", ((140000, 10), (139900, 4)), ((140200, 5), (140300, 8))),
    ("7,0,1,1,1", ((140000, 10), (139900, 4)), ((140200, 5), (140300, 8))),
])
def test_session_seed_at_first_message_undoes_it(tmp_path, message, bids, asks):
    messages = tmp_path / "messages.csv"
    messages.write_text(f"36000.000000000,{message}\n36001.000000000,1,7,1,139800,1\n")
    orderbook = tmp_path / "orderbook.csv"
    orderbook.write_text(ROW_1 + "140200,5,140000,10,140300,8,139900,4\n")
    seed = session_seed(orderbook, messages, SessionConfig())
    assert (seed.bids, seed.asks) == (bids, asks)


def test_session_seed_rejects_row_contradicting_first_message(tmp_path):
    messages = tmp_path / "messages.csv"
    messages.write_text("36000.000000000,1,9,20,140000,1\n")
    orderbook = tmp_path / "orderbook.csv"
    orderbook.write_text(ROW_1)
    with pytest.raises(InconsistentEvent):
        session_seed(orderbook, messages, SessionConfig())
