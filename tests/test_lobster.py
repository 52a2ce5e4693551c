"""Message/orderbook parsing, session filters, and the fixture writer."""

import numpy as np
import pytest

from mlofi.book import EventKind, LevelQuote, Side
from mlofi.errors import EmptySession, MalformedRow
from mlofi.lobster import (
    SessionConfig,
    format_timestamp_ns,
    hms_to_seconds,
    parse_message_file,
    parse_message_row,
    parse_orderbook_row,
    parse_timestamp_ns,
    seed_from_orderbook_file,
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
