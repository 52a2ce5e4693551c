"""Message/orderbook parsing, session filters, and the fixture writer."""

import dataclasses
import datetime as dt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlofi import imbalance, lobster
from mlofi.book import ASK_ABSENT, BID_ABSENT, BookState, EventKind, LobEvent, Side, level_snapshot
from mlofi.errors import ConfigError, DataError, EmptySession, InconsistentEvent, MalformedRow
from mlofi.lobster import (
    DaySlice,
    EventColumns,
    SessionConfig,
    format_timestamp_ns,
    hms_to_seconds,
    parse_message_file,
    parse_message_row,
    parse_orderbook_row,
    seed_from_orderbook_file,
    write_message_file,
    write_orderbook_file,
)

from mlofi.synth import ZiParams, generate_zi_day

from conftest import (
    events_day,
    fuzz_stream,
    oracle_parse_message_row,
    oracle_parse_orderbook_row,
    oracle_replay,
)

NS = 1_000_000_000
DAY = dt.date(2016, 1, 4)  # the date a caller gives a parsed file


def test_hand_decoded_message_row():
    ev = parse_message_row("34200.189,1,11885113,21,2238100,1", 1)
    assert ev.kind is EventKind.LIMIT_ARRIVAL
    assert ev.side is Side.BUY
    assert ev.size == 21
    assert ev.price == 2238100
    assert ev.timestamp_ns == 34200_189000000


def test_timestamp_fixed_point_is_exact():
    def parse_timestamp_ns(text):
        return parse_message_row(f"{text},1,1,1,1,1", 1).timestamp_ns

    assert parse_timestamp_ns("34200.189") == 34200 * NS + 189_000_000
    assert parse_timestamp_ns("36000") == 36000 * NS
    assert parse_timestamp_ns("36000.000000001") == 36000 * NS + 1
    assert format_timestamp_ns(34200 * NS + 189_000_000) == "34200.189000000"
    with pytest.raises(MalformedRow):
        parse_timestamp_ns("36000.0000000001")  # sub-ns resolution


def test_hidden_rows_dropped_when_excluded(tmp_path):
    path = tmp_path / "messages.csv"
    path.write_text(
        "36001.0,1,1,10,140000,1\n"
        "36002.0,5,2,5,140500,-1\n"
        "36003.0,1,3,10,141000,-1\n"
    )
    day = parse_message_file(path, SessionConfig(), DAY)
    assert [e.kind for e in day.events] == [
        EventKind.LIMIT_ARRIVAL,
        EventKind.LIMIT_ARRIVAL,
    ]
    day = parse_message_file(path, SessionConfig(exclude_hidden=False), DAY)
    assert len(day.events) == 3


def test_session_window_filter(tmp_path):
    path = tmp_path / "messages.csv"
    nine45 = hms_to_seconds("09:45")
    path.write_text(
        f"{nine45}.0,1,1,10,140000,1\n"
        "36001.0,1,2,10,140000,1\n"
        "55000.0,1,3,10,139000,1\n"
    )
    day = parse_message_file(path, SessionConfig(), DAY)
    assert [e.order_id for e in day.events] == [2, 3]


# Rows 1 ns before 10:00 (36000 s) and after 15:30 (55800 s), SessionConfig's
# bounds, on them, and a hidden execution on each bound.
BOUND_ROWS = (
    "35999.999999999,1,1,10,140000,1\n"
    "36000.000000000,1,2,10,140000,1\n"
    "36000.000000000,5,7,3,140500,-1\n"
    "55800.000000000,1,3,10,139000,1\n"
    "55800.000000000,5,8,3,140500,-1\n"
    "55800.000000001,1,4,10,139000,1\n"
)


def test_session_bounds_are_inclusive(tmp_path):
    path = tmp_path / "messages.csv"
    path.write_text(BOUND_ROWS)
    day = parse_message_file(path, SessionConfig(), DAY)
    assert [e.order_id for e in day.events] == [2, 3]
    day = parse_message_file(path, SessionConfig(exclude_hidden=False), DAY)
    assert [e.order_id for e in day.events] == [2, 7, 3, 8]
    # The row 1 ns early counts as before the session: the seed is orderbook
    # row 1, the book after it, not row 1 with message 1 undone.
    orderbook = tmp_path / "orderbook.csv"
    orderbook.write_text("9999999999,0,140000,10\n9999999999,0,140000,20\n")
    seed = parse_message_file(path, SessionConfig(), DAY, orderbook=orderbook).seed
    assert (seed.bids, seed.asks) == (((140000, 10),), ())


def test_line_of_counts_the_rows_the_session_drops(tmp_path):
    path = tmp_path / "messages.csv"
    path.write_text("\n" + BOUND_ROWS.replace("55800.000000000,1", "\n55800.000000000,1"))
    # Lines: 1 blank, 2 early, 3 and 4 on the start bound, 5 blank, 6 and 7
    # on the end bound, 8 late.
    day = parse_message_file(path, SessionConfig(), DAY)
    assert [day.line_of(i) for i in range(len(day.events))] == [3, 6]
    day = parse_message_file(path, SessionConfig(exclude_hidden=False), DAY)
    assert [day.line_of(i) for i in range(len(day.events))] == [3, 4, 6, 7]


def test_empty_session_raises(tmp_path):
    path = tmp_path / "messages.csv"
    path.write_text("34000.0,1,1,10,140000,1\n")
    with pytest.raises(EmptySession):
        parse_message_file(path, SessionConfig(), DAY)


def test_malformed_row_reports_first_offending_line(tmp_path):
    path = tmp_path / "messages.csv"
    path.write_text(
        "36001.0,1,1,10,140000,1\n"
        "36002.0,9,2,10,140000,1\n"
        "garbage\n"
    )
    with pytest.raises(MalformedRow) as exc:
        parse_message_file(path, SessionConfig(), DAY)
    assert exc.value.line_no == 2


def test_price_at_the_orderbook_sentinel_is_malformed(tmp_path):
    # An orderbook row writes an absent ask as 9999999999, so no real price
    # may reach it; a halt row's status fields are not a price.
    path = tmp_path / "messages.csv"
    path.write_text(
        "36001.0,1,1,10,140000,1\n"
        "36002.0,1,2,10,9999999999,-1\n"
    )
    with pytest.raises(MalformedRow) as exc:
        parse_message_file(path, SessionConfig(), DAY)
    assert exc.value.line_no == 2
    assert parse_message_row("36002.0,1,2,10,9999999998,-1", 1).price == 9999999998
    assert parse_message_row("36002.0,7,0,-1,9999999999,1", 1).kind is EventKind.HALT


def test_arabic_indic_twelve_is_not_twelve():
    # int() reads '١٢' as 12; the grammar takes ASCII digits only.
    assert parse_message_row("36002.5,1,2,12,140000,1", 3).size == 12
    with pytest.raises(MalformedRow) as exc:
        parse_message_row("36002.5,1,2,١٢,140000,1", 3)
    assert exc.value.reason == "malformed row '36002.5,1,2,١٢,140000,1'"
    assert exc.value.line_no == 3
    assert parse_orderbook_row("2239500,12,2231800,100")[1] == 12
    with pytest.raises(MalformedRow):
        parse_orderbook_row("2239500,١٢,2231800,100")
    with pytest.raises(ConfigError):
        hms_to_seconds("١٢:00")


def test_decreasing_timestamps_are_malformed(tmp_path):
    path = tmp_path / "messages.csv"
    path.write_text("36002.0,1,1,10,140000,1\n36001.0,1,2,10,139000,1\n")
    with pytest.raises(MalformedRow) as exc:
        parse_message_file(path, SessionConfig(), DAY)
    assert exc.value.line_no == 2


def test_orderbook_row_single_level():
    assert parse_orderbook_row("2239500,100,2231800,100") == (2239500, 100, 2231800, 100)


def test_orderbook_row_sentinels_absent():
    absent = (ASK_ABSENT, 0, BID_ABSENT, 0)
    assert parse_orderbook_row("9999999999,0,-9999999999,0") == absent
    assert parse_orderbook_row(
        "2239500,100,2231800,100,9999999999,0,-9999999999,0"
    ) == (2239500, 100, 2231800, 100) + absent
    # A zero size marks a level absent whatever its price says.
    assert parse_orderbook_row("2239500,0,2231800,0") == absent


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
    day = parse_message_file(p1, SessionConfig(exclude_hidden=False), DAY)
    write_message_file(p2, day.events)
    assert p1.read_bytes() == p2.read_bytes()


def test_writers_take_event_columns_or_events_alike(tmp_path):
    events = fuzz_stream(np.random.default_rng(6), 300)
    day = events_day(DAY, events)
    for name, write in (("messages", write_message_file),
                        ("orderbook", lambda path, e: write_orderbook_file(path, e, 3))):
        write(tmp_path / f"{name}_events.csv", events)
        write(tmp_path / f"{name}_columns.csv", day.columns)
        assert (tmp_path / f"{name}_events.csv").read_bytes() == (
            tmp_path / f"{name}_columns.csv").read_bytes()


def test_parse_recovers_fuzzed_events_exactly(tmp_path):
    rng = np.random.default_rng(9)
    events = fuzz_stream(rng, 300)
    path = tmp_path / "messages.csv"
    write_message_file(path, events)
    day = parse_message_file(path, SessionConfig(exclude_hidden=False), DAY)
    assert day.events == events
    last = -1
    for e in day.events:
        assert e.timestamp_ns >= last
        last = e.timestamp_ns


def test_a_canonical_file_and_its_crlf_copy_parse_to_equal_int_columns(tmp_path):
    # The columnar parse and the row loop meet at one type: six int64
    # columns, whose values are the same Python ints either way.
    events = fuzz_stream(np.random.default_rng(4), 400)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_message_file(lf, events)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    config = SessionConfig()
    assert lobster._parse_columns(lf, config) is not None
    assert lobster._parse_columns(crlf, config) is None
    days = [parse_message_file(path, config, DAY) for path in (lf, crlf)]
    assert as_values(days[0]).columns == as_values(days[1]).columns
    assert days[0].skipped_lines == days[1].skipped_lines != []  # hidden executions
    for day in days:
        assert type(day.columns) is EventColumns
        assert all(type(column) is np.ndarray and column.dtype == np.int64
                   for column in day.columns)
        assert all(type(v) is int for column in day.columns for v in column.tolist())
    assert days[0].events == [e for e in events if e.kind is not EventKind.EXECUTION_HIDDEN]


def test_an_order_id_beyond_int64_parses_into_object_columns(tmp_path):
    # The row loop keeps any integer; a column holding one outside int64
    # stays Python ints, in an object array, which the replay takes as they are.
    big = 2**63
    path = write(tmp_path, f"36001.0,1,{big},10,140000,1\n36002.0,1,5,10,140100,-1\n"
                           f"36003.0,3,{big},10,140000,1\n")
    day = both_ways(path, columnar=False)
    assert day.columns.order_ids.dtype == object
    assert day.columns.order_ids.tolist() == [big, 5, big]
    assert all(column.dtype == np.int64 for column in day.columns if column.dtype != object)
    assert [e.order_id for e in day.events] == [big, 5, big]
    session = SessionConfig(session_start=36000, session_end=36060)
    boundaries = [session.start_ns + j * 10 * NS for j in range(7)]
    comp = imbalance.compute_day_samples(day, boundaries, 6, 2)
    assert comp == imbalance._replay_columns(day, boundaries, 6, 2)
    assert comp == oracle_replay(day, boundaries, 6, 2)
    assert comp.intervals.flows.dtype == np.int64
    assert comp.intervals.flows.tolist() == [[-10, 0]] + [[0, 0]] * 5


def test_a_days_events_are_built_on_read_and_cannot_be_assigned():
    events = fuzz_stream(np.random.default_rng(5), 50)
    day = events_day(DAY, events)
    assert day.events == events and day.events is not day.events
    with pytest.raises(AttributeError):
        day.events = events[:10]


def test_orderbook_writer_and_seed_reader(tmp_path):
    # Row k is the book after event k; it parses back to that snapshot, and
    # the seed read from it snapshots back to the same row.
    rng = np.random.default_rng(4)
    path = tmp_path / "orderbook.csv"
    for levels in (1, 3, 10):
        events = fuzz_stream(rng, 300)
        write_orderbook_file(path, events, levels=levels)
        lines = path.read_text().splitlines()
        assert len(lines) == len(events)
        state = BookState()
        for k, ev in enumerate(events, start=1):
            state.apply(ev)
            row = level_snapshot(state, levels)
            assert parse_orderbook_row(lines[k - 1], k) == row
            if k % 10 == 1 or k == len(events):
                book = seed_from_orderbook_file(path, k).build_book()
                assert level_snapshot(book, levels) == row
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
    seed = parse_message_file(messages, SessionConfig(), DAY, orderbook=orderbook).seed
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
    # emptied returns in front of the row's levels, which all stay.
    ("2,9,3,140300,-1", ((140000, 10), (139900, 4)), ((140200, 5), (140300, 11))),
    ("3,9,2,140050,1", ((140050, 2), (140000, 10), (139900, 4)), ((140200, 5), (140300, 8))),
    ("4,9,6,140100,-1", ((140000, 10), (139900, 4)), ((140100, 6), (140200, 5), (140300, 8))),
    # Hidden executions, cross trades and halts leave the visible book alone.
    ("5,9,6,140100,-1", ((140000, 10), (139900, 4)), ((140200, 5), (140300, 8))),
    ("7,0,1,1,1", ((140000, 10), (139900, 4)), ((140200, 5), (140300, 8))),
    # A removal beyond the row's horizon is skipped by the replay, so the
    # undo leaves the seed alone too.
    ("2,9,3,139800,1", ((140000, 10), (139900, 4)), ((140200, 5), (140300, 8))),
    ("3,9,3,140400,-1", ((140000, 10), (139900, 4)), ((140200, 5), (140300, 8))),
])
def test_session_seed_at_first_message_undoes_it(tmp_path, message, bids, asks):
    messages = tmp_path / "messages.csv"
    messages.write_text(f"36000.000000000,{message}\n36001.000000000,1,7,1,139800,1\n")
    orderbook = tmp_path / "orderbook.csv"
    orderbook.write_text(ROW_1 + "140200,5,140000,10,140300,8,139900,4\n")
    seed = parse_message_file(messages, SessionConfig(), DAY, orderbook=orderbook).seed
    assert (seed.bids, seed.asks) == (bids, asks)
    # Replaying message 1 on the seed gives back row 1, and nothing deeper.
    book = seed.build_book().apply(parse_message_row(f"36000.0,{message}", 1))
    row_1_deeper = parse_orderbook_row(ROW_1) + (ASK_ABSENT, 0, BID_ABSENT, 0)
    assert level_snapshot(book, 3) == row_1_deeper


@pytest.mark.parametrize("message", ["1,9,6,139800,1", "1,9,6,140400,-1"])
def test_session_seed_at_first_message_is_row_1_past_an_arrival_row_1_does_not_show(
        tmp_path, message):
    # The arrival rests beyond row 1's two levels on its side, so row 1 shows
    # the book before it too.
    messages = tmp_path / "messages.csv"
    messages.write_text(f"36000.000000000,{message}\n")
    orderbook = tmp_path / "orderbook.csv"
    orderbook.write_text(ROW_1)
    seed = parse_message_file(messages, SessionConfig(), DAY, orderbook=orderbook).seed
    assert seed == seed_from_orderbook_file(orderbook)


def test_the_generator_the_parsers_and_the_seed_undo_build_no_lob_event(tmp_path):
    # Message 1, a full cancel inside the spread, is undone into the seed.
    canonical = tmp_path / "messages.csv"
    canonical.write_text("36000.000000000,3,9,2,140050,1\n36001.000000000,1,7,1,139800,1\n")
    crlf = tmp_path / "messages_crlf.csv"
    crlf.write_bytes(canonical.read_bytes().replace(b"\n", b"\r\n"))
    orderbook = tmp_path / "orderbook.csv"
    orderbook.write_text(ROW_1)
    built = AssertionError("a LobEvent was built")
    with mock.patch.object(LobEvent, "__post_init__", side_effect=built):
        generate_zi_day(ZiParams(), SessionConfig(session_start=36000, session_end=36060))
        days = [parse_message_file(path, SessionConfig(), DAY, orderbook=orderbook)
                for path in (canonical, crlf)]
    for day in days:
        assert day.columns.order_ids.tolist() == [9, 7]
        assert day.seed.bids == ((140050, 2), (140000, 10), (139900, 4))


def test_session_seed_rejects_row_contradicting_first_message(tmp_path):
    messages = tmp_path / "messages.csv"
    messages.write_text("36000.000000000,1,9,20,140000,1\n")
    orderbook = tmp_path / "orderbook.csv"
    orderbook.write_text(ROW_1)
    with pytest.raises(InconsistentEvent):
        parse_message_file(messages, SessionConfig(), DAY, orderbook=orderbook)


@pytest.mark.parametrize("row, message", [
    (ROW_1, "1,9,6,139950,1"),  # between row 1's bids
    ("140200,5,140000,10,9999999999,0,139900,4\n", "1,9,6,140400,-1"),  # one ask shown
], ids=["between-levels", "side-not-full"])
def test_session_seed_rejects_row_1_without_an_arrival_it_must_show(tmp_path, row, message):
    # Row 1 shows every level within its horizon, and every level of a side
    # it does not fill, so message 1's arrival must be among them.
    messages = tmp_path / "messages.csv"
    messages.write_text(f"36000.000000000,{message}\n")
    orderbook = tmp_path / "orderbook.csv"
    orderbook.write_text(row)
    price = message.split(",")[3]
    with pytest.raises(InconsistentEvent, match=f"orderbook row 1 holds less at {price} "):
        parse_message_file(messages, SessionConfig(), DAY, orderbook=orderbook)


def seeded_book(tmp_path, row):
    path = tmp_path / "orderbook.csv"
    path.write_text(row)
    return seed_from_orderbook_file(path).build_book()


def removal(kind, oid, size, price, side):
    return LobEvent(36_000 * NS, kind, oid, size, price, side)


def test_seed_horizon_skips_unseen_orders_beyond_a_full_row(tmp_path):
    # ROW_1 fills both sides' two levels: it shows bids down to 139900 and
    # asks up to 140300, so an unseen order beyond those is one it could not
    # show, and taking it off leaves the book as it is.
    book = seeded_book(tmp_path, ROW_1)
    row = level_snapshot(book, 3)
    book.apply(removal(EventKind.CANCEL_FULL, 526, 7, 139800, Side.BUY))
    book.apply(removal(EventKind.CANCEL_PARTIAL, 527, 3, 140400, Side.SELL))
    assert level_snapshot(book, 3) == row
    # Once the row's asks are gone, an unseen level beyond them is the front.
    book.apply(removal(EventKind.EXECUTION_VISIBLE, 0, 5, 140200, Side.SELL))
    book.apply(removal(EventKind.EXECUTION_VISIBLE, 0, 8, 140300, Side.SELL))
    book.apply(removal(EventKind.EXECUTION_VISIBLE, 528, 2, 140500, Side.SELL))
    assert level_snapshot(book, 1) == (ASK_ABSENT, 0, 140000, 10)
    assert book.seeded_executions == 2


def test_seed_horizon_needs_every_row_level_on_the_side(tmp_path):
    # The row shows the second ask absent, so it shows every ask there is.
    book = seeded_book(tmp_path, "140200,5,140000,10,9999999999,0,139900,4\n")
    book.apply(removal(EventKind.CANCEL_FULL, 526, 7, 139800, Side.BUY))
    with pytest.raises(InconsistentEvent):
        book.apply(removal(EventKind.CANCEL_FULL, 527, 3, 140400, Side.SELL))
    # A snapshot that is the whole book, and an unseeded book, have no horizon.
    for book in (BookState.from_snapshot([(140000, 10)], [(140200, 5)]), BookState()):
        with pytest.raises(InconsistentEvent):
            book.apply(removal(EventKind.CANCEL_FULL, 526, 7, 139800, Side.BUY))


@pytest.mark.parametrize("side, beyond, levels", [
    (Side.BUY, 139800, [(140000, 10), (139900, 4)]),
    (Side.SELL, 140400, [(140200, 5), (140300, 8)]),
])
def test_seed_horizon_holds_on_each_side(tmp_path, side, beyond, levels):
    # ROW_1 fills both sides two levels deep; ``levels`` is this side's, best first.
    book = seeded_book(tmp_path, ROW_1)
    row = level_snapshot(book, 3)
    book.apply(removal(EventKind.CANCEL_FULL, 526, 7, beyond, side))
    book.apply(removal(EventKind.CANCEL_PARTIAL, 527, 3, beyond, side))
    assert level_snapshot(book, 3) == row
    # An execution beyond the horizon is inconsistent while a level of the
    # row rests on the side; once they are gone, the unseen level is the front.
    for price, size in levels:
        message = f"execution at {beyond} but best {side.name} is {price}$"
        with pytest.raises(InconsistentEvent, match=message):
            book.apply(removal(EventKind.EXECUTION_VISIBLE, 528, 2, beyond, side))
        book.apply(removal(EventKind.EXECUTION_VISIBLE, 0, size, price, side))
    book.apply(removal(EventKind.EXECUTION_VISIBLE, 528, 2, beyond, side))
    assert book.seeded_executions == 2
    assert (book.best_bid if side is Side.BUY else book.best_ask) is None


def test_seed_horizon_keeps_the_checks_inside_the_row(tmp_path):
    book = seeded_book(tmp_path, ROW_1)
    # The row's deepest bid holds 4 shares: a cancel of 5 there is an error.
    with pytest.raises(InconsistentEvent):
        book.apply(removal(EventKind.CANCEL_FULL, 526, 5, 139900, Side.BUY))
    # An execution beyond the row while the row's best ask still rests.
    with pytest.raises(InconsistentEvent):
        book.apply(removal(EventKind.EXECUTION_VISIBLE, 527, 2, 140500, Side.SELL))


# -- the grammar against the field-wise parser ---------------------------------

# ASCII whitespace as str.strip() sees it; the property draws from it, the
# digits, '-', '.' and ','.
PAD_CHARS = " \t\r\n\x0b\x0c\x1c\x1f"
NOISE = st.text(alphabet="0123456789-.," + PAD_CHARS, max_size=8)
PADS = st.text(alphabet=PAD_CHARS, max_size=2)


def padded(core):
    return st.tuples(PADS, core, PADS).map("".join)


def field(core):
    """A padded value, or noise one time in twelve."""
    return st.tuples(st.integers(0, 11), padded(core), NOISE).map(
        lambda t: t[1] if t[0] else t[2])


def ints(lo, hi, *special):
    """Decimal text of ``special`` values first, else of lo..hi, at times
    with leading zeros."""
    value = st.sampled_from(special) | st.integers(lo, hi) if special else st.integers(lo, hi)
    return st.tuples(value, st.text(alphabet="0", max_size=2)).map(
        lambda t: ("-" if t[0] < 0 else "") + t[1] + str(abs(t[0])))


def digits(lo, hi):
    return st.text(alphabet="0123456789", min_size=lo, max_size=hi)


# Up to 9 decimals is a time; an empty or 10-digit fraction is not.
TIMES = st.tuples(digits(1, 6), st.none() | digits(1, 9) | digits(0, 11)).map(
    lambda t: t[0] if t[1] is None else ".".join(t))
ENDS = st.sampled_from(["", "\n", "\r\n", "\r"])
MESSAGE_ROWS = st.tuples(
    st.integers(0, 9),
    st.tuples(
        field(TIMES), field(ints(-1, 9, 1, 2, 3, 4, 5, 6, 7)), field(ints(-5, 10**6)),
        field(ints(-2, 30, 1, 10)), field(ints(-2, 10**10, 140000, 9999999998, 9999999999)),
        field(ints(-2, 2, 1, -1)),
    ).map(",".join),
    st.lists(NOISE, max_size=8).map(",".join),
).map(lambda t: t[1] if t[0] else t[2])


def outcome(parse, line, line_no=7):
    try:
        return parse(line, line_no)
    except MalformedRow as exc:
        return exc.line_no


@settings(max_examples=1500)
@given(MESSAGE_ROWS, ENDS)
def test_message_grammar_equals_field_wise_parse(row, end):
    # The same rows accepted, the same line number, the same events.
    line = row + end
    assert outcome(parse_message_row, line) == outcome(oracle_parse_message_row, line)


ORDERBOOK_FIELDS = field(ints(-10**10, 10**10, 9999999999, -9999999999, 0, -1))
ORDERBOOK_ROWS = st.one_of(
    st.integers(1, 3).flatmap(lambda n: st.lists(ORDERBOOK_FIELDS, min_size=4 * n,
                                                 max_size=4 * n)).map(",".join),
    st.lists(ORDERBOOK_FIELDS, min_size=1, max_size=9).map(",".join),
)


@settings(max_examples=800)
@given(ORDERBOOK_ROWS, ENDS)
def test_orderbook_grammar_equals_field_wise_parse(row, end):
    line = row + end
    assert outcome(parse_orderbook_row, line) == outcome(oracle_parse_orderbook_row, line)


# -- the columnar parse against the row loop -------------------------------------


def parse_outcome(path, config, orderbook=None):
    """``parse_message_file``'s DaySlice, or its error as (type, message,
    line, reason)."""
    try:
        return parse_message_file(path, config, DAY, orderbook=orderbook)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None), getattr(exc, "reason", None)


def row_loop_outcome(path, config, orderbook=None):
    with mock.patch.object(lobster, "_parse_columns", return_value=None):
        return parse_outcome(path, config, orderbook)


def as_values(outcome):
    """A parse outcome with its event columns as lists of Python ints, so that
    two outcomes compare with ==; an error as it is."""
    if not isinstance(outcome, DaySlice):
        return outcome
    return dataclasses.replace(outcome, columns=[c.tolist() for c in outcome.columns])


def both_ways(path, config=SessionConfig(), orderbook=None, *, columnar):
    """The outcome of parsing ``path``, asserted equal to the row loop's, its
    columns int64 arrays; the file takes the columnar path if and only if
    ``columnar``."""
    assert (lobster._parse_columns(path, config) is not None) is columnar
    outcome = parse_outcome(path, config, orderbook)
    assert as_values(outcome) == as_values(row_loop_outcome(path, config, orderbook))
    if columnar:
        assert all(column.dtype == np.int64 for column in outcome.columns)
    return outcome


def write(tmp_path, text, name="messages.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


@pytest.mark.parametrize("row, columnar", [
    ("999999999.999999999,1,5,10,140000,1\n", True),
    ("000055801.5,1,5,10,140000,1\n", True),  # 9 digits with leading zeros
    ("1000000000.0,1,5,10,140000,1\n", False),  # 10-digit seconds
    ("0000055801.5,1,5,10,140000,1\n", False),
    ("55801.000000001,1,5,10,140000,1\n", True),
    ("55801,1,5,10,140000,1\n", False),  # no fraction
    ("55801.5,1,999999999999999999,10,140000,1\n", True),  # 18-digit integers
    ("55801.5,1,-999999999999999999,10,140000,1\n", True),
    ("55801.5,1,1000000000000000000,10,140000,1\n", False),  # 19 digits
    ("55801.5,1,-0999999999999999999,10,140000,1\n", False),
    ("55801.5,1,5,10,000000000000140000,1\n", True),
    ("55801.5,1,5,0000000000000000010,140000,1\n", False),
])
def test_digit_bounds_pick_the_path_and_not_the_result(tmp_path, row, columnar):
    # The late row follows one inside the session; either way it is dropped.
    path = write(tmp_path, "36001.0,1,1,10,140000,1\n" + row)
    day = both_ways(path, columnar=columnar)
    assert [e.order_id for e in day.events] == [1]
    assert day.rows_before == 0


def test_a_crlf_file_hands_the_tokenizer_no_row(tmp_path):
    # A CR in a block sends the file to the row loop before the block is
    # tokenized; the LF original, two blocks long, tokenizes both.
    events = fuzz_stream(np.random.default_rng(5), 9000)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_message_file(lf, events)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert lf.stat().st_size > lobster._BLOCK
    tokenize, rows = lobster._tokenize, {}

    def counted(data):
        rows[path] = rows.get(path, 0) + data.count(b"\n")
        return tokenize(data)

    days = []
    with mock.patch.object(lobster, "_tokenize", counted):
        for path in (crlf, lf):
            days.append(parse_message_file(path, SessionConfig(), DAY))
    assert rows == {lf: 9000}
    assert as_values(days[0]).columns == as_values(days[1]).columns


def test_minus_zero_and_leading_zeros(tmp_path):
    path = write(tmp_path, "36001.0,01,-0,007,0140000,-01\n"
                           "36001.5,7,-000,-0,-0,1\n"
                           "36002.0500,4,0,3,140000,-1\n")
    day = both_ways(path, columnar=True)
    assert [(e.order_id, e.size, e.price, e.side) for e in day.events] == [
        (0, 7, 140000, Side.SELL), (0, 1, 1, Side.BUY), (0, 3, 140000, Side.SELL)]
    assert day.events[2].timestamp_ns == 36002 * NS + 50_000_000


ROWS = "36001.0,1,1,10,140000,1\n36002.0,1,2,10,140100,-1\n"


@pytest.mark.parametrize("text", [
    ROWS[:-1],  # no final newline
    "",
    ROWS.replace("\n", "\r\n", 1),  # one CRLF line in an LF file
    ROWS + "\n",  # a trailing blank line
    "\n" + ROWS,
    ROWS.replace(",", " ,", 1),  # padding
    ROWS.replace("1,10", "1,1\u0661"),  # a non-ASCII digit
    ROWS.replace(".0,", ".0000000000,", 1),  # 10 decimals
    "-" + ROWS,  # a '-' leading the seconds
    ROWS.replace(".0,", ".-0,", 1),  # or the fraction
    ROWS.replace("140000", "140-000"),  # a '-' inside a field
    ROWS.replace("1,10", "1,-"),  # a '-' alone
    ROWS.replace("1,10", "1,,10"),  # an empty field
    ROWS.replace("1,10", ",10"),  # five fields
    ROWS.replace(".0,", ".,", 1),  # an empty fraction
    ROWS.replace(".0,", ".0.5,", 1),
])
def test_files_that_are_not_canonical_take_the_row_loop(tmp_path, text):
    both_ways(write(tmp_path, text), columnar=False)


# A hidden execution before the session, inside it (on each bound) and after it.
HIDDEN_ROWS = (
    "35999.0,5,9,3,140500,-1\n"
    "35999.999999999,1,1,10,140000,1\n"
    "36000.000000000,5,7,3,140500,-1\n"
    "36000.000000000,1,2,10,140000,1\n"
    "45000.0,5,6,3,140500,1\n"
    "55800.000000000,5,8,3,140500,-1\n"
    "55800.000000000,1,3,10,139000,1\n"
    "55800.000000001,5,4,10,139000,1\n"
)


@pytest.mark.parametrize("exclude_hidden", [True, False])
def test_hidden_executions_around_the_session(tmp_path, exclude_hidden):
    path = write(tmp_path, HIDDEN_ROWS)
    config = SessionConfig(exclude_hidden=exclude_hidden)
    day = both_ways(path, config, columnar=True)
    assert day.rows_before == 2
    if exclude_hidden:
        assert day.skipped_lines == [3, 5, 6]
        assert [day.line_of(i) for i in range(len(day.events))] == [4, 7]
    else:
        assert day.skipped_lines == []
        assert [day.line_of(i) for i in range(len(day.events))] == [3, 4, 5, 6, 7]


def test_halts_are_normalized_as_the_row_loop_does(tmp_path):
    path = write(tmp_path, "36001.0,7,0,0,-1,-1\n36001.0,7,0,-5,0,1\n"
                           "36002.0,7,-3,12,9999999999,-1\n36003.0,1,1,10,140000,1\n")
    day = both_ways(path, columnar=True)
    assert [(e.kind, e.size, e.price) for e in day.events[:3]] == [
        (EventKind.HALT, 1, 1), (EventKind.HALT, 1, 1), (EventKind.HALT, 12, 9999999999)]


@pytest.mark.parametrize("row_4, reason", [
    ("36002.5,1,4,10,140000,1", "timestamps decrease within the file"),
    ("36003.0,8,4,10,140000,1", "unknown type code 8"),
    ("36003.0,1,4,10,9999999999,1", "price must be in 1..9999999998, got 9999999999"),
    ("36003.0,3,4,0,140000,1", "size must be >= 1, got 0"),
    ("36003.0,1,4,10,140000,-0", "direction must be +1/-1, got 0"),
])
def test_a_canonical_file_failing_a_check_gives_the_row_loops_error(tmp_path, row_4, reason):
    rows = ["36001.0,1,1,10,140000,1", "36002.0,1,2,10,140100,-1", "36003.0,1,3,5,139900,1",
            row_4, "36004.0,1,5,10,140000,1"]
    path = write(tmp_path, "".join(row + "\n" for row in rows))
    assert lobster._tokenize(path.read_bytes()) is not None
    assert both_ways(path, columnar=False) == (
        MalformedRow, f"{path}: line 4: {reason}", 4, reason)


@pytest.mark.parametrize("exclude_hidden", [True, False])
def test_blocks_join_to_the_whole_file(tmp_path, exclude_hidden):
    # Blocks of 160 bytes end inside rows, so every check runs across their
    # joins, and hidden executions fall in many blocks.
    rng = np.random.default_rng(5)
    events = fuzz_stream(rng, 300)
    path = tmp_path / "messages.csv"
    write_message_file(path, events)
    config = SessionConfig(exclude_hidden=exclude_hidden)
    day = both_ways(path, config, columnar=True)
    lines = path.read_text().splitlines(keepends=True)
    # The first block of the second size ends exactly at an LF.
    for block in (160, sum(map(len, lines[:5]))):
        with mock.patch.object(lobster, "_BLOCK", block):
            assert as_values(both_ways(path, config, columnar=True)) == as_values(day)
    with mock.patch.object(lobster, "_BLOCK", 160):
        for k in (1, 3, 4, 5, 6, 100):
            # A timestamp that decreases at line k + 1, in a block or across two.
            early = format_timestamp_ns(events[k - 1].timestamp_ns - 1)
            write(tmp_path, "".join(lines[:k] + [early + lines[k][lines[k].index(","):]]
                                    + lines[k + 1:]))
            outcome = both_ways(path, config, columnar=False)
            assert outcome[2] == k + 1


def test_seeds_from_the_columnar_path_equal_the_row_loops(tmp_path):
    orderbook = write(tmp_path, ROW_1 * 3, "orderbook.csv")
    for first in ("36000.0,1,9,6,140000,1", "35999.0,1,9,6,140000,1"):
        path = write(tmp_path, f"{first}\n36001.0,1,7,1,139800,1\n")
        day = both_ways(path, orderbook=orderbook, columnar=True)
        assert day.seed is not None


# Canonical rows, valid ones (a time near the session, and values that pass)
# or any values in the canonical form.
def canonical(secs, frac, *values):
    return f"{secs}.{frac}," + ",".join(map(str, values))


VALID_ROWS = st.tuples(
    st.integers(35990, 55810) | st.sampled_from([0, 999_999_999]), digits(1, 9),
    st.integers(1, 7), st.integers(-10**18 + 1, 10**18 - 1) | st.integers(0, 50),
    st.integers(1, 30) | st.integers(1, 10**18 - 1),
    st.integers(1, 9999999998) | st.sampled_from([140000, 9999999998]), st.sampled_from([1, -1]),
)
ANY_ROWS = st.tuples(
    st.integers(35990, 55810) | digits(1, 10), digits(1, 10),
    *(st.integers(-2, 9) | st.integers(-10**19, 10**19),) * 5,
)


def timestamp_order(row):
    return int(row[0]) * NS + int(row[1].ljust(9, "0"))


def in_time_order(rows):
    return [canonical(*r) for r in sorted(rows, key=timestamp_order)]


LF_FILES = st.lists(VALID_ROWS, min_size=1, max_size=40).map(
    lambda rows: "".join(row + "\n" for row in in_time_order(rows)))


@st.composite
def mixed_files(draw):
    """Valid canonical rows in time order, with up to two rows of
    ``MESSAGE_ROWS`` or canonical rows of any values put in, under LF, CRLF
    or mixed line ends."""
    rows = in_time_order(draw(st.lists(VALID_ROWS, max_size=12)))
    end = draw(st.sampled_from(["\n", "\r\n", None]))
    ends = [end or draw(st.sampled_from(["\n", "\r\n"])) for _ in rows]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, draw(MESSAGE_ROWS | ANY_ROWS.map(lambda r: canonical(*r))))
        ends.insert(at, end or draw(st.sampled_from(["\n", "\r\n", ""])))
    return "".join(row + end for row, end in zip(rows, ends))


# (text, whether it must take the columnar path)
FILES = LF_FILES.map(lambda text: (text, True)) | mixed_files().map(lambda text: (text, False))


@settings(max_examples=1000)
@given(FILES, st.booleans(), st.booleans(), st.sampled_from([48, 160, 1 << 16, 1 << 18]))
def test_columnar_parse_equals_the_row_loop(tmp_path_factory, file, exclude_hidden, seeded, block):
    # LF files of valid rows in time order take the columnar path when no row
    # is longer than a block; a longer row (48 bytes is shorter than some)
    # may leave a block with no LF, which sends the file to the row loop. The
    # rest hold canonical rows and others, in LF, CRLF or mixed line ends.
    text, valid = file
    columnar = valid and max(map(len, text.splitlines(keepends=True))) <= block
    tmp = tmp_path_factory.getbasetemp()
    path = write(tmp, text, "property_message.csv")
    orderbook = write(tmp, ROW_1 * 3, "property_orderbook.csv") if seeded else None
    config = SessionConfig(exclude_hidden=exclude_hidden)
    with mock.patch.object(lobster, "_BLOCK", block):
        if columnar:
            assert lobster._parse_columns(path, config) is not None
        assert as_values(parse_outcome(path, config, orderbook)) == as_values(
            row_loop_outcome(path, config, orderbook))
