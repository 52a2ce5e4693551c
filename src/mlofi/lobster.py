"""LOBSTER-format message/orderbook file parsing and fixture writing.

Message rows are ``time,type,orderid,size,price,direction`` with time in
seconds after midnight (nanosecond decimals), price in integer 1e-4 dollars
and direction +1 = buy, -1 = sell. Type codes: 1 arrival, 2 partial cancel,
3 full cancel, 4 visible execution, 5 hidden execution, 6 cross trade,
7 halt; a price must lie below 9999999999. Orderbook rows are
``ask1p,ask1s,bid1p,bid1s,...`` with sentinel prices +/-9999999999 (or size
0) marking absent levels: the form of ``book.level_snapshot``, which the
parser returns and the fixture writer writes.

Parsing is strict. Every number is ASCII decimal: an integer is an optional
``-`` and ASCII digits, a time is ASCII digits with at most 9 decimals, and
a field may carry the ASCII whitespace ``str.strip`` removes around it. A
message row is one match of that grammar, then the checks on its values;
the first row that fails aborts with its file and line number. Every input
file is read as UTF-8 with each undecodable byte kept as a lone surrogate
(``open_text``), which no grammar matches. Each message file is read once:
the same pass counts the rows before the session, which pick the orderbook
row that seeds the book; the seed row must describe an uncrossed book.
Timestamps are handled as exact integer nanoseconds throughout.

A canonical message file is tokenized as columns instead. Its every line is
``S.F,C,O,Z,P,D`` and LF: 1-9 digits on each side of the time's ``.``,
integers of 1-18 digits with an optional leading ``-``, no padding, so
every value and step fits an int64. numpy reads it a block of lines at a
time (``_BLOCK`` bytes, so the temporaries stay small beside the events),
checks the values and the time order as the row loop does, filters by
session and hidden executions, and joins the kept rows of all blocks into
the day's ``EventColumns``, six int64 arrays, with no object per row. Any
other file (CR line ends, blank lines, padding, non-ASCII bytes, a missing
final newline) or any row that fails a check sends the whole file to the
row loop, which reads it again from the start and keeps the grammar, every
error and its line: both ways give the same ``DaySlice``, columns and all.
The row loop converts its rows to the same int64 columns once; a column
holding a value outside int64, which only its grammar admits, stays Python
ints in an object array. Its ``events`` builds ``LobEvent``s only when read.
"""

from __future__ import annotations

import datetime as dt
import itertools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .book import (
    ASK_ABSENT, BID_ABSENT, BUY, CODE_ARRIVAL, CODE_CANCEL_FULL, CODE_CANCEL_PARTIAL,
    CODE_EXECUTION_VISIBLE, SELL, BookState, EventKind, LobEvent, level_snapshot,
)
from .errors import BadValue, ConfigError, DataError, EmptySession, InconsistentEvent, MalformedRow

NS = 1_000_000_000

_KIND_BY_CODE = {k.value: k for k in EventKind}
_SIDE_BY_DIRECTION = {1: BUY, -1: SELL}
_HIDDEN, _HALT = EventKind.EXECUTION_HIDDEN.value, EventKind.HALT.value

# The grammar: ASCII decimal integers and 'seconds.fraction' times, each
# field padded by the ASCII characters str.strip() removes.
_PAD = r"[\t\n\x0b\x0c\r\x1c-\x1f ]*"
_INT = r"(-?\d+)"
_TIME = r"(\d+)(?:\.(\d{1,9}))?"
_MESSAGE_RE = re.compile(",".join(_PAD + f + _PAD for f in (_TIME,) + (_INT,) * 5), re.ASCII)
_ORDERBOOK_RE = re.compile(f"{_PAD}{_INT}{_PAD}(?:,{_PAD}{_INT}{_PAD})*", re.ASCII)
_HMS_RE = re.compile(r"(\d+):(\d+)(?::(\d+))?", re.ASCII)
_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)


def hms_to_seconds(text: str) -> int:
    """Parse 'HH:MM' or 'HH:MM:SS' to seconds after midnight."""
    match = _HMS_RE.fullmatch(text)
    if match is None:
        raise ConfigError(f"bad time of day: {text!r}")
    h, m, s = (int(part or 0) for part in match.groups())
    if not (0 <= h < 24 and 0 <= m < 60 and 0 <= s < 60):
        raise ConfigError(f"bad time of day: {text!r}")
    return h * 3600 + m * 60 + s


@dataclass(frozen=True)
class SessionConfig:
    """Which slice of the trading day to analyze, and at what tick.

    Times are seconds after midnight and must lie within continuous
    trading (09:30-16:00). ``tick_size`` is in 1e-4 dollar units, so the
    default 100 is the one-cent Nasdaq tick.
    """

    session_start: int = 10 * 3600
    session_end: int = 15 * 3600 + 30 * 60
    exclude_hidden: bool = True
    tick_size: int = 100

    def __post_init__(self):
        lo, hi = 9 * 3600 + 30 * 60, 16 * 3600
        if not (lo <= self.session_start < self.session_end <= hi):
            raise ConfigError(
                "session_start and session_end must satisfy 09:30 <= start < end <= 16:00, "
                f"got {self.session_start}..{self.session_end} seconds"
            )
        if self.tick_size <= 0:
            raise BadValue("tick_size", f"must be positive, got {self.tick_size}")

    @property
    def start_ns(self) -> int:
        return self.session_start * NS

    @property
    def end_ns(self) -> int:
        return self.session_end * NS

    @property
    def length_seconds(self) -> int:
        return self.session_end - self.session_start


class EventColumns(NamedTuple):
    """A day's events as six int64 columns, in stream order. A column holding
    a value outside int64 is an object array of Python ints instead, which
    the replay reads on Python ints throughout. ``.tolist()`` gives a
    column's Python ints."""

    times: np.ndarray  # nanoseconds after midnight
    codes: np.ndarray  # type codes, the EventKind values
    order_ids: np.ndarray
    sizes: np.ndarray
    prices: np.ndarray
    directions: np.ndarray  # +1 buy, -1 sell

    @classmethod
    def from_rows(cls, rows: list[tuple[int, ...]]) -> "EventColumns":
        """The columns of ``rows``, each one event's six values."""
        if not rows:
            return cls(*(np.zeros(0, np.int64) for _ in cls._fields))
        return cls(*map(_int_column, zip(*rows)))


def _int_column(values) -> np.ndarray:
    """``values`` as an int64 array, or as an object array of its ints if
    one lies outside int64."""
    try:
        return np.fromiter(values, np.int64, len(values))
    except OverflowError:
        return np.array(values, object)


def _columns(events: list[LobEvent] | EventColumns) -> EventColumns:
    """``events`` as columns: columns as they are, ``LobEvent``s converted."""
    if isinstance(events, EventColumns):
        return events
    return EventColumns.from_rows(
        [(e.timestamp_ns, e.kind._value_, e.order_id, e.size, e.price, e.side._value_)
         for e in events]
    )


def _values(events: list[LobEvent] | EventColumns) -> list[list[int]]:
    """``events``' six columns as lists of Python ints."""
    return [column.tolist() for column in _columns(events)]


def _event(ts: int, code: int, order_id: int, size: int, price: int, direction: int) -> LobEvent:
    return LobEvent(ts, _KIND_BY_CODE[code], order_id, size, price, _SIDE_BY_DIRECTION[direction])


@dataclass
class DaySlice:
    """One instrument-day of session-filtered events plus an optional seed,
    and the message file it was read from, if any.

    The events are held as ``columns`` only, which the replay reads;
    ``events`` builds them as ``LobEvent``s on each read. For a message
    file, ``rows_before`` counts the rows before the session and
    ``skipped_lines`` lists, ascending, the blank lines and the dropped
    hidden executions; with them ``line_of`` finds an event's line.
    """

    trading_date: dt.date
    columns: EventColumns
    seed: "SeedSnapshot | None" = None
    path: Path | None = None
    rows_before: int = 0
    skipped_lines: list[int] = field(default_factory=list)

    @property
    def events(self) -> list[LobEvent]:
        """The events as new ``LobEvent``s, built on each read."""
        return list(map(_event, *_values(self.columns)))

    def line_of(self, event_index: int) -> int:
        """The message-file line of ``events[event_index]``: the
        (rows_before + event_index + 1)-th line not skipped, as the rows
        before the session precede the events and the rows after it follow."""
        line = self.rows_before + event_index + 1
        for skipped in self.skipped_lines:
            if skipped > line:
                break
            line += 1
        return line


@dataclass(frozen=True)
class SeedSnapshot:
    """Anonymous start-of-session depth (no order identities), and per side
    the deepest price of the orderbook row it was read from, where the row
    fills that side (the sentinel: no horizon, the seed is the whole side)."""

    bids: tuple[tuple[int, int], ...]  # (price, depth), best first
    asks: tuple[tuple[int, int], ...]
    bid_horizon: int = BID_ABSENT
    ask_horizon: int = ASK_ABSENT

    def build_book(self) -> BookState:
        return BookState.from_snapshot(
            list(self.bids), list(self.asks), self.bid_horizon, self.ask_horizon
        )


def open_text(path: str | Path):
    """``path`` opened for reading as UTF-8, line ends kept; a byte that is
    not UTF-8 becomes a lone surrogate, so it reaches the row's checks."""
    return open(path, encoding="utf-8", errors="surrogateescape", newline="")


def format_timestamp_ns(ns: int) -> str:
    return f"{ns // NS}.{ns % NS:09d}"


def _malformed(line: str, line_no: int) -> MalformedRow:
    row = line.rstrip("\r\n")
    return MalformedRow(line_no, f"malformed row {row!r}")


def parse_message_row(line: str, line_no: int) -> LobEvent:
    return _event(*_message_fields(line, line_no))


def _message_fields(line: str, line_no: int) -> tuple[int, int, int, int, int, int]:
    """A message row's values (time in nanoseconds, type code, order id, size,
    price, direction), checked, with a halt's normalized."""
    m = _MESSAGE_RE.fullmatch(line)
    if m is None:
        raise _malformed(line, line_no)
    secs, frac, code, order_id, size, price, direction = m.groups()
    ts = int(secs) * NS + (int(frac.ljust(9, "0")) if frac else 0)
    code = int(code)
    if code not in _KIND_BY_CODE:
        raise MalformedRow(line_no, f"unknown type code {code}")
    order_id, size, price, direction = int(order_id), int(size), int(price), int(direction)
    if direction not in (1, -1):
        raise MalformedRow(line_no, f"direction must be +1/-1, got {direction}")
    if code == _HALT:
        # Halt rows carry status flags, not an order; normalize to neutral values.
        return ts, code, order_id, max(size, 1), max(price, 1), direction
    if size < 1:
        raise MalformedRow(line_no, f"size must be >= 1, got {size}")
    if not 0 < price < ASK_ABSENT:
        raise MalformedRow(line_no, f"price must be in 1..{ASK_ABSENT - 1}, got {price}")
    return ts, code, order_id, size, price, direction


def _parse_lines(
    lines, config: SessionConfig
) -> tuple[EventColumns, tuple[int, ...] | None, int, list[int]]:
    """The row loop: the session's event columns, the file's first row's
    values, the rows before the session and the skipped lines, from ``lines``
    with their ends."""
    rows: list[tuple[int, ...]] = []
    skipped: list[int] = []
    start_ns, end_ns = config.start_ns, config.end_ns
    hidden = _HIDDEN if config.exclude_hidden else None
    last_ts = -1
    before, first = 0, None
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            skipped.append(line_no)
            continue
        row = _message_fields(line, line_no)
        if first is None:
            first = row
        ts = row[0]
        if ts < last_ts:
            raise MalformedRow(line_no, "timestamps decrease within the file")
        last_ts = ts
        if ts < start_ns:
            before += 1
            continue
        if ts > end_ns:
            continue
        if row[1] == hidden:
            skipped.append(line_no)
            continue
        rows.append(row)
    return EventColumns.from_rows(rows), first, before, skipped


# A canonical message row: each field's ASCII digits, a '-' leading an integer,
# and after field j the byte _SEPARATORS[j]; a field holds 1.._MAX_DIGITS[j]
# digits, which keeps every int64 value and step below 10**18.
_SEPARATORS = np.frombuffer(b".,,,,,\n", np.uint8)
_MAX_DIGITS = (9, 9, 18, 18, 18, 18, 18)
_POW10 = 10 ** np.arange(10, dtype=np.int64)
#: Bytes of a message file tokenized at a time, far above the longest
#: canonical row (120 bytes). A block's temporaries take a few times its
#: size: on a 34,983-row day, 256 KiB blocks raised peak RSS by ~1.7 MiB over
#: the row loop's, 64 KiB blocks by ~0.2 MiB.
_BLOCK = 1 << 16


def _tokenize(data: bytes) -> list[np.ndarray] | None:
    """The seven fields of every row of ``data`` as int64 columns (seconds,
    fraction in nanoseconds, type code, order id, size, price, direction),
    or None unless every line of ``data`` is a canonical row."""
    buf = np.frombuffer(data, np.uint8)
    if not len(buf) or buf[-1] != ord("\n"):
        return None
    is_end = buf == ord(",")
    is_end |= buf == ord(".")
    is_end |= buf == ord("\n")
    ends = np.flatnonzero(is_end)
    del is_end
    n, rest = divmod(len(ends), len(_SEPARATORS))
    if rest or not (buf[ends].reshape(n, -1) == _SEPARATORS).all():
        return None
    # Every byte that is no digit is a separator or a '-' leading an integer.
    n_minus = np.count_nonzero(buf == ord("-"))
    if np.count_nonzero(buf < ord("0")) + np.count_nonzero(buf > ord("9")) != len(ends) + n_minus:
        return None
    columns = []
    starts = np.concatenate(([0], ends[len(_SEPARATORS) - 1:-1:len(_SEPARATORS)] + 1))
    for j, end in enumerate(ends.reshape(n, -1).T):
        negative = buf[starts] == ord("-")
        if j < 2 and negative.any():
            return None
        n_minus -= np.count_nonzero(negative)
        width = end - starts - negative
        if width.min() < 1 or width.max() > _MAX_DIGITS[j]:
            return None
        value = np.zeros(n, np.int64)
        for k in range(width.max()):
            # The k-th digit from the field's end; a row with fewer digits
            # masks it (in row 0 the index may wrap to the buffer's end).
            digit = buf[end - (k + 1)] - np.uint8(ord("0"))
            digit *= width > k
            value += digit * np.int64(10**k)
        if j == 1:
            value *= _POW10[9 - width]
        columns.append(np.where(negative, -value, value))
        starts = end + 1
    return None if n_minus else columns


def _canonical_columns(data: bytes) -> list[np.ndarray] | None:
    """``data``'s rows as int64 columns (timestamp in nanoseconds, type code,
    order id, size, price, direction), halts normalized as
    ``parse_message_row`` does, or None unless every line is a canonical row
    that passes the row loop's value checks with no timestamp decreasing."""
    fields = _tokenize(data)
    if fields is None:
        return None
    secs, frac, code, order_id, size, price, direction = fields
    ts = secs * NS + frac
    halt = code == _HALT
    valid = ((code >= 1) & (code <= len(EventKind)) & (np.abs(direction) == 1)
             & (halt | ((size >= 1) & (price >= 1) & (price < ASK_ABSENT))))
    if not valid.all() or (ts[1:] < ts[:-1]).any():
        return None
    size = np.where(halt, np.maximum(size, 1), size)
    price = np.where(halt, np.maximum(price, 1), price)
    return [ts, code, order_id, size, price, direction]


def _parse_columns(path: Path, config: SessionConfig):
    """What ``_parse_lines`` gives for the file at ``path``, read and
    tokenized as columns a block of lines at a time, or None unless every
    line is a canonical row that passes the row loop's checks."""
    blocks: list[list[np.ndarray]] = [[] for _ in EventColumns._fields]
    skipped: list[int] = []
    first, before, n_rows, last_ts = None, 0, 0, -1
    tail = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(_BLOCK):
            block = tail + chunk
            cut = block.rfind(b"\n") + 1
            if not cut:  # no LF in a block: no canonical row is that long
                return None
            block, tail = block[:cut], block[cut:]
            columns = _canonical_columns(block)
            if columns is None or columns[0][0] < last_ts:
                return None
            ts, code = columns[0], columns[1]
            last_ts = ts[-1]
            before += np.count_nonzero(ts < config.start_ns)
            kept = (ts >= config.start_ns) & (ts <= config.end_ns)
            if config.exclude_hidden:
                hidden = kept & (code == _HIDDEN)
                skipped += (np.flatnonzero(hidden) + n_rows + 1).tolist()
                kept &= ~hidden
            rows = np.flatnonzero(kept)
            for block, column in zip(blocks, columns):
                block.append(column[rows])
            if first is None:
                first = tuple(c[0].item() for c in columns)
            n_rows += len(ts)
    if tail or first is None:
        return None
    # Each column's blocks go as soon as it is joined.
    events = EventColumns(*(np.concatenate(blocks.pop(0)) for _ in EventColumns._fields))
    return events, first, before, skipped


def parse_message_file(
    path: str | Path,
    config: SessionConfig,
    trading_date: dt.date,
    orderbook: str | Path | None = None,
) -> DaySlice:
    """Parse one message file of the day ``trading_date``, applying session
    and hidden-order filters.

    Rows outside [session_start, session_end] are dropped, as are hidden
    executions when ``config.exclude_hidden``. Raises EmptySession when
    nothing survives the filters. With an ``orderbook`` file the day is
    seeded with the book at session start: orderbook row k is the book after
    message k, so the seed is the row of the last message before session
    start. When the session starts at the file's first message, it is row 1
    with message 1 undone.
    """
    path = Path(path)
    try:
        parsed = _parse_columns(path, config)
        if parsed is None:
            with open_text(path) as lines:
                parsed = _parse_lines(lines, config)
    except MalformedRow as exc:
        raise MalformedRow(exc.line_no, exc.reason, path) from None
    events, first, before, skipped = parsed
    if not len(events.times):
        raise EmptySession(f"{path}: no rows inside the session window")
    seed = None
    if orderbook is not None and before:
        seed = seed_from_orderbook_file(orderbook, before)
    elif orderbook is not None:
        seed = seed_from_orderbook_file(orderbook, 1, undo=first)
    return DaySlice(trading_date, events, seed, path, before, skipped)


def date_from_filename(name: str) -> dt.date | None:
    """The first YYYY-MM-DD in a file name; a DataError if it is no date."""
    m = _DATE_RE.search(name)
    if not m:
        return None
    try:
        return dt.date.fromisoformat(m.group())
    except ValueError as exc:
        raise DataError(f"{name}: bad date {m.group()!r} in the file name: {exc}") from None


def parse_orderbook_row(line: str, line_no: int = 1) -> tuple[int, ...]:
    """One orderbook row, as deep as it is wide, in ``level_snapshot`` form.

    Each level takes four fields, so the field count must be a positive
    multiple of 4. A level with a sentinel price or a zero size comes back
    as the sentinel price and size 0.
    """
    fields = line.split(",")
    levels, rest = divmod(len(fields), 4)
    if levels == 0 or rest:
        raise MalformedRow(
            line_no, f"expected a positive multiple of 4 fields, got {len(fields)}"
        )
    if _ORDERBOOK_RE.fullmatch(line) is None:
        raise _malformed(line, line_no)
    values = [int(f.strip()) for f in fields]
    row: list[int] = []
    for m in range(levels):
        ap, asz, bp, bsz = values[4 * m:4 * m + 4]
        row += (ASK_ABSENT, 0) if ap >= ASK_ABSENT or asz <= 0 else (ap, asz)
        row += (BID_ABSENT, 0) if bp <= BID_ABSENT or bsz <= 0 else (bp, bsz)
    return tuple(row)


def _book_fault(row: tuple[int, ...]) -> str | None:
    """Why an orderbook row in ``level_snapshot`` form describes no book, or None.

    A book's real prices lie in 1..9999999998, its asks strictly ascend and
    its bids strictly descend, absent levels follow a side's real ones, and
    the best bid lies below the best ask.
    """
    for name, prices, absent, step in (("ask", row[0::4], ASK_ABSENT, 1),
                                       ("bid", row[2::4], BID_ABSENT, -1)):
        n_real = prices.index(absent) if absent in prices else len(prices)
        real = prices[:n_real]
        if any(p != absent for p in prices[n_real:]):
            return f"{name} level {n_real + 1} is absent but a deeper one is not"
        for p in real:
            if not 0 < p < ASK_ABSENT:
                return f"{name} price must be in 1..{ASK_ABSENT - 1}, got {p}"
        for a, b in zip(real, real[1:]):
            if step * (b - a) <= 0:
                order = "ascend" if step > 0 else "descend"
                return f"{name} prices must strictly {order}, got {a} then {b}"
    if row[2] != BID_ABSENT and row[0] != ASK_ABSENT and row[2] >= row[0]:
        return f"the book is crossed: best bid {row[2]} >= best ask {row[0]}"
    return None


def seed_from_orderbook_file(
    path: str | Path, row: int = 1, undo: tuple[int, ...] | None = None
) -> SeedSnapshot:
    """Orderbook row ``row`` (1-based), the book after message ``row``, at full depth.

    The row must describe a book (``_book_fault``), or it is malformed. With
    ``undo``, message ``row``'s six ints (time, type code, order id, size,
    price, direction), the seed is the book before that message. A message
    beyond the row's horizon (its deepest price on the side, the sentinel if
    the row shows a gap) changes no level the row shows, and the replay
    skips a removal there too. Elsewhere an arrival's size comes off its
    level, which the row must hold; a cancellation's or visible execution's
    size goes back on; other kinds change nothing. The seed can thus be one
    level deeper than the row.
    """
    with open_text(path) as fh:
        rows = ((n, line) for n, line in enumerate(fh, start=1) if line.strip())
        found = next(itertools.islice(rows, row - 1, None), None)
    if found is None:
        raise DataError(f"{path}: no orderbook row {row}")
    line_no, line = found
    try:
        book = parse_orderbook_row(line, line_no)
    except MalformedRow as exc:
        raise MalformedRow(line_no, exc.reason, path) from None
    fault = _book_fault(book)
    if fault is not None:
        raise MalformedRow(line_no, f"seed row {row}: {fault}", path)
    bid_horizon, ask_horizon = min(book[2::4]), max(book[0::4])
    bid_levels = {p: d for p, d in zip(book[2::4], book[3::4]) if d}
    ask_levels = {p: d for p, d in zip(book[0::4], book[1::4]) if d}
    if undo is not None:
        _, code, _, size, price, direction = undo
        level = bid_levels if direction == 1 else ask_levels
        shown = not (price < bid_horizon if direction == 1 else price > ask_horizon)
        if code == CODE_ARRIVAL and shown:
            level[price] = level.get(price, 0) - size
            if level[price] < 0:
                raise InconsistentEvent(
                    row, f"orderbook row {row} holds less at {price} than the "
                    f"{size} shares message {row} added", path, line_no=line_no
                )
        elif code in (CODE_CANCEL_PARTIAL, CODE_CANCEL_FULL, CODE_EXECUTION_VISIBLE) and shown:
            level[price] = level.get(price, 0) + size
    bids = tuple((p, d) for p, d in sorted(bid_levels.items(), reverse=True) if d)
    asks = tuple((p, d) for p, d in sorted(ask_levels.items()) if d)
    if bids and asks and bids[0][0] >= asks[0][0]:
        raise InconsistentEvent(
            row, f"orderbook row {row} with message {row} undone is a crossed book", path,
            line_no=line_no,
        )
    return SeedSnapshot(bids=bids, asks=asks, bid_horizon=bid_horizon, ask_horizon=ask_horizon)


# -- fixture writer ---------------------------------------------------------


def write_message_file(path: str | Path, events: list[LobEvent] | EventColumns) -> None:
    """One canonical LOBSTER message row per event, LF-terminated."""
    with open(path, "w", newline="") as fh:
        for ts, code, order_id, size, price, direction in zip(*_values(events)):
            fh.write(f"{format_timestamp_ns(ts)},{code},{order_id},{size},{price},{direction}\n")


def write_orderbook_file(
    path: str | Path, events: list[LobEvent] | EventColumns, levels: int
) -> None:
    """Replay the events and write the post-event book row per message."""
    state = BookState()
    with open(path, "w", newline="") as fh:
        for _, code, order_id, size, price, direction in zip(*_values(events)):
            state.apply_fields(code, order_id, size, price, direction)
            fh.write(",".join(map(str, level_snapshot(state, levels))) + "\n")
