"""LOBSTER-format message/orderbook file parsing and fixture writing.

Message rows are ``time,type,orderid,size,price,direction`` with time in
seconds after midnight (nanosecond decimals), price in integer 1e-4 dollars
and direction +1 = buy, -1 = sell. Type codes: 1 arrival, 2 partial cancel,
3 full cancel, 4 visible execution, 5 hidden execution, 6 cross trade,
7 halt. Orderbook rows are ``ask1p,ask1s,bid1p,bid1s,...`` with sentinel
prices +/-9999999999 (or size 0) marking absent levels.

Parsing is strict: the first malformed row aborts with its line number.
Timestamps are handled as exact integer nanoseconds throughout.
"""

from __future__ import annotations

import datetime as dt
import itertools
import re
from dataclasses import dataclass
from pathlib import Path

from .book import BookState, EventKind, LevelQuote, LobEvent, Side, level_snapshot
from .errors import ConfigError, EmptySession, InconsistentEvent, MalformedRow

NS = 1_000_000_000
ASK_ABSENT = 9_999_999_999
BID_ABSENT = -9_999_999_999

_KIND_BY_CODE = {k.value: k for k in EventKind}
_DATE_RE = re.compile(r"(\d{4}-\d{2}-\d{2})")


def hms_to_seconds(text: str) -> int:
    """Parse 'HH:MM' or 'HH:MM:SS' to seconds after midnight."""
    parts = text.split(":")
    if len(parts) not in (2, 3) or not all(p.isdigit() for p in parts):
        raise ConfigError(f"bad time of day: {text!r}")
    h, m = int(parts[0]), int(parts[1])
    s = int(parts[2]) if len(parts) == 3 else 0
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
                "session must satisfy 09:30 <= start < end <= 16:00, got "
                f"{self.session_start}..{self.session_end} seconds"
            )
        if self.tick_size <= 0:
            raise ConfigError("tick_size must be positive")

    @property
    def start_ns(self) -> int:
        return self.session_start * NS

    @property
    def end_ns(self) -> int:
        return self.session_end * NS

    @property
    def length_seconds(self) -> int:
        return self.session_end - self.session_start


@dataclass
class DaySlice:
    """One instrument-day of session-filtered events plus an optional seed."""

    trading_date: dt.date
    events: list[LobEvent]
    seed: "SeedSnapshot | None" = None


@dataclass(frozen=True)
class SeedSnapshot:
    """Anonymous start-of-session depth (no order identities)."""

    bids: tuple[tuple[int, int], ...]  # (price, depth), best first
    asks: tuple[tuple[int, int], ...]

    def build_book(self) -> BookState:
        return BookState.from_snapshot(list(self.bids), list(self.asks))


def parse_timestamp_ns(text: str, line_no: int) -> int:
    """Exact fixed-point parse of 'seconds.fraction' to nanoseconds."""
    head, dot, frac = text.partition(".")
    if not head.isdigit():
        raise MalformedRow(line_no, f"bad timestamp {text!r}")
    if dot and (not frac.isdigit() or len(frac) > 9):
        raise MalformedRow(line_no, f"bad timestamp {text!r}")
    ns = int(head) * NS
    if dot:
        ns += int(frac.ljust(9, "0"))
    return ns


def format_timestamp_ns(ns: int) -> str:
    return f"{ns // NS}.{ns % NS:09d}"


def _parse_int(text: str, line_no: int, what: str) -> int:
    t = text.strip()
    if t.startswith("-"):
        body = t[1:]
    else:
        body = t
    if not body.isdigit():
        raise MalformedRow(line_no, f"bad {what}: {text!r}")
    return int(t)


def parse_message_row(line: str, line_no: int) -> LobEvent:
    fields = line.rstrip("\n").rstrip("\r").split(",")
    if len(fields) != 6:
        raise MalformedRow(line_no, f"expected 6 fields, got {len(fields)}")
    ts = parse_timestamp_ns(fields[0].strip(), line_no)
    code = _parse_int(fields[1], line_no, "type code")
    if code not in _KIND_BY_CODE:
        raise MalformedRow(line_no, f"unknown type code {code}")
    kind = _KIND_BY_CODE[code]
    order_id = _parse_int(fields[2], line_no, "order id")
    size = _parse_int(fields[3], line_no, "size")
    price = _parse_int(fields[4], line_no, "price")
    direction = _parse_int(fields[5], line_no, "direction")
    if direction not in (1, -1):
        raise MalformedRow(line_no, f"direction must be +1/-1, got {direction}")
    side = Side.BUY if direction == 1 else Side.SELL
    if kind in (EventKind.HALT,):
        # Halt rows carry status flags, not an order; normalize to neutral values.
        return LobEvent(ts, kind, order_id, max(size, 1), max(price, 1), side)
    if size < 1:
        raise MalformedRow(line_no, f"size must be >= 1, got {size}")
    if price <= 0:
        raise MalformedRow(line_no, f"price must be positive, got {price}")
    return LobEvent(ts, kind, order_id, size, price, side)


def parse_message_file(
    path: str | Path,
    config: SessionConfig,
    trading_date: dt.date | None = None,
) -> DaySlice:
    """Parse one message file, applying session and hidden-order filters.

    Rows outside [session_start, session_end] are dropped, as are hidden
    executions when ``config.exclude_hidden``. Raises EmptySession when
    nothing survives the filters.
    """
    path = Path(path)
    if trading_date is None:
        trading_date = date_from_filename(path.name) or dt.date(1970, 1, 1)
    events: list[LobEvent] = []
    last_ts = -1
    with open(path, "r", newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            ev = parse_message_row(line, line_no)
            if ev.timestamp_ns < last_ts:
                raise MalformedRow(line_no, "timestamps decrease within the file")
            last_ts = ev.timestamp_ns
            if not (config.start_ns <= ev.timestamp_ns <= config.end_ns):
                continue
            if config.exclude_hidden and ev.kind is EventKind.EXECUTION_HIDDEN:
                continue
            events.append(ev)
    if not events:
        raise EmptySession(f"{path}: no rows inside the session window")
    return DaySlice(trading_date=trading_date, events=events, seed=None)


def date_from_filename(name: str) -> dt.date | None:
    m = _DATE_RE.search(name)
    if not m:
        return None
    return dt.date.fromisoformat(m.group(1))


def parse_orderbook_row(
    line: str, line_no: int = 1
) -> tuple[tuple[LevelQuote | None, ...], tuple[LevelQuote | None, ...]]:
    """One orderbook row -> (asks, bids), as deep as the row is wide.

    Each level takes four fields, so the field count must be a positive
    multiple of 4. Sentinel prices and zero sizes both mark a level as
    absent.
    """
    fields = line.rstrip("\n").rstrip("\r").split(",")
    levels, rest = divmod(len(fields), 4)
    if levels == 0 or rest:
        raise MalformedRow(
            line_no, f"expected a positive multiple of 4 fields, got {len(fields)}"
        )
    asks: list[LevelQuote | None] = []
    bids: list[LevelQuote | None] = []
    for m in range(levels):
        ap = _parse_int(fields[4 * m + 0], line_no, "ask price")
        asz = _parse_int(fields[4 * m + 1], line_no, "ask size")
        bp = _parse_int(fields[4 * m + 2], line_no, "bid price")
        bsz = _parse_int(fields[4 * m + 3], line_no, "bid size")
        asks.append(None if ap >= ASK_ABSENT or asz <= 0 else LevelQuote(ap, asz))
        bids.append(None if bp <= BID_ABSENT or bsz <= 0 else LevelQuote(bp, bsz))
    return tuple(asks), tuple(bids)


def seed_from_orderbook_file(
    path: str | Path, row: int = 1, undo: LobEvent | None = None
) -> SeedSnapshot:
    """Orderbook row ``row`` (1-based), the book after message ``row``, at full depth.

    With ``undo`` (message ``row``) the seed is the book before that message:
    an arrival's size comes off its level; a cancellation's or visible
    execution's size goes back on; other kinds change nothing. Levels pushed
    beyond the row's depth are dropped.
    """
    with open(path, "r", newline="") as fh:
        rows = ((n, line) for n, line in enumerate(fh, start=1) if line.strip())
        found = next(itertools.islice(rows, row - 1, None), None)
    if found is None:
        raise EmptySession(f"{path}: no orderbook row {row}")
    asks, bids = parse_orderbook_row(found[1], found[0])
    sides = {
        Side.BUY: {q.price: q.depth for q in bids if q is not None},
        Side.SELL: {q.price: q.depth for q in asks if q is not None},
    }
    if undo is not None:
        level = sides[undo.side]
        if undo.kind is EventKind.LIMIT_ARRIVAL and undo.price in level:
            level[undo.price] -= undo.size
            if level[undo.price] < 0:
                raise InconsistentEvent(
                    row, f"{path}: row {row} holds less at {undo.price} than the "
                    f"{undo.size} shares message {row} added"
                )
        elif undo.kind in (
            EventKind.CANCEL_PARTIAL, EventKind.CANCEL_FULL, EventKind.EXECUTION_VISIBLE
        ):
            level[undo.price] = level.get(undo.price, 0) + undo.size
    depth = len(asks)
    bids_best_first = sorted(sides[Side.BUY].items(), reverse=True)
    asks_best_first = sorted(sides[Side.SELL].items())
    return SeedSnapshot(
        bids=tuple((p, d) for p, d in bids_best_first if d)[:depth],
        asks=tuple((p, d) for p, d in asks_best_first if d)[:depth],
    )


def session_seed(
    orderbook_path: str | Path, message_path: str | Path, config: SessionConfig
) -> SeedSnapshot:
    """The book at session start, from a message file and its orderbook file.

    Orderbook row k is the book after message k, so the seed is the row of
    the last message before session start. When the session starts at the
    file's first message, it is row 1 with message 1 undone.
    """
    before, first = 0, None
    with open(message_path, "r", newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if before == 0:
                first = parse_message_row(line, line_no)
            if parse_timestamp_ns(line.split(",", 1)[0].strip(), line_no) >= config.start_ns:
                break
            before += 1
    if before:
        return seed_from_orderbook_file(orderbook_path, before)
    return seed_from_orderbook_file(orderbook_path, 1, undo=first)


# -- fixture writer ---------------------------------------------------------


def format_message_row(ev: LobEvent) -> str:
    direction = 1 if ev.side is Side.BUY else -1
    return (
        f"{format_timestamp_ns(ev.timestamp_ns)},{ev.kind.value},"
        f"{ev.order_id},{ev.size},{ev.price},{direction}"
    )


def write_message_file(path: str | Path, events: list[LobEvent]) -> None:
    with open(path, "w", newline="") as fh:
        for ev in events:
            fh.write(format_message_row(ev) + "\n")


def format_orderbook_row(snap, levels: int) -> str:
    cells: list[str] = []
    for m in range(levels):
        ask = snap.asks[m]
        bid = snap.bids[m]
        cells.append(str(ask.price) if ask else str(ASK_ABSENT))
        cells.append(str(ask.depth) if ask else "0")
        cells.append(str(bid.price) if bid else str(BID_ABSENT))
        cells.append(str(bid.depth) if bid else "0")
    return ",".join(cells)


def write_orderbook_file(
    path: str | Path,
    events: list[LobEvent],
    levels: int,
    seed: SeedSnapshot | None = None,
) -> None:
    """Replay the events and write the post-event book row per message."""
    state = seed.build_book() if seed else BookState()
    with open(path, "w", newline="") as fh:
        for ev in events:
            state.apply(ev)
            fh.write(format_orderbook_row(level_snapshot(state, levels), levels) + "\n")
