"""Per-event order-flow deltas and interval-level imbalance vectors.

The book is viewed as an orderbook row (``book.level_snapshot``), and each
event's flow compares the row before and after it: level m = 1..M yields
a signed per-side flow based on how the level-m price moved:

  bid flow: price up   -> +depth_after          (new, stronger queue)
            unchanged  -> depth_after - depth_before
            price down -> -depth_before         (queue lost)
  ask flow: price up   -> -depth_before         (sell pressure withdrawn)
            unchanged  -> depth_after - depth_before
            price down -> +depth_after          (new sell queue)

A level absent on one side of the comparison has price -inf (bids) or
+inf (asks), the row's sentinel price with size 0, so a level coming into
existence counts as a price move in the direction that favors that side.
The per-level net is bid flow minus ask flow (positive = buying pressure);
summing nets over all events in a left-open right-closed time interval
gives the interval's imbalance vector, whose first component is the
classic level-1 order-flow imbalance.

An event touches one price level. When that level rests on the book both
before and after, no price in the row moves: the replay sets the one size
cell, and the flow is the size change at that level alone. When a level
appears or vanishes at rank k, the replay shifts that side's cells k and
deeper one level in place, deeper or shallower, filling the deepest cell
from the book; every shifted price moves the same way, so the rules above
reduce to one signed size per level from k on. ``flow_delta`` applies the
rules to any two rows: it is the rule the shift specialises, and the tests'
reference for it.

Trade imbalance counts visible executions only: an execution against a
resting sell is an incoming buy market order and vice versa.

The replay reads a day's events as six columns of ints (``DaySlice.columns``)
through one ``zip`` and applies each through ``BookState.apply_fields``,
making no ``LobEvent``. It hands back a day's intervals as columns
(``IntervalColumns``): each interval's M flow integers, its buy and sell
volumes and its change in ask + bid, without one object per interval.
``DayComputation.samples`` builds the per-interval ``MlofiSample``s from
them on demand.

The same replay tallies what the book summary needs: the mid, spread and
level 1-5 depths of every post-event state, and where each order-flow
event landed relative to the best quotes. The tally is kept and handed
back in the replay's own integers (orderbook-row prices, shares,
nanoseconds), exactly; ``evaluation.book_summaries`` scales and divides.
This is the only loop that applies a day's events to a book.
"""

from __future__ import annotations

import datetime as dt
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .book import (
    ASK_ABSENT, BID_ABSENT, BUY, CODE_BOOK_NEUTRAL, CODE_EXECUTION_VISIBLE, SELL, BookState,
    level_snapshot,
)
from .errors import InconsistentEvent
from .lobster import DaySlice

#: Depth of the book summary's per-level means.
SUMMARY_LEVELS = 5


@dataclass(frozen=True)
class FlowDelta:
    """Per-event, per-level flow decomposition (shares, signed)."""

    bid_flow: tuple[int, ...]  # level m bid-side contribution, m=1..M
    ask_flow: tuple[int, ...]  # level m ask-side contribution, m=1..M

    @property
    def net(self) -> tuple[int, ...]:
        """bid_flow - ask_flow per level: the event's imbalance contribution."""
        return tuple(w - v for w, v in zip(self.bid_flow, self.ask_flow))


def flow_delta(before: tuple[int, ...], after: tuple[int, ...], levels: int) -> FlowDelta:
    """Apply the per-level case rules to one before/after orderbook-row pair."""
    bid_flow = []
    ask_flow = []
    for k in range(0, 4 * levels, 4):
        bp0, bp1 = before[k + 2], after[k + 2]
        if bp1 > bp0:
            bid_flow.append(after[k + 3])
        elif bp1 == bp0:
            bid_flow.append(after[k + 3] - before[k + 3])
        else:
            bid_flow.append(-before[k + 3])

        ap0, ap1 = before[k], after[k]
        if ap1 > ap0:
            ask_flow.append(-before[k + 1])
        elif ap1 == ap0:
            ask_flow.append(after[k + 1] - before[k + 1])
        else:
            ask_flow.append(after[k + 1])
    return FlowDelta(bid_flow=tuple(bid_flow), ask_flow=tuple(ask_flow))


@dataclass(slots=True)
class MlofiSample:
    """Aggregated imbalance over one (start, end] interval.

    ``delta_p`` is the change in (best_ask + best_bid), i.e. twice the
    mid-price change, in 1e-4 dollar units; dividing by 2 * tick_size
    gives the change in ticks at half-tick resolution.
    """

    date: dt.date
    window_index: int  # 0-based window i within the day
    sub_index: int  # 1-based sub-window k within the window
    start_ns: int
    end_ns: int
    mlofi: tuple[int, ...]
    buy_volume: int
    sell_volume: int
    delta_p: int

    @property
    def ofi(self) -> int:
        """Level-1 order-flow imbalance: the first vector component."""
        return self.mlofi[0]

    @property
    def trade_imbalance(self) -> int:
        return self.buy_volume - self.sell_volume


@dataclass
class BookTally:
    """One day's exact integer sums over its post-event book states and its order flow.

    ``sums[0]`` weights each two-sided state by the nanoseconds it was held
    (until the next event, or the session end after the last event) and
    ``sums[1]`` counts it once per event; each is [weight, ask + bid,
    ask - bid, bid depth at levels 1-5, ask depth at levels 1-5], each
    column the sum of value x weight, prices in 1e-4 dollars. One-sided
    states and zero holding times add nothing; absent levels add zero depth.
    No column is scaled or divided here, so the days' tallies add exactly.
    ``flow_counts``/``flow_volumes`` bucket the order-flow events as within
    the spread, at the best quote or deeper, judged on the book before the
    event.
    """

    sums: tuple[list[int], list[int]]
    flow_counts: list[int]
    flow_volumes: list[int]


@dataclass
class IntervalColumns:
    """One day's intervals (t_{j-1}, t_j], j = 1..N, as columns in interval order.

    ``flows`` holds each interval's ``levels`` imbalance components, one
    interval after the other, as exact integers. ``delta_p`` is the
    interval's change in best ask + best bid, or None when the book is
    one-sided at either end: the interval is discarded, though its other
    columns still hold what flowed in it.
    """

    levels: int
    flows: list[int]
    buy_volumes: list[int]
    sell_volumes: list[int]
    delta_p: list[int | None]

    @classmethod
    def from_samples(cls, samples: Iterable[MlofiSample | None], levels: int) -> "IntervalColumns":
        """The columns of a day's samples, one per interval in order (None where discarded)."""
        columns = cls(levels, [], [], [], [])
        for s in samples:
            if s is None:
                columns.flows += [0] * levels
                columns.buy_volumes.append(0)
                columns.sell_volumes.append(0)
                columns.delta_p.append(None)
            else:
                columns.flows += s.mlofi[:levels]
                columns.buy_volumes.append(s.buy_volume)
                columns.sell_volumes.append(s.sell_volume)
                columns.delta_p.append(s.delta_p)
        return columns


@dataclass
class DayComputation:
    """One day's replay: its interval columns and its book tally."""

    date: dt.date
    boundaries_ns: Sequence[int]
    subwindows_per_window: int
    intervals: IntervalColumns
    discarded_intervals: int
    book: BookTally

    @cached_property
    def samples(self) -> list[MlofiSample | None]:
        """One ``MlofiSample`` per interval, None where discarded; built on first use."""
        cols, K, b = self.intervals, self.subwindows_per_window, self.boundaries_ns
        M = cols.levels
        return [
            None if d is None else MlofiSample(
                self.date, j // K, j % K + 1, b[j], b[j + 1],
                tuple(cols.flows[j * M:(j + 1) * M]), buy, sell, d,
            )
            for j, (buy, sell, d) in enumerate(
                zip(cols.buy_volumes, cols.sell_volumes, cols.delta_p)
            )
        ]


def _tally_columns(row: list[int]) -> list[int]:
    """A row's tally values, the columns of ``BookTally.sums`` per unit weight.

    [1, ask + bid, ask - bid, bid depth at levels 1-5, ask depth at levels
    1-5], or all zeros if the book is one-sided.
    """
    ask, bid = row[0], row[2]
    if bid == BID_ABSENT or ask == ASK_ABSENT:
        return [0] * (3 + 2 * SUMMARY_LEVELS)
    L4 = 4 * SUMMARY_LEVELS
    return [1, ask + bid, ask - bid, *row[3:L4:4], *row[1:L4:4]]


def compute_day_samples(
    day: DaySlice,
    boundaries_ns: Sequence[int],
    subwindows_per_window: int,
    levels: int,
) -> DayComputation:
    """Replay one day against a flat grid of interval boundaries.

    ``boundaries_ns`` is the full ascending boundary list t_0..t_N covering
    the session; interval j (1-based) is (t_{j-1}, t_j]. Events at or
    before t_0 form the pre-grid baseline: they move the book and enter
    the book tally but no interval. Intervals whose start or end mid-price
    is undefined (one-sided book) are discarded, not zeroed: their
    ``delta_p`` is None. Events after
    t_N are not replayed. An event the book contradicts raises
    InconsistentEvent naming the day's message file and the event's line in
    it, or the day's date and the event's index.
    """
    try:
        return _replay(day, boundaries_ns, subwindows_per_window, levels)
    except InconsistentEvent as exc:
        i = exc.event_index
        if day.path is None:
            raise InconsistentEvent(i, exc.reason, day.trading_date) from None
        raise InconsistentEvent(i, exc.reason, day.path, day.line_of(i)) from None


def _replay(
    day: DaySlice,
    boundaries_ns: Sequence[int],
    subwindows_per_window: int,
    levels: int,
) -> DayComputation:
    """The loop of ``compute_day_samples``."""
    state = day.seed.build_book() if day.seed else BookState()
    apply = state.apply_fields
    (bid_depth, bid_prices), (ask_depth, ask_prices) = state.side_book(BUY), state.side_book(SELL)
    times = day.columns.times
    n_events = len(times)
    t_last = boundaries_ns[-1]
    # The book's top levels as one orderbook row, deep enough for the flow
    # vector and the book summary. It is taken once and kept in place: one
    # cell moves per event, or one side's cells shift one level when a level
    # appears or vanishes.
    depth = max(levels, SUMMARY_LEVELS)
    row = list(level_snapshot(state, depth))
    L = SUMMARY_LEVELS
    # Tally column c holds the value cols[c]. When it changes by d at the
    # i-th event (0-based), at time t, d * (t_last - t) goes into its time
    # integral and d * (n_events - i) into its event sum, as if the new
    # value held to the end; after the replay, the part beyond the last
    # replayed state comes off again.
    cols = _tally_columns(row)
    t_first = times[0] if times else t_last
    by_time = [v * (t_last - t_first) for v in cols]
    by_count = [v * n_events for v in cols]
    flow_counts = [0, 0, 0]
    flow_volumes = [0, 0, 0]

    flows: list[int] = []
    buys: list[int] = []
    sells: list[int] = []
    deltas: list[int | None] = []
    discarded = 0
    prev_mid = None
    events = zip(*day.columns)
    pos = 0
    # j = 0 is the baseline, whose flow belongs to no interval.
    for j, t_end in enumerate(boundaries_ns):
        totals = [0] * levels
        buy = 0
        sell = 0
        while pos < n_events and times[pos] <= t_end:
            t, code, order_id, size, price, direction = next(events)
            pos += 1
            if code >= CODE_BOOK_NEUTRAL:
                # The visible book stays as it is, and the flow buckets
                # count only the other kinds.
                apply(code, order_id, size, price, direction)
                continue
            is_bid = direction == 1
            # Flow bucket on the book before the event: 0 within the
            # spread, 1 at the best quote, 2 deeper.
            if code == CODE_EXECUTION_VISIBLE:
                bucket = 1  # executions always hit the front of the queue
                # A hit resting sell means an incoming buy market order.
                if is_bid:
                    sell += size
                else:
                    buy += size
            else:
                own_best = row[2] if is_bid else row[0]  # maybe a sentinel
                if price == own_best:
                    bucket = 1
                elif (price > own_best) == is_bid:
                    bucket = 0
                else:
                    bucket = 2
            flow_counts[bucket] += 1
            flow_volumes[bucket] += size
            depth_of = bid_depth if is_bid else ask_depth
            before = depth_of.get(price, 0)
            apply(code, order_id, size, price, direction)
            after = depth_of.get(price, 0)
            if before == after:  # e.g. a removal beyond the seed horizon
                continue
            # The level's k is the number of better prices on its side, the
            # same whether the level rests on the book or has just vanished.
            if is_bid:
                k = len(bid_prices) - bisect_right(bid_prices, price)
            else:
                k = bisect_left(ask_prices, price)
            if k >= depth:
                continue
            if before and after:
                # Only this level's size moved: one cell, one flow term.
                d = after - before
                if is_bid:
                    row[4 * k + 3] = after
                    if k < levels:
                        totals[k] += d
                    c = 3 + k
                else:
                    row[4 * k + 1] = after
                    if k < levels:
                        totals[k] -= d
                    c = 3 + L + k
                if k < L and cols[0]:
                    cols[c] = after
                    by_time[c] += d * (t_last - t)
                    by_count[c] += d * (n_events - pos + 1)
                continue
            # A level appeared or vanished at k: the side's cells k..depth-1
            # shift one level, and each of their prices moves, towards the
            # other side when the level appeared and away from it when it
            # vanished. By flow_delta's rules level m >= k then takes
            # +size after (bids) or -size after (asks) on an appearance and
            # -size before (bids) or +size before (asks) on a vanishing; a
            # sentinel level on both sides of the shift has size 0.
            lo, hi = 4 * k + (2 if is_bid else 0), 4 * depth
            if after:
                row[lo + 4:hi:4] = row[lo:hi - 4:4]
                row[lo + 5:hi:4] = row[lo + 1:hi - 4:4]
                row[lo] = price
                row[lo + 1] = after
                moved = row[lo + 1:4 * levels:4]
                sign = 1 if is_bid else -1
            else:
                moved = row[lo + 1:4 * levels:4]
                sign = -1 if is_bid else 1
                row[lo:hi - 4:4] = row[lo + 4:hi:4]
                row[lo + 1:hi - 4:4] = row[lo + 5:hi:4]
                # The deepest cell takes the side's depth-th best level, if any.
                if is_bid:
                    p = bid_prices[-depth] if len(bid_prices) >= depth else BID_ABSENT
                    row[hi - 2:hi] = p, bid_depth.get(p, 0)
                else:
                    p = ask_prices[depth - 1] if len(ask_prices) >= depth else ASK_ABSENT
                    row[hi - 4:hi - 2] = p, ask_depth.get(p, 0)
            for m, q in enumerate(moved, k):
                totals[m] += sign * q
            if k < L:
                for c, v in enumerate(_tally_columns(row)):
                    d = v - cols[c]
                    if d:
                        cols[c] = v
                        by_time[c] += d * (t_last - t)
                        by_count[c] += d * (n_events - pos + 1)

        ask, bid = row[0], row[2]
        end_mid = None if bid == BID_ABSENT or ask == ASK_ABSENT else ask + bid
        if j > 0:
            flows += totals
            buys.append(buy)
            sells.append(sell)
            if prev_mid is None or end_mid is None:
                deltas.append(None)
                discarded += 1
            else:
                deltas.append(end_mid - prev_mid)
        prev_mid = end_mid

    # The last replayed state holds until the next event, or t_N.
    t_stop = times[pos] if pos < n_events else t_last
    for c, v in enumerate(cols):
        by_time[c] -= v * (t_last - t_stop)
        by_count[c] -= v * (n_events - pos)
    return DayComputation(
        day.trading_date, boundaries_ns, subwindows_per_window,
        IntervalColumns(levels, flows, buys, sells, deltas), discarded,
        BookTally((by_time, by_count), flow_counts, flow_volumes),
    )

