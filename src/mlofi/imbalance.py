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
before and after, no price in the row moves, and the flow is the size change
at that level alone. When a level appears or vanishes at rank k, that side's
cells k and deeper shift one level, deeper or shallower; every shifted price
moves the same way, so the rules above reduce to one signed size per level
from k on. The columnar replay computes flows in that form.

Trade imbalance counts visible executions only: an execution against a
resting sell is an incoming buy market order and vice versa.

The replay reads a day's events as six int64 columns (``DaySlice.columns``)
and computes them in bulk (``_replay_columns``): once the book's checks
pass, every depth change follows from the events alone, so sorts and
running sums grouped by order id and by price level give each level's depth
after each event, and one Python pass over only the events that open or
close a level keeps each side's sorted prices. Ranks, flows, volumes and
the tally then follow from whole columns. A day with a value outside int64,
2**27 events or more, or sums that could leave int64 runs the same code on
its columns as Python ints, in object arrays, at several times the cost per
event. The path declines only a day the book contradicts; a bare
``BookState.apply_fields`` pass over the replayed events then raises
``InconsistentEvent`` at the first event the book contradicts. The replay
hands back a day's intervals as exact-integer arrays (``IntervalColumns``):
each interval's M flows, its buy and sell volumes, its change in ask + bid
and whether it is kept, without one object per interval.
``DayComputation.samples`` builds the per-interval ``MlofiSample``s from
them on demand.

The same replay tallies what the book summary needs: the mid, spread and
level 1-5 depths of every post-event state, and where each order-flow
event landed relative to the best quotes. The tally is kept and handed
back in the replay's own integers (orderbook-row prices, shares,
nanoseconds), exactly; ``evaluation.book_summaries`` scales and divides.
"""

from __future__ import annotations

import datetime as dt
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from .book import (
    ASK_ABSENT, BID_ABSENT, BUY, CODE_ARRIVAL, CODE_BOOK_NEUTRAL, CODE_CANCEL_FULL,
    CODE_EXECUTION_VISIBLE, SELL, BookState, level_snapshot,
)
from .errors import InconsistentEvent
from .lobster import DaySlice, _int_column

#: Depth of the book summary's per-level means.
SUMMARY_LEVELS = 5
#: Days of this many replayed events or more replay on Python ints: with
#: fewer, the columnar replay's sort keys (a level times the event count, a
#: row of top prices times 2**35, plus an index or a price) fit an int64.
_MAX_EVENTS = 2**27


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


@dataclass(eq=False)
class IntervalColumns:
    """One day's intervals (t_{j-1}, t_j], j = 1..N, as columns in interval order.

    ``flows`` (N x M) holds each interval's imbalance components, and
    ``buy_volumes``, ``sell_volumes`` and ``delta_p`` its visible executions
    and its change in best ask + best bid. Each is an int64 array, or an
    object array of its exact ints if one lies outside int64. ``kept`` is
    False where the book is one-sided at either end: the interval is
    discarded and its ``delta_p`` is 0, though its other columns still hold
    what flowed in it.
    """

    flows: np.ndarray
    buy_volumes: np.ndarray
    sell_volumes: np.ndarray
    delta_p: np.ndarray
    kept: np.ndarray

    @classmethod
    def from_rows(cls, rows: list[tuple], levels: int) -> "IntervalColumns":
        """The columns of one row of exact ints per interval: its ``levels``
        flows, buy and sell volumes, delta_p and whether it is kept."""
        flows, buys, sells, deltas, kept = zip(*rows) if rows else ((),) * 5
        return cls(_int_column([v for f in flows for v in f]).reshape(-1, levels),
                   _int_column(buys), _int_column(sells), _int_column(deltas),
                   np.array(kept, bool))

    @classmethod
    def from_samples(cls, samples: Iterable[MlofiSample | None], levels: int) -> "IntervalColumns":
        """The columns of a day's samples, one per interval in order (None where discarded)."""
        return cls.from_rows([((0,) * levels, 0, 0, 0, False) if s is None else
                              (s.mlofi[:levels], s.buy_volume, s.sell_volume, s.delta_p, True)
                              for s in samples], levels)

    def __eq__(self, other) -> bool:
        """Equal dtypes, shapes and exact values, column by column."""
        return isinstance(other, IntervalColumns) and all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip(vars(self).values(), vars(other).values()))


@dataclass
class DayComputation:
    """One day's replay: its interval columns and its book tally."""

    date: dt.date
    boundaries_ns: Sequence[int]
    subwindows_per_window: int
    intervals: IntervalColumns
    book: BookTally

    @property
    def discarded_intervals(self) -> int:
        return int(np.count_nonzero(~self.intervals.kept))

    @cached_property
    def samples(self) -> list[MlofiSample | None]:
        """One ``MlofiSample`` per interval, None where discarded; built on first use."""
        K, b = self.subwindows_per_window, self.boundaries_ns
        # Python ints: the CSV writer would write a numpy int as a float.
        columns = (c.tolist() for c in vars(self.intervals).values())
        return [
            MlofiSample(self.date, j // K, j % K + 1, b[j], b[j + 1], tuple(flows), buy, sell, d)
            if kept else None
            for j, (flows, buy, sell, d, kept) in enumerate(zip(*columns))
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
    is undefined (one-sided book) are discarded, not zeroed: they are not
    ``kept``. Events after t_N are not replayed. An event the book contradicts raises
    InconsistentEvent naming the day's message file and the event's line in
    it, or the day's date and the event's index. Input no message file can
    hold raises ValueError: ``levels`` below 1, boundaries empty or out of
    order, events out of time order, a direction other than +1 or -1, or a
    book event's size below 1 or price outside 1..ASK_ABSENT - 1.
    """
    try:
        computed = _replay_columns(day, boundaries_ns, subwindows_per_window, levels)
        if computed is None:
            # The columnar replay declines only a day the book contradicts;
            # a bare pass of the book over the replayed events (those up to
            # t_N) finds the first contradicted event.
            apply = (day.seed.build_book() if day.seed else BookState()).apply_fields
            t_last = boundaries_ns[-1]
            for t, code, order_id, size, price, direction in zip(
                    *(column.tolist() for column in day.columns)):
                if t > t_last:
                    break
                apply(code, order_id, size, price, direction)
            raise RuntimeError(f"{day.path or day.trading_date}: the columnar replay declined "
                               "a day that the book accepts")
        return computed
    except InconsistentEvent as exc:
        i = exc.event_index
        if day.path is None:
            raise InconsistentEvent(i, exc.reason, day.trading_date) from None
        raise InconsistentEvent(i, exc.reason, day.path, day.line_of(i)) from None


def _starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the sorted ``keys`` starts."""
    starts = np.ones(len(keys), bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def _cumsum_within(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The running sums of ``values``, restarted at each of ``starts``, in
    place of ``values``."""
    before = values[starts]
    np.cumsum(values, out=values)
    before -= values[starts]  # minus the sum before each run
    run = np.cumsum(starts, dtype=np.intp)
    run -= 1
    values += before[run]
    return values


def _grouped(keys: np.ndarray, events: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """``events`` (indices below ``span``) sorted by their ``keys`` (which,
    if int64, must lie in 0..2**63 // span), then by index, and where each
    key's run starts. ``keys`` is overwritten."""
    order = keys
    order *= span
    order += events
    order.sort()
    starts = _starts(order // span)
    order %= span
    return order.astype(np.intp, copy=False), starts


class _LevelDepths:
    """Each level's depth after each event that changes it.

    A level is one side and price, keyed 2 * price + 1 for bids and 2 * price
    for asks. Its depths are running sums of its seeded depth, put at event
    -1, and the changes of the events at it.
    """

    def __init__(self, seed_keys, seed_sizes, keys, events, changes, span):
        entries = keys * span
        entries += events
        entries += 1
        entries = np.concatenate((seed_keys * span, entries))
        order = np.argsort(entries)
        self.entries = entries = entries[order]
        self.span = span
        starts = _starts(entries // span)
        self.depths = _cumsum_within(np.concatenate((seed_sizes, changes))[order], starts)
        del starts
        after = np.empty_like(self.depths)
        after[order] = self.depths
        self.after = after[len(seed_keys):]  # each event's, in event order

    def at(self, key: np.ndarray, event: np.ndarray) -> np.ndarray:
        """The depth of level ``key`` after ``event`` (-1: the seed's); 0 if no such level."""
        pos = np.searchsorted(self.entries, key * self.span + event + 1, "right") - 1
        found = self.entries[pos] // self.span == key
        found &= pos >= 0
        return np.where(found, self.depths[pos], 0)


def _level_pass(prices: list[int], is_bid: list[bool], opens: list[bool],
                  bid_prices: list[int], ask_prices: list[int], depth: int
                  ) -> tuple[list[int], list[int]]:
    """The one pass over the events that open or close a level (their prices,
    sides and whether each opens one), from each side's sorted seeded prices:
    each event's rank k, its number of better prices on its side, and the
    prices of each side's top ``depth`` levels at the start followed by, at
    each event, its side's top ``depth + 1`` levels with the event's level
    among them (at k), best first. Sentinels pad each side beyond its levels."""
    bids = [BID_ABSENT] * (depth + 1) + bid_prices
    asks = ask_prices + [ASK_ABSENT] * (depth + 1)
    tops = bids[-depth:][::-1] + asks[:depth]
    ranks = []
    for price, bid, up in zip(prices, is_bid, opens):
        if bid:
            k = len(bids) - bisect_right(bids, price)
            if up:
                bids.insert(len(bids) - k, price)
            tops += bids[:-depth - 2:-1]
            if not up:
                del bids[-k - 1]
        else:
            k = bisect_left(asks, price)
            if up:
                asks.insert(k, price)
            tops += asks[:depth + 1]
            if not up:
                del asks[k]
        ranks.append(k)
    return ranks, tops


class _TallySums:
    """``BookTally.sums`` in differential form, from the changes of the
    tally's columns.

    A change d of column c at event i, at time t_i, adds d * (t_last - t_i)
    to its time integral and d * (n_events - i) to its event sum, as if the
    new value held to the end; at the end the part beyond the last replayed
    state comes off. The sums run in ``dtype``. int64 wraps: it is exact
    wherever a bound on a column's values shows its result fits, and Python
    ints sum the other columns. On object columns every sum is exact.
    """

    def __init__(self, start: list[int], largest: list[int], times: np.ndarray,
                 time_weights: tuple[int, int, int], count_weights: tuple[int, int, int],
                 dtype):
        self.start = start
        self.times = times
        # Per sum: the weights' end, first and stop positions.
        self.weights = (time_weights, count_weights)
        self.moved = np.zeros(len(start), dtype)
        self.sums = np.zeros((2, len(start)), dtype)
        self.exact = [[0 if most * (stop - first) >= 2**63 else None for most in largest]
                      for _, first, stop in self.weights]

    def add(self, events: np.ndarray, columns: np.ndarray, changes: np.ndarray) -> None:
        """Column ``columns[i]`` changes by ``changes[i]`` at event ``events[i]``."""
        np.add.at(self.moved, columns, changes)
        for w, ((end, _, _), at) in enumerate(zip(self.weights, (self.times[events], events))):
            np.add.at(self.sums[w], columns, changes * (end - at))
            for c, exact in enumerate(self.exact[w]):
                if exact is not None:
                    pick = columns == c
                    self.exact[w][c] += sum(map(mul, changes[pick].tolist(),
                                                [end - t for t in at[pick].tolist()]))

    def result(self) -> tuple[list[int], list[int]]:
        final = [v + d for v, d in zip(self.start, self.moved.tolist())]
        out = ([], [])
        for w, (end, first, stop) in enumerate(self.weights):
            for v0, v1, s, exact in zip(self.start, final, self.sums[w].tolist(), self.exact[w]):
                value = v0 * (end - first) - v1 * (end - stop)
                if exact is None:
                    value = (value + s + 2**63) % 2**64 - 2**63
                else:
                    value += exact
                out[w].append(value)
        return out


def _replay_columns(
    day: DaySlice,
    boundaries_ns: Sequence[int],
    subwindows_per_window: int,
    levels: int,
    dtype=np.int64,
) -> DayComputation | None:
    """``compute_day_samples``' result computed on the day's columns, or
    None if an event contradicts the book.

    Once the book's checks pass, every depth change follows from the events
    alone: an arrival adds its size at its price and a removal takes its size
    off, unless it removes an unseen order beyond the seed's horizon. So the
    order life cycles (grouped by order id) and the seeded pools (grouped by
    level, a side and price) are checked with sorts and running sums, and a
    running sum grouped by level gives each level's depth after each event.
    One pass over the events that open or close a level keeps each side's
    sorted prices and records the side's top prices there. The checks
    against the best quotes before each event, the ranks, flows, buckets,
    volumes, mid changes and the tally then follow in bulk. Up to the first
    event the book rejects, both see the same book, so that event fails a
    check here.

    The arrays are int64 (``dtype``). Where a sort key or a sum could leave
    int64 (a column or boundary outside it, ``_MAX_EVENTS`` events or more,
    order ids too far apart, or depths and flow sums too large), the same
    code runs again with ``dtype`` object, on the day's columns as Python
    ints, where every key and sum is exact.
    """
    def exact() -> DayComputation | None:
        return _replay_columns(day, boundaries_ns, subwindows_per_window, levels, object)

    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    columns = day.columns
    if dtype is object:
        columns = [c.astype(object) for c in columns]
    elif any(c.dtype != np.int64 for c in columns):
        return exact()
    try:
        bounds = np.array(boundaries_ns, dtype)
    except OverflowError:
        return exact()
    times_all = columns[0]
    if not len(bounds) or (bounds[1:] < bounds[:-1]).any():
        raise ValueError("the interval boundaries must be a nonempty ascending sequence")
    if (times_all[1:] < times_all[:-1]).any():
        raise ValueError("the events must be in time order")
    t_last, n_all = int(bounds[-1]), len(times_all)
    n = int(np.searchsorted(times_all, t_last, "right"))  # the events replayed
    times, codes, order_ids, sizes, prices, directions = (c[:n] for c in columns)
    is_bid = directions == 1
    book = codes < CODE_BOOK_NEUTRAL
    state = day.seed.build_book() if day.seed else BookState()
    (bid_depth, bid_prices), (ask_depth, ask_prices) = state.side_book(BUY), state.side_book(SELL)
    # Every depth, volume and flow term is at most ``total``, and so is a bid
    # level's depth plus an ask level's at any two times; ``span`` exceeds
    # every event index, the low part of a sort key.
    total = sum(bid_depth.values()) + sum(ask_depth.values())
    highest = max(bid_prices[-1:] + ask_prices[-1:], default=1)
    span = n + 1
    low_id = int(order_ids.min(where=book, initial=0))
    total += int(sizes.max(where=book, initial=0)) * int(np.count_nonzero(book))
    highest = max(highest, int(prices.max(where=book, initial=1)))
    if not (is_bid | (directions == -1)).all():
        raise ValueError("an event's direction is neither 1 (buy) nor -1 (sell)")
    if sizes.min(where=book, initial=1) < 1:
        raise ValueError("a book event's size is below 1")
    if prices.min(where=book, initial=1) < 1 or highest >= ASK_ABSENT:
        raise ValueError(f"a book price lies outside 1..{ASK_ABSENT - 1}")
    if (codes < 1).any():
        return None  # an unknown type code
    if dtype is not object and (
            n >= _MAX_EVENTS or total >= 2**63
            or int(order_ids.max(where=book, initial=0)) - low_id >= 2**63 // span):
        return exact()
    depth = max(levels, SUMMARY_LEVELS)
    tally0 = _tally_columns(list(level_snapshot(state, depth)))
    seed_keys = np.array([2 * p + 1 for p in bid_prices] + [2 * p for p in ask_prices], dtype)
    seed_sizes = np.array([bid_depth[p] for p in bid_prices] + [ask_depth[p] for p in ask_prices],
                          dtype)
    horizons = (day.seed.bid_horizon, day.seed.ask_horizon) if day.seed else (
        BID_ABSENT, ASK_ABSENT)
    # Clamped to the sentinels, a horizon compares with every real price as before.
    bid_horizon, ask_horizon = (min(max(h, BID_ABSENT), ASK_ABSENT) for h in horizons)
    keys = 2 * prices + is_bid  # each event's level

    # Order life cycles, grouped by order id. Each arrival starts one; while
    # its order rests, a removal names its level and takes no more than
    # rests, a full cancel all of it, and no arrival comes. An id's events
    # before its first arrival, or after the removal that empties its order,
    # remove an unseen order.
    events = np.flatnonzero(book)
    events, starts = _grouped(order_ids[events] - low_id, events, span)
    arrival = codes[events] == CODE_ARRIVAL
    # After each event: minus the shares that rest, counted from the id's
    # first event or its latest arrival.
    left = sizes[events]
    left[arrival] *= -1
    left = _cumsum_within(left, starts | arrival)
    removal = np.zeros(len(events), bool)  # the events an order of the id rests before
    np.less(left[:-1], 0, out=removal[1:])
    removal &= ~starts
    at = np.flatnonzero(removal)
    removed = events[at]
    left = left[at]
    if ((removal & arrival).any() or (left > 0).any()
            or (left[codes[removed] == CODE_CANCEL_FULL] != 0).any()
            or (keys[removed] != keys[events[at - 1]]).any()):
        return None
    unseen = np.zeros(n, bool)
    unseen[events[~(arrival | removal)]] = True
    del events, starts, arrival, left, removal, at, removed
    # A removal of an unseen order draws on the seeded pool of its level,
    # unless it lies beyond the horizon, where it changes nothing.
    beyond = unseen & np.where(is_bid, prices < bid_horizon, prices > ask_horizon)
    drawn = np.flatnonzero(unseen ^ beyond)
    del unseen
    if len(drawn):
        drawn, starts = _grouped(keys[drawn], drawn, span)
        level = keys[drawn[starts]]
        pool = np.searchsorted(seed_keys, level)
        seeded = np.append(seed_sizes, 0)[pool]
        seeded[np.append(seed_keys, -1)[pool] != level] = 0
        if (_cumsum_within(sizes[drawn], starts) > seeded[np.cumsum(starts) - 1]).any():
            return None
        del starts, level, pool, seeded
    del drawn

    change = np.flatnonzero(book & ~beyond)
    del beyond
    delta = sizes[change]
    delta[codes[change] != CODE_ARRIVAL] *= -1
    keys = keys[change]
    depths = _LevelDepths(seed_keys, seed_sizes, keys, change, delta, span)
    del keys
    turns = (depths.after == 0) | (depths.after == delta)  # a level closes, or opens from 0
    level_events = change[turns]
    opens = (depths.after[turns] != 0).tolist()
    level_sizes = np.abs(delta[turns])
    size_events = change[~turns]
    size_deltas = delta[~turns]
    del turns, change, delta
    depths.after = None  # lookups need only the depths in level order
    # Summed over any run of events, flow level m is the change in its bid
    # cell's size minus that in its ask cell's, at most ``total`` in size,
    # plus at most one depth per level event, the only events that move its
    # prices. The int64 sums wrap, so they are exact where this fits.
    max_depth = int(depths.depths.max(initial=0))
    if dtype is not object and total + len(level_events) * max_depth >= 2**63:
        return exact()

    ranks, tops = _level_pass(prices[level_events].tolist(), is_bid[level_events].tolist(),
                              opens, list(bid_prices), list(ask_prices), depth)
    # wide[e]: the side's top depth + 1 prices at the e-th level event, its level at k.
    wide = np.array(tops[2 * depth:], dtype).reshape(-1, depth + 1)
    ranks = np.array(ranks, np.int64)
    level_side = (~is_bid[level_events]).view(np.int8)  # 0 bid, 1 ask
    # rows[r]: a side's top prices, best first, at the start or after a level
    # event on it; row_of[e, s]: side s's row in epoch e, from the e-th level
    # event (0: the start) to the next. A closing leaves its row without k.
    m = np.arange(depth)
    closes = ~np.array(opens, bool)
    after = np.take_along_axis(wide, m + (closes[:, None] & (m >= ranks[:, None])), 1)
    on_ask = level_side.view(bool)
    start = np.array(tops[:2 * depth], dtype).reshape(2, depth)
    rows = np.concatenate((start[:1], after[~on_ask], start[1:], after[on_ask]))
    del after, start, tops
    row_of = np.zeros((len(level_events) + 1, 2), np.int64)
    np.cumsum(~on_ask, out=row_of[1:, 0])
    np.cumsum(on_ask, out=row_of[1:, 1])
    row_of[:, 1] += len(rows) - 1 - row_of[-1, 1]
    best = rows[row_of, 0]  # [e, s]: side s's best price in epoch e
    two_sided = (best[:, 0] != BID_ABSENT) & (best[:, 1] != ASK_ABSENT)
    # The events of interval j (1-based) are ends[j - 1]:ends[j]; ends[0] ends the baseline.
    ends = np.searchsorted(times, bounds, "right")
    n_intervals = len(bounds) - 1
    flows = np.zeros((n_intervals + 1) * levels, dtype)
    L = SUMMARY_LEVELS
    tally = _TallySums(
        tally0, [1, 2 * highest, highest] + [max_depth] * 2 * L, times,
        (t_last, int(times_all[0]) if n_all else t_last,
         int(times_all[n]) if n < n_all else t_last),
        (n_all, 0, n), dtype)

    # An event that opens or closes a level at rank k < depth shifts its
    # side's cells from k on, and moves each flow level from k on by the
    # size there in its wider row, the one with the level.
    shifted = np.flatnonzero(ranks < depth)
    at = level_events[shifted]
    k = ranks[shifted, None]
    s = level_side[shifted]
    size = depths.at(2 * wide[shifted] + (s == 0)[:, None], at[:, None])
    size[np.arange(len(shifted)), k[:, 0]] = level_sizes[shifted]
    grows = np.where(closes[shifted], -1, 1)[:, None]
    m = np.arange(levels)
    np.add.at(flows, np.searchsorted(ends, at, "right")[:, None] * levels + m,
              np.where(m >= k, size[:, :levels] * grows * (1 - 2 * s[:, None]), 0))
    # The tally's change: in its price columns from the epochs' best quotes,
    # and in its size columns by the shift on a two-sided book, or all at
    # once where the book turns two-sided or one-sided.
    before, after = two_sided[shifted], two_sided[shifted + 1]
    quotes = []
    for e, on in ((shifted, before), (shifted + 1, after)):
        bid, ask = best[e, 0], best[e, 1]
        quotes.append(np.stack((np.ones_like(bid), ask + bid, ask - bid), 1) * on[:, None])
    moved = quotes[1] - quotes[0]
    row, column = np.nonzero(moved)
    tally.add(at[row], column, moved[row, column])
    m = np.arange(L)
    turned = before != after
    moved = np.where(turned[:, None], size[:, :L] * (2 * after - 1)[:, None],
                     (size[:, :L] - size[:, 1:L + 1]) * grows * ((m >= k) & before[:, None]))
    tally.add(at.repeat(L), (3 + L * s[:, None] + m).ravel(), moved.ravel())
    # Where the book turns, the other side's sizes come or go too.
    turned = np.flatnonzero(turned)
    other = 1 - s[turned]
    size = depths.at(2 * rows[row_of[shifted[turned], other], :L] + (other == 0)[:, None],
                     at[turned, None])
    tally.add(at[turned].repeat(L), (3 + L * other[:, None] + m).ravel(),
              (size * (2 * after[turned] - 1)[:, None]).ravel())
    del depths, shifted, at, k, s, size, before, after, quotes, moved, turned, other

    # int32 keeps the replay's peak memory down; it holds fewer than 2**31 events.
    epoch = np.zeros(n + 1, np.int32 if n < 2**31 else np.intp)
    epoch[level_events + 1] = 1
    epoch = np.cumsum(epoch, out=epoch)[:n]  # each event's, before it
    side = (~is_bid).view(np.int8)

    # The checks on the best quotes before each event: an arrival may not
    # cross the other side; a visible execution hits the front of its side,
    # or beyond the horizon a level the seed could not show.
    own_best = best[epoch, side]
    other_best = best[epoch, 1 - side]
    execution = codes == CODE_EXECUTION_VISIBLE
    if (((codes == CODE_ARRIVAL) & np.where(is_bid, prices >= other_best, prices <= other_best))
            | (execution & (own_best != prices) & np.where(
                is_bid, (prices >= bid_horizon) | (prices < own_best),
                (prices <= ask_horizon) | (prices > own_best)))).any():
        return None
    del other_best
    # Flow buckets on the book before each event: 0 within the spread, 1 at
    # the best quote (every execution), 2 deeper.
    bucket = np.where((prices > own_best) == is_bid, 0, 2).astype(np.int8)
    bucket[(prices == own_best) | execution] = 1
    bucket[~book] = 3
    del own_best, book, is_bid
    flow_counts = np.bincount(bucket, minlength=4)[:3].tolist()
    flow_volumes = [int(sizes[bucket == b].sum()) for b in range(3)]
    del bucket

    # An event that moves the size of a resting level moves one cell, at the
    # level's rank: its place in its side's row of the epoch.
    size_side = side[size_events]
    rank = np.full(len(size_events), depth, np.int32)
    for s, order in ((0, -1), (1, 1)):
        # Keys that ascend along each row, and from row to row: bids by -price.
        first = row_of[0, s]
        ordered = ((np.arange(len(rows) - first, dtype=dtype)[:, None] << 35)
                   + order * rows[first:]).ravel()
        here = np.flatnonzero(size_side == s)
        row = row_of[epoch[size_events[here]], s] - first
        place = (row.astype(dtype) << 35) + order * prices[size_events[here]]
        found = np.searchsorted(ordered, place)
        hit = ordered[np.minimum(found, len(ordered) - 1)] == place
        rank[here[hit]] = found[hit] - row[hit] * depth
    del ordered, here, row, place, found
    hit = rank < levels
    np.add.at(flows, np.searchsorted(ends, size_events[hit], "right") * levels + rank[hit],
              np.where(size_side[hit] == 0, size_deltas[hit], -size_deltas[hit]))
    hit = (rank < L) & two_sided[epoch[size_events]]
    tally.add(size_events[hit], 3 + L * size_side[hit] + rank[hit], size_deltas[hit])
    del size_side, hit, rank, size_events, size_deltas, epoch

    # Visible executions: a hit resting sell is an incoming buy market order.
    executed = np.flatnonzero(execution)
    volumes = np.zeros(2 * (n_intervals + 1), dtype)
    np.add.at(volumes, 2 * np.searchsorted(ends, executed, "right") + side[executed],
              sizes[executed])
    del executed, execution, side
    # Each interval's end state: its last epoch's quotes.
    last = np.searchsorted(level_events, ends)
    kept = two_sided[last]
    kept = kept[1:] & kept[:-1]
    mid = best[last].sum(1)
    deltas = mid[1:] - mid[:-1]
    deltas[~kept] = 0
    intervals = [flows[levels:].reshape(-1, levels), volumes[3::2], volumes[2::2], deltas]
    if dtype is object:  # int64 wherever a column's values fit
        intervals = [_int_column(c.ravel()).reshape(c.shape) for c in intervals]
    return DayComputation(
        day.trading_date, boundaries_ns, subwindows_per_window,
        IntervalColumns(*intervals, kept),
        BookTally(tally.result(), flow_counts, flow_volumes),
    )
