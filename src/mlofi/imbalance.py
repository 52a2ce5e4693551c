"""Per-event order-flow deltas and interval-level imbalance vectors.

For each event the book is snapshotted immediately before and immediately
after, and each level m = 1..M yields a signed per-side flow based on how
the level-m price moved:

  bid flow: price up   -> +depth_after          (new, stronger queue)
            unchanged  -> depth_after - depth_before
            price down -> -depth_before         (queue lost)
  ask flow: price up   -> -depth_before         (sell pressure withdrawn)
            unchanged  -> depth_after - depth_before
            price down -> +depth_after          (new sell queue)

A level absent on one side of the comparison is treated as having price
-inf (bids) or +inf (asks), so a level coming into existence counts as a
price move in the direction that favors that side. The per-level net is
bid flow minus ask flow (positive = buying pressure); summing nets over
all events in a left-open right-closed time interval gives the interval's
imbalance vector, whose first component is the classic level-1
order-flow imbalance.

Trade imbalance counts visible executions only: an execution against a
resting sell is an incoming buy market order and vice versa.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Sequence

from .book import (
    BookState,
    DepthSnapshot,
    EventKind,
    MidQuote,
    Side,
    level_snapshot,
    mid_and_spread,
)
from .errors import OneSidedBook
from .lobster import DaySlice

#: Event kinds that never move the visible book; skip the snapshot diff.
_BOOK_NEUTRAL = frozenset(
    {EventKind.EXECUTION_HIDDEN, EventKind.CROSS_TRADE, EventKind.HALT}
)


@dataclass(frozen=True)
class FlowDelta:
    """Per-event, per-level flow decomposition (shares, signed)."""

    event_index: int
    bid_flow: tuple[int, ...]  # level m bid-side contribution, m=1..M
    ask_flow: tuple[int, ...]  # level m ask-side contribution, m=1..M

    @property
    def net(self) -> tuple[int, ...]:
        """bid_flow - ask_flow per level: the event's imbalance contribution."""
        return tuple(w - v for w, v in zip(self.bid_flow, self.ask_flow))


def flow_delta(
    before: DepthSnapshot, after: DepthSnapshot, levels: int, event_index: int = 0
) -> FlowDelta:
    """Apply the per-level case rules to one before/after snapshot pair."""
    bid_flow = []
    ask_flow = []
    for m in range(levels):
        b0, b1 = before.bids[m], after.bids[m]
        if b0 is None and b1 is None:
            w = 0
        elif b0 is None:  # level appeared: price rose from -inf
            w = b1.depth
        elif b1 is None:  # level vanished: price fell to -inf
            w = -b0.depth
        elif b1.price > b0.price:
            w = b1.depth
        elif b1.price == b0.price:
            w = b1.depth - b0.depth
        else:
            w = -b0.depth
        bid_flow.append(w)

        a0, a1 = before.asks[m], after.asks[m]
        if a0 is None and a1 is None:
            v = 0
        elif a0 is None:  # level appeared: price fell from +inf
            v = a1.depth
        elif a1 is None:  # level vanished: price rose to +inf
            v = -a0.depth
        elif a1.price > a0.price:
            v = -a0.depth
        elif a1.price == a0.price:
            v = a1.depth - a0.depth
        else:
            v = a1.depth
        ask_flow.append(v)
    return FlowDelta(
        event_index=event_index, bid_flow=tuple(bid_flow), ask_flow=tuple(ask_flow)
    )


@dataclass(frozen=True)
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
class DayComputation:
    """All interval samples for one day; discarded slots are None."""

    date: dt.date
    samples: list[MlofiSample | None]
    discarded_intervals: int
    events_applied: int


def compute_day_samples(
    day: DaySlice,
    boundaries_ns: Sequence[int],
    subwindows_per_window: int,
    levels: int,
) -> DayComputation:
    """Replay one day against a flat grid of interval boundaries.

    ``boundaries_ns`` is the full ascending boundary list t_0..t_N covering
    the session; interval j (1-based) is (t_{j-1}, t_j]. Events at exactly
    t_0 belong to the pre-grid baseline. Intervals whose start or end
    mid-price is undefined (one-sided book) are discarded, not zeroed.
    """
    state = day.seed.build_book() if day.seed else BookState()
    events = day.events
    n_events = len(events)
    pos = 0

    # Baseline: everything at or before the first boundary.
    t0 = boundaries_ns[0]
    while pos < n_events and events[pos].timestamp_ns <= t0:
        state.apply(events[pos])
        pos += 1
    prev_mid = _mid_or_none(state)

    samples: list[MlofiSample | None] = []
    discarded = 0
    K = subwindows_per_window
    for j in range(1, len(boundaries_ns)):
        t_start, t_end = boundaries_ns[j - 1], boundaries_ns[j]
        totals = [0] * levels
        buy = 0
        sell = 0
        while pos < n_events and events[pos].timestamp_ns <= t_end:
            ev = events[pos]
            if ev.kind in _BOOK_NEUTRAL:
                state.apply(ev)
            else:
                before = level_snapshot(state, levels)
                state.apply(ev)
                after = level_snapshot(state, levels)
                d = flow_delta(before, after, levels)
                net = d.net
                for m in range(levels):
                    totals[m] += net[m]
                if ev.kind is EventKind.EXECUTION_VISIBLE:
                    # A hit resting sell means an incoming buy market order.
                    if ev.side is Side.SELL:
                        buy += ev.size
                    else:
                        sell += ev.size
            pos += 1
        end_mid = _mid_or_none(state)
        window_index, sub_index = (j - 1) // K, (j - 1) % K + 1
        if prev_mid is None or end_mid is None:
            samples.append(None)
            discarded += 1
        else:
            samples.append(
                MlofiSample(
                    date=day.trading_date,
                    window_index=window_index,
                    sub_index=sub_index,
                    start_ns=t_start,
                    end_ns=t_end,
                    mlofi=tuple(totals),
                    buy_volume=buy,
                    sell_volume=sell,
                    delta_p=end_mid.mid_x2 - prev_mid.mid_x2,
                )
            )
        prev_mid = end_mid
    return DayComputation(
        date=day.trading_date,
        samples=samples,
        discarded_intervals=discarded,
        events_applied=state.event_seq,
    )


def _mid_or_none(state: BookState) -> MidQuote | None:
    try:
        return mid_and_spread(state)
    except OneSidedBook:
        return None


def sample_csv_header(levels: int) -> list[str]:
    cols = ["date", "window_i", "subwindow_k"]
    cols += [f"mlofi_{m}" for m in range(1, levels + 1)]
    cols += ["ofi", "ti", "delta_p_halfticks"]
    return cols


def sample_csv_row(sample: MlofiSample) -> list[str]:
    row = [sample.date.isoformat(), str(sample.window_index), str(sample.sub_index)]
    row += [str(v) for v in sample.mlofi]
    row += [str(sample.ofi), str(sample.trade_imbalance), str(sample.delta_p)]
    return row
