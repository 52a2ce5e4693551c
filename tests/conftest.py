"""Shared fixtures: a valid-event-stream fuzzer and independent oracles.

The fuzzer keeps its own tiny mirror of the book so every cancellation or
execution it emits references a live resting order; streams cover all
event kinds, including book-neutral ones and same-timestamp bursts.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from mlofi.book import (
    BookState,
    DepthSnapshot,
    EventKind,
    LobEvent,
    Side,
    level_snapshot,
    mid_and_spread,
)
from mlofi.errors import OneSidedBook
from mlofi.imbalance import MlofiSample, flow_delta

TICK = 100
NS = 1_000_000_000

# Property tests draw the same examples on every run, so a failure always
# reproduces, and no per-example deadline trips on a slow host.
settings.register_profile("mlofi", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("mlofi")


class FuzzMirror:
    """Order-level mirror used only to keep generated streams consistent."""

    def __init__(self):
        self.orders: dict[int, list] = {}  # id -> [side(+1/-1), price, size]
        self.levels: dict[tuple[int, int], int] = {}  # (side, price) -> depth

    def best(self, side: int) -> int | None:
        prices = [p for (s, p) in self.levels if s == side]
        if not prices:
            return None
        return max(prices) if side == 1 else min(prices)

    def add(self, oid: int, side: int, price: int, size: int):
        self.orders[oid] = [side, price, size]
        self.levels[(side, price)] = self.levels.get((side, price), 0) + size

    def reduce(self, oid: int, qty: int):
        side, price, size = self.orders[oid]
        if qty >= size:
            del self.orders[oid]
        else:
            self.orders[oid][2] = size - qty
        left = self.levels[(side, price)] - qty
        if left:
            self.levels[(side, price)] = left
        else:
            del self.levels[(side, price)]

    def orders_at(self, side: int, price: int) -> list[int]:
        return [oid for oid, (s, p, _) in self.orders.items() if s == side and p == price]


def fuzz_stream(
    rng: np.random.Generator,
    n_events: int,
    start_ts: int = 36_000 * NS,
    mid0: int = 500 * TICK,
    band: int = 6,
) -> list[LobEvent]:
    """A consistent random stream exercising every event kind."""
    mirror = FuzzMirror()
    events: list[LobEvent] = []
    next_id = 1
    ts = start_ts
    last_best = {1: mid0 - TICK, -1: mid0 + TICK}

    def emit(kind, oid, size, price, side):
        events.append(
            LobEvent(ts, kind, oid, size, price, Side.BUY if side == 1 else Side.SELL)
        )

    while len(events) < n_events:
        # Occasional same-timestamp bursts; otherwise strictly advancing.
        if rng.random() > 0.15:
            ts += int(rng.integers(1, 2 * NS))
        for s in (1, -1):
            b = mirror.best(s)
            if b is not None:
                last_best[s] = b
        choice = rng.random()
        side = 1 if rng.random() < 0.5 else -1
        if mirror.best(side) is None or choice < 0.45:
            # Limit arrival, anywhere from inside the spread to band ticks deep.
            opp = mirror.best(-side)
            anchor = opp if opp is not None else last_best[-side]
            price = anchor - side * int(rng.integers(1, band + 1)) * TICK
            if price < TICK:
                continue
            size = int(rng.integers(1, 21))
            emit(EventKind.LIMIT_ARRIVAL, next_id, size, price, side)
            mirror.add(next_id, side, price, size)
            next_id += 1
        elif choice < 0.60 and mirror.orders:
            oid = int(rng.choice(list(mirror.orders)))
            s, p, sz = mirror.orders[oid]
            if sz >= 2 and rng.random() < 0.5:
                take = int(rng.integers(1, sz))
                emit(EventKind.CANCEL_PARTIAL, oid, take, p, s)
                mirror.reduce(oid, take)
            else:
                emit(EventKind.CANCEL_FULL, oid, sz, p, s)
                mirror.reduce(oid, sz)
        elif choice < 0.85:
            best = mirror.best(side)
            if best is None:
                continue
            oid = int(rng.choice(mirror.orders_at(side, best)))
            sz = mirror.orders[oid][2]
            take = int(rng.integers(1, sz + 1))
            emit(EventKind.EXECUTION_VISIBLE, oid, take, best, side)
            mirror.reduce(oid, take)
        elif choice < 0.92:
            emit(EventKind.EXECUTION_HIDDEN, next_id, int(rng.integers(1, 21)),
                 last_best[side] or mid0, side)
            next_id += 1
        elif choice < 0.96:
            emit(EventKind.CROSS_TRADE, 0, int(rng.integers(1, 101)), mid0, side)
        else:
            emit(EventKind.HALT, 0, 1, 1, side)
    return events


def replay(events, levels: int, seed: BookState | None = None):
    """Replay a stream, yielding (event, before_snapshot, after_snapshot)."""
    state = seed if seed is not None else BookState()
    for ev in events:
        before = level_snapshot(state, levels)
        state.apply(ev)
        after = level_snapshot(state, levels)
        yield ev, before, after


# -- independent oracles ----------------------------------------------------


def oracle_flow_net(before: DepthSnapshot, after: DepthSnapshot, levels: int):
    """Sentinel re-implementation of the per-level case table.

    Absent bid levels price at -inf and absent ask levels at +inf, which
    collapses all absence cases into the ordinary three-way comparison.
    """
    inf = float("inf")
    net = []
    for m in range(levels):
        bp0, bd0 = (-inf, 0) if before.bids[m] is None else (
            before.bids[m].price, before.bids[m].depth)
        bp1, bd1 = (-inf, 0) if after.bids[m] is None else (
            after.bids[m].price, after.bids[m].depth)
        if bp1 > bp0:
            w = bd1
        elif bp1 == bp0:
            w = bd1 - bd0
        else:
            w = -bd0
        ap0, ad0 = (inf, 0) if before.asks[m] is None else (
            before.asks[m].price, before.asks[m].depth)
        ap1, ad1 = (inf, 0) if after.asks[m] is None else (
            after.asks[m].price, after.asks[m].depth)
        if ap1 > ap0:
            v = -ad0
        elif ap1 == ap0:
            v = ad1 - ad0
        else:
            v = ad1
        net.append(w - v)
    return tuple(net)


def oracle_day_samples(day, boundaries_ns, subwindows_per_window: int, levels: int):
    """Interval samples from a before and an after snapshot of every event.

    Returns (samples, discarded) as ``compute_day_samples`` should, built
    from ``level_snapshot`` + ``flow_delta`` one event at a time.
    """

    def mid_x2(state):
        try:
            return mid_and_spread(state).mid_x2
        except OneSidedBook:
            return None

    state = day.seed.build_book() if day.seed else BookState()
    events = [e for e in day.events if e.timestamp_ns <= boundaries_ns[-1]]
    baseline = [e for e in events if e.timestamp_ns <= boundaries_ns[0]]
    for ev in baseline:
        state.apply(ev)
    pending = events[len(baseline):]
    prev_mid = mid_x2(state)
    samples, discarded = [], 0
    for j in range(1, len(boundaries_ns)):
        inside = [e for e in pending if e.timestamp_ns <= boundaries_ns[j]]
        pending = pending[len(inside):]
        net = (0,) * levels
        buy = sell = 0
        for ev, before, after in replay(inside, levels, state):
            d = flow_delta(before, after, levels).net
            net = tuple(a + b for a, b in zip(net, d))
            if ev.kind is EventKind.EXECUTION_VISIBLE:
                if ev.side is Side.SELL:
                    buy += ev.size
                else:
                    sell += ev.size
        end_mid = mid_x2(state)
        if prev_mid is None or end_mid is None:
            samples.append(None)
            discarded += 1
        else:
            samples.append(MlofiSample(
                date=day.trading_date,
                window_index=(j - 1) // subwindows_per_window,
                sub_index=(j - 1) % subwindows_per_window + 1,
                start_ns=boundaries_ns[j - 1],
                end_ns=boundaries_ns[j],
                mlofi=net,
                buy_volume=buy,
                sell_volume=sell,
                delta_p=end_mid - prev_mid,
            ))
        prev_mid = end_mid
    return samples, discarded


def oracle_book_summary(days, session, depth_levels: int = 5):
    """Book summary and flow buckets from a separate replay of each day.

    Sums run across all days in one accumulator. Returns (duration-weighted
    means, event-weighted means, bucket counts, bucket volumes); each means
    list is [mid, spread, bid depth 1..5, ask depth 1..5], or None when no
    state carried that weight. The buckets are within the spread, at the
    best quote and deeper, judged on the book before each event.
    """
    w_total = [0.0, 0.0]
    acc = [[0.0] * (2 + 2 * depth_levels), [0.0] * (2 + 2 * depth_levels)]
    counts = [0, 0, 0]
    volumes = [0, 0, 0]
    for day in days:
        state = day.seed.build_book() if day.seed else BookState()
        events = day.events
        for i, ev in enumerate(events):
            if ev.kind in (EventKind.LIMIT_ARRIVAL, EventKind.CANCEL_PARTIAL,
                           EventKind.CANCEL_FULL, EventKind.EXECUTION_VISIBLE):
                if ev.kind is EventKind.EXECUTION_VISIBLE:
                    bucket = 1
                else:
                    own = state.best_bid if ev.side is Side.BUY else state.best_ask
                    if own is None:
                        bucket = 0
                    elif ev.price == own:
                        bucket = 1
                    elif (ev.price > own) == (ev.side is Side.BUY):
                        bucket = 0
                    else:
                        bucket = 2
                counts[bucket] += 1
                volumes[bucket] += ev.size
            state.apply(ev)
            try:
                mq = mid_and_spread(state)
            except OneSidedBook:
                continue
            nxt = events[i + 1].timestamp_ns if i + 1 < len(events) else session.end_ns
            snap = level_snapshot(state, depth_levels)
            row = [mq.mid_x2 / 2e4, mq.spread / 1e4]
            row += [0 if q is None else q.depth for q in snap.bids]
            row += [0 if q is None else q.depth for q in snap.asks]
            for k, w in enumerate(((nxt - ev.timestamp_ns) / 1e9, 1.0)):
                if w <= 0.0:
                    continue
                w_total[k] += w
                for c, v in enumerate(row):
                    acc[k][c] += w * v
    means = [[v / w_total[k] for v in acc[k]] if w_total[k] else None for k in (0, 1)]
    return means[0], means[1], counts, volumes


def mp_regression_oracle(X, y, lam=0.0, penalize_intercept=True):
    """High-precision normal-equations solve, coefficients and SEs.

    Uses 50-digit arithmetic so it is an independent check on the float64
    production path, not a reimplementation of it.
    """
    import mpmath as mp

    mp.mp.dps = 50
    n, p = X.shape
    Xm = mp.matrix(X.tolist())
    ym = mp.matrix([float(v) for v in y])
    A = Xm.T * Xm
    if lam:
        for j in range(p):
            if j == 0 and not penalize_intercept:
                continue
            A[j, j] += mp.mpf(lam)
    coeffs = mp.lu_solve(A, Xm.T * ym)
    resid = ym - Xm * coeffs
    sse = sum(resid[i] ** 2 for i in range(n))
    sigma2 = sse / (n - p)
    a_inv = A**-1
    xtx = Xm.T * Xm
    cov = a_inv * xtx * a_inv if lam else a_inv
    ses = [mp.sqrt(sigma2 * cov[j, j]) for j in range(p)]
    return (
        np.array([float(c) for c in coeffs]),
        np.array([float(s) for s in ses]),
    )


def oracle_select_lambda(X, y, folds, grid, penalize_intercept=True):
    """Penalty search with one float64 solve per (lambda, fold) pair.

    Each pair solves X_tr'X_tr + lam*D against X_tr'y_tr on its own; a
    penalty's validation MSEs add up in fold order and are averaged. Returns
    (cv_errors, lambda_hat), the argmin taking the first (smallest) penalty.
    """
    p = X.shape[1]
    D = np.eye(p)
    if not penalize_intercept:
        D[0, 0] = 0.0
    blocks = np.array_split(np.arange(X.shape[0]), folds)
    cv_errors = np.zeros(len(grid))
    for gi, lam in enumerate(grid):
        total = 0.0
        for idx in blocks:
            X_tr, y_tr = np.delete(X, idx, axis=0), np.delete(y, idx)
            coeffs = np.linalg.solve(X_tr.T @ X_tr + lam * D, X_tr.T @ y_tr)
            resid = y[idx] - X[idx] @ coeffs
            total += float(resid @ resid) / len(idx)
        cv_errors[gi] = total / folds
    return cv_errors, float(grid[int(np.argmin(cv_errors))])
