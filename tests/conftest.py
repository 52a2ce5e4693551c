"""Shared fixtures: a valid-event-stream fuzzer and independent oracles.

The fuzzer keeps its own tiny mirror of the book so every cancellation or
execution it emits references a live resting order; streams cover all
event kinds, including book-neutral ones and same-timestamp bursts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np
from hypothesis import settings

from mlofi.book import (
    ASK_ABSENT,
    BID_ABSENT,
    CODE_BOOK_NEUTRAL,
    CODE_EXECUTION_VISIBLE,
    BookState,
    EventKind,
    LobEvent,
    Side,
    level_snapshot,
)
from mlofi.errors import MalformedRow, NumericalFailure
from mlofi.imbalance import (
    SUMMARY_LEVELS,
    BookTally,
    DayComputation,
    IntervalColumns,
    MlofiSample,
    _tally_columns,
    flow_delta,
)
from mlofi.lobster import DaySlice, EventColumns

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


def events_day(trading_date, events: Sequence[LobEvent], seed=None) -> DaySlice:
    """A ``DaySlice`` of ``events`` read from no file."""
    return DaySlice(trading_date, EventColumns.from_rows(
        [(e.timestamp_ns, e.kind.value, e.order_id, e.size, e.price, e.side.value)
         for e in events]), seed)


def replay(events, levels: int, seed: BookState | None = None):
    """Replay a stream, yielding (event, before row, after row).

    The rows are ``level_snapshot`` orderbook rows.
    """
    state = seed if seed is not None else BookState()
    for ev in events:
        before = level_snapshot(state, levels)
        state.apply(ev)
        after = level_snapshot(state, levels)
        yield ev, before, after


def decode_row(row):
    """(bids, asks) of an orderbook row: (price, depth) per level, None if absent."""
    asks = tuple(None if row[k] == ASK_ABSENT else (row[k], row[k + 1])
                 for k in range(0, len(row), 4))
    bids = tuple(None if row[k + 2] == BID_ABSENT else (row[k + 2], row[k + 3])
                 for k in range(0, len(row), 4))
    return bids, asks


def book_levels(state: BookState):
    """(bids, asks): every populated (price, depth) level, best first."""
    levels = 8
    while True:
        bids, asks = decode_row(level_snapshot(state, levels))
        if bids[-1] is None and asks[-1] is None:
            return [q for q in bids if q], [q for q in asks if q]
        levels *= 2


def mid_x2(state: BookState):
    """best ask + best bid, or None when a side is empty."""
    if state.best_bid is None or state.best_ask is None:
        return None
    return state.best_ask + state.best_bid


# -- independent oracles ----------------------------------------------------


def oracle_flow_net(before, after, levels: int):
    """The per-level case table, with explicit branches for absent levels.

    Decodes both orderbook rows into (price, depth) or None per level. A
    level that appears counts as a price move from -inf (bids) or +inf
    (asks), one that vanishes as a move to it.
    """
    bids0, asks0 = decode_row(before)
    bids1, asks1 = decode_row(after)
    net = []
    for m in range(levels):
        b0, b1 = bids0[m], bids1[m]
        if b0 is None and b1 is None:
            w = 0
        elif b0 is None:  # level appeared: price rose from -inf
            w = b1[1]
        elif b1 is None:  # level vanished: price fell to -inf
            w = -b0[1]
        elif b1[0] > b0[0]:
            w = b1[1]
        elif b1[0] == b0[0]:
            w = b1[1] - b0[1]
        else:
            w = -b0[1]

        a0, a1 = asks0[m], asks1[m]
        if a0 is None and a1 is None:
            v = 0
        elif a0 is None:  # level appeared: price fell from +inf
            v = a1[1]
        elif a1 is None:  # level vanished: price rose to +inf
            v = -a0[1]
        elif a1[0] > a0[0]:
            v = -a0[1]
        elif a1[0] == a0[0]:
            v = a1[1] - a0[1]
        else:
            v = a1[1]
        net.append(w - v)
    return tuple(net)


def oracle_day_samples(day, boundaries_ns, subwindows_per_window: int, levels: int):
    """Interval samples from a before and an after snapshot of every event.

    Returns (samples, discarded) as ``compute_day_samples`` should, built
    from ``level_snapshot`` + ``flow_delta`` one event at a time.
    """
    boundaries_ns = [int(t) for t in boundaries_ns]  # Python ints, whatever holds them
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


def oracle_replay(
    day: DaySlice,
    boundaries_ns: Sequence[int],
    subwindows_per_window: int,
    levels: int,
) -> DayComputation:
    """``compute_day_samples`` as a loop over the events: ``flow_delta`` on
    the orderbook rows before and after each book-moving event, and the
    book tally's columns updated where a row changes them."""
    state = day.seed.build_book() if day.seed else BookState()
    apply = state.apply_fields
    times, *_ = columns = [column.tolist() for column in day.columns]
    n_events = len(times)
    bounds = [int(t) for t in boundaries_ns]  # Python ints, whatever holds them
    t_last = bounds[-1]
    # The book's top levels, for the flow vector and the book summary.
    depth = max(levels, SUMMARY_LEVELS)
    row = level_snapshot(state, depth)
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

    rows: list[tuple] = []  # per interval: flows, buy and sell volumes, delta_p, kept
    prev_mid = None
    events = zip(*columns)
    pos = 0
    # j = 0 is the baseline, whose flow belongs to no interval.
    for j, t_end in enumerate(bounds):
        totals = [0] * levels
        buy = 0
        sell = 0
        while pos < n_events and times[pos] <= t_end:
            t, code, order_id, size, price, direction = next(events)
            pos += 1
            apply(code, order_id, size, price, direction)
            if code >= CODE_BOOK_NEUTRAL:
                continue  # the visible book stays, and no flow bucket counts it
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
            after = level_snapshot(state, depth)
            if after == row:
                continue
            totals = [a + b for a, b in zip(totals, flow_delta(row, after, levels).net)]
            row = after
            for c, v in enumerate(_tally_columns(row)):
                d = v - cols[c]
                if d:
                    cols[c] = v
                    by_time[c] += d * (t_last - t)
                    by_count[c] += d * (n_events - pos + 1)

        end_mid = cols[1] if cols[0] else None  # ask + bid on a two-sided book
        if j > 0:
            kept = prev_mid is not None and end_mid is not None
            rows.append((totals, buy, sell, end_mid - prev_mid if kept else 0, kept))
        prev_mid = end_mid

    # The last replayed state holds until the next event, or t_N.
    t_stop = times[pos] if pos < n_events else t_last
    for c, v in enumerate(cols):
        by_time[c] -= v * (t_last - t_stop)
        by_count[c] -= v * (n_events - pos)
    return DayComputation(
        day.trading_date, boundaries_ns, subwindows_per_window,
        IntervalColumns.from_rows(rows, levels),
        BookTally((by_time, by_count), flow_counts, flow_volumes),
    )


def oracle_book_summary(days, session, depth_levels: int = 5):
    """Book summary and flow buckets from a separate replay of each day.

    Sums run across all days in one exact accumulator: integer values times
    integer weights (nanoseconds held, or one per event). Returns
    (duration-weighted means, event-weighted means, bucket counts, bucket
    volumes); each means list is [mid, spread, bid depth 1..5, ask depth
    1..5], each the float nearest the exact mean, or None when no state
    carried that weight. The buckets are within the spread, at the best
    quote and deeper, judged on the book before each event.
    """
    w_total = [0, 0]
    acc = [[0] * (2 + 2 * depth_levels), [0] * (2 + 2 * depth_levels)]
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
            if mid_x2(state) is None:
                continue
            nxt = events[i + 1].timestamp_ns if i + 1 < len(events) else session.end_ns
            bids, asks = decode_row(level_snapshot(state, depth_levels))
            row = [mid_x2(state), state.best_ask - state.best_bid]
            row += [0 if q is None else q[1] for q in bids]
            row += [0 if q is None else q[1] for q in asks]
            for k, w in enumerate((nxt - ev.timestamp_ns, 1)):
                if w <= 0:
                    continue
                w_total[k] += w
                for c, v in enumerate(row):
                    acc[k][c] += w * v
    units = [20_000, 10_000] + [1] * (2 * depth_levels)  # mid and spread in dollars
    means = [
        [float(Fraction(v, w_total[k] * u)) for v, u in zip(acc[k], units)] if w_total[k]
        else None
        for k in (0, 1)
    ]
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


def _oracle_finish_fit(X, y, coeffs, cov_unscaled, lam):
    """Residual variance, SEs, t, p and R^2 of one fit, with 2-D products and Python floats.

    The p-values come from ``two_sided_p`` on the window alone, which has its own
    oracle (mpmath's incomplete beta function) in ``tests/test_inference.py``.
    """
    from mlofi.inference import RegressionFit, two_sided_p

    n, p = X.shape
    dof = n - p
    resid = y - X @ coeffs
    sse = float(resid @ resid)
    sigma2 = sse / dof
    var = sigma2 * np.diag(cov_unscaled)
    se = np.sqrt(np.maximum(var, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, coeffs / se, 0.0)
    pvals = two_sided_p(t, dof)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst > 0.0:
        r2 = 1.0 - sse / sst
    else:
        r2 = 1.0 if sse <= 1e-300 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / dof
    return RegressionFit(coeffs, se, t, pvals, sigma2, r2, adj_r2, lam, dof)


def _oracle_check_rank(X, error):
    svals = np.linalg.svd(X, compute_uv=False)
    if svals[-1] <= 1e-10 * svals[0]:
        raise error(
            f"design matrix numerically singular (smin/smax = "
            f"{svals[-1] / svals[0]:.3e})"
        )


def oracle_fit_ols(problem):
    """One window's OLS fit: an SVD rank check, ``lstsq`` and an inverted X'X.

    The stacked fits must match it in every bit and every failure text.
    """
    from mlofi.errors import RankDeficient, TooFewRows

    X, y = problem.X, problem.y
    n, p = X.shape
    if n < p + 1:
        raise TooFewRows(f"{n} rows cannot support {p} coefficients")
    _oracle_check_rank(X, RankDeficient)
    coeffs, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    return _oracle_finish_fit(X, y, coeffs, np.linalg.inv(X.T @ X), lam=0.0)


def oracle_fit_ridge(problem, lam, penalize_intercept=True):
    """One window's ridge fit through scipy's ``cho_factor``/``cho_solve`` wrappers.

    The direct LAPACK path must match it in every bit and every failure text.
    """
    from scipy import linalg as sla

    from mlofi.errors import TooFewRows

    if lam < 0:
        raise ValueError("lambda must be >= 0")
    X, y = problem.X, problem.y
    n, p = X.shape
    if n < p + 1:
        raise TooFewRows(f"{n} rows cannot support {p} coefficients")
    if lam == 0:
        _oracle_check_rank(X, NumericalFailure)
    penalty = np.eye(p)
    if not penalize_intercept:
        penalty[0, 0] = 0.0
    xtx = X.T @ X
    try:
        factor = sla.cho_factor(xtx + lam * penalty)
    except sla.LinAlgError as exc:
        raise NumericalFailure(f"ridge solve failed: {exc}") from exc
    coeffs = sla.cho_solve(factor, X.T @ y)
    a_inv = sla.cho_solve(factor, np.eye(p))
    if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(a_inv))):
        raise NumericalFailure("ridge solve produced non-finite values")
    return _oracle_finish_fit(X, y, coeffs, a_inv @ xtx @ a_inv, lam=lam)


def oracle_assemble_problems(samples, grid, levels, tick_size, date):
    """Problem assembly writing one numpy row per sample.

    Returns (problems, discarded intervals, dropped windows).
    """
    from mlofi.sampling import RegressionProblem

    discarded = 0
    by_window = [[] for _ in range(grid.n_windows)]
    for sample in samples:
        if sample is None:
            discarded += 1
        else:
            by_window[sample.window_index].append(sample)
    problems = []
    for i, rows in enumerate(by_window):
        if len(rows) < levels + 2:
            continue
        X = np.ones((len(rows), levels + 1), dtype=float)
        y = np.empty(len(rows), dtype=float)
        for r, s in enumerate(rows):
            X[r, 1:] = s.mlofi[:levels]
            y[r] = s.delta_p / (2.0 * tick_size)
        problems.append(RegressionProblem(date=date, window_index=i, X=X, y=y, levels=levels))
    return problems, discarded, grid.n_windows - len(problems)


# -- field-wise parsers: the ingest's rules before its grammar ---------------


def _oracle_timestamp_ns(text: str, line_no: int) -> int:
    head, dot, frac = text.partition(".")
    if not head.isdigit():
        raise MalformedRow(line_no, f"bad timestamp {text!r}")
    if dot and (not frac.isdigit() or len(frac) > 9):
        raise MalformedRow(line_no, f"bad timestamp {text!r}")
    ns = int(head) * NS
    if dot:
        ns += int(frac.ljust(9, "0"))
    return ns


def _oracle_int(text: str, line_no: int, what: str) -> int:
    t = text.strip()
    body = t[1:] if t.startswith("-") else t
    if not body.isdigit():
        raise MalformedRow(line_no, f"bad {what}: {text!r}")
    return int(t)


def oracle_parse_message_row(line: str, line_no: int) -> LobEvent:
    """One message row, field by field; right on ASCII input only.

    ``str.isdigit`` passes non-ASCII digits, which ``int`` reads or rejects
    with a ValueError.
    """
    fields = line.rstrip("\n").rstrip("\r").split(",")
    if len(fields) != 6:
        raise MalformedRow(line_no, f"expected 6 fields, got {len(fields)}")
    ts = _oracle_timestamp_ns(fields[0].strip(), line_no)
    code = _oracle_int(fields[1], line_no, "type code")
    if code not in {k.value for k in EventKind}:
        raise MalformedRow(line_no, f"unknown type code {code}")
    kind = EventKind(code)
    order_id = _oracle_int(fields[2], line_no, "order id")
    size = _oracle_int(fields[3], line_no, "size")
    price = _oracle_int(fields[4], line_no, "price")
    direction = _oracle_int(fields[5], line_no, "direction")
    if direction not in (1, -1):
        raise MalformedRow(line_no, f"direction must be +1/-1, got {direction}")
    side = Side.BUY if direction == 1 else Side.SELL
    if kind in (EventKind.HALT,):
        return LobEvent(ts, kind, order_id, max(size, 1), max(price, 1), side)
    if size < 1:
        raise MalformedRow(line_no, f"size must be >= 1, got {size}")
    if not 0 < price < ASK_ABSENT:
        raise MalformedRow(line_no, f"price must be in 1..{ASK_ABSENT - 1}, got {price}")
    return LobEvent(ts, kind, order_id, size, price, side)


def oracle_parse_orderbook_row(line: str, line_no: int = 1) -> tuple[int, ...]:
    """One orderbook row, field by field; right on ASCII input only."""
    fields = line.rstrip("\n").rstrip("\r").split(",")
    levels, rest = divmod(len(fields), 4)
    if levels == 0 or rest:
        raise MalformedRow(
            line_no, f"expected a positive multiple of 4 fields, got {len(fields)}"
        )
    row: list[int] = []
    for m in range(levels):
        ap = _oracle_int(fields[4 * m + 0], line_no, "ask price")
        asz = _oracle_int(fields[4 * m + 1], line_no, "ask size")
        bp = _oracle_int(fields[4 * m + 2], line_no, "bid price")
        bsz = _oracle_int(fields[4 * m + 3], line_no, "bid size")
        row += (ASK_ABSENT, 0) if ap >= ASK_ABSENT or asz <= 0 else (ap, asz)
        row += (BID_ABSENT, 0) if bp <= BID_ABSENT or bsz <= 0 else (bp, bsz)
    return tuple(row)
