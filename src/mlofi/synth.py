"""Reproducible synthetic order flow: zero-intelligence days and planted fits.

The zero-intelligence generator drives mutually independent Poisson
streams: limit arrivals at a fixed per-level rate, market orders at a
fixed per-side rate, and cancellations at a fixed per-resting-order rate
(so the cancellation intensity scales with the number of live orders).
Buy limits land uniformly within ``price_band`` ticks strictly below the
prevailing ask and sell limits strictly above the prevailing bid, which
keeps the book uncrossed by construction while still exercising
inside-spread price improvement. Cancellations remove a uniformly random
live order; market orders sweep the opposite queue in price-time priority,
emitting one visible-execution event per resting order consumed.

All randomness comes from numpy's PCG64 generator, so a seed pins the
byte-exact event stream.
"""

from __future__ import annotations

import datetime as dt
import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .book import ASK_ABSENT, CODE_ARRIVAL, CODE_CANCEL_FULL, CODE_EXECUTION_VISIBLE
from .errors import BadValue, ConfigError
from .lobster import NS, DaySlice, EventColumns, SessionConfig
from .sampling import RegressionProblem


@dataclass(frozen=True)
class ZiParams:
    """Zero-intelligence flow intensities and book geometry.

    ``limit_rate`` is arrivals/sec per price level (per side),
    ``market_rate`` arrivals/sec per side, ``cancel_rate`` per live
    resting order per second. Sizes are geometric with mean

    ``mean_size``. ``initial_mid`` seeds the book symmetrically with
    ``price_band`` one-order levels per side at session start.
    """

    limit_rate: float = 0.05
    market_rate: float = 0.1
    cancel_rate: float = 0.002
    price_band: int = 8
    mean_size: float = 8.0
    seed: int = 0
    initial_mid: int = 1_000_000
    seed_depth: int = 50

    def __post_init__(self):
        # Written so that NaN fails too; an infinite rate never ends a day.
        for name in ("limit_rate", "market_rate", "cancel_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise BadValue(name, f"must be positive and finite, got {getattr(self, name)}")
        if not 1 <= self.mean_size < math.inf:
            raise BadValue("mean_size", f"must be finite and >= 1, got {self.mean_size}")
        if self.price_band < 1:
            raise BadValue("price_band", f"must be >= 1, got {self.price_band}")
        if self.seed < 0:
            raise BadValue("seed", f"must be >= 0, got {self.seed}")


class _MirrorBook:
    """Generator-side book with FIFO queues so executions pick real orders."""

    def __init__(self):
        self.queues: dict[tuple[int, int], list[list[int]]] = {}  # (side,price) -> [[id,sz]]
        self.prices: dict[int, list[int]] = {1: [], -1: []}  # sorted ascending
        self.orders: dict[int, tuple[int, int, int]] = {}  # id -> (side, price, size)
        self.depth: dict[int, int] = {1: 0, -1: 0}
        self.live_ids: list[int] = []
        self.live_pos: dict[int, int] = {}

    def best(self, side: int) -> int | None:
        prices = self.prices[side]
        if not prices:
            return None
        return prices[-1] if side == 1 else prices[0]

    def add(self, order_id: int, side: int, price: int, size: int) -> None:
        key = (side, price)
        if key not in self.queues:
            self.queues[key] = []
            insort(self.prices[side], price)
        self.queues[key].append([order_id, size])
        self.orders[order_id] = (side, price, size)
        self.depth[side] += size
        self.live_pos[order_id] = len(self.live_ids)
        self.live_ids.append(order_id)

    def _drop_order(self, order_id: int) -> None:
        del self.orders[order_id]
        pos = self.live_pos.pop(order_id)
        last = self.live_ids.pop()
        if last != order_id:
            self.live_ids[pos] = last
            self.live_pos[last] = pos

    def _drop_level_if_empty(self, side: int, price: int) -> None:
        if not self.queues[(side, price)]:
            del self.queues[(side, price)]
            prices = self.prices[side]
            prices.pop(bisect_left(prices, price))

    def cancel(self, order_id: int) -> tuple[int, int, int]:
        side, price, size = self.orders[order_id]
        q = self.queues[(side, price)]
        for i, entry in enumerate(q):
            if entry[0] == order_id:
                q.pop(i)
                break
        self._drop_level_if_empty(side, price)
        self._drop_order(order_id)
        self.depth[side] -= size
        return side, price, size

    def consume(self, side: int, volume: int) -> list[tuple[int, int, int]]:
        """Take ``volume`` shares off ``side`` in price-time priority.

        Returns (order_id, price, taken) per slice, best prices first.
        """
        fills: list[tuple[int, int, int]] = []
        remaining = volume
        while remaining > 0:
            best = self.best(side)
            if best is None:
                break
            q = self.queues[(side, best)]
            oid, sz = q[0]
            take = min(sz, remaining)
            fills.append((oid, best, take))
            remaining -= take
            self.depth[side] -= take
            if take == sz:
                q.pop(0)
                self._drop_order(oid)
                self._drop_level_if_empty(side, best)
            else:
                q[0][1] = sz - take
                s, p, old = self.orders[oid]
                self.orders[oid] = (s, p, old - take)
        return fills


def generate_zi_day(
    params: ZiParams,
    session: SessionConfig,
    trading_date: dt.date = dt.date(2016, 1, 4),
) -> DaySlice:
    """One deterministic zero-intelligence session of events."""
    rng = np.random.default_rng(np.random.PCG64(params.seed))
    tick = session.tick_size
    mirror = _MirrorBook()
    rows: list[tuple[int, int, int, int, int, int]] = []  # ts, code, id, size, price, side
    next_id = 1

    # Seed a symmetric book at the session open (baseline events). A price off
    # the grid, below one tick or at the absent-ask sentinel and above, is
    # suppressed here and in the arrival loop.
    t0 = session.start_ns
    for j in range(1, params.price_band + 1):
        for side, price in ((1, params.initial_mid - j * tick), (-1, params.initial_mid + j * tick)):
            if not tick <= price < ASK_ABSENT:
                continue
            rows.append((t0, CODE_ARRIVAL, next_id, params.seed_depth, price, side))
            mirror.add(next_id, side, price, params.seed_depth)
            next_id += 1

    limit_total = params.limit_rate * params.price_band * 2
    market_total = params.market_rate * 2
    # Anchors survive momentarily one-sided books.
    last_best = {1: params.initial_mid - tick, -1: params.initial_mid + tick}

    t = float(session.session_start)
    end_s = float(session.session_end)
    mean = params.mean_size

    def draw_size() -> int:
        return int(rng.geometric(1.0 / mean))

    while True:
        n_live = len(mirror.live_ids)
        total = limit_total + market_total + params.cancel_rate * n_live
        t += rng.exponential(1.0 / total)
        if t > end_s:
            break
        ts = min(int(round(t * NS)), session.end_ns)
        u = rng.random() * total
        if u < limit_total:
            side = 1 if rng.random() < 0.5 else -1
            offset = int(rng.integers(1, params.price_band + 1)) * tick
            if side == 1:
                opp_best = mirror.best(-1)
                anchor = opp_best if opp_best is not None else last_best[-1]
                price = anchor - offset
            else:
                opp_best = mirror.best(1)
                anchor = opp_best if opp_best is not None else last_best[1]
                price = anchor + offset
            if not tick <= price < ASK_ABSENT:
                continue
            size = draw_size()
            rows.append((ts, CODE_ARRIVAL, next_id, size, price, side))
            mirror.add(next_id, side, price, size)
            next_id += 1
        elif u < limit_total + market_total:
            mo_side = 1 if rng.random() < 0.5 else -1  # side of the taker
            rest_side = -mo_side
            depth = mirror.depth[rest_side]
            if depth == 0:
                continue
            volume = min(draw_size(), depth)
            for oid, price, taken in mirror.consume(rest_side, volume):
                rows.append((ts, CODE_EXECUTION_VISIBLE, oid, taken, price, rest_side))
        else:
            if n_live == 0:
                continue
            pick = int(rng.integers(0, n_live))
            oid = mirror.live_ids[pick]
            side, price, size = mirror.cancel(oid)
            rows.append((ts, CODE_CANCEL_FULL, oid, size, price, side))
        for s in (1, -1):
            b = mirror.best(s)
            if b is not None:
                last_best[s] = b

    return DaySlice(trading_date, EventColumns.from_rows(rows))


@dataclass(frozen=True)
class PlantedParams:
    """Ground truth for regression-recovery fixtures.

    ``true_beta`` holds the intercept followed by the per-level weights;
    ``collinearity`` is the target pairwise correlation of the generated
    feature columns, realized through a shared-factor construction.
    """

    true_beta: tuple[float, ...]
    noise_sd: float = 1.0
    collinearity: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be >= 0")
        if not (0.0 <= self.collinearity < 1.0):
            raise ConfigError("collinearity must be in [0, 1)")


def generate_planted_regression(
    params: PlantedParams,
    rows: int,
    levels: int,
    trading_date: dt.date = dt.date(1970, 1, 1),
    window_index: int = 0,
) -> tuple[RegressionProblem, np.ndarray]:
    """Gaussian design with known coefficients; returns (problem, truth)."""
    if len(params.true_beta) != levels + 1:
        raise ConfigError(
            f"true_beta needs {levels + 1} entries for {levels} levels, "
            f"got {len(params.true_beta)}"
        )
    if rows <= levels + 1:
        raise ConfigError(f"rows must exceed {levels + 1}")
    rng = np.random.default_rng(np.random.PCG64(params.seed))
    rho = params.collinearity
    shared = rng.standard_normal(rows)
    idio = rng.standard_normal((rows, levels))
    F = np.sqrt(rho) * shared[:, None] + np.sqrt(1.0 - rho) * idio
    X = np.ones((rows, levels + 1))
    X[:, 1:] = F
    beta = np.asarray(params.true_beta, dtype=float)
    y = X @ beta
    if params.noise_sd > 0:
        y = y + params.noise_sd * rng.standard_normal(rows)
    problem = RegressionProblem(
        date=trading_date, window_index=window_index, X=X, y=y, levels=levels
    )
    return problem, beta
