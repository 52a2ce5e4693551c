"""Price-level limit order book engine.

Maintains bid and ask sides as price -> total depth maps plus an order
registry, replaying one event at a time. All prices are integers in units
of 1e-4 dollars (so one cent = 100 units); all state measured *after* an
event reflects that event's effect.

Depth can come from two pools: live orders seen arriving in the stream,
and anonymous depth seeded from a start-of-session snapshot. Cancellations
and executions that reference an order id we never saw are charged against
the anonymous pool at that price, provided it suffices. A seed side that
fills every level of its orderbook row ends at a horizon, its deepest
price: removing an unseen order beyond it leaves the book unchanged, as the
row could not show that order.

The per-message code (parser, replay, ``apply_fields``) carries an event as
plain ints, not enum members, whose reads (about 130 ns for ``Side.BUY`` on
CPython 3.11) and hashes run Python code: its type code (the ``EventKind``
value; see the ``CODE_*`` names), order id, size, price and direction (+1
buy, -1 sell). ``apply`` takes a ``LobEvent`` apart into ``apply_fields``,
reading each member's ``_value_``: ``.value`` runs Python code, about 180 ns.

``level_snapshot`` views the book as one LOBSTER orderbook row of ints,
``ask1p, ask1s, bid1p, bid1s, ...``, an absent level being the sentinel
price ``ASK_ABSENT``/``BID_ABSENT`` (+/-infinity to every real price) with
size 0.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum

from .errors import InconsistentEvent

#: Orderbook-row prices of an absent level; every real price lies between.
ASK_ABSENT = 9_999_999_999
BID_ABSENT = -9_999_999_999


class EventKind(Enum):
    LIMIT_ARRIVAL = 1
    CANCEL_PARTIAL = 2
    CANCEL_FULL = 3
    EXECUTION_VISIBLE = 4
    EXECUTION_HIDDEN = 5
    CROSS_TRADE = 6
    HALT = 7


#: Kinds that carry a real resting-order reference.
ORDER_BEARING = frozenset(
    {
        EventKind.LIMIT_ARRIVAL,
        EventKind.CANCEL_PARTIAL,
        EventKind.CANCEL_FULL,
        EventKind.EXECUTION_VISIBLE,
        EventKind.EXECUTION_HIDDEN,
    }
)


class Side(Enum):
    BUY = 1
    SELL = -1


BUY, SELL = Side  # short names
# The type codes that ``apply_fields`` and the replay test, as ints.
CODE_ARRIVAL = EventKind.LIMIT_ARRIVAL.value
CODE_CANCEL_PARTIAL = EventKind.CANCEL_PARTIAL.value
CODE_CANCEL_FULL = EventKind.CANCEL_FULL.value
CODE_EXECUTION_VISIBLE = EventKind.EXECUTION_VISIBLE.value
CODE_BOOK_NEUTRAL = EventKind.EXECUTION_HIDDEN.value  # and higher: the visible book stays


@dataclass(slots=True)
class LobEvent:
    """One order-flow event.

    ``timestamp_ns`` is nanoseconds after midnight. For executions, ``side``
    is the side of the *resting* order that got hit (LOBSTER convention):
    a buy market order shows up as an execution of a resting sell.
    """

    timestamp_ns: int
    kind: EventKind
    order_id: int
    size: int
    price: int
    side: Side

    def __post_init__(self):
        if self.size < 1 and self.kind in ORDER_BEARING:
            raise ValueError(f"size must be >= 1 for {self.kind.name}, got {self.size}")


class BookState:
    """Mutable book; ``apply`` advances it one event at a time."""

    __slots__ = (
        "_bid_depth",
        "_ask_depth",
        "_bid_prices",
        "_ask_prices",
        "_anon_bid",
        "_anon_ask",
        "_orders",
        "_bid_horizon",
        "_ask_horizon",
        "event_seq",
        "seeded_executions",
    )

    def __init__(self):
        self._bid_depth: dict[int, int] = {}
        self._ask_depth: dict[int, int] = {}
        self._bid_prices: list[int] = []  # ascending; best bid = last
        self._ask_prices: list[int] = []  # ascending; best ask = first
        self._anon_bid: dict[int, int] = {}
        self._anon_ask: dict[int, int] = {}
        self._orders: dict[int, tuple[int, int, int]] = {}  # direction, price, size
        # Deepest price a seed row showed per side; a sentinel means no limit.
        self._bid_horizon = BID_ABSENT
        self._ask_horizon = ASK_ABSENT
        self.event_seq = 0
        self.seeded_executions = 0

    @classmethod
    def from_snapshot(
        cls,
        bids: list[tuple[int, int]],
        asks: list[tuple[int, int]],
        bid_horizon: int = BID_ABSENT,
        ask_horizon: int = ASK_ABSENT,
    ) -> "BookState":
        """Seed anonymous depth from a start-of-session snapshot.

        A side's horizon is the deepest price of a seed row that fills the
        side; the sentinel sets none.
        """
        state = cls()
        for side, levels in ((BUY, bids), (SELL, asks)):
            anon = state._anon_bid if side is BUY else state._anon_ask
            for price, depth in levels:
                if price <= 0 or depth <= 0:
                    raise ValueError(f"bad seed {side.name} level ({price}, {depth})")
                state._add(side, price, depth)
                anon[price] = anon.get(price, 0) + depth
        state._bid_horizon, state._ask_horizon = bid_horizon, ask_horizon
        if state._bid_prices and state._ask_prices:
            if state._bid_prices[-1] >= state._ask_prices[0]:
                raise ValueError("seed snapshot is crossed")
        return state

    # -- depth bookkeeping -------------------------------------------------

    def _add(self, side: Side, price: int, qty: int) -> None:
        depth, prices = self.side_book(side)
        if price in depth:
            depth[price] += qty
        else:
            depth[price] = qty
            insort(prices, price)

    # -- queries -----------------------------------------------------------

    @property
    def best_bid(self) -> int | None:
        return self._bid_prices[-1] if self._bid_prices else None

    @property
    def best_ask(self) -> int | None:
        return self._ask_prices[0] if self._ask_prices else None

    def depth_at(self, side: Side, price: int) -> int:
        return self.side_book(side)[0].get(price, 0)

    def side_book(self, side: Side) -> tuple[dict[int, int], list[int]]:
        """``side``'s live price -> depth map and ascending price list, which
        ``apply`` updates in place; read only."""
        if side is BUY:
            return self._bid_depth, self._bid_prices
        return self._ask_depth, self._ask_prices

    # -- event application -------------------------------------------------

    def apply(self, ev: LobEvent) -> "BookState":
        """Apply one event in stream order; returns self (mutated). See ``apply_fields``."""
        return self.apply_fields(ev.kind._value_, ev.order_id, ev.size, ev.price, ev.side._value_)

    def apply_fields(
        self, code: int, order_id: int, size: int, price: int, direction: int
    ) -> "BookState":
        """Apply one event, given as its type code (``EventKind`` value), order
        id, size, price and direction (+1 buy, -1 sell), in stream order;
        returns self (mutated).

        Hidden executions, cross trades and halts leave the visible book
        unchanged but still advance ``event_seq``. An event the book
        contradicts raises InconsistentEvent and changes nothing.
        """
        idx = self.event_seq
        if code >= CODE_BOOK_NEUTRAL:
            self.event_seq = idx + 1
            return self
        # One call per event: the side's depth map and price list are picked
        # here, and read and written in place.
        is_bid = direction == 1
        if is_bid:
            depth, prices = self._bid_depth, self._bid_prices
        else:
            depth, prices = self._ask_depth, self._ask_prices
        orders = self._orders

        if code == CODE_ARRIVAL:
            if order_id in orders:
                raise InconsistentEvent(idx, f"order id {order_id} already live")
            if is_bid:
                if self._ask_prices and price >= self._ask_prices[0]:
                    raise InconsistentEvent(idx, "buy limit crosses the ask")
            elif self._bid_prices and price <= self._bid_prices[-1]:
                raise InconsistentEvent(idx, "sell limit crosses the bid")
            orders[order_id] = (direction, price, size)
            if price in depth:
                depth[price] += size
            else:
                depth[price] = size
                insort(prices, price)
            self.event_seq = idx + 1
            return self

        if code == CODE_EXECUTION_VISIBLE:
            # Executions must hit the front of the resting queue. Beyond the
            # horizon the front may be a level the seed row could not show,
            # unless a better level rests on the book.
            if is_bid:
                front = prices[-1] if prices else None
                if front != price and (price >= self._bid_horizon
                                       or (front is not None and price < front)):
                    raise InconsistentEvent(idx, f"execution at {price} but best BUY is {front}")
            else:
                front = prices[0] if prices else None
                if front != price and (price <= self._ask_horizon
                                       or (front is not None and price > front)):
                    raise InconsistentEvent(idx, f"execution at {price} but best SELL is {front}")
        elif code != CODE_CANCEL_FULL and code != CODE_CANCEL_PARTIAL:
            raise InconsistentEvent(idx, f"unknown type code {code}")

        # A removal: ``size`` shares come off the resting order or the seeded
        # pool, and off the side's depth.
        rec = orders.get(order_id)
        if rec is not None:
            rest_direction, rest_price, rest_size = rec
            if rest_direction != direction or rest_price != price:
                raise InconsistentEvent(
                    idx,
                    f"order {order_id} rests at {Side(rest_direction).name}/{rest_price}, "
                    f"event says {Side(direction).name}/{price}",
                )
            if code == CODE_CANCEL_FULL and size != rest_size:
                raise InconsistentEvent(idx, f"full cancel of {size} but order holds {rest_size}")
            if size > rest_size:
                raise InconsistentEvent(idx, f"removal of {size} exceeds resting size {rest_size}")
            if size == rest_size:
                del orders[order_id]
            else:
                orders[order_id] = (direction, price, rest_size - size)
        else:
            # Unseen order id: charge the anonymous (seeded) pool at that
            # price, unless the order rests beyond what the seed row could show.
            if (price < self._bid_horizon) if is_bid else (price > self._ask_horizon):
                self.event_seq = idx + 1
                return self
            anon = self._anon_bid if is_bid else self._anon_ask
            pool = anon.get(price, 0)
            if size > pool:
                what = "execution" if code == CODE_EXECUTION_VISIBLE else "cancellation"
                raise InconsistentEvent(
                    idx,
                    f"{what} of unseen order {order_id} needs {size} "
                    f"at {price} but seeded depth is {pool}",
                )
            if size == pool:
                del anon[price]
            else:
                anon[price] = pool - size
            if code == CODE_EXECUTION_VISIBLE:
                self.seeded_executions += 1
        left = depth[price] - size
        if left > 0:
            depth[price] = left
        else:
            del depth[price]
            prices.pop(bisect_left(prices, price))
        self.event_seq = idx + 1
        return self


def level_snapshot(state: BookState, levels: int) -> tuple[int, ...]:
    """Top-``levels`` book as one orderbook row, absent levels as sentinels."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    row = [ASK_ABSENT, 0, BID_ABSENT, 0] * levels
    asks = state._ask_prices[:levels]
    bids = state._bid_prices[: -levels - 1 : -1]
    na, nb = 4 * len(asks), 4 * len(bids)
    row[0:na:4] = asks
    row[1:na:4] = [state._ask_depth[p] for p in asks]
    row[2:nb:4] = bids
    row[3:nb:4] = [state._bid_depth[p] for p in bids]
    return tuple(row)
