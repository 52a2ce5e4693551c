"""Two-level time grid and regression-problem assembly.

A session splits into I non-overlapping windows of ``window_seconds``;
each window splits into K sub-windows of ``subwindow_seconds``. Every
(date, window) pair becomes one regression problem whose rows are the
window's usable sub-intervals: the design matrix holds an intercept
column of ones followed by the M imbalance components, and the response
is the contemporaneous mid-price change in ticks. A day's problems are
slices of its interval columns: the exact-integer arrays become one float64
design and one response per day, each value rounded as ``float()`` rounds
it, and each window takes its rows with one slice and its part of the
columns' ``kept`` mask.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BadValue, IndivisibleGrid
from .imbalance import IntervalColumns, MlofiSample
from .lobster import NS, SessionConfig


@dataclass(frozen=True)
class GridSpec:
    """Window and sub-window lengths in whole seconds."""

    window_seconds: int = 1800
    subwindow_seconds: int = 10

    def __post_init__(self):
        for name in ("window_seconds", "subwindow_seconds"):
            if getattr(self, name) <= 0:
                raise BadValue(name, f"must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class Grid:
    """Exact integer-nanosecond boundaries for one trading session."""

    start_ns: int
    n_windows: int  # I
    n_sub: int  # K per window
    subwindow_ns: int

    @property
    def boundaries_ns(self) -> list[int]:
        """Flat list t_0..t_{I*K}; interval j is (t_{j-1}, t_j]."""
        total = self.n_windows * self.n_sub
        return [self.start_ns + j * self.subwindow_ns for j in range(total + 1)]


def build_grid(config: SessionConfig, spec: GridSpec) -> Grid:
    """Validate divisibility and lay out the session grid."""
    session_len = config.length_seconds
    if session_len % spec.window_seconds != 0:
        raise IndivisibleGrid(
            f"session length {session_len}s is not divisible by "
            f"window length {spec.window_seconds}s"
        )
    if spec.window_seconds % spec.subwindow_seconds != 0:
        raise IndivisibleGrid(
            f"window length {spec.window_seconds}s is not divisible by "
            f"sub-window length {spec.subwindow_seconds}s"
        )
    return Grid(
        start_ns=config.start_ns,
        n_windows=session_len // spec.window_seconds,
        n_sub=spec.window_seconds // spec.subwindow_seconds,
        subwindow_ns=spec.subwindow_seconds * NS,
    )


@dataclass
class RegressionProblem:
    """Design matrix and response for one (date, window) fit."""

    date: dt.date
    window_index: int
    X: np.ndarray  # rows x (levels + 1); column 0 is the intercept
    y: np.ndarray  # mid-price change in ticks
    levels: int

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def truncated(self, levels: int) -> "RegressionProblem":
        """Nested sub-design using only the first ``levels`` components."""
        if levels > self.levels:
            raise ValueError(f"problem holds {self.levels} levels, asked for {levels}")
        if levels == self.levels:
            return self
        return RegressionProblem(
            date=self.date,
            window_index=self.window_index,
            X=self.X[:, : levels + 1],
            y=self.y,
            levels=levels,
        )


@dataclass
class AssemblyStats:
    """Bookkeeping for dropped data during problem assembly."""

    discarded_intervals: int = 0
    dropped_windows: int = 0


def assemble_problems(
    intervals: IntervalColumns | Iterable[MlofiSample | None],
    grid: Grid,
    levels: int,
    tick_size: int,
    date: dt.date,
    stats: AssemblyStats | None = None,
) -> list[RegressionProblem]:
    """Slice one day's interval columns into per-window problems.

    ``intervals`` holds every interval of the grid in order, as the replay's
    columns or as samples (None where discarded). Discarded intervals shrink
    the window's row count; a window with fewer than levels + 2 usable rows
    is underdetermined and is dropped. Both are counted in ``stats``.
    """
    if stats is None:
        stats = AssemblyStats()
    if not isinstance(intervals, IntervalColumns):
        intervals = IntervalColumns.from_samples(intervals, levels)
    K = grid.n_sub
    n = grid.n_windows * K
    if len(intervals.kept) != n:
        raise ValueError(f"{len(intervals.kept)} intervals for a grid of {n}")
    # int64 and object (exact int) columns alike convert as float() rounds.
    design = np.ones((n, levels + 1))
    design[:, 1:] = intervals.flows[:, :levels]
    usable = intervals.kept
    y = intervals.delta_p.astype(float) / (2.0 * tick_size)  # twice the mid change, in price units
    counts = usable.reshape(grid.n_windows, K).sum(axis=1).tolist()
    stats.discarded_intervals += n - sum(counts)

    problems: list[RegressionProblem] = []
    for i, count in enumerate(counts):
        if count < levels + 2:
            stats.dropped_windows += 1
            continue
        rows = slice(i * K, (i + 1) * K)
        keep = usable[rows]
        problems.append(RegressionProblem(
            date=date, window_index=i, X=design[rows][keep], y=y[rows][keep], levels=levels
        ))
    return problems
