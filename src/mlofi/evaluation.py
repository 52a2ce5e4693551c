"""Window fits, goodness-of-fit protocols, book summary and report assembly.

``fit`` and ``evaluate`` share one pipeline: ``assemble_windows`` turns the
days into sorted per-window problems and ``fit_tables`` selects the pooled
penalty and builds the significance tables, which ``fit`` writes as they
are. ``run_evaluation`` takes each method's R^2 curve, every depth 1..M,
and its seasonality profile from one factorization per window
(``inference.nested_adj_r2``), reduced by ``adjusted_r2_curve`` and
``seasonality_profile``; the level-1 OFI table from one depth-1 OLS fit per
window; and the RMSE curves from one factorization per training fold. The
days come as any iterable in date order and each is replayed once, as it
arrives: the replay that yields the imbalance samples also tallies the book,
only the problems and tallies are kept, and ``book_summaries`` reduces the
tallies.

A ``FitSpec`` carries the five fit settings from the command line to the
fits: the methods, the cross-validation folds, the penalty grid, the
penalty mode and whether the intercept is penalized. It checks itself when
built and raises ConfigError. Its ``min_window_rows`` is the one per-window
row rule: with ``per-window`` ridge each window runs its own penalty search,
so a window needs ``MIN_ROWS_PER_FOLD`` rows per fold; windows that
discarded intervals shrank below that are left out of the ridge table, and
``left_out_reason`` says so.

The RMSE protocol mirrors 5-fold cross-validation: for each fold, fit on
the other four folds' pooled rows, record the RMSE on those same rows
(in-sample) and on the held-out fold (out-of-sample), then average both
across folds. Folds are contiguous time-ordered blocks from the same
``inference.fold_rows`` loop as the penalty search, and a curve pools its
rows once at full depth and reads each depth as a column prefix. Each
training fold is factored once at full depth and every depth's fit read
from that factor (``inference.nested_coefficients``); a curve with a fold
that does not nest runs the per-depth protocol (``_rmse_point``), which also
stays as the curve's oracle. All RMSEs are in ticks because the regression
response is in ticks.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, TooFewRows
from .imbalance import SUMMARY_LEVELS, BookTally, compute_day_samples
from .inference import (
    MIN_ROWS_PER_FOLD,
    CollinearityDiagnostics,
    LambdaSearch,
    SignificanceSummary,
    default_lambda_grid,
    diagnose_collinearity,
    fit_windows,
    fold_rows,
    nested_adj_r2,
    nested_coefficients,
    ridge_coefficients,
    select_lambda,
    select_lambdas,
    significance_summary,
)
from .lobster import DaySlice, SessionConfig
from .sampling import (
    AssemblyStats,
    Grid,
    GridSpec,
    RegressionProblem,
    assemble_problems,
    build_grid,
)

OLS = "ols"
RIDGE = "ridge"


@dataclass(frozen=True)
class FitSpec:
    """The settings of the window fits, checked when built.

    ``lambda_grid`` holds the candidate penalties in ascending order.
    ``lambda_mode`` 'pooled' fits every window with the penalty selected on
    all pooled rows; 'per-window' re-selects it within each window for the
    ridge table.
    """

    methods: tuple[str, ...] = (OLS, RIDGE)
    folds: int = 5
    lambda_grid: tuple[float, ...] = tuple(default_lambda_grid().tolist())
    lambda_mode: str = "pooled"
    penalize_intercept: bool = True

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("methods must name at least one of ols, ridge")
        bad = [m for m in self.methods if m not in (OLS, RIDGE)]
        if bad:
            raise ConfigError(f"unknown methods: {bad}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ConfigError(f"methods repeated: {repeated}")
        if self.lambda_mode not in ("pooled", "per-window"):
            raise ConfigError("lambda_mode must be pooled or per-window")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")

    @property
    def min_window_rows(self) -> int:
        """Rows a window needs for its own penalty search; 0 if no window runs one."""
        if self.lambda_mode == "per-window" and RIDGE in self.methods:
            return MIN_ROWS_PER_FOLD * self.folds
        return 0

    def left_out_reason(self, method: str) -> str:
        """Why windows are missing from ``method``'s table: the row rule, else rank."""
        if method == RIDGE and self.min_window_rows:
            return f"with fewer than {MIN_ROWS_PER_FOLD} rows per fold"
        return "rank-deficient"


def assemble_windows(
    days: Iterable[DaySlice], grid: Grid, levels: int, tick_size: int
) -> tuple[list[RegressionProblem], AssemblyStats, list[BookTally]]:
    """Replay the days and group their intervals into per-window problems.

    ``days`` is any iterable in date order; only each day's problems and
    book tally are kept. Underdetermined windows are dropped and counted.
    The problems come back in (date, window) order, with the tallies in
    date order; no day, or no usable window, raises TooFewRows.
    """
    stats = AssemblyStats()
    problems: list[RegressionProblem] = []
    tallies: list[BookTally] = []

    def replay(day: DaySlice):
        return compute_day_samples(day, grid.boundaries_ns, grid.n_sub, levels)

    # map() drops each day before it asks for the next; a loop variable would not.
    for comp in map(replay, days):
        problems.extend(
            assemble_problems(comp.intervals, grid, levels, tick_size, comp.date, stats)
        )
        tallies.append(comp.book)
    if not tallies:
        raise TooFewRows("no input days")
    if not problems:
        raise TooFewRows("no usable regression windows in the input")
    problems.sort(key=lambda p: (p.date, p.window_index))
    return problems, stats, tallies


def pool_rows(
    problems: list[RegressionProblem], levels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stack problem rows in (date, window) order at the given depth."""
    ordered = sorted(problems, key=lambda p: (p.date, p.window_index))
    X = np.vstack([p.truncated(levels).X for p in ordered])
    y = np.concatenate([p.y for p in ordered])
    return X, y


@dataclass
class RmsePoint:
    """Mean in/out-of-sample RMSE (ticks) at one depth."""

    levels: int
    in_sample: float
    out_sample: float


def _rmse_point(
    X: np.ndarray, y: np.ndarray, method: str, folds: int, lam: float, penalize: bool
) -> RmsePoint:
    """The RMSE protocol on pooled rows; the depth is X's width less the intercept."""
    in_total = 0.0
    out_total = 0.0
    for X_train, y_train, X_val, y_val in fold_rows(X, y, folds):
        if method == OLS:
            # Minimum-norm least squares; the protocol tolerates ill-conditioning
            # because blown-up out-of-sample error is exactly the effect under study.
            coeffs = np.linalg.lstsq(X_train, y_train, rcond=None)[0]
        elif method == RIDGE:
            coeffs = ridge_coefficients(
                X_train.T @ X_train, X_train.T @ y_train, [lam], penalize
            )[0]
        else:
            raise ValueError(f"unknown method {method!r}")
        in_resid = y_train - X_train @ coeffs
        out_resid = y_val - X_val @ coeffs
        in_total += float(np.sqrt(np.mean(in_resid**2)))
        out_total += float(np.sqrt(np.mean(out_resid**2)))
    return RmsePoint(
        levels=X.shape[1] - 1,
        in_sample=in_total / folds,
        out_sample=out_total / folds,
    )


def rmse_protocol(
    problems: list[RegressionProblem],
    method: str,
    levels: int,
    folds: int = 5,
    lam: float = 0.0,
    penalize_intercept: bool = True,
) -> RmsePoint:
    """One point of the in/out-of-sample RMSE curve."""
    return _rmse_point(*pool_rows(problems, levels), method, folds, lam, penalize_intercept)


def _nested_rmse(
    X: np.ndarray, y: np.ndarray, method: str, folds: int, lam: float, penalize: bool
) -> tuple[np.ndarray, np.ndarray] | None:
    """The in- and out-of-sample RMSE totals over the folds at every depth, each
    training fold factored once; None if a fold does not nest."""
    in_total = np.zeros(X.shape[1] - 1)
    out_total = np.zeros(X.shape[1] - 1)
    for X_train, y_train, X_val, y_val in fold_rows(X, y, folds):
        B, ok = nested_coefficients(
            X_train[None], y_train[None], None if method == OLS else lam, penalize
        )
        if not ok[0]:
            return None
        coeffs = B[0, 1:]  # row m - 1 holds the depth-m fit
        for total, rows_X, rows_y in ((in_total, X_train, y_train), (out_total, X_val, y_val)):
            total += np.sqrt(np.mean((rows_y - coeffs @ rows_X.T) ** 2, axis=-1))
    return in_total, out_total


def rmse_curve(
    problems: list[RegressionProblem],
    method: str,
    max_levels: int,
    folds: int = 5,
    lam: float = 0.0,
    penalize_intercept: bool = True,
) -> list[RmsePoint]:
    """RMSE points at depths 1..max_levels, from rows pooled once at full depth.

    Each training fold is factored once (``nested_coefficients``), and one
    product each gives its in-sample and out-of-sample residuals at every
    depth. A curve of one depth, or one with a fold that does not nest (a
    rank-poor OLS fold, ridge at lam = 0, a failed Cholesky factor,
    non-finite rows), takes every point from ``_rmse_point`` at its own
    depth, with its minimum-norm ``lstsq`` and its errors.
    """
    X, y = pool_rows(problems, max_levels)
    if method not in (OLS, RIDGE):
        raise ValueError(f"unknown method {method!r}")
    totals = None
    if max_levels > 1:  # at one depth, _rmse_point's bits; the nested fit's can differ by an ulp
        totals = _nested_rmse(X, y, method, folds, lam, penalize_intercept)
    if totals is None:
        return [
            _rmse_point(X[:, : m + 1], y, method, folds, lam, penalize_intercept)
            for m in range(1, max_levels + 1)
        ]
    return [
        RmsePoint(levels=m, in_sample=float(i), out_sample=float(o))
        for m, i, o in zip(range(1, max_levels + 1), *(total / folds for total in totals))
    ]


def adjusted_r2_curve(adj_r2: np.ndarray, kept: np.ndarray) -> list[float]:
    """Mean adjusted R^2 across the kept windows at each depth 1..M, in order.

    ``adj_r2`` and ``kept`` are (windows x M), as ``nested_adj_r2`` gives them.
    """
    curve = []
    for m in range(1, adj_r2.shape[1] + 1):
        values = adj_r2[kept[:, m - 1], m - 1]
        if not len(values):
            raise TooFewRows(f"no usable windows at {m} levels")
        curve.append(float(np.mean(values)))
    return curve


@dataclass
class ImprovementTable:
    """Out-of-sample RMSE of the deep fits relative to the level-1 baseline."""

    ofi_rmse: float
    mlofi_ols_rmse: float | None
    mlofi_ridge_rmse: float | None
    improvement_ols: float | None  # 1 - mlofi/ofi; None when ofi is 0
    improvement_ridge: float | None


def improvement_table(
    ols_points: list[RmsePoint] | None,
    ridge_points: list[RmsePoint] | None,
) -> ImprovementTable:
    """Build the improvement summary from the RMSE curves.

    The baseline is the level-1 OLS out-of-sample RMSE (ridge level-1 when
    OLS was not run). A baseline of exactly 0, as on a day whose mid never
    moves, leaves every improvement undefined (None).
    """
    base_points = ols_points if ols_points else ridge_points
    if not base_points:
        raise ValueError("need at least one RMSE curve")
    ofi = base_points[0].out_sample
    ols_deep = ols_points[-1].out_sample if ols_points else None
    ridge_deep = ridge_points[-1].out_sample if ridge_points else None

    def improvement(deep: float | None) -> float | None:
        return None if deep is None or ofi == 0.0 else 1.0 - deep / ofi

    return ImprovementTable(
        ofi_rmse=ofi,
        mlofi_ols_rmse=ols_deep,
        mlofi_ridge_rmse=ridge_deep,
        improvement_ols=improvement(ols_deep),
        improvement_ridge=improvement(ridge_deep),
    )


def seasonality_profile(coeffs: np.ndarray, windows: np.ndarray, n_windows: int) -> np.ndarray:
    """Mean fitted coefficients per intra-day window index.

    ``coeffs`` holds one fit's coefficients per row (fits x levels + 1) and
    ``windows`` each fit's window index. Returns an (n_windows, levels + 1)
    array; window indices with no fits hold NaN. Each window's sum adds its
    fits in row order, as a loop over the rows would.
    """
    sums = np.zeros((n_windows, coeffs.shape[1]))
    np.add.at(sums, windows, coeffs)
    counts = np.bincount(windows, minlength=n_windows)
    with np.errstate(invalid="ignore"):
        return sums / counts[:, None]  # 0/0 is the NaN of an unfit window index


# -- book summary statistics --------------------------------------------------


@dataclass
class BookSummary:
    """Mean mid, spread and per-level depths across the sample days."""

    mean_mid_dollars: float
    mean_spread_dollars: float
    mean_bid_depth: tuple[float, ...]  # levels 1..5
    mean_ask_depth: tuple[float, ...]
    weighting: str  # "duration" or "event"


@dataclass
class FlowConcentration:
    """Share of order-flow activity by distance from the best quotes."""

    count_pct: tuple[float, float, float]  # within spread, at best, deeper
    volume_pct: tuple[float, float, float]
    n_events: int


def book_summaries(
    tallies: list[BookTally],
) -> tuple[BookSummary, BookSummary, FlowConcentration]:
    """Reduce the days' book tallies to the report's book statistics.

    Returns the duration-weighted summary, the event-weighted summary and
    the flow concentration; see ``BookTally`` for what each state adds.
    Each column is summed over all days as an exact integer and divided by
    its summed weight, times its unit, once: every mean is the correctly
    rounded float of the exact mean, whatever the number of days. A mean
    depth past the float range raises DataError.
    """
    L = SUMMARY_LEVELS
    units = (20_000, 10_000) + (1,) * (2 * L)  # mid and spread in dollars
    summaries = []
    for k, weighting in enumerate(("duration", "event")):
        weight, *totals = [sum(t.sums[k][c] for t in tallies) for c in range(1 + len(units))]
        if not weight:
            raise TooFewRows("no two-sided book states observed")
        try:
            m = [v / (weight * u) for v, u in zip(totals, units)]
        except OverflowError:
            raise DataError(f"the {weighting}-weighted mean depth is too large for a float")
        summaries.append(BookSummary(m[0], m[1], tuple(m[2:2 + L]), tuple(m[2 + L:]), weighting))
    by_duration, by_event = summaries
    counts = [sum(t.flow_counts[b] for t in tallies) for b in range(3)]
    volumes = [sum(t.flow_volumes[b] for t in tallies) for b in range(3)]
    n_flow = sum(counts)
    v_flow = sum(volumes)
    concentration = FlowConcentration(
        count_pct=tuple(100.0 * c / n_flow for c in counts) if n_flow else (0.0, 0.0, 0.0),
        volume_pct=tuple(100 * v / v_flow for v in volumes) if v_flow else (0.0, 0.0, 0.0),
        n_events=n_flow,
    )
    return by_duration, by_event, concentration


# -- shared fit pipeline and full report -----------------------------------------


@dataclass
class FitTables:
    """Pooled penalty search and per-method significance tables."""

    search: LambdaSearch | None  # pooled penalty search; None without ridge
    significance: dict[str, SignificanceSummary]


def fit_tables(problems: list[RegressionProblem], spec: FitSpec) -> FitTables:
    """Select the pooled penalty and summarize the per-window fits per method.

    The fits run at the problems' depth, one ``fit_windows`` call per method,
    less the OLS windows it leaves out. Per-window ridge leaves out the windows
    with fewer than ``spec.min_window_rows`` rows, searches the rest in one
    ``select_lambdas`` call and fits them at their own penalties.
    """
    grid = np.array(spec.lambda_grid)
    search: LambdaSearch | None = None
    if RIDGE in spec.methods:
        X, y = pool_rows(problems, problems[0].levels)
        search = select_lambda(X, y, spec.folds, grid, spec.penalize_intercept)
    tables = FitTables(search, {})
    for method in spec.methods:
        windows, lambdas = problems, None
        if method == RIDGE and spec.lambda_mode == "per-window":
            windows = [p for p in problems if p.n_rows >= spec.min_window_rows]
            searches = select_lambdas(
                [(p.X, p.y) for p in windows], spec.folds, grid, spec.penalize_intercept
            )
            lambdas = [s.lambda_hat for s in searches]
        elif method == RIDGE:
            lambdas = [search.lambda_hat] * len(problems)
        fits = fit_windows(windows, lambdas, spec.penalize_intercept)
        fits = [fit for fit in fits if fit is not None]
        if not fits:
            raise TooFewRows(f"no usable {method} window fits")
        tables.significance[method] = significance_summary(fits)
    return tables


@dataclass
class EvaluationReport:
    """Everything the evaluate command writes out."""

    levels: int
    methods: list[str]
    folds: int
    n_days: int
    n_problems: int
    discarded_intervals: int
    dropped_windows: int
    rank_deficient_windows: int
    lambda_search: LambdaSearch | None
    significance: dict[str, SignificanceSummary]
    ofi_significance: SignificanceSummary | None
    diagnostics: CollinearityDiagnostics | None
    r2_curves: dict[str, list[float]]
    rmse_curves: dict[str, list[RmsePoint]]
    improvement: ImprovementTable
    seasonality: dict[str, np.ndarray]
    book_summary: BookSummary
    book_summary_event_weighted: BookSummary
    flow_concentration: FlowConcentration


def run_evaluation(
    days: Iterable[DaySlice],
    session: SessionConfig,
    grid_spec: GridSpec,
    levels: int,
    spec: FitSpec,
) -> EvaluationReport:
    """Ingest -> imbalance -> fits -> report, for one instrument.

    ``days`` is any iterable in date order, taken once the grid is built;
    no day raises TooFewRows("no input days"). The significance tables come
    from ``fit_tables``. Each method's R^2 curve and seasonality profile come
    from one ``nested_adj_r2`` call at the pooled penalty, as does the RMSE
    protocol since it pools rows.
    """
    grid = build_grid(session, grid_spec)
    problems, stats, tallies = assemble_windows(days, grid, levels, session.tick_size)
    tables = fit_tables(problems, spec)
    lam = tables.search.lambda_hat if tables.search else 0.0

    window_index = np.array([p.window_index for p in problems])
    r2_curves, seasonality, rank_deficient = {}, {}, 0
    for method in spec.methods:
        adj_r2, kept, coeffs = nested_adj_r2(
            problems, None if method == OLS else lam, spec.penalize_intercept
        )
        deep = kept[:, -1]
        r2_curves[method] = adjusted_r2_curve(adj_r2, kept)
        seasonality[method] = seasonality_profile(coeffs[deep], window_index[deep], grid.n_windows)
        if method == OLS:
            rank_deficient = int(np.sum(~deep))
    ofi_fits = [fit for fit in fit_windows([p.truncated(1) for p in problems]) if fit is not None]
    ofi_sig = significance_summary(ofi_fits) if ofi_fits else None
    diagnostics = (
        diagnose_collinearity(pool_rows(problems, levels)[0][:, 1:]) if levels >= 2 else None
    )
    rmse_curves = {
        method: rmse_curve(problems, method, levels, spec.folds, lam, spec.penalize_intercept)
        for method in spec.methods
    }
    improvement = improvement_table(rmse_curves.get(OLS), rmse_curves.get(RIDGE))
    book_dur, book_evt, concentration = book_summaries(tallies)
    return EvaluationReport(
        levels=levels,
        methods=list(spec.methods),
        folds=spec.folds,
        n_days=len(tallies),
        n_problems=len(problems),
        discarded_intervals=stats.discarded_intervals,
        dropped_windows=stats.dropped_windows,
        rank_deficient_windows=rank_deficient,
        lambda_search=tables.search,
        significance=tables.significance,
        ofi_significance=ofi_sig,
        diagnostics=diagnostics,
        r2_curves=r2_curves,
        rmse_curves=rmse_curves,
        improvement=improvement,
        seasonality=seasonality,
        book_summary=book_dur,
        book_summary_event_weighted=book_evt,
        flow_concentration=concentration,
    )
