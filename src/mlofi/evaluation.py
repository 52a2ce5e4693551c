"""Window fits, goodness-of-fit protocols, book summary and report assembly.

``fit`` and ``evaluate`` share one pipeline: ``assemble_windows`` turns the
days into sorted per-window problems and ``fit_tables`` selects the pooled
penalty and builds the significance tables, which ``fit`` writes as they
are. ``run_evaluation`` fits each window once per (method, depth) and takes
the R^2 curve, the seasonality profile (depth M) and the level-1 OFI
baseline from those fits. Each day is replayed once: the replay that
yields the imbalance samples also tallies the book, and ``book_summaries``
reduces the days' tallies. In ``per-window`` mode, windows that discarded
intervals shrank below ``MIN_ROWS_PER_FOLD`` rows per fold are left out of
the ridge table.

The RMSE protocol mirrors 5-fold cross-validation: for each fold, fit on
the other four folds' pooled rows, record the RMSE on those same rows
(in-sample) and on the held-out fold (out-of-sample), then average both
across folds. Folds are contiguous time-ordered blocks from the same
``inference.fold_rows`` loop as the penalty search, and a curve pools its
rows once at full depth and reads each depth as a column prefix. All RMSEs
are in ticks because the regression response is in ticks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, TooFewRows
from .imbalance import SUMMARY_LEVELS, BookTally, compute_day_samples
from .inference import (
    MIN_ROWS_PER_FOLD,
    CollinearityDiagnostics,
    LambdaSearch,
    RegressionFit,
    SignificanceSummary,
    diagnose_collinearity,
    fit_ols,
    fit_ridge,
    fold_rows,
    ridge_coefficients,
    select_lambda,
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


def assemble_windows(
    days: list[DaySlice], grid: Grid, levels: int, tick_size: int
) -> tuple[list[RegressionProblem], AssemblyStats, list[BookTally]]:
    """Replay the days and group their intervals into per-window problems.

    Underdetermined windows are dropped and counted. The problems come back
    in (date, window) order, with the days' book tallies in date order; an
    input without any usable window raises TooFewRows.
    """
    stats = AssemblyStats()
    problems: list[RegressionProblem] = []
    tallies: list[BookTally] = []
    for day in sorted(days, key=lambda d: d.trading_date):
        comp = compute_day_samples(day, grid.boundaries_ns, grid.n_sub, levels)
        problems.extend(
            assemble_problems(
                comp.samples, grid, levels, tick_size, day.trading_date, stats
            )
        )
        tallies.append(comp.book)
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
            coeffs = ridge_coefficients(X_train, y_train, [lam], penalize)[0]
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


def rmse_curve(
    problems: list[RegressionProblem],
    method: str,
    max_levels: int,
    folds: int = 5,
    lam: float = 0.0,
    penalize_intercept: bool = True,
) -> list[RmsePoint]:
    """RMSE points at depths 1..max_levels, from rows pooled once at full depth."""
    X, y = pool_rows(problems, max_levels)
    return [
        _rmse_point(X[:, : m + 1], y, method, folds, lam, penalize_intercept)
        for m in range(1, max_levels + 1)
    ]


def fit_problem(
    problem: RegressionProblem,
    method: str,
    lam: float = 0.0,
    penalize_intercept: bool = True,
) -> RegressionFit:
    if method == OLS:
        return fit_ols(problem)
    if method == RIDGE:
        return fit_ridge(problem, lam, penalize_intercept)
    raise ValueError(f"unknown method {method!r}")


def fit_all_windows(
    problems: list[RegressionProblem],
    method: str,
    levels: int,
    lam: float = 0.0,
    penalize_intercept: bool = True,
) -> tuple[list[RegressionFit], list[int]]:
    """Per-window fits at one depth; rank-deficient windows are skipped.

    Returns (fits, window index of each fit). ``lam`` is ignored by OLS.
    """
    fits: list[RegressionFit] = []
    windows: list[int] = []
    for p in problems:
        try:
            fits.append(fit_problem(p.truncated(levels), method, lam, penalize_intercept))
        except RankDeficient:
            continue
        windows.append(p.window_index)
    return fits, windows


def adjusted_r2_curve(fits_by_depth: list[list[RegressionFit]]) -> list[float]:
    """Mean adjusted R^2 across window fits for each depth 1..M, in order."""
    curve = []
    for m, fits in enumerate(fits_by_depth, start=1):
        if not fits:
            raise TooFewRows(f"no usable windows at {m} levels")
        curve.append(float(np.mean([f.adj_r2 for f in fits])))
    return curve


@dataclass
class ImprovementTable:
    """Out-of-sample RMSE of the deep fits relative to the level-1 baseline."""

    ofi_rmse: float
    mlofi_ols_rmse: float | None
    mlofi_ridge_rmse: float | None
    improvement_ols: float | None  # 1 - mlofi/ofi
    improvement_ridge: float | None


def improvement_table(
    ols_points: list[RmsePoint] | None,
    ridge_points: list[RmsePoint] | None,
) -> ImprovementTable:
    """Build the improvement summary from the RMSE curves.

    The baseline is the level-1 OLS out-of-sample RMSE (ridge level-1 when
    OLS was not run).
    """
    base_points = ols_points if ols_points else ridge_points
    if not base_points:
        raise ValueError("need at least one RMSE curve")
    ofi = base_points[0].out_sample
    ols_deep = ols_points[-1].out_sample if ols_points else None
    ridge_deep = ridge_points[-1].out_sample if ridge_points else None
    return ImprovementTable(
        ofi_rmse=ofi,
        mlofi_ols_rmse=ols_deep,
        mlofi_ridge_rmse=ridge_deep,
        improvement_ols=None if ols_deep is None else 1.0 - ols_deep / ofi,
        improvement_ridge=None if ridge_deep is None else 1.0 - ridge_deep / ofi,
    )


def seasonality_profile(
    fits: list[RegressionFit], windows: list[int], levels: int, n_windows: int
) -> np.ndarray:
    """Mean fitted coefficients per intra-day window index.

    ``fits`` and ``windows`` are as returned by ``fit_all_windows`` at
    depth ``levels``. Returns an (n_windows, levels + 1) array; window
    indices with no usable fits hold NaN.
    """
    sums = np.zeros((n_windows, levels + 1))
    counts = np.zeros(n_windows, dtype=int)
    for f, i in zip(fits, windows):
        sums[i] += f.coeffs
        counts[i] += 1
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
    """
    sums = np.sum([t.sums for t in tallies], axis=0)  # [duration, event] x columns
    if not sums[:, 0].all():
        raise TooFewRows("no two-sided book states observed")
    L = SUMMARY_LEVELS
    by_duration, by_event = (
        BookSummary(m[0], m[1], tuple(m[2 : 2 + L]), tuple(m[2 + L :]), weighting)
        for m, weighting in zip((sums[:, 1:] / sums[:, :1]).tolist(), ("duration", "event"))
    )
    counts = np.sum([t.flow_counts for t in tallies], axis=0)
    volumes = np.sum([t.flow_volumes for t in tallies], axis=0)
    n_flow = int(counts.sum())
    v_flow = int(volumes.sum())
    concentration = FlowConcentration(
        count_pct=tuple(100.0 * counts / n_flow) if n_flow else (0.0, 0.0, 0.0),
        volume_pct=tuple(100.0 * volumes / v_flow) if v_flow else (0.0, 0.0, 0.0),
        n_events=n_flow,
    )
    return by_duration, by_event, concentration


# -- shared fit pipeline and full report -----------------------------------------


@dataclass
class FitTables:
    """Pooled penalty search and per-method significance tables."""

    search: LambdaSearch | None  # pooled penalty search; None without ridge
    significance: dict[str, SignificanceSummary]
    # Depth-M fits with their window indices, for each method whose table
    # uses the pooled penalty (every method but per-window ridge).
    pooled_fits: dict[str, tuple[list[RegressionFit], list[int]]]


def fit_tables(
    problems: list[RegressionProblem],
    levels: int,
    methods: list[str],
    folds: int = 5,
    lambda_grid: np.ndarray | None = None,
    penalize_intercept: bool = True,
    lambda_mode: str = "pooled",
) -> FitTables:
    """Select the pooled penalty and summarize the per-window fits per method.

    ``lambda_mode`` 'pooled' fits every window with the penalty selected on
    all pooled rows; 'per-window' re-selects it within each window for the
    ridge table, leaving out windows with fewer than MIN_ROWS_PER_FOLD rows
    per fold.
    """
    search: LambdaSearch | None = None
    lam = 0.0
    if RIDGE in methods:
        X, y = pool_rows(problems, levels)
        search = select_lambda(X, y, folds, lambda_grid, penalize_intercept)
        lam = search.lambda_hat
    tables = FitTables(search, {}, {})
    for method in methods:
        if method == RIDGE and lambda_mode == "per-window":
            fits = []
            for p in problems:
                if p.n_rows < MIN_ROWS_PER_FOLD * folds:
                    continue
                w_search = select_lambda(p.X, p.y, folds, lambda_grid, penalize_intercept)
                fits.append(fit_ridge(p, w_search.lambda_hat, penalize_intercept))
        else:
            fits, windows = fit_all_windows(
                problems, method, levels, lam, penalize_intercept
            )
            tables.pooled_fits[method] = (fits, windows)
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
    days: list[DaySlice],
    session: SessionConfig,
    grid_spec: GridSpec,
    levels: int,
    methods: list[str],
    folds: int = 5,
    lambda_grid: np.ndarray | None = None,
    penalize_intercept: bool = True,
    lambda_mode: str = "pooled",
) -> EvaluationReport:
    """Ingest -> imbalance -> fits -> report, for one instrument.

    The significance tables come from ``fit_tables``. The R^2 curves and
    the seasonality profiles always use the pooled penalty, as does the
    RMSE protocol since it pools rows.
    """
    grid = build_grid(session, grid_spec)
    problems, stats, tallies = assemble_windows(days, grid, levels, session.tick_size)
    tables = fit_tables(
        problems, levels, methods, folds, lambda_grid, penalize_intercept, lambda_mode
    )
    lam = tables.search.lambda_hat if tables.search else 0.0

    # Each (method, depth) is fit once; depth M reuses the tables' fits.
    fits_by_depth: dict[str, list[tuple[list[RegressionFit], list[int]]]] = {}
    for method in methods:
        fits = [
            fit_all_windows(problems, method, m, lam, penalize_intercept)
            for m in range(1, levels)
        ]
        fits.append(
            tables.pooled_fits.get(method)
            or fit_all_windows(problems, method, levels, lam, penalize_intercept)
        )
        fits_by_depth[method] = fits

    ofi_fits, _ = (
        fits_by_depth[OLS][0] if OLS in fits_by_depth else fit_all_windows(problems, OLS, 1)
    )
    ofi_sig = significance_summary(ofi_fits) if ofi_fits else None

    X_full, _ = pool_rows(problems, levels)
    diagnostics = diagnose_collinearity(X_full[:, 1:]) if levels >= 2 else None

    r2_curves = {
        method: adjusted_r2_curve([f for f, _ in fits_by_depth[method]])
        for method in methods
    }
    rmse_curves = {
        method: rmse_curve(problems, method, levels, folds, lam, penalize_intercept)
        for method in methods
    }
    improvement = improvement_table(rmse_curves.get(OLS), rmse_curves.get(RIDGE))
    seasonality = {
        method: seasonality_profile(*fits_by_depth[method][-1], levels, grid.n_windows)
        for method in methods
    }
    book_dur, book_evt, concentration = book_summaries(tallies)
    return EvaluationReport(
        levels=levels,
        methods=list(methods),
        folds=folds,
        n_days=len(days),
        n_problems=len(problems),
        discarded_intervals=stats.discarded_intervals,
        dropped_windows=stats.dropped_windows,
        rank_deficient_windows=max(
            (len(problems) - len(f) for f, _ in tables.pooled_fits.values()), default=0
        ),
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
