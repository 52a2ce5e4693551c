"""Batch command-line front end: ingest -> imbalance -> fit -> evaluate.

Subcommands: ``synth`` writes LOBSTER-format fixture files, ``compute``
dumps per-interval imbalance samples, ``fit`` writes per-coefficient
summary tables, ``evaluate`` writes the full report (JSON + CSVs).

Configuration comes from ``key = value`` lines in a config file, overridden
by command-line flags; the output directory may additionally be overridden
by the MLOFI_OUTPUT_DIR environment variable. All randomness derives from
the single ``seed`` value. Exit codes: 0 success, 1 configuration error,
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as dt
import glob
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluation
from .errors import (
    ConfigError,
    DataError,
    EmptySession,
    NumericalError,
    TooFewRows,
)
from .evaluation import EvaluationReport, assemble_windows, fit_tables, run_evaluation
from .imbalance import compute_day_samples, sample_csv_header, sample_csv_row
from .inference import MIN_ROWS_PER_FOLD, SignificanceSummary, default_lambda_grid
from .lobster import (
    DaySlice,
    SessionConfig,
    date_from_filename,
    hms_to_seconds,
    parse_message_file,
    seed_from_orderbook_file,
    write_message_file,
    write_orderbook_file,
)
from .sampling import GridSpec, build_grid
from .synth import ZiParams, generate_zi_day

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "MLOFI_OUTPUT_DIR"

_CONFIG_KEYS = {
    "messages",
    "orderbooks",
    "synth_days",
    "start_date",
    "session_start",
    "session_end",
    "include_hidden",
    "tick",
    "dt",
    "DT",
    "levels",
    "methods",
    "lambda_grid",
    "lambda_mode",
    "folds",
    "penalize_intercept",
    "out",
    "seed",
    "zi_limit_rate",
    "zi_market_rate",
    "zi_cancel_rate",
    "zi_band",
    "zi_mean_size",
}


@dataclasses.dataclass
class RunConfig:
    """Fully resolved run parameters for any subcommand."""

    messages: str | None
    orderbooks: str | None
    synth_days: int | None
    start_date: dt.date
    session: SessionConfig
    grid: GridSpec
    levels: int
    methods: list[str]
    lambda_grid: np.ndarray
    lambda_mode: str
    folds: int
    penalize_intercept: bool
    out_dir: Path
    seed: int
    zi: ZiParams

    def validate(self) -> None:
        if (self.messages is None) == (self.synth_days is None):
            raise ConfigError(
                "exactly one of a messages glob or a synth-days count is required"
            )
        if not (1 <= self.levels <= 50):
            raise ConfigError(f"levels must be in [1, 50], got {self.levels}")
        bad = [m for m in self.methods if m not in (evaluation.OLS, evaluation.RIDGE)]
        if bad:
            raise ConfigError(f"unknown methods: {bad}")
        if self.lambda_mode not in ("pooled", "per-window"):
            raise ConfigError("lambda_mode must be pooled or per-window")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        rows = self.grid.window_seconds // self.grid.subwindow_seconds
        if (
            self.lambda_mode == "per-window"
            and evaluation.RIDGE in self.methods
            and rows < MIN_ROWS_PER_FOLD * self.folds
        ):
            raise ConfigError(
                f"per-window lambda needs DT/dt >= {MIN_ROWS_PER_FOLD * self.folds} "
                f"rows per window with {self.folds} folds, got {rows}"
            )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we want 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mlofi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate zero-intelligence fixture files"),
        ("compute", "dump per-interval imbalance samples as CSV"),
        ("fit", "write per-coefficient regression summary tables"),
        ("evaluate", "write the full evaluation report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--messages", help="glob of LOBSTER message CSV files")
        p.add_argument("--orderbooks", help="glob of orderbook CSVs used as seeds")
        p.add_argument("--synth-days", type=int, dest="synth_days",
                       help="generate this many synthetic days instead of reading files")
        p.add_argument("--start-date", dest="start_date",
                       help="date of the first (synthetic) day, YYYY-MM-DD")
        p.add_argument("--session-start", dest="session_start", help="e.g. 10:00")
        p.add_argument("--session-end", dest="session_end", help="e.g. 15:30")
        p.add_argument("--include-hidden", action="store_true", default=None,
                       dest="include_hidden",
                       help="keep hidden executions (excluded by default)")
        p.add_argument("--tick", type=int, help="tick size in 1e-4 dollar units")
        p.add_argument("--dt", type=int, help="sub-window length in seconds")
        p.add_argument("--DT", type=int, help="window length in seconds")
        p.add_argument("--levels", "-M", type=int, help="imbalance depth M")
        p.add_argument("--methods", help="comma list from {ols,ridge}")
        p.add_argument("--lambda-grid", dest="lambda_grid",
                       help="LO,HI,COUNT for the log-spaced penalty grid")
        p.add_argument("--lambda-mode", dest="lambda_mode",
                       choices=["pooled", "per-window"])
        p.add_argument("--folds", type=int)
        p.add_argument("--no-penalize-intercept", action="store_true", default=None,
                       dest="no_penalize_intercept",
                       help="leave the intercept out of the ridge penalty")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="master seed for all randomness")
        p.add_argument("--zi-limit-rate", type=float, dest="zi_limit_rate")
        p.add_argument("--zi-market-rate", type=float, dest="zi_market_rate")
        p.add_argument("--zi-cancel-rate", type=float, dest="zi_cancel_rate")
        p.add_argument("--zi-band", type=int, dest="zi_band")
        p.add_argument("--zi-mean-size", type=float, dest="zi_mean_size")
    return parser


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = val
    return values


def _to_bool(text: str, key: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true/false, got {text!r}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < environment (out dir) < flags."""
    file_vals = parse_config_file(args.config) if args.config else {}

    def pick(flag_val, key: str, default):
        if flag_val is not None:
            return flag_val
        if key in file_vals:
            return file_vals[key]
        return default

    out_dir = pick(args.out, "out", "mlofi_out")
    if args.out is None and OUTPUT_DIR_ENV in os.environ:
        out_dir = os.environ[OUTPUT_DIR_ENV]

    session_start = pick(args.session_start, "session_start", "10:00")
    session_end = pick(args.session_end, "session_end", "15:30")
    include_hidden = args.include_hidden
    if include_hidden is None:
        include_hidden = _to_bool(file_vals["include_hidden"], "include_hidden") \
            if "include_hidden" in file_vals else False
    tick = int(pick(args.tick, "tick", 100))
    session = SessionConfig(
        session_start=hms_to_seconds(str(session_start)),
        session_end=hms_to_seconds(str(session_end)),
        exclude_hidden=not include_hidden,
        tick_size=tick,
    )
    grid = GridSpec(
        window_seconds=int(pick(args.DT, "DT", 1800)),
        subwindow_seconds=int(pick(args.dt, "dt", 10)),
    )
    lambda_text = pick(args.lambda_grid, "lambda_grid", None)
    if lambda_text is None:
        lam_grid = default_lambda_grid()
    else:
        try:
            lo_s, hi_s, count_s = str(lambda_text).split(",")
            lo, hi, count = float(lo_s), float(hi_s), int(count_s)
        except ValueError as exc:
            raise ConfigError(f"lambda_grid must be LO,HI,COUNT: {exc}")
        if not (0 < lo < hi and count >= 2):
            raise ConfigError("lambda_grid needs 0 < LO < HI and COUNT >= 2")
        lam_grid = np.geomspace(lo, hi, count)

    penalize = True
    if args.no_penalize_intercept:
        penalize = False
    elif "penalize_intercept" in file_vals:
        penalize = _to_bool(file_vals["penalize_intercept"], "penalize_intercept")

    methods_text = str(pick(args.methods, "methods", "ols,ridge"))
    methods = [m.strip() for m in methods_text.split(",") if m.strip()]

    start_date_text = str(pick(args.start_date, "start_date", "2016-01-04"))
    try:
        start_date = dt.date.fromisoformat(start_date_text)
    except ValueError as exc:
        raise ConfigError(f"bad start_date: {exc}")

    synth_days = pick(args.synth_days, "synth_days", None)
    seed = int(pick(args.seed, "seed", 0))
    zi = ZiParams(
        limit_rate=float(pick(args.zi_limit_rate, "zi_limit_rate", 0.05)),
        market_rate=float(pick(args.zi_market_rate, "zi_market_rate", 0.1)),
        cancel_rate=float(pick(args.zi_cancel_rate, "zi_cancel_rate", 0.002)),
        price_band=int(pick(args.zi_band, "zi_band", 8)),
        mean_size=float(pick(args.zi_mean_size, "zi_mean_size", 8.0)),
        seed=seed,
    )
    config = RunConfig(
        messages=pick(args.messages, "messages", None),
        orderbooks=pick(args.orderbooks, "orderbooks", None),
        synth_days=None if synth_days is None else int(synth_days),
        start_date=start_date,
        session=session,
        grid=grid,
        levels=int(pick(args.levels, "levels", 10)),
        methods=methods,
        lambda_grid=lam_grid,
        lambda_mode=str(pick(args.lambda_mode, "lambda_mode", "pooled")),
        folds=int(pick(args.folds, "folds", 5)),
        penalize_intercept=penalize,
        out_dir=Path(out_dir),
        seed=seed,
        zi=zi,
    )
    config.validate()
    return config


# -- data loading --------------------------------------------------------------


def load_days(config: RunConfig) -> list[DaySlice]:
    """Parse input files or generate deterministic synthetic days."""
    if config.synth_days is not None:
        return [
            generate_zi_day(
                dataclasses.replace(config.zi, seed=config.seed + i),  # per-day stream
                config.session,
                config.start_date + dt.timedelta(days=i),
            )
            for i in range(config.synth_days)
        ]

    paths = sorted(glob.glob(config.messages))
    if not paths:
        return []
    seed_paths = sorted(glob.glob(config.orderbooks)) if config.orderbooks else []
    if seed_paths and len(seed_paths) != len(paths):
        raise ConfigError(
            f"{len(paths)} message files but {len(seed_paths)} orderbook files"
        )
    days = []
    for i, path in enumerate(paths):
        date = date_from_filename(Path(path).name)
        if date is None:
            date = config.start_date + dt.timedelta(days=i)
        try:
            day = parse_message_file(path, config.session, trading_date=date)
        except EmptySession as exc:
            print(f"warning: skipping {exc}", file=sys.stderr)
            continue
        if seed_paths:
            day.seed = seed_from_orderbook_file(seed_paths[i])
        days.append(day)
    return days


# -- output helpers --------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    xf = float(x)
    if np.isnan(xf):
        return "nan"
    return repr(xf)


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _coef_names(levels: int) -> list[str]:
    return ["alpha"] + [f"beta_{m}" for m in range(1, levels + 1)]


def _significance_rows(summary: SignificanceSummary, levels: int) -> list[list[str]]:
    columns = (
        summary.mean_coeff,
        summary.mean_se,
        summary.mean_t,
        summary.mean_p,
        summary.pct_significant_95,
    )
    return [
        [name] + [_fmt(c[j]) for c in columns]
        for j, name in enumerate(_coef_names(levels))
    ]


def _write_significance(
    out: Path, prefix: str, tables: dict[str, SignificanceSummary], levels: int
) -> None:
    header = ["coef", "mean_value", "mean_se", "mean_t", "mean_p", "pct_significant_95"]
    for name, summary in tables.items():
        _write_csv(out / f"{prefix}_{name}.csv", header, _significance_rows(summary, levels))


def _warn_left_out(
    tables: dict[str, SignificanceSummary], n_problems: int, config: RunConfig
) -> None:
    """One stderr line per method whose table covers fewer than all windows."""
    for method, summary in tables.items():
        if summary.n_fits == n_problems:
            continue
        reason = "rank-deficient"
        if method == evaluation.RIDGE and config.lambda_mode == "per-window":
            reason = f"with fewer than {MIN_ROWS_PER_FOLD} rows per fold"
        print(
            f"warning: {method}: {n_problems - summary.n_fits} of {n_problems} "
            f"windows {reason}, left out of the table",
            file=sys.stderr,
        )


def _to_json(obj):
    """Dataclasses, dicts, sequences and numpy values as plain JSON values."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_to_json(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_to_dict(report: EvaluationReport) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_to_json(report)}


# -- subcommands -----------------------------------------------------------------


def cmd_synth(config: RunConfig) -> int:
    if config.synth_days is None:
        raise ConfigError("synth requires --synth-days")
    config.out_dir.mkdir(parents=True, exist_ok=True)
    days = load_days(config)
    for day in days:
        stem = f"SYN_{day.trading_date.isoformat()}"
        write_message_file(
            config.out_dir / f"{stem}_message_{config.levels}.csv", day.events
        )
        write_orderbook_file(
            config.out_dir / f"{stem}_orderbook_{config.levels}.csv",
            day.events,
            config.levels,
        )
    print(f"wrote {len(days)} synthetic days to {config.out_dir}")
    return 0


def cmd_compute(config: RunConfig) -> int:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    days = load_days(config)
    grid = build_grid(config.session, config.grid)
    rows: list[list[str]] = []
    for day in sorted(days, key=lambda d: d.trading_date):
        comp = compute_day_samples(
            day, grid.boundaries_ns, grid.n_sub, config.levels
        )
        for sample in comp.samples:
            if sample is not None:
                rows.append(sample_csv_row(sample))
    path = config.out_dir / "samples.csv"
    _write_csv(path, sample_csv_header(config.levels), rows)
    print(f"wrote {len(rows)} samples to {path}")
    return 0


def cmd_fit(config: RunConfig) -> int:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    days = load_days(config)
    if not days:
        raise TooFewRows("no input days")
    grid = build_grid(config.session, config.grid)
    problems, _, _ = assemble_windows(
        days, grid, config.levels, config.session.tick_size
    )
    tables = fit_tables(
        problems,
        config.levels,
        config.methods,
        config.folds,
        config.lambda_grid,
        config.penalize_intercept,
        config.lambda_mode,
    )
    _warn_left_out(tables.significance, len(problems), config)
    _write_significance(config.out_dir, "fits", tables.significance, config.levels)
    _write_json(
        config.out_dir / "fits.json",
        {
            "schema_version": SCHEMA_VERSION,
            "levels": config.levels,
            "n_problems": len(problems),
            "lambda_hat": tables.search.lambda_hat if tables.search else None,
            "tables": _to_json(tables.significance),
        },
    )
    print(f"wrote fit tables for {len(problems)} windows to {config.out_dir}")
    return 0


def cmd_evaluate(config: RunConfig) -> int:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    days = load_days(config)
    if not days:
        raise TooFewRows("no input days")
    report = run_evaluation(
        days,
        config.session,
        config.grid,
        config.levels,
        config.methods,
        config.folds,
        config.lambda_grid,
        config.penalize_intercept,
        config.lambda_mode,
    )
    _warn_left_out(report.significance, report.n_problems, config)
    _write_report_files(report, config)
    print(f"wrote evaluation report to {config.out_dir}")
    return 0


def _write_report_files(report: EvaluationReport, config: RunConfig) -> None:
    out = config.out_dir
    _write_json(out / "report.json", report_to_dict(report))

    rows = []
    for method, curve in sorted(report.r2_curves.items()):
        for m, v in enumerate(curve, start=1):
            rows.append([method, str(m), _fmt(v)])
    _write_csv(out / "r2_curve.csv", ["method", "levels", "mean_adj_r2"], rows)

    rows = []
    for method, curve in sorted(report.rmse_curves.items()):
        for p in curve:
            rows.append([method, str(p.levels), _fmt(p.in_sample), _fmt(p.out_sample)])
    _write_csv(
        out / "rmse_curves.csv",
        ["method", "levels", "in_sample_rmse_ticks", "out_sample_rmse_ticks"],
        rows,
    )

    imp = report.improvement
    _write_csv(
        out / "improvement.csv",
        ["fit", "out_sample_rmse_ticks", "improvement_vs_ofi"],
        [
            ["ofi", _fmt(imp.ofi_rmse), ""],
            ["mlofi_ols", _fmt(imp.mlofi_ols_rmse), _fmt(imp.improvement_ols)],
            ["mlofi_ridge", _fmt(imp.mlofi_ridge_rmse), _fmt(imp.improvement_ridge)],
        ],
    )

    if report.lambda_search is not None:
        _write_csv(
            out / "lambda_cv.csv",
            ["lambda", "cv_mse"],
            [
                [_fmt(lam), _fmt(err)]
                for lam, err in zip(
                    report.lambda_search.grid, report.lambda_search.cv_errors
                )
            ],
        )

    if report.diagnostics is not None:
        m = report.diagnostics.corr.shape[0]
        _write_csv(
            out / "correlation.csv",
            ["component"] + [f"c{j + 1}" for j in range(m)],
            [
                [f"c{i + 1}"] + [_fmt(v) for v in report.diagnostics.corr[i]]
                for i in range(m)
            ],
        )
        _write_csv(
            out / "eigenvalues.csv",
            ["rank", "eigenvalue"],
            [
                [str(i + 1), _fmt(v)]
                for i, v in enumerate(report.diagnostics.eigenvalues)
            ],
        )

    _write_significance(out, "significance", report.significance, report.levels)
    if report.ofi_significance is not None:
        _write_significance(out, "significance", {"ofi_ols": report.ofi_significance}, 1)

    for method, arr in sorted(report.seasonality.items()):
        header = ["window_i"] + _coef_names(report.levels)
        rows = [
            [str(i)] + [_fmt(v) for v in arr[i]] for i in range(arr.shape[0])
        ]
        _write_csv(out / f"seasonality_{method}.csv", header, rows)

    for name, summary in (
        ("book_summary.csv", report.book_summary),
        ("book_summary_event.csv", report.book_summary_event_weighted),
    ):
        rows = [
            ["mean_mid_dollars", _fmt(summary.mean_mid_dollars)],
            ["mean_spread_dollars", _fmt(summary.mean_spread_dollars)],
        ]
        for i, v in enumerate(summary.mean_bid_depth, start=1):
            rows.append([f"mean_bid_depth_{i}", _fmt(v)])
        for i, v in enumerate(summary.mean_ask_depth, start=1):
            rows.append([f"mean_ask_depth_{i}", _fmt(v)])
        _write_csv(out / name, ["stat", "value"], rows)

    fc = report.flow_concentration
    _write_csv(
        out / "flow_concentration.csv",
        ["bucket", "count_pct", "volume_pct"],
        [
            ["within_spread", _fmt(fc.count_pct[0]), _fmt(fc.volume_pct[0])],
            ["at_best", _fmt(fc.count_pct[1]), _fmt(fc.volume_pct[1])],
            ["deeper", _fmt(fc.count_pct[2]), _fmt(fc.volume_pct[2])],
        ],
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = resolve_config(args)
        if args.command == "synth":
            return cmd_synth(config)
        if args.command == "compute":
            return cmd_compute(config)
        if args.command == "fit":
            return cmd_fit(config)
        if args.command == "evaluate":
            return cmd_evaluate(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
