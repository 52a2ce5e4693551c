"""Batch command-line front end: ingest -> imbalance -> fit -> evaluate.

Subcommands: ``synth`` writes LOBSTER-format fixture files day by day;
``compute`` dumps per-interval imbalance samples, ``fit`` writes
per-coefficient summary tables and ``evaluate`` the full report (JSON +
CSVs), each rendering every file before it makes the output directory, so a
failed run leaves none.

Configuration comes from ``key = value`` lines in a config file, overridden
by command-line flags; the output directory may additionally be overridden
by the MLOFI_OUTPUT_DIR environment variable, which a ``--out`` flag beats.
Each flag's config key is its name with ``_`` for ``-`` (``--lambda-mode``
is ``lambda_mode``); ``--no-penalize-intercept`` is ``penalize_intercept =
false``. Numbers are ASCII decimal: an integer is ``[+-]digits`` and a real
number a finite decimal literal, either padded by whatever ``str.strip``
removes. A value of the wrong type or out of its range, from a flag or a
file, is a configuration error naming the key. A config file is UTF-8 text.
All randomness derives from the single ``seed`` value. Exit codes: 0
success, 1 configuration error or an operating-system error on a path (an
``--out`` that names a file, a glob that matches a directory), 2 data
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as dt
import gc
import glob
import io
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import evaluation
from .errors import BadValue, ConfigError, DataError, EmptySession, NumericalError
from .evaluation import EvaluationReport, FitSpec, assemble_windows, fit_tables, run_evaluation
from .imbalance import compute_day_samples
from .inference import MIN_ROWS_PER_FOLD, SignificanceSummary
from .lobster import (
    DaySlice,
    SessionConfig,
    date_from_filename,
    hms_to_seconds,
    open_text,
    parse_message_file,
    write_message_file,
    write_orderbook_file,
)
from .sampling import GridSpec, build_grid
from .synth import ZiParams, generate_zi_day

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "MLOFI_OUTPUT_DIR"

#: Every run option, once: (config key, flags, type, default, help). The
#: parser, the config-file key check and ``resolve_config`` all read it. A
#: bool option is a flag that flips its default.
_OPTIONS: tuple[tuple[str, tuple[str, ...], type, object, str], ...] = (
    ("messages", ("--messages",), str, None, "glob of LOBSTER message CSV files"),
    ("orderbooks", ("--orderbooks",), str, None, "glob of orderbook CSVs used as seeds"),
    ("synth_days", ("--synth-days",), int, None,
     "generate this many synthetic days instead of reading files"),
    ("start_date", ("--start-date",), str, "2016-01-04",
     "date of the first (synthetic) day, YYYY-MM-DD"),
    ("session_start", ("--session-start",), str, "10:00", "e.g. 10:00"),
    ("session_end", ("--session-end",), str, "15:30", "e.g. 15:30"),
    ("include_hidden", ("--include-hidden",), bool, False,
     "keep hidden executions (excluded by default)"),
    ("tick", ("--tick",), int, SessionConfig.tick_size, "tick size in 1e-4 dollar units"),
    ("dt", ("--dt",), int, GridSpec.subwindow_seconds, "sub-window length in seconds"),
    ("DT", ("--DT",), int, GridSpec.window_seconds, "window length in seconds"),
    ("levels", ("--levels", "-M"), int, 10, "imbalance depth M"),
    ("methods", ("--methods",), str, ",".join(FitSpec.methods), "comma list from {ols,ridge}"),
    ("lambda_grid", ("--lambda-grid",), str, None, "LO,HI,COUNT for the log-spaced penalty grid"),
    ("lambda_mode", ("--lambda-mode",), str, FitSpec.lambda_mode, "pooled or per-window"),
    ("folds", ("--folds",), int, FitSpec.folds, "cross-validation folds"),
    ("penalize_intercept", ("--no-penalize-intercept",), bool, FitSpec.penalize_intercept,
     "leave the intercept out of the ridge penalty"),
    ("out", ("--out",), str, "mlofi_out", "output directory"),
    ("seed", ("--seed",), int, 0, "master seed for all randomness"),
    ("zi_limit_rate", ("--zi-limit-rate",), float, ZiParams.limit_rate, "limits/s per level"),
    ("zi_market_rate", ("--zi-market-rate",), float, ZiParams.market_rate, "markets/s per side"),
    ("zi_cancel_rate", ("--zi-cancel-rate",), float, ZiParams.cancel_rate, "cancels/s per order"),
    ("zi_band", ("--zi-band",), int, ZiParams.price_band, "limit price band in ticks"),
    ("zi_mean_size", ("--zi-mean-size",), float, ZiParams.mean_size, "mean order size"),
)

#: The option key of each dataclass field named otherwise, so that a range
#: error names what the user wrote.
_KEY_OF_FIELD = {
    "tick_size": "tick", "window_seconds": "DT", "subwindow_seconds": "dt",
    "limit_rate": "zi_limit_rate", "market_rate": "zi_market_rate",
    "cancel_rate": "zi_cancel_rate", "price_band": "zi_band", "mean_size": "zi_mean_size",
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
    fit: FitSpec
    out_dir: Path
    zi: ZiParams  # its seed is the run's seed, that of the first synthetic day

    def validate(self) -> None:
        if (self.messages is None) == (self.synth_days is None):
            raise ConfigError(
                "exactly one of a messages glob or a synth-days count is required"
            )
        if self.synth_days is not None and self.synth_days < 0:
            raise ConfigError(f"synth_days must be >= 0, got {self.synth_days}")
        if self.synth_days:
            _nth_day(self.start_date, self.synth_days - 1)  # every day has a date
        if self.orderbooks is not None and self.messages is None:
            raise ConfigError("an orderbooks glob needs a messages glob to pair with")
        if not (1 <= self.levels <= 50):
            raise ConfigError(f"levels must be in [1, 50], got {self.levels}")
        rows = self.grid.window_seconds // self.grid.subwindow_seconds
        if rows < self.fit.min_window_rows:
            raise ConfigError(
                f"per-window lambda needs DT/dt >= {self.fit.min_window_rows} "
                f"rows per window with {self.fit.folds} folds, got {rows}"
            )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we want 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mlofi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file")
        for key, flags, kind, default, doc in _OPTIONS:
            if kind is bool:
                action = "store_false" if default else "store_true"
                p.add_argument(*flags, dest=key, action=action, default=None, help=doc)
            else:
                p.add_argument(*flags, dest=key, default=None, help=doc)
    return parser


#: What ``open_text`` makes of a byte that is not UTF-8.
_UNDECODED = re.compile("[\udc80-\udcff]")


def parse_config_file(path: str | Path) -> dict[str, str]:
    keys = {key for key, *_ in _OPTIONS}
    values: dict[str, str] = {}
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            if line_no == 1:
                raw = raw.removeprefix("\ufeff")  # a byte-order mark some editors write
            if _UNDECODED.search(raw):
                raise ConfigError(f"{path}:{line_no}: a byte that is not UTF-8 text")
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in keys:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = val
    return values


# int() and float() alone would also read other scripts' digits, '_' and the
# words inf and nan.
_NUMBER_TEXT = {
    int: (re.compile(r"[+-]?[0-9]+"), "an ASCII integer"),
    float: (re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"),
            "a finite ASCII decimal number"),
}


def _from_text(key: str, kind: type, text: str):
    """An option's text, from a flag or a config file, cast to its type."""
    if kind is str:
        return text
    if kind is bool:
        word = text.lower()
        if word in ("true", "1", "yes"):
            return True
        if word in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key} must be true/false, got {text!r}")
    grammar, name = _NUMBER_TEXT[kind]
    word = text.strip()
    try:
        value = kind(word) if grammar.fullmatch(word) else None
    except ValueError:  # int() reads at most sys.get_int_max_str_digits() digits
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"{key} must be {name}, got {text!r}")
    return value


def _lambda_grid(text: str) -> tuple[float, ...]:
    """The penalty grid of a LO,HI,COUNT text: COUNT log-spaced values from LO to HI."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"lambda_grid must be LO,HI,COUNT, got {text!r}")
    lo, hi = (_from_text("lambda_grid", float, part) for part in parts[:2])
    count = _from_text("lambda_grid", int, parts[2])
    if not (0 < lo < hi and count >= 2):
        raise ConfigError("lambda_grid needs 0 < LO < HI and COUNT >= 2")
    return tuple(np.geomspace(lo, hi, count).tolist())


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < environment (out dir) < flags."""
    file_vals = parse_config_file(args.config) if args.config else {}
    opts = {}
    for key, _, kind, default, _ in _OPTIONS:
        value = getattr(args, key)
        if value is None and key == "out":
            value = os.environ.get(OUTPUT_DIR_ENV)
        if value is None:
            value = file_vals.get(key)
        if isinstance(value, str):  # bool flags arrive as bools
            value = _from_text(key, kind, value)
        opts[key] = default if value is None else value

    for key in ("session_start", "session_end"):
        try:
            opts[key] = hms_to_seconds(opts[key])
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    try:
        start_date = dt.date.fromisoformat(opts["start_date"])
    except ValueError as exc:
        raise ConfigError(f"bad start_date: {exc}")

    try:
        config = RunConfig(
            messages=opts["messages"],
            orderbooks=opts["orderbooks"],
            synth_days=opts["synth_days"],
            start_date=start_date,
            session=SessionConfig(
                session_start=opts["session_start"],
                session_end=opts["session_end"],
                exclude_hidden=not opts["include_hidden"],
                tick_size=opts["tick"],
            ),
            grid=GridSpec(window_seconds=opts["DT"], subwindow_seconds=opts["dt"]),
            levels=opts["levels"],
            fit=FitSpec(
                methods=tuple(m.strip() for m in opts["methods"].split(",") if m.strip()),
                folds=opts["folds"],
                lambda_grid=(
                    FitSpec.lambda_grid if opts["lambda_grid"] is None
                    else _lambda_grid(opts["lambda_grid"])
                ),
                lambda_mode=opts["lambda_mode"],
                penalize_intercept=opts["penalize_intercept"],
            ),
            out_dir=Path(opts["out"]),
            zi=ZiParams(
                limit_rate=opts["zi_limit_rate"],
                market_rate=opts["zi_market_rate"],
                cancel_rate=opts["zi_cancel_rate"],
                price_band=opts["zi_band"],
                mean_size=opts["zi_mean_size"],
                seed=opts["seed"],
            ),
        )
    except BadValue as exc:
        raise ConfigError(f"{_KEY_OF_FIELD.get(exc.name, exc.name)} {exc.rule}") from None
    config.validate()
    return config


# -- data loading --------------------------------------------------------------


def _nth_day(start_date: dt.date, i: int) -> dt.date:
    """The date ``i`` days after ``start_date``; a ConfigError past the last date."""
    if i > (dt.date.max - start_date).days:
        raise ConfigError(f"start_date {start_date} + {i} days is past {dt.date.max}")
    return start_date + dt.timedelta(days=i)


def load_days(config: RunConfig) -> Iterator[DaySlice]:
    """Parse input files or generate deterministic synthetic days, one at a time.

    This is where every day gets its date. Synthetic day i falls on
    ``start_date`` + i; a file's date, from its name or else ``start_date``
    + its index in path order, is known before any file is read. The days
    come in date order, ties in path order. Each is parsed only when asked
    for. A messages glob that matches no file is a ConfigError.
    """
    if config.synth_days is not None:
        for i in range(config.synth_days):
            yield generate_zi_day(
                dataclasses.replace(config.zi, seed=config.zi.seed + i),  # per-day stream
                config.session,
                _nth_day(config.start_date, i),
            )
        return

    paths = sorted(glob.glob(config.messages))
    if not paths:
        raise ConfigError(f"messages glob {config.messages!r} matches no file")
    seed_paths = {}
    if config.orderbooks:
        by_name = {Path(p).name: p for p in glob.glob(config.orderbooks)}
        for path in paths:
            name = Path(path).name.replace("_message_", "_orderbook_")
            if name not in by_name:
                raise ConfigError(f"message file {path} has no orderbook file {name}")
            seed_paths[path] = by_name[name]
    dates = [date_from_filename(Path(path).name) or _nth_day(config.start_date, i)
             for i, path in enumerate(paths)]
    for date, path in sorted(zip(dates, paths), key=lambda pair: pair[0]):
        try:  # no name holds the day while the consumer has it
            yield parse_message_file(path, config.session, date, seed_paths.get(path))
        except EmptySession as exc:
            print(f"warning: skipping {exc}", file=sys.stderr)


# -- output --------------------------------------------------------------------


def _cell(x) -> str:
    """One CSV cell: None is empty, text and ints as they are, any other
    number its float repr (NaN is written as nan)."""
    if x is None:
        return ""
    if isinstance(x, (str, int)):
        return str(x)
    return repr(float(x))


def _csv(header: list[str], rows: Iterable[Iterable]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(x) for x in row] for row in rows)
    return buf.getvalue()


def _to_json(obj):
    """Dataclasses, dicts, sequences and numpy values as plain JSON values.

    Non-finite floats become null: strict JSON has no NaN or Infinity.
    """
    if dataclasses.is_dataclass(obj):
        return {f.name: _to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_to_json(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json(payload) -> str:
    """A dict or dataclass as strict JSON text, with ``schema_version``."""
    document = {"schema_version": SCHEMA_VERSION, **_to_json(payload)}
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_files(out: Path, files: dict[str, str]) -> None:
    """Make ``out`` and write each named text into it as it is."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, newline="")


def _coef_names(levels: int) -> list[str]:
    return ["alpha"] + [f"beta_{m}" for m in range(1, levels + 1)]


def _significance_files(
    prefix: str, tables: dict[str, SignificanceSummary], levels: int
) -> dict[str, str]:
    header = ["coef", "mean_value", "mean_se", "mean_t", "mean_p", "pct_significant_95"]
    files = {}
    for name, t in tables.items():
        columns = (t.mean_coeff, t.mean_se, t.mean_t, t.mean_p, t.pct_significant_95)
        rows = [[coef, *(c[j] for c in columns)] for j, coef in enumerate(_coef_names(levels))]
        files[f"{prefix}_{name}.csv"] = _csv(header, rows)
    return files


def _report_files(report: EvaluationReport) -> dict[str, str]:
    """Every file ``evaluate`` writes, by name."""
    imp, fc = report.improvement, report.flow_concentration
    files = {
        "report.json": _json(report),
        "r2_curve.csv": _csv(
            ["method", "levels", "mean_adj_r2"],
            [[method, m, v] for method, curve in sorted(report.r2_curves.items())
             for m, v in enumerate(curve, start=1)],
        ),
        "rmse_curves.csv": _csv(
            ["method", "levels", "in_sample_rmse_ticks", "out_sample_rmse_ticks"],
            [[method, p.levels, p.in_sample, p.out_sample]
             for method, curve in sorted(report.rmse_curves.items()) for p in curve],
        ),
        "improvement.csv": _csv(
            ["fit", "out_sample_rmse_ticks", "improvement_vs_ofi"],
            [
                ["ofi", imp.ofi_rmse, None],
                ["mlofi_ols", imp.mlofi_ols_rmse, imp.improvement_ols],
                ["mlofi_ridge", imp.mlofi_ridge_rmse, imp.improvement_ridge],
            ],
        ),
    }
    if report.lambda_search is not None:
        search = report.lambda_search
        files["lambda_cv.csv"] = _csv(["lambda", "cv_mse"], zip(search.grid, search.cv_errors))
    if report.diagnostics is not None:
        corr = report.diagnostics.corr
        files["correlation.csv"] = _csv(
            ["component"] + [f"c{j + 1}" for j in range(corr.shape[0])],
            [[f"c{i + 1}", *row] for i, row in enumerate(corr)],
        )
        files["eigenvalues.csv"] = _csv(
            ["rank", "eigenvalue"], enumerate(report.diagnostics.eigenvalues, start=1)
        )
    files.update(_significance_files("significance", report.significance, report.levels))
    if report.ofi_significance is not None:
        files.update(_significance_files("significance", {"ofi_ols": report.ofi_significance}, 1))
    for method, arr in sorted(report.seasonality.items()):
        files[f"seasonality_{method}.csv"] = _csv(
            ["window_i"] + _coef_names(report.levels), [[i, *row] for i, row in enumerate(arr)]
        )
    for name, summary in (
        ("book_summary.csv", report.book_summary),
        ("book_summary_event.csv", report.book_summary_event_weighted),
    ):
        files[name] = _csv(["stat", "value"], [
            ["mean_mid_dollars", summary.mean_mid_dollars],
            ["mean_spread_dollars", summary.mean_spread_dollars],
            *([f"mean_bid_depth_{i}", v] for i, v in enumerate(summary.mean_bid_depth, start=1)),
            *([f"mean_ask_depth_{i}", v] for i, v in enumerate(summary.mean_ask_depth, start=1)),
        ])
    files["flow_concentration.csv"] = _csv(
        ["bucket", "count_pct", "volume_pct"],
        zip(("within_spread", "at_best", "deeper"), fc.count_pct, fc.volume_pct),
    )
    return files


def _warn_left_out(
    tables: dict[str, SignificanceSummary], n_problems: int, spec: FitSpec
) -> None:
    """One stderr line per method whose table covers fewer than all windows."""
    for method, summary in tables.items():
        if summary.n_fits == n_problems:
            continue
        reason = "rank-deficient"
        if method == evaluation.RIDGE and spec.min_window_rows:
            reason = f"with fewer than {MIN_ROWS_PER_FOLD} rows per fold"
        print(
            f"warning: {method}: {n_problems - summary.n_fits} of {n_problems} "
            f"windows {reason}, left out of the table",
            file=sys.stderr,
        )


# -- subcommands -----------------------------------------------------------------
# Days are consumed through map(), which drops a day before it asks for the
# next: a loop variable would keep day k alive while day k + 1 is made.


def cmd_synth(config: RunConfig) -> int:
    if config.synth_days is None:
        raise ConfigError("synth requires --synth-days")
    config.out_dir.mkdir(parents=True, exist_ok=True)

    def write_day(day: DaySlice) -> None:
        stem = f"SYN_{day.trading_date.isoformat()}"
        write_message_file(config.out_dir / f"{stem}_message_{config.levels}.csv", day.columns)
        write_orderbook_file(
            config.out_dir / f"{stem}_orderbook_{config.levels}.csv", day.columns, config.levels
        )

    for _ in map(write_day, load_days(config)):
        pass
    print(f"wrote {config.synth_days} synthetic days to {config.out_dir}")
    return 0


def cmd_compute(config: RunConfig) -> int:
    grid = build_grid(config.session, config.grid)
    comps = map(
        lambda day: compute_day_samples(day, grid.boundaries_ns, grid.n_sub, config.levels),
        load_days(config),
    )
    header = ["date", "window_i", "subwindow_k"]
    header += [f"mlofi_{m}" for m in range(1, config.levels + 1)]
    header += ["ofi", "ti", "delta_p_halfticks"]
    rows = [
        [s.date.isoformat(), s.window_index, s.sub_index, *s.mlofi, s.ofi, s.trade_imbalance,
         s.delta_p]
        for comp in comps for s in comp.samples if s is not None
    ]
    _write_files(config.out_dir, {"samples.csv": _csv(header, rows)})
    print(f"wrote {len(rows)} samples to {config.out_dir / 'samples.csv'}")
    return 0


def cmd_fit(config: RunConfig) -> int:
    grid = build_grid(config.session, config.grid)
    problems, _, _ = assemble_windows(
        load_days(config), grid, config.levels, config.session.tick_size
    )
    tables = fit_tables(problems, config.fit)
    _warn_left_out(tables.significance, len(problems), config.fit)
    fits = {
        "levels": config.levels,
        "n_problems": len(problems),
        "lambda_hat": tables.search.lambda_hat if tables.search else None,
        "tables": tables.significance,
    }
    _write_files(config.out_dir, {
        **_significance_files("fits", tables.significance, config.levels),
        "fits.json": _json(fits),
    })
    print(f"wrote fit tables for {len(problems)} windows to {config.out_dir}")
    return 0


def cmd_evaluate(config: RunConfig) -> int:
    report = run_evaluation(
        load_days(config), config.session, config.grid, config.levels, config.fit
    )
    _warn_left_out(report.significance, report.n_problems, config.fit)
    _write_files(config.out_dir, _report_files(report))
    print(f"wrote evaluation report to {config.out_dir}")
    return 0


#: subcommand -> (help, function of the resolved config giving the exit code)
_COMMANDS = {
    "synth": ("generate zero-intelligence fixture files", cmd_synth),
    "compute": ("dump per-interval imbalance samples as CSV", cmd_compute),
    "fit": ("write per-coefficient regression summary tables", cmd_fit),
    "evaluate": ("write the full evaluation report", cmd_evaluate),
}


#: Whether ``main`` has frozen the heap in this process.
_frozen = False


def main(argv: list[str] | None = None) -> int:
    global _frozen
    if not _frozen:
        # The imports (numpy, scipy, this package) live as long as the process.
        # Frozen before any input is read, they leave the collector's generations,
        # so a day's tens of thousands of new events no longer set off a full
        # collection that walks them: on one ZI day it took 17-29 ms of a run.
        # Once per process: a later call would pin whatever earlier calls left.
        # A flag, not gc.get_freeze_count(), which walks every frozen object.
        gc.freeze()
        _frozen = True
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][1](resolve_config(args))
    except (ConfigError, OSError) as exc:
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
