"""CLI subcommands: outputs, exit codes, config handling, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlofi.book import ASK_ABSENT
from mlofi.cli import main, parse_config_file
from mlofi.errors import ConfigError
from mlofi.inference import fit_windows, significance_summary
from mlofi.synth import PlantedParams, generate_planted_regression

WORKED_EXAMPLE = (
    "36000.000000000,1,1,10,140000,1\n"
    "36000.000000000,1,2,10,139000,1\n"
    "36000.000000000,1,3,5,145000,-1\n"
    "36005.000000000,1,4,7,141000,1\n"
)


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_compute_worked_example_fixture(tmp_path):
    fixture = tmp_path / "SYN_2016-01-05_message_3.csv"
    fixture.write_text(WORKED_EXAMPLE)
    out = tmp_path / "out"
    code = run_cli(
        "compute",
        "--messages", str(fixture),
        "--levels", "3",
        "--session-start", "10:00",
        "--session-end", "10:01",
        "--DT", "60",
        "--dt", "10",
        "--out", str(out),
    )
    assert code == 0
    rows = read_csv(out / "samples.csv")
    assert rows[0] == [
        "date", "window_i", "subwindow_k",
        "mlofi_1", "mlofi_2", "mlofi_3", "ofi", "ti", "delta_p_halfticks",
    ]
    first = rows[1]
    assert first[0] == "2016-01-05"  # parsed from the file name
    assert first[3:6] == ["7", "10", "10"]
    assert first[6] == "7"
    assert first[8] == "1000"  # mid moved from 142500 to 143000 (x2 units)
    assert len(rows) == 1 + 6


@pytest.mark.parametrize("command", ["compute", "fit", "evaluate"])
def test_messages_glob_matching_no_file_exits_1_naming_it(tmp_path, capsys, command):
    pattern = str(tmp_path / "nothing" / "*.csv")
    code = run_cli(command, "--messages", pattern, "--levels", "2", "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err == f"error: messages glob {pattern!r} matches no file\n"
    assert not (tmp_path / "o").exists()


def test_malformed_fixture_exit_2_names_line(tmp_path):
    fixture = tmp_path / "bad_message.csv"
    fixture.write_text("36001.0,1,1,10,140000,1\n36002.0,1,2,0,140000,1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "mlofi", "compute",
         "--messages", str(fixture), "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "line 2" in proc.stderr


def test_config_error_exit_1(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mlofi", "compute",
         "--messages", "x*.csv", "--synth-days", "2",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "error" in proc.stderr


@pytest.mark.parametrize("via_file", [False, True])
def test_orderbooks_without_messages_exit_1(tmp_path, capsys, via_file):
    # Synthetic days have no message files to pair orderbook files with.
    args = ["--synth-days", "1", "--levels", "1", "--session-end", "10:05", "--DT", "300"]
    if via_file:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("orderbooks = nothing*\n")
        args += ["--config", str(cfg)]
    else:
        args += ["--orderbooks", "nothing*"]
    assert run_cli("compute", *args, "--out", str(tmp_path / "o")) == 1
    assert "orderbooks" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_synth_then_compute_roundtrip(tmp_path):
    out = tmp_path / "fixtures"
    code = run_cli(
        "synth", "--synth-days", "2", "--seed", "3", "--levels", "3",
        "--session-start", "10:00", "--session-end", "10:10",
        "--DT", "600", "--dt", "10",
        "--zi-limit-rate", "0.2", "--zi-market-rate", "0.3",
        "--out", str(out),
    )
    assert code == 0
    messages = sorted(out.glob("*_message_*.csv"))
    orderbooks = sorted(out.glob("*_orderbook_*.csv"))
    assert len(messages) == 2 and len(orderbooks) == 2
    out2 = tmp_path / "samples"
    code = run_cli(
        "compute", "--messages", str(out / "*_message_*.csv"),
        "--levels", "3",
        "--session-start", "10:00", "--session-end", "10:10",
        "--DT", "600", "--dt", "10",
        "--out", str(out2),
    )
    assert code == 0
    rows = read_csv(out2 / "samples.csv")
    assert len(rows) > 100
    dates = {r[0] for r in rows[1:]}
    assert dates == {"2016-01-04", "2016-01-05"}


# A tick of 200000 put seeded bids at zero and below, one of 2e9 seeded asks past
# the absent-ask sentinel: compute crashed on such a day, and synth wrote
# message files that compute refused.
@pytest.mark.parametrize("tick", [200_000, 2_000_000_000])
def test_a_coarse_tick_keeps_every_synthetic_price_on_the_grid(tmp_path, tick):
    args = ["--session-end", "10:30", "--DT", "300", "--tick", str(tick)]
    assert run_cli("synth", "--synth-days", "1", *args, "--out", str(tmp_path / "fx")) == 0
    messages = list((tmp_path / "fx").glob("*_message_*.csv"))
    assert all(tick <= int(row[4]) < ASK_ABSENT for row in read_csv(messages[0]))
    assert run_cli("compute", "--synth-days", "1", *args, "--out", str(tmp_path / "a")) == 0
    assert run_cli("compute", "--messages", str(messages[0]), *args,
                   "--out", str(tmp_path / "b")) == 0
    samples = [(tmp_path / out / "samples.csv").read_bytes() for out in ("a", "b")]
    assert samples[0] == samples[1]


def test_fit_single_window_table_matches_fit(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "fit", "--synth-days", "1", "--seed", "11", "--levels", "2",
        "--session-start", "10:00", "--session-end", "10:30",
        "--DT", "1800", "--dt", "10",
        "--methods", "ols",
        "--out", str(out),
    )
    assert code == 0
    rows = read_csv(out / "fits_ols.csv")
    assert [r[0] for r in rows[1:]] == ["alpha", "beta_1", "beta_2"]
    # Single window: the table is one fit, so t = coeff / se must recompute.
    for r in rows[1:]:
        coeff, se, t = float(r[1]), float(r[2]), float(r[3])
        if se > 0:
            assert abs(t - coeff / se) < 1e-9
    payload = json.loads((out / "fits.json").read_text())
    assert payload["n_problems"] == 1
    assert payload["schema_version"] == 1


def test_fit_m1_ridge_at_tiny_lambda_matches_ols(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "fit", "--synth-days", "1", "--seed", "12", "--levels", "1",
        "--session-start", "10:00", "--session-end", "10:30",
        "--DT", "1800", "--dt", "10",
        "--methods", "ols,ridge",
        "--lambda-grid", "1e-12,1e-11,2",
        "--out", str(out),
    )
    assert code == 0
    ols_rows = read_csv(out / "fits_ols.csv")
    ridge_rows = read_csv(out / "fits_ridge.csv")
    for ro, rr in zip(ols_rows[1:], ridge_rows[1:]):
        assert float(rr[1]) == pytest.approx(float(ro[1]), rel=1e-6, abs=1e-12)
        assert float(rr[2]) == pytest.approx(float(ro[2]), rel=1e-6, abs=1e-12)


def test_fit_tables_recover_planted_truth():
    # The same summarization path cmd_fit uses, driven by the planted oracle.
    beta = (0.5, 2.0, 1.0, 0.5)
    problems = []
    for s in range(60):
        p, truth = generate_planted_regression(
            PlantedParams(true_beta=beta, noise_sd=1.0, collinearity=0.3, seed=s),
            rows=180,
            levels=3,
        )
        problems.append(p)
    table = significance_summary(fit_windows(problems))
    for j, true_val in enumerate(beta):
        assert abs(table.mean_coeff[j] - true_val) <= 3.0 * table.mean_se[j]


def test_evaluate_outputs_and_determinism(tmp_path):
    args = [
        "evaluate", "--synth-days", "2", "--seed", "5", "--levels", "3",
        "--session-start", "10:00", "--session-end", "10:30",
        "--DT", "900", "--dt", "10",
        "--zi-limit-rate", "0.15", "--zi-market-rate", "0.25",
        "--folds", "5",
    ]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert "report.json" in names
    for expected in (
        "r2_curve.csv", "rmse_curves.csv", "improvement.csv", "lambda_cv.csv",
        "correlation.csv", "eigenvalues.csv", "significance_ols.csv",
        "significance_ridge.csv", "significance_ofi_ols.csv",
        "seasonality_ols.csv", "seasonality_ridge.csv",
        "book_summary.csv", "book_summary_event.csv", "flow_concentration.csv",
    ):
        assert expected in names
    assert sorted(p.name for p in out2.iterdir()) == names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    assert report["schema_version"] == 1
    # Improvement figures recompute from their primitive columns.
    imp = report["improvement"]
    assert imp["improvement_ridge"] == pytest.approx(
        1.0 - imp["mlofi_ridge_rmse"] / imp["ofi_rmse"], abs=1e-10
    )
    lam = report["lambda_search"]
    assert lam["lambda_hat"] in lam["grid"]
    corr = np.array(report["diagnostics"]["corr"])
    assert np.allclose(corr, corr.T)
    assert abs(np.array(report["diagnostics"]["eigenvalues"]).sum() - 3) < 1e-8


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    fixture = tmp_path / "SYN_2016-01-05_message_3.csv"
    fixture.write_text(WORKED_EXAMPLE)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("MLOFI_OUTPUT_DIR", str(env_out))
    code = run_cli(
        "compute", "--messages", str(fixture), "--levels", "3",
        "--session-start", "10:00", "--session-end", "10:01",
        "--DT", "60", "--dt", "10",
    )
    assert code == 0
    assert (env_out / "samples.csv").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "levels = 4          # comment\n"
        "dt = 10\n"
        "DT = 60\n"
        "session_start = 10:00\n"
        "session_end = 10:01\n"
        "seed = 9\n"
    )
    fixture = tmp_path / "SYN_2016-01-05_message.csv"
    fixture.write_text(WORKED_EXAMPLE)
    out = tmp_path / "out"
    code = run_cli(
        "compute", "--config", str(cfg), "--messages", str(fixture),
        "--levels", "2",  # flag beats file
        "--out", str(out),
    )
    assert code == 0
    header = read_csv(out / "samples.csv")[0]
    assert "mlofi_2" in header and "mlofi_3" not in header
    assert parse_config_file(cfg)["levels"] == "4"
    with pytest.raises(ConfigError):
        parse_config_file_bad(tmp_path)


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\ufeffsynth_days = 1\nsession_end = 10:05\nDT = 300\n", encoding="utf-8")
    assert parse_config_file(cfg) == {"synth_days": "1", "session_end": "10:05", "DT": "300"}
    out = tmp_path / "out"
    assert run_cli("compute", "--config", str(cfg), "--levels", "2", "--out", str(out)) == 0
    assert len(read_csv(out / "samples.csv")) == 1 + 30


def parse_config_file_bad(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    parse_config_file(bad)


@pytest.mark.parametrize("line, key", [
    ("levels = abc", "levels"),
    ("seed = x", "seed"),
    ("zi_band = 2.5", "zi_band"),
    ("zi_mean_size = big", "zi_mean_size"),
    ("include_hidden = maybe", "include_hidden"),
])
def test_bad_config_value_exit_1_names_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code = run_cli("evaluate", "--config", str(cfg), "--synth-days", "1",
                   "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {key} must be ")
    assert "Traceback" not in err


# A value other than the default for every run option but the two bools and
# the input options: messages and orderbooks, or synth_days.
CONFIG_VALUES = {
    "start_date": "2017-02-01",
    "session_start": "09:45",
    "session_end": "15:00",
    "tick": "50",
    "dt": "5",
    "DT": "600",
    "levels": "4",
    "methods": "ridge",
    "lambda_grid": "0.001,100,7",
    "lambda_mode": "per-window",
    "folds": "3",
    "out": "elsewhere",
    "seed": "17",
    "zi_limit_rate": "0.07",
    "zi_market_rate": "0.2",
    "zi_cancel_rate": "0.003",
    "zi_band": "5",
    "zi_mean_size": "6.5",
}


@pytest.mark.parametrize("source", [
    {"messages": "data/*_message_*.csv", "orderbooks": "data/*_orderbook_*.csv"},
    {"synth_days": "3"},
])
def test_config_file_equals_flags(tmp_path, monkeypatch, source):
    from mlofi.cli import _OPTIONS, _build_parser, resolve_config

    monkeypatch.delenv("MLOFI_OUTPUT_DIR", raising=False)
    values = {**CONFIG_VALUES, **source}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items())
                   + "include_hidden = true\npenalize_intercept = false\n")
    flags = [a for k, v in values.items() for a in (f"--{k.replace('_', '-')}", v)]
    flags += ["--include-hidden", "--no-penalize-intercept"]
    unset = {key for key, *_ in _OPTIONS} - set(values)
    exclusive = {"messages", "orderbooks", "synth_days"} - set(source)
    assert unset == {"include_hidden", "penalize_intercept", *exclusive}

    parser = _build_parser()
    from_file = resolve_config(parser.parse_args(["evaluate", "--config", str(cfg)]))
    from_flags = resolve_config(parser.parse_args(["evaluate", *flags]))
    assert from_file == from_flags
    assert len(from_file.fit.lambda_grid) == 7
    assert not from_file.session.exclude_hidden and not from_file.fit.penalize_intercept
    assert (from_file.zi.price_band, from_file.zi.seed, from_file.levels) == (5, 17, 4)


@pytest.mark.parametrize("command", ["synth", "compute", "fit", "evaluate"])
def test_every_subcommands_help_lists_every_option(capsys, command):
    from mlofi.cli import _OPTIONS

    with pytest.raises(SystemExit):
        run_cli(command, "-h")
    text = capsys.readouterr().out
    for flag in ("--config", *(f for _, flags, *_ in _OPTIONS for f in flags)):
        assert f" {flag}" in text


SRC = Path(__file__).resolve().parent.parent / "src"
#: Prints the thread caps in effect when numpy is first imported, then runs
#: the entry point named by argv[1] on ``--help``.
WATCH_NUMPY = """
import importlib.abc, json, os, runpy, sys
from mlofi.__main__ import THREAD_CAPS
class Watch(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "numpy":
            print(json.dumps({k: os.environ.get(k) for k in THREAD_CAPS}))
            sys.meta_path.remove(self)
sys.meta_path.insert(0, Watch())
entry, sys.argv = sys.argv[1], ["mlofi", "--help"]
if entry == "module":
    runpy.run_module("mlofi", run_name="__main__")
elif entry == "script":
    from mlofi.__main__ import main
    sys.exit(main())
else:
    import mlofi.cli
"""


def caps_at_numpy_import(entry, **env):
    from mlofi.__main__ import THREAD_CAPS

    environ = {k: v for k, v in os.environ.items() if k not in THREAD_CAPS}
    proc = subprocess.run([sys.executable, "-c", WATCH_NUMPY, entry],
                          env={**environ, "PYTHONPATH": str(SRC), **env},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[0])


@pytest.mark.parametrize("entry", ["module", "script"])
def test_the_entry_point_caps_the_thread_pools_before_numpy_loads(entry):
    # python -m mlofi runs the module; the console script calls its main().
    assert set(caps_at_numpy_import(entry).values()) == {"1"}
    caps = caps_at_numpy_import(entry, OPENBLAS_NUM_THREADS="2")
    assert caps.pop("OPENBLAS_NUM_THREADS") == "2"
    assert set(caps.values()) == {"1"}


def test_importing_the_cli_sets_no_thread_cap():
    caps = caps_at_numpy_import("library")
    assert set(caps.values()) == {None}


def test_the_console_script_is_the_entry_point():
    text = (SRC.parent / "pyproject.toml").read_text()
    assert '\n[project.scripts]\nmlofi = "mlofi.__main__:main"\n' in text


def test_per_window_grid_too_short_exits_1(tmp_path):
    # 1800 s windows of 60 s intervals hold 30 rows, fewer than 10 per fold.
    for command in ("fit", "evaluate"):
        code = run_cli(
            command, "--synth-days", "1", "--seed", "3", "--levels", "5",
            "--dt", "60", "--lambda-mode", "per-window",
            "--out", str(tmp_path / command),
        )
        assert code == 1


@pytest.mark.parametrize("mode", ["pooled", "per-window"])
def test_fit_tables_equal_evaluate_significance(tmp_path, mode):
    args = [
        "--synth-days", "1", "--seed", "8", "--levels", "3",
        "--session-start", "10:00", "--session-end", "11:00",
        "--DT", "600", "--dt", "10", "--lambda-mode", mode,
    ]
    assert run_cli("fit", *args, "--out", str(tmp_path / "fit")) == 0
    assert run_cli("evaluate", *args, "--out", str(tmp_path / "eval")) == 0
    fits = json.loads((tmp_path / "fit" / "fits.json").read_text())
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert fits["tables"] == report["significance"]
    assert set(fits["tables"]) == {"ols", "ridge"}
    for method in ("ols", "ridge"):
        assert (tmp_path / "fit" / f"fits_{method}.csv").read_bytes() == (
            tmp_path / "eval" / f"significance_{method}.csv"
        ).read_bytes()


SPARSE_BOOK = [
    "--synth-days", "2", "--seed", "3", "--session-end", "11:00", "--DT", "600",
    "--dt", "10", "--zi-limit-rate", "0.01", "--zi-market-rate", "0.02", "--zi-band", "3",
]


def test_ofi_table_at_one_level_is_the_ols_table(tmp_path):
    # At one level the level-1 OFI fits are the OLS table's fits.
    out = tmp_path / "out"
    assert run_cli("evaluate", "--synth-days", "2", "--seed", "7", "--session-end", "11:00",
                   "--levels", "1", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ofi_significance"] == report["significance"]["ols"]
    assert set(report["ofi_significance"]) == {
        "mean_coeff", "mean_se", "mean_t", "mean_p", "pct_significant_95", "n_fits"}
    assert (out / "significance_ofi_ols.csv").read_bytes() == (
        out / "significance_ols.csv").read_bytes()


def test_windows_left_out_of_a_table_are_reported(tmp_path, capsys):
    assert run_cli("fit", *SPARSE_BOOK, "--levels", "5", "--out", str(tmp_path / "fit")) == 0
    err = capsys.readouterr().err
    assert err == "warning: ols: 8 of 12 windows rank-deficient, left out of the table\n"
    fits = json.loads((tmp_path / "fit" / "fits.json").read_text())
    assert (fits["n_problems"], fits["tables"]["ols"]["n_fits"]) == (12, 4)
    assert fits["tables"]["ridge"]["n_fits"] == 12

    code = run_cli(
        "evaluate", *SPARSE_BOOK, "--levels", "3", "--lambda-mode", "per-window",
        "--out", str(tmp_path / "eval"),
    )
    assert code == 0
    lines = capsys.readouterr().err.splitlines()
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    left_out = report["n_problems"] - report["significance"]["ridge"]["n_fits"]
    assert left_out > 0
    assert (
        f"warning: ridge: {left_out} of {report['n_problems']} windows with fewer "
        "than 10 rows per fold, left out of the table"
    ) in lines


def test_orderbook_seed_depth_comes_from_the_row(tmp_path):
    from mlofi.book import BookState, EventKind, LobEvent, Side, level_snapshot
    from mlofi.cli import _build_parser, load_days, resolve_config

    # A 10-level row on each side, written as the first orderbook row.
    state = BookState()
    for m in range(10):
        for oid, side, price in ((2 * m, Side.BUY, 140000 - 100 * m),
                                 (2 * m + 1, Side.SELL, 140200 + 100 * m)):
            state.apply(LobEvent(36_000 * 10**9, EventKind.LIMIT_ARRIVAL,
                                 oid, m + 1, price, side))
    # A pre-session message makes the first row the session-start book as is.
    messages = tmp_path / "SYN_2016-01-05_message_10.csv"
    messages.write_text("35999.000000000,5,0,1,140000,1\n" + WORKED_EXAMPLE)
    orderbook = tmp_path / "SYN_2016-01-05_orderbook_10.csv"
    orderbook.write_text(",".join(map(str, level_snapshot(state, 10))) + "\n")
    seeds = []
    for levels in ("1", "5", "10"):
        args = _build_parser().parse_args([
            "compute", "--messages", str(messages), "--orderbooks", str(orderbook),
            "--levels", levels,
        ])
        seeds.append(next(load_days(resolve_config(args))).seed)
    assert seeds[0] == seeds[1] == seeds[2]
    assert seeds[0].bids == tuple((140000 - 100 * m, m + 1) for m in range(10))
    assert seeds[0].asks == tuple((140200 + 100 * m, m + 1) for m in range(10))


def test_report_json_is_strict_with_null_for_nan(tmp_path):
    out = tmp_path / "eval"
    assert run_cli("evaluate", *SPARSE_BOOK, "--levels", "5", "--out", str(out)) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    rows = report["seasonality"]["ols"]
    unfit = [row for row in rows if row[0] is None]
    assert sum(v is None for row in rows for v in row) == 18
    assert all(all(v is None for v in row) for row in unfit)
    assert (out / "report.json").read_text().count("null") == 18


def test_json_values_of_arrays_are_their_python_scalars():
    # One .tolist() per array gives what converting each element would:
    # Python floats, ints and bools, nested as the array is, and null where
    # a float is not finite.
    from mlofi.cli import _to_json

    got = _to_json({"f": np.array([[1.5, np.nan], [-np.inf, -0.0]]), "i": np.arange(2),
                    "b": np.array([True, False]), "0-d": np.array(2.5), "scalar": np.int64(7)})
    assert got == {"f": [[1.5, None], [None, -0.0]], "i": [0, 1], "b": [True, False],
                   "0-d": 2.5, "scalar": 7}
    assert [type(v) for v in (got["f"][0][0], got["i"][0], got["b"][0], got["scalar"])] == [
        float, int, bool, int]


def test_orderbook_paired_by_name_not_by_index(tmp_path, capsys):
    # Messages for one date and an orderbook only for the next: no pair.
    messages = tmp_path / "SYN_2016-01-04_message_1.csv"
    messages.write_text(WORKED_EXAMPLE)
    (tmp_path / "SYN_2016-01-05_orderbook_1.csv").write_text("140100,5,140000,10\n")
    code = run_cli(
        "compute", "--messages", str(messages),
        "--orderbooks", str(tmp_path / "*_orderbook_*.csv"),
        "--levels", "1", "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert str(messages) in capsys.readouterr().err
    assert not (tmp_path / "out" / "samples.csv").exists()


@pytest.fixture(scope="module")
def synth_orderbooks(tmp_path_factory):
    """Two synthetic days with 10-level orderbooks, and their samples without them."""
    root = tmp_path_factory.mktemp("synth")
    assert run_cli(
        "synth", "--synth-days", "2", "--seed", "1", "--levels", "10",
        "--out", str(root / "fx"),
    ) == 0
    assert run_cli(
        "compute", "--messages", str(root / "fx" / "*_message_*"), "--levels", "10",
        "--out", str(root / "plain"),
    ) == 0
    return root


def compute_seeded(fixtures, out, *args):
    return run_cli(
        "compute", "--messages", str(fixtures / "*_message_*"),
        "--orderbooks", str(fixtures / "*_orderbook_*"), "--levels", "10",
        "--out", str(out), *args,
    )


def test_synth_then_compute_with_orderbooks_matches_without(tmp_path, synth_orderbooks):
    assert compute_seeded(synth_orderbooks / "fx", tmp_path / "seeded") == 0
    seeded = (tmp_path / "seeded" / "samples.csv").read_bytes()
    assert seeded == (synth_orderbooks / "plain" / "samples.csv").read_bytes()
    assert seeded.count(b"\n") > 1000


def test_orderbook_seed_from_a_later_row_skips_orders_beyond_it(tmp_path, synth_orderbooks):
    # From 10:30 the seed is the 10-level row of the last earlier message.
    # Orders resting beyond it are cancelled later; the row could not show
    # them, so their removal leaves the book as it is. Every level the row
    # keeps exact agrees with the replay from 10:00; levels 7-10 may not.
    assert compute_seeded(
        synth_orderbooks / "fx", tmp_path / "late", "--session-start", "10:30"
    ) == 0
    late = read_csv(tmp_path / "late" / "samples.csv")
    plain = read_csv(synth_orderbooks / "plain" / "samples.csv")
    header = plain[0]
    keep = [header.index(c) for c in header[3:9] + ["ofi", "ti", "delta_p_halfticks"]]
    by_interval = {(row[0], int(row[1]), row[2]): row for row in plain[1:]}
    assert len(late) - 1 == 2 * 10 * 180
    for row in late[1:]:
        # 10:30 opens the second 30-minute window of the 10:00 session.
        twin = by_interval[(row[0], int(row[1]) + 1, row[2])]
        assert [row[i] for i in keep] == [twin[i] for i in keep]


def test_each_message_file_is_read_once(tmp_path, monkeypatch, synth_orderbooks):
    # The parse that yields a day's events also picks its seed row.
    import builtins

    opened = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    for start in ("10:00", "10:30"):
        opened.clear()
        assert compute_seeded(synth_orderbooks / "fx", tmp_path / start.replace(":", ""),
                              "--session-start", start, "--session-end", "11:00") == 0
        messages = [name for name in opened if "_message_" in name]
        assert len(messages) == 2 and len(set(messages)) == 2
        assert len([name for name in opened if "_orderbook_" in name]) == 2


def test_orderbook_without_the_seed_row_is_a_data_error(tmp_path, capsys):
    # Two messages before the session need orderbook row 2; a missing row
    # stops the run rather than skipping the day as an empty session.
    messages = tmp_path / "SYN_2016-01-05_message_1.csv"
    messages.write_text("35990.0,1,1,10,140000,1\n35991.0,1,2,10,140200,-1\n"
                        "36001.0,1,3,10,140100,-1\n")
    (tmp_path / "SYN_2016-01-05_orderbook_1.csv").write_text("9999999999,0,140000,10\n")
    code = run_cli("compute", "--messages", str(messages),
                   "--orderbooks", str(tmp_path / "*_orderbook_*"), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "no orderbook row 2" in capsys.readouterr().err


# One row per message field, each with a non-ASCII digit: '٢' and '٠' are
# Arabic-Indic digits int() reads, the superscripts are digits it rejects.
NON_ASCII_ROWS = [
    "3600٢.5,1,2,10,140000,1",
    "36002.٥,1,2,10,140000,1",
    "36002.5,¹,2,10,140000,1",
    "36002.5,1,²,10,140000,1",
    "36002.5,1,2,1٠,140000,1",
    "36002.5,1,2,10,14000٠,1",
    "36002.5,1,2,10,140000,١",
]


@pytest.mark.parametrize("row", NON_ASCII_ROWS)
def test_non_ascii_digit_in_a_message_is_a_data_error(tmp_path, capsys, row):
    messages = tmp_path / "SYN_2016-01-05_message_1.csv"
    messages.write_text(f"36001.0,1,1,10,140000,1\n{row}\n", encoding="utf-8")
    code = run_cli("compute", "--messages", str(messages), "--out", str(tmp_path / "o"))
    assert code == 2
    assert f"line 2: malformed row {row!r}" in capsys.readouterr().err


@pytest.mark.parametrize("field", range(4))
def test_non_ascii_digit_in_an_orderbook_row_is_a_data_error(tmp_path, capsys, field):
    messages = tmp_path / "SYN_2016-01-05_message_1.csv"
    messages.write_text("35990.0,1,1,10,140000,1\n36001.0,1,2,10,140200,-1\n")
    row = ["9999999999", "0", "140000", "10"]
    row[field] = row[field][:-1] + chr(ord("٠") + int(row[field][-1]))  # the same digit
    (tmp_path / "SYN_2016-01-05_orderbook_1.csv").write_text(
        "\n" + ",".join(row) + "\n", encoding="utf-8")
    code = run_cli("compute", "--messages", str(messages),
                   "--orderbooks", str(tmp_path / "*_orderbook_*"), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "line 2: malformed row" in capsys.readouterr().err


@pytest.mark.parametrize("start, end, bad", [
    ("1²:00", "10:05", "1²:00"),
    ("١٠:00", "10:05", "١٠:00"),
    ("10:00", "10:0٥", "10:0٥"),
])
def test_non_ascii_digit_in_a_time_of_day_is_a_config_error(tmp_path, capsys, start, end, bad):
    code = run_cli("compute", "--synth-days", "1", "--session-start", start,
                   "--session-end", end, "--DT", "300", "--out", str(tmp_path / "o"))
    assert code == 1
    assert f"bad time of day: {bad!r}" in capsys.readouterr().err


# int() reads at most sys.get_int_max_str_digits() digits; each of these
# numbers crashed with its ValueError.
TOO_LONG = "1" * (sys.get_int_max_str_digits() + 1)
TOO_LONG_REASON = f"a number longer than {sys.get_int_max_str_digits()} digits"


def test_a_number_too_long_to_read_in_a_message_is_a_data_error(tmp_path, capsys):
    messages = tmp_path / "SYN_2016-01-05_message_1.csv"
    messages.write_text(f"36001.0,1,1,10,140000,1\n36002.0,1,{TOO_LONG},10,140000,1\n")
    code = run_cli("compute", "--messages", str(messages), "--out", str(tmp_path / "o"))
    assert code == 2
    assert capsys.readouterr().err == f"data error: {messages}: line 2: {TOO_LONG_REASON}\n"


def test_a_number_too_long_to_read_in_an_orderbook_row_is_a_data_error(tmp_path, capsys):
    messages = tmp_path / "SYN_2016-01-05_message_1.csv"
    messages.write_text("35990.0,1,1,10,140000,1\n36001.0,1,2,10,140200,-1\n")
    book = tmp_path / "SYN_2016-01-05_orderbook_1.csv"
    book.write_text(f"\n9999999999,0,{TOO_LONG},10\n")
    code = run_cli("compute", "--messages", str(messages),
                   "--orderbooks", str(book), "--out", str(tmp_path / "o"))
    assert code == 2
    assert capsys.readouterr().err == f"data error: {book}: line 2: {TOO_LONG_REASON}\n"


def test_a_number_too_long_to_read_in_a_time_of_day_is_a_config_error(tmp_path, capsys):
    start = f"{TOO_LONG}:00"
    code = run_cli("compute", "--synth-days", "1", "--session-start", start,
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert f"bad time of day: {start!r}" in capsys.readouterr().err


def test_impossible_date_in_a_file_name_is_a_data_error(tmp_path, capsys):
    messages = tmp_path / "X_2016-13-45_message_1.csv"
    messages.write_text(WORKED_EXAMPLE)
    code = run_cli("compute", "--messages", str(messages), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: X_2016-13-45_message_1.csv: bad date '2016-13-45'")


def test_days_come_in_date_order_not_path_order(tmp_path, capsys):
    # Path order A, B, C, D; date order D, B, A. C and D name no date, so
    # each takes start_date + its index in path order, and skipping C's
    # empty session leaves D's date where it was.
    sizes = {"A_2016-01-05": 5, "B_2016-01-04": 6, "D": 8}
    for stem, size in sizes.items():
        (tmp_path / f"{stem}_message_3.csv").write_text(
            WORKED_EXAMPLE.replace(",4,7,", f",4,{size},"))
    (tmp_path / "C_message_3.csv").write_text("37000.000000000,1,1,10,140000,1\n")
    code = run_cli(
        "compute", "--messages", str(tmp_path / "*_message_3.csv"), "--levels", "3",
        "--session-end", "10:01", "--DT", "60", "--dt", "10", "--start-date", "2015-12-30",
        "--out", str(tmp_path / "out"),
    )
    assert code == 0
    assert "warning: skipping" in capsys.readouterr().err
    rows = read_csv(tmp_path / "out" / "samples.csv")[1:]
    assert [r[0] for r in rows] == ["2016-01-02"] * 6 + ["2016-01-04"] * 6 + ["2016-01-05"] * 6
    # The arrival that sets mlofi_1 in the first sub-window has its file's size.
    assert {r[0]: r[3] for r in rows if r[2] == "1"} == {
        "2016-01-02": "8", "2016-01-04": "6", "2016-01-05": "5"}


@pytest.mark.parametrize("command", ["compute", "fit", "evaluate"])
def test_grid_is_checked_before_any_file_is_read(tmp_path, capsys, command):
    messages = tmp_path / "SYN_2016-01-05_message_1.csv"
    messages.write_text("36001.0,1,1,10,140000,1\nnot a row\n")
    out = tmp_path / "out"
    code = run_cli(command, "--messages", str(messages), "--DT", "1000", "--out", str(out))
    assert code == 1
    assert "is not divisible by window length 1000s" in capsys.readouterr().err
    assert not [p for p in out.rglob("*") if p.is_file()]


def count_live_days(monkeypatch, makes, spies=()):
    """Spy on functions of ``mlofi.cli`` and ``mlofi.evaluation`` by name.

    ``makes`` name functions that return a day, ``spies`` functions that
    take one. Each call appends to ``counts[name]`` how many of the days
    made so far are alive; the counts are returned.
    """
    import weakref

    import mlofi.cli
    import mlofi.evaluation

    made = []  # a DaySlice is unhashable, so no WeakSet
    counts = {name: [] for name in (*makes, *spies)}

    def wrap(name, real):
        def wrapper(*args, **kwargs):
            counts[name].append(sum(ref() is not None for ref in made))
            result = real(*args, **kwargs)
            if name in makes:
                made.append(weakref.ref(result))
            return result
        return wrapper

    for name in counts:
        for module in (mlofi.cli, mlofi.evaluation):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrap(name, getattr(module, name)))
    return counts


FOUR_DAYS = ["--synth-days", "4", "--seed", "5", "--levels", "2", "--session-end", "10:30",
             "--DT", "300", "--dt", "10"]


@pytest.mark.parametrize("command", ["synth", "compute", "fit", "evaluate"])
def test_one_day_is_alive_at_each_replay(tmp_path, monkeypatch, command):
    counts = count_live_days(monkeypatch, ["generate_zi_day"],
                             ["compute_day_samples", "fit_tables"])
    code = run_cli(command, *FOUR_DAYS, "--out", str(tmp_path / "o"))
    assert code == 0
    assert counts["generate_zi_day"] == [0, 0, 0, 0]
    assert counts["compute_day_samples"] == ([] if command == "synth" else [1, 1, 1, 1])
    assert counts["fit_tables"] == ([0] if command in ("fit", "evaluate") else [])


@pytest.mark.parametrize("command", ["compute", "fit", "evaluate"])
def test_one_day_is_alive_at_each_parse(tmp_path, monkeypatch, command):
    assert run_cli("synth", *FOUR_DAYS, "--out", str(tmp_path / "fx")) == 0
    counts = count_live_days(monkeypatch, ["parse_message_file"], ["compute_day_samples"])
    code = run_cli(command, *FOUR_DAYS[4:], "--messages", str(tmp_path / "fx" / "*_message_*"),
                   "--out", str(tmp_path / "o"))
    assert code == 0
    assert counts["parse_message_file"] == [0, 0, 0, 0]
    assert counts["compute_day_samples"] == [1, 1, 1, 1]


@pytest.mark.parametrize("flag", ["--zi-limit-rate", "--zi-market-rate", "--zi-cancel-rate",
                                  "--zi-mean-size"])
def test_nan_zi_parameter_exits_1(tmp_path, capsys, flag):
    code = run_cli("synth", "--synth-days", "1", "--session-end", "10:05", "--DT", "300",
                   flag, "nan", "--out", str(tmp_path / "o"))
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# A negative seed crashed in numpy; -1 synthetic days exited 0.
@pytest.mark.parametrize("key, value", [("seed", "-5"), ("synth_days", "-1")])
@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command", ["synth", "evaluate"])
def test_negative_seed_or_day_count_exits_1_naming_the_key(
    tmp_path, capsys, key, value, source, command
):
    settings = {"synth_days": "1", "seed": "0", key: value}
    args = [command, "--session-end", "10:05", "--DT", "300", "--out", str(tmp_path / "o")]
    if source == "flag":
        for k, v in settings.items():
            args += [f"--{k.replace('_', '-')}", v]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        args += ["--config", str(cfg)]
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == f"error: {key} must be >= 0, got {value}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["synth", "compute", "fit", "evaluate"])
def test_out_naming_an_existing_file_exits_1(tmp_path, capsys, command):
    out = tmp_path / "o"
    out.write_text("kept\n")
    code = run_cli(command, "--synth-days", "1", "--session-end", "10:30", "--DT", "300",
                   "--levels", "2", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["compute", "fit", "evaluate"])
def test_messages_glob_matching_a_directory_exits_1(tmp_path, capsys, command):
    (tmp_path / "X_2016-01-05_message_1.csv").mkdir()
    code = run_cli(command, "--messages", str(tmp_path / "*_message_*"),
                   "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 21] Is a directory: ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_missing_config_file_exits_1(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    assert run_cli("fit", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{cfg}'\n"
    assert not (tmp_path / "o").exists()


def test_a_run_that_fails_after_replaying_leaves_no_output_directory(tmp_path, capsys):
    # At 10 levels no window of this sparse book keeps a full-rank OLS fit.
    out = tmp_path / "o"
    code = run_cli("evaluate", "--synth-days", "2", "--seed", "3", "--session-end", "11:00",
                   "--DT", "600", "--dt", "10", "--zi-limit-rate", "0.01",
                   "--zi-market-rate", "0.02", "--zi-band", "3", "--out", str(out))
    assert code == 2
    assert "no usable ols window fits" in capsys.readouterr().err
    assert not out.exists()


# Each was read as a number, or (1,inf,5) failed as a numerical error.
@pytest.mark.parametrize("key, value", [
    ("levels", "١٠"),
    ("levels", "５"),
    ("levels", "1_0"),
    ("zi_limit_rate", "０.05"),
    ("zi_limit_rate", "1e999"),
    ("lambda_grid", "1,inf,5"),
    ("lambda_grid", "1e-3,1_0,5"),
    ("lambda_grid", "1e-3,1e999,5"),
])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_non_ascii_or_non_finite_number_exits_1_naming_the_key(
    tmp_path, capsys, key, value, source
):
    args = ["fit", "--synth-days", "1", "--session-end", "10:30", "--out", str(tmp_path / "o")]
    if source == "flag":
        args += [f"--{key.replace('_', '-')}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        args += ["--config", str(cfg)]
    code = run_cli(*args)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {key} must be ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["fit", "evaluate"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_no_method_exits_1(tmp_path, capsys, command, source):
    args = [command, "--synth-days", "1", "--session-end", "10:30", "--out", str(tmp_path / "o")]
    if source == "flag":
        args += ["--methods", ","]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("methods =\n")
        args += ["--config", str(cfg)]
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == "error: methods must name at least one of ols, ridge\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_a_repeated_method_exits_1(tmp_path, capsys, command):
    assert run_cli(command, "--synth-days", "1", "--session-end", "10:30", "--methods",
                   "ols,ridge,ols", "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == "error: methods repeated: ['ols']\n"
    assert not (tmp_path / "o").exists()


NON_ASCII_DIGITS = "١٠５²"


@settings(max_examples=1500)
@given(text=st.text(alphabet="0123456789+-.eE_ " + NON_ASCII_DIGITS, max_size=8),
       kind=st.sampled_from([int, float]))
def test_option_number_is_ascii_decimal(text, kind):
    from mlofi.cli import _from_text

    try:
        expected = kind(text)
    except ValueError:
        expected = None
    if expected is not None and not (
        text.isascii() and "_" not in text and math.isfinite(expected)
    ):
        expected = None
    try:
        value = _from_text("key", kind, text)
    except ConfigError as exc:
        assert expected is None
        assert str(exc).startswith("key must be ")
        assert kind is int or "finite" in str(exc)
    else:
        assert type(value) is kind and value == expected


# -- undecodable bytes, seed rows, dates, option keys and error places --------


def test_a_non_utf8_byte_in_a_message_file_is_a_data_error(tmp_path, capsys):
    messages = tmp_path / "SYN_2016-01-05_message_1.csv"
    messages.write_bytes(b"36001.0,1,1,10,140000,1\n36002.5,1,2,1\xff,140000,1\n")
    code = run_cli("compute", "--messages", str(messages), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {messages}: line 2: malformed row ")
    assert not (tmp_path / "o").exists()


SEEDED_MESSAGES = "35990.0,1,1,10,140000,1\n36001.0,1,2,10,140200,-1\n"


def run_seeded(tmp_path, orderbook: bytes):
    """compute on SEEDED_MESSAGES, seeded from orderbook row 1 of ``orderbook``."""
    messages = tmp_path / "SYN_2016-01-05_message_2.csv"
    messages.write_text(SEEDED_MESSAGES)
    book = tmp_path / "SYN_2016-01-05_orderbook_2.csv"
    book.write_bytes(orderbook)
    code = run_cli("compute", "--messages", str(messages), "--orderbooks", str(book),
                   "--levels", "2", "--session-end", "10:05", "--DT", "300",
                   "--out", str(tmp_path / "o"))
    return code, book


def test_a_non_utf8_byte_in_an_orderbook_file_is_a_data_error_on_the_seed_row(
    tmp_path, capsys
):
    code, book = run_seeded(tmp_path, b"\n9999999999,0,140000,1\xff,9999999999,0,"
                                      b"-9999999999,0\n")
    assert code == 2
    assert capsys.readouterr().err.startswith(f"data error: {book}: line 2: malformed row ")


def test_a_non_utf8_byte_after_the_seed_row_is_not_read(tmp_path, capsys):
    # Only the seed row is read, as with any other text after it.
    code, _ = run_seeded(tmp_path, b"9999999999,0,140000,10,9999999999,0,-9999999999,0\n"
                                   b"\xff\xfe\n")
    assert code == 0
    assert capsys.readouterr().err == ""
    # The first interval starts with no ask, so 29 of the 30 are kept.
    assert len(read_csv(tmp_path / "o" / "samples.csv")) == 1 + 29


def test_a_non_utf8_byte_in_a_config_file_exits_1_naming_the_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"synth_days = 1\nlevels = 2  # \xff\n")
    code = run_cli("compute", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: a byte that is not UTF-8 text\n"


# Orderbook row 1 of SEEDED_MESSAGES, two levels: each describes no book.
BAD_SEED_ROWS = {
    "crossed": ("140000,5,140000,10,140300,8,139900,4",
                "the book is crossed: best bid 140000 >= best ask 140000"),
    "non-positive price": ("140200,5,-5,10,140300,8,-6,4", "bid price must be in"),
    "repeated price": ("1000100,10,140000,10,1000100,5,139900,4",
                       "ask prices must strictly ascend, got 1000100 then 1000100"),
    "out of order": ("140200,5,139900,4,140300,8,140000,10",
                     "bid prices must strictly descend, got 139900 then 140000"),
    "gap": ("9999999999,0,140000,10,140300,8,139900,4",
            "ask level 1 is absent but a deeper one is not"),
}


@pytest.mark.parametrize("case", BAD_SEED_ROWS)
def test_a_seed_row_that_describes_no_book_is_a_data_error(tmp_path, capsys, case):
    row, reason = BAD_SEED_ROWS[case]
    code, book = run_seeded(tmp_path, f"{row}\n".encode())
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {book}: line 1: seed row 1: {reason}")
    assert not (tmp_path / "o").exists()


def test_a_seed_crossed_by_undoing_its_message_is_a_data_error(tmp_path, capsys):
    # Message 1 cancels a bid at 140300, above row 1's best ask: putting it
    # back would cross the seed.
    messages = tmp_path / "SYN_2016-01-05_message_2.csv"
    messages.write_text("36000.0,2,1,5,140300,1\n36001.0,1,2,10,140200,-1\n")
    book = tmp_path / "SYN_2016-01-05_orderbook_2.csv"
    book.write_text("140200,5,140000,10\n")
    code = run_cli("compute", "--messages", str(messages), "--orderbooks", str(book),
                   "--levels", "1", "--session-end", "10:05", "--DT", "300",
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: {book}: line 1: orderbook row 1 with message 1 undone is a "
        "crossed book\n"
    )


def test_a_seed_holding_less_than_its_message_added_is_a_data_error(tmp_path, capsys):
    # Message 1 adds 10 shares at 140000, but orderbook row 1 (file line 2,
    # after a blank line) shows only 5 there: taking the 10 off leaves -5.
    messages = tmp_path / "SYN_2016-01-05_message_2.csv"
    messages.write_text("36000.0,1,1,10,140000,1\n36001.0,1,2,10,140200,-1\n")
    book = tmp_path / "SYN_2016-01-05_orderbook_2.csv"
    book.write_text("\n140200,5,140000,5\n")
    code = run_cli("compute", "--messages", str(messages), "--orderbooks", str(book),
                   "--levels", "1", "--session-end", "10:05", "--DT", "300",
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: {book}: line 2: orderbook row 1 holds less at 140000 than the "
        "10 shares message 1 added\n"
    )


@pytest.mark.parametrize("command", ["synth", "compute", "evaluate"])
def test_a_synthetic_day_past_the_last_date_exits_1(tmp_path, capsys, command):
    code = run_cli(command, "--synth-days", "2", "--start-date", "9999-12-31",
                   "--session-end", "10:05", "--DT", "300", "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err == (
        "error: start_date 9999-12-31 + 1 days is past 9999-12-31\n"
    )
    assert not (tmp_path / "o").exists()


def test_a_file_without_a_date_past_the_last_date_exits_1_before_any_parse(tmp_path, capsys):
    # The first file is malformed: the date error comes first all the same.
    (tmp_path / "A_message_1.csv").write_text("garbage\n")
    (tmp_path / "B_message_1.csv").write_text(WORKED_EXAMPLE)
    code = run_cli("compute", "--messages", str(tmp_path / "*_message_*"),
                   "--start-date", "9999-12-31", "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err == (
        "error: start_date 9999-12-31 + 1 days is past 9999-12-31\n"
    )


@pytest.mark.parametrize("key, value, message", [
    ("tick", "0", "tick must be positive, got 0"),
    ("dt", "0", "dt must be positive, got 0"),
    ("DT", "0", "DT must be positive, got 0"),
    ("zi_limit_rate", "0", "zi_limit_rate must be positive and finite, got 0.0"),
    ("zi_market_rate", "-1", "zi_market_rate must be positive and finite, got -1.0"),
    ("zi_cancel_rate", "0", "zi_cancel_rate must be positive and finite, got 0.0"),
    ("zi_band", "0", "zi_band must be >= 1, got 0"),
    ("zi_mean_size", "0.5", "zi_mean_size must be finite and >= 1, got 0.5"),
    ("session_start", "25:00", "session_start: bad time of day: '25:00'"),
    ("session_end", "10:60", "session_end: bad time of day: '10:60'"),
])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_a_value_out_of_range_exits_1_naming_the_key(
    tmp_path, capsys, key, value, message, source
):
    args = ["synth", "--synth-days", "1", "--out", str(tmp_path / "o")]
    if source == "flag":
        args += [f"--{key.replace('_', '-')}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        args += ["--config", str(cfg)]
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_an_order_flow_past_the_float_range_is_a_data_error_naming_the_day(tmp_path, capsys):
    # A 401-digit size sends the file down the row loop, which keeps it exact:
    # compute writes it as it is, and fit and evaluate stop with exit 2.
    huge = 10**400
    path = tmp_path / "X_2016-01-05_message_1.csv"
    path.write_text(
        f"36001.0,1,1,10,140000,1\n36002.0,1,2,10,140200,-1\n36013.0,1,3,{huge},140000,1\n"
    )
    common = ["--messages", str(path), "--levels", "2"]
    assert run_cli("compute", *common, "--out", str(tmp_path / "samples")) == 0
    capsys.readouterr()
    rows = read_csv(tmp_path / "samples" / "samples.csv")
    assert [row[3] for row in rows[1:] if row[3] != "0"] == [str(huge)]
    for command in (["fit", "--methods", "ols"], ["evaluate"]):
        out = tmp_path / command[0]
        assert run_cli(*command, *common, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "data error: 2016-01-05: an interval's order flow is too large for a float\n"
        )
        assert not out.exists()


def test_data_errors_name_their_file(tmp_path, capsys):
    paths = [tmp_path / f"SYN_2016-01-0{d}_message_1.csv" for d in (4, 5, 6)]
    paths[0].write_text(WORKED_EXAMPLE)
    paths[1].write_text("36000.0,1,1,10,140000,1\n36000.5,x,1,10,140000,1\n")
    paths[2].write_text(WORKED_EXAMPLE)
    glob = str(tmp_path / "*_message_*")
    assert run_cli("compute", "--messages", glob, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        f"data error: {paths[1]}: line 2: malformed row '36000.5,x,1,10,140000,1'\n"
    )
    # A book inconsistency in the replay names the file and line too.
    paths[1].write_text("36000.0,1,1,10,140000,1\n36000.5,1,1,10,139000,1\n")
    assert run_cli("compute", "--messages", glob, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        f"data error: {paths[1]}: line 2: order id 1 already live\n"
    )


@pytest.mark.parametrize("rows, flags, line", [
    # Two rows before the session and a blank line precede the session's
    # first event, so its second event is line 5.
    ("35990.0,1,1,10,139000,1\n35995.0,1,2,10,141000,-1\n\n"
     "36001.0,1,3,10,140000,1\n36002.0,1,3,10,140000,1\n", [], 5),
    # A hidden execution between the two rows, dropped or kept.
    ("36001.0,1,3,10,140000,1\n36001.5,5,9,4,140500,-1\n36002.0,1,3,10,140000,1\n", [], 3),
    ("36001.0,1,3,10,140000,1\n36001.5,5,9,4,140500,-1\n36002.0,1,3,10,140000,1\n",
     ["--include-hidden"], 3),
], ids=["rows-before-and-blank", "hidden-dropped", "hidden-kept"])
def test_replay_errors_name_the_message_file_line(tmp_path, capsys, rows, flags, line):
    path = tmp_path / "X_2016-01-05_message_1.csv"
    path.write_text(rows)
    args = ["compute", "--messages", str(path), "--out", str(tmp_path / "o"), *flags]
    assert run_cli(*args) == 2
    assert capsys.readouterr().err == (
        f"data error: {path}: line {line}: order id 3 already live\n"
    )


def test_main_freezes_the_heap_once_per_process_before_reading_input(tmp_path, monkeypatch):
    from mlofi import cli

    steps = []
    load_days = cli.load_days

    def spy_load_days(config):
        steps.append("read")
        return load_days(config)

    monkeypatch.setattr(cli, "_frozen", False)  # as in a fresh process
    # get_freeze_count walks every frozen object, on each call after the first.
    monkeypatch.setattr(cli.gc, "get_freeze_count", lambda: pytest.fail("counted frozen objects"))
    monkeypatch.setattr(cli.gc, "freeze", lambda: steps.append("freeze"))
    monkeypatch.setattr(cli, "load_days", spy_load_days)
    for run in ("a", "b"):
        assert run_cli("compute", "--synth-days", "1", "--session-end", "10:05", "--DT", "300",
                       "--out", str(tmp_path / run)) == 0
    assert steps == ["freeze", "read", "read"]


def flat_mid_messages(rng, n_events=3000, end_seconds=39600):
    """A message file whose mid never moves: ten levels of 100 shares a side at
    10:00:00.001, then adds at those levels and full cancels of the later orders."""
    rows = []
    for k in range(10):
        rows.append(f"36000.001,1,{2 * k + 1},100,{100000 - 100 * k},1")
        rows.append(f"36000.001,1,{2 * k + 2},100,{100100 + 100 * k},-1")
    live, next_id = {}, 21
    for t in np.sort(rng.uniform(36001, end_seconds - 1, n_events)):
        if live and rng.random() < 0.5:
            order_id = list(live)[rng.integers(len(live))]
            size, price, direction = live.pop(order_id)
            rows.append(f"{t:.9f},3,{order_id},{size},{price},{direction}")
        else:
            k, direction = int(rng.integers(10)), int(rng.choice((1, -1)))
            price = 100000 - 100 * k if direction == 1 else 100100 + 100 * k
            live[next_id] = (int(rng.integers(1, 50)), price, direction)
            rows.append(f"{t:.9f},1,{next_id},{live[next_id][0]},{price},{direction}")
            next_id += 1
    return "\n".join(rows) + "\n"


def test_evaluate_on_a_day_whose_mid_never_moves(tmp_path):
    # Every response is 0: the level-1 baseline RMSE is exactly 0, so the
    # improvement is undefined, and every fit is exact on a flat response
    # (SST = 0), so every depth's adjusted R^2 is 1.
    messages = tmp_path / "X_2016-01-05_message_10.csv"
    messages.write_text(flat_mid_messages(np.random.default_rng(0)))
    out = tmp_path / "out"
    assert run_cli("evaluate", "--messages", str(messages), "--levels", "10",
                   "--session-end", "11:00", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["improvement"] == {
        "ofi_rmse": 0.0, "mlofi_ols_rmse": 0.0, "mlofi_ridge_rmse": 0.0,
        "improvement_ols": None, "improvement_ridge": None,
    }
    assert read_csv(out / "improvement.csv")[1:] == [
        ["ofi", "0.0", ""], ["mlofi_ols", "0.0", ""], ["mlofi_ridge", "0.0", ""],
    ]
    assert report["r2_curves"] == {"ols": [1.0] * 10, "ridge": [1.0] * 10}
    assert all(p["in_sample"] == p["out_sample"] == 0.0
               for curve in report["rmse_curves"].values() for p in curve)
