"""CLI subcommands: outputs, exit codes, config handling, determinism."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from mlofi.cli import main, parse_config_file
from mlofi.errors import ConfigError
from mlofi.evaluation import fit_all_windows, significance_summary
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


def test_compute_no_matching_files_header_only(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "compute", "--messages", str(tmp_path / "nothing_*.csv"),
        "--levels", "2", "--out", str(out),
    )
    assert code == 0
    rows = read_csv(out / "samples.csv")
    assert len(rows) == 1  # header only


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
    fits, _ = fit_all_windows(problems, "ols", 3)
    table = significance_summary(fits)
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


def parse_config_file_bad(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    parse_config_file(bad)


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
    from mlofi.lobster import format_orderbook_row

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
    orderbook.write_text(format_orderbook_row(level_snapshot(state, 10), 10) + "\n")
    seeds = []
    for levels in ("1", "5", "10"):
        args = _build_parser().parse_args([
            "compute", "--messages", str(messages), "--orderbooks", str(orderbook),
            "--levels", levels,
        ])
        seeds.append(load_days(resolve_config(args))[0].seed)
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


def test_synth_then_compute_with_orderbooks_matches_without(tmp_path):
    fixtures = tmp_path / "fx"
    assert run_cli(
        "synth", "--synth-days", "2", "--seed", "1", "--levels", "10",
        "--out", str(fixtures),
    ) == 0
    common = ["--messages", str(fixtures / "*_message_*"), "--levels", "10"]
    assert run_cli(
        "compute", *common, "--orderbooks", str(fixtures / "*_orderbook_*"),
        "--out", str(tmp_path / "seeded"),
    ) == 0
    assert run_cli("compute", *common, "--out", str(tmp_path / "plain")) == 0
    seeded = (tmp_path / "seeded" / "samples.csv").read_bytes()
    assert seeded == (tmp_path / "plain" / "samples.csv").read_bytes()
    assert seeded.count(b"\n") > 1000
