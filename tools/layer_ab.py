"""Time the synth, parse, book, replay and select layers at a git revision against the working tree.

Usage: python tools/layer_ab.py REV [REPS]

Extracts ``git archive REV`` into a temporary directory. Each side, REV's
``src/mlofi`` and the working tree's, runs in a fresh interpreter of its own
for every rep, so that neither side's allocations and caches shape the
other's timings; the interpreter runs the side's layers once untimed, to
warm its imports and caches, then times them. One zero-intelligence day
(``mlofi.synth`` at its default ``ZiParams`` and
``SessionConfig``, made by the working tree's package) is written as a
LOBSTER message file, and again with CRLF line ends. A third file holds the
day up to its last full cancel, made one share larger than the order it
cancels, so that the book contradicts the file's last event. Each of REPS reps
(default 15) runs both sides' interpreters one after the other, in the
opposite order to the rep before, and times on each side:

- ``synth``: ``generate_zi_day`` at the default ``ZiParams`` and
  ``SessionConfig``, per event; both sides' event columns must be equal;
- ``parse``: ``parse_message_file`` on that file, per row kept;
- ``parse rows``: the same on the CRLF copy, which no canonical-row reader
  takes, so it goes through the row loop; per row kept;
- ``book``: a bare loop of ``BookState.apply`` over the side's own parsed
  events as ``LobEvent``s, per event;
- ``book fields``: a bare loop of ``BookState.apply_fields`` over the side's
  own parsed event columns as Python ints, per event: the pass that finds
  the error of a day the book contradicts;
- ``replay 1800/10`` and ``replay 60/1``: ``compute_day_samples`` at 10
  levels on the 30-minute/10-second grid (evaluate's default) and on the
  1-minute/1-second grid, per event;
- ``replay exact 1800/10``: ``compute_day_samples`` on the 30-minute grid
  on the day with its columns as object arrays of Python ints, per event: the
  cost of a day whose values leave int64; its output must equal
  ``replay 1800/10``'s;
- ``replay big ids 1800/10``: the same on the day with its order ids plus
  10**19, an object column past int64 beside five int64 ones; its output
  must equal ``replay 1800/10``'s;
- ``replay error 1800/10``: ``compute_day_samples`` on the third file's day
  on the 30-minute grid, until it raises the book's error, per event of
  that day; both sides must raise the same error;
- ``select 60/1``: the penalty search (default grid, 5 folds) of every
  1-minute window with enough rows for its own search, as per-window ridge
  runs it: one ``select_lambdas`` call; per window;
- ``select 60/1 free``: the same with a free intercept
  (``penalize_intercept=False``, the CLI's ``--no-penalize-intercept``);
- ``assemble 60/1``: ``assemble_problems`` on the 1-minute grid's replay
  intervals; per interval;
- ``fit 60/1 ols``: OLS of every 1-minute window at 10 levels, as per-window
  ridge fits them: one ``fit_windows`` call; per fit;
- ``fit 60/1 ridge``: ridge of every searched window at its own penalty from
  ``select 60/1``: one ``fit_windows`` call; per fit;
- ``curves 1800/10``: evaluate's R^2 and RMSE curve step on the 30-minute
  grid's windows at 10 levels, OLS and ridge at the pooled penalty: per
  method one ``nested_adj_r2`` call, reduced by ``adjusted_r2_curve``, and
  one ``rmse_curve`` call; per call. A package whose ``adjusted_r2_curve``
  takes the problems and their depth-M fits, as before that reduction, lacks
  this layer.

It prints per layer and side the median microseconds per row, event or
interval (milliseconds per window for ``select``, per fit for ``fit``, per
call for ``curves``), and
the median over the reps of the working tree's time over REV's with that
ratio's lower and upper quartiles, so that one run tells a move from the
spread of its reps; a layer one side lacks shows ``-`` there and no ratio.
Both sides run with the BLAS and OpenMP thread caps of ``python -m mlofi``
(``mlofi.__main__.THREAD_CAPS`` at one thread) where the environment sets
none, as the benchmark's runs do.
The sides' turns alternate, so a slow spell of the host that lands on one
side's interpreter widens the quartiles rather than biasing the median. Both
files must parse to the same events on each side, both
sides' events, samples and book tallies must agree, and so must every window's
chosen penalty in both selects, both sides' problems and every field of every
fit, or it exits 1. The curves must agree within ``CURVE_RTOL`` relative, as
the nested arithmetic moves their last bits.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import gc
import importlib
import inspect
import io
import os
import pickle
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
LEVELS = 10
FOLDS = 5
GRIDS = ((1800, 10), (60, 1))
SELECTS = (("select 60/1", True), ("select 60/1 free", False))
LAYERS = ("synth", "parse", "parse rows", "book", "book fields",
          *(f"replay {w}/{s}" for w, s in GRIDS), "replay exact 1800/10",
          "replay big ids 1800/10", "replay error 1800/10", *(s for s, _ in SELECTS),
          "assemble 60/1", "fit 60/1 ols", "fit 60/1 ridge", "curves 1800/10")
#: Largest relative difference allowed between the two sides' curve values.
CURVE_RTOL = 1e-12


def load(src: Path) -> dict:
    """The ``mlofi`` package under ``src``, by module; one per interpreter."""
    sys.path.insert(0, str(src))
    return {m: importlib.import_module(f"mlofi.{m}")
            for m in ("book", "evaluation", "imbalance", "inference", "lobster", "sampling",
                      "synth")}


def timed(fn, *args) -> tuple[float, object]:
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def column_values(day) -> list[list[int]]:
    """``day``'s event columns as lists of Python ints."""
    return [column.tolist() for column in day.columns]


def event_tuples(day) -> list[tuple]:
    """``day``'s events as plain values, comparable across the two packages."""
    return list(zip(*column_values(day)))


def replay_output(comp) -> tuple:
    """A day's replay as plain values: its samples' flows and mid changes, and its book tally."""
    return ([None if s is None else (s.mlofi, s.delta_p) for s in comp.samples],
            comp.book.sums, comp.book.flow_counts, comp.book.flow_volumes)


def run_side(pkg: dict, message_files: tuple[Path, Path, Path], date
             ) -> tuple[dict[str, float], list | None, list, list]:
    """One rep of one side: microseconds per row, event or interval (milliseconds per
    window for select, per fit for fit, per call for curves) by layer, the outputs
    (None if the two files parse to different events), the chosen penalties and the
    curve values."""
    lobster, book, evaluation, imbalance, inference, sampling, synth = (
        pkg[m] for m in ("lobster", "book", "evaluation", "imbalance", "inference", "sampling",
                         "synth"))
    session = lobster.SessionConfig()
    synth_seconds, zi_day = timed(synth.generate_zi_day, synth.ZiParams(), session)
    zi_columns = ([c.dtype.str for c in zi_day.columns], column_values(zi_day))
    del zi_day
    seconds, day = timed(lobster.parse_message_file, message_files[0], session, date)
    us = {"parse": seconds}
    us["parse rows"], rows_day = timed(lobster.parse_message_file, message_files[1], session,
                                       date)
    events = event_tuples(day)
    n = len(events)
    if event_tuples(rows_day) != events:
        return {}, None, [], []
    del rows_day

    def apply_all(events):
        apply = book.BookState().apply
        for ev in events:
            apply(ev)

    def apply_fields_all(columns):
        apply = book.BookState().apply_fields
        for _, code, order_id, size, price, direction in zip(*columns):
            apply(code, order_id, size, price, direction)

    us["book"], _ = timed(apply_all, day.events)
    us["book fields"], _ = timed(apply_fields_all, column_values(day))
    outputs = [events, zi_columns]
    replays = {}
    for window, sub in GRIDS:
        grid = sampling.build_grid(session, sampling.GridSpec(window, sub))
        seconds, comp = timed(imbalance.compute_day_samples, day, grid.boundaries_ns,
                              grid.n_sub, LEVELS)
        us[f"replay {window}/{sub}"] = seconds
        replays[window, sub] = grid, comp
        outputs.append(replay_output(comp))
    grid, comp = replays[1800, 10]
    columns = day.columns
    big_ids = np.array([i + 10**19 for i in columns.order_ids.tolist()], object)
    for layer, changed in (
            ("replay exact 1800/10", type(columns)(*(c.astype(object) for c in columns))),
            ("replay big ids 1800/10", columns._replace(order_ids=big_ids))):
        us[layer], other = timed(imbalance.compute_day_samples,
                                 dataclasses.replace(day, columns=changed),
                                 grid.boundaries_ns, grid.n_sub, LEVELS)
        if replay_output(other) != replay_output(comp):
            raise SystemExit(f"{layer} replays the day differently from replay 1800/10")
    times = {k: v * 1e6 / n for k, v in us.items()}
    times["synth"] = synth_seconds * 1e6 / len(zi_columns[1][0])
    error_day = lobster.parse_message_file(message_files[2], session, date)
    grid = replays[1800, 10][0]

    def replay_to_error():
        try:
            imbalance.compute_day_samples(error_day, grid.boundaries_ns, grid.n_sub, LEVELS)
        except imbalance.InconsistentEvent as exc:
            return str(exc)
        raise SystemExit("compute_day_samples replayed the day the book contradicts")

    seconds, error = timed(replay_to_error)
    times["replay error 1800/10"] = seconds * 1e6 / len(event_tuples(error_day))
    outputs.append(error)
    grid, comp = replays[60, 1]
    seconds, problems = timed(sampling.assemble_problems, comp.intervals, grid, LEVELS,
                              session.tick_size, date)
    times["assemble 60/1"] = seconds * 1e6 / (grid.n_windows * grid.n_sub)
    outputs.append([(p.window_index, p.X.tobytes(), p.y.tobytes()) for p in problems])
    min_rows = inference.MIN_ROWS_PER_FOLD * FOLDS
    searched = [p for p in problems if p.n_rows >= min_rows]

    def select_all(penalize_intercept):
        searches = inference.select_lambdas([(p.X, p.y) for p in searched], FOLDS, None,
                                            penalize_intercept)
        return [s.lambda_hat for s in searches]

    lambdas = []
    for layer, penalize_intercept in SELECTS:
        seconds, chosen = timed(select_all, penalize_intercept)
        times[layer] = seconds * 1e3 / len(searched)
        lambdas.extend(chosen)

    for layer, args in (("fit 60/1 ols", (problems,)),
                        ("fit 60/1 ridge", (searched, lambdas[:len(searched)]))):
        seconds, fits = timed(inference.fit_windows, *args)
        times[layer] = seconds * 1e3 / len(fits)
        outputs.append([fit_bits(fit) for fit in fits])

    grid, comp = replays[1800, 10]
    problems = sampling.assemble_problems(comp.intervals, grid, LEVELS, session.tick_size, date)
    lam = inference.select_lambda(*evaluation.pool_rows(problems, LEVELS), FOLDS).lambda_hat
    methods = (evaluation.OLS, evaluation.RIDGE)

    def curves():
        values = []
        for method in methods:
            adj_r2, kept, _ = inference.nested_adj_r2(
                problems, None if method == evaluation.OLS else lam)
            r2 = evaluation.adjusted_r2_curve(adj_r2, kept)
            rmse = evaluation.rmse_curve(problems, method, LEVELS, FOLDS, lam)
            values += r2 + [v for p in rmse for v in (p.in_sample, p.out_sample)]
        return values

    curve_values = []
    if "kept" in inspect.signature(evaluation.adjusted_r2_curve).parameters:
        seconds, curve_values = timed(curves)
        times["curves 1800/10"] = seconds * 1e3
    return times, outputs, lambdas, curve_values


def fit_bits(fit) -> bytes | None:
    """Every field of a ``RegressionFit`` as bytes, so that equal bits compare equal."""
    if fit is None:
        return None
    return b"".join(np.asarray(getattr(fit, f.name), dtype=float).tobytes()
                    for f in dataclasses.fields(fit))


def run_child(src: Path, message_files: tuple[Path, Path, Path], date, result: Path,
              env: dict[str, str]):
    """``run_side`` on the package under ``src`` in a fresh interpreter with
    environment ``env``: its return value, or None if the side failed, which it
    reports on stderr."""
    child = subprocess.run([sys.executable, __file__, "--side", str(src), str(result),
                            *map(str, message_files), date.isoformat()], env=env)
    if child.returncode:
        return None
    with open(result, "rb") as fh:
        return pickle.load(fh)


def side_main(argv: list[str]) -> int:
    """One side's rep: ``--side SRC RESULT MESSAGE CRLF ERROR DATE``."""
    src, result, *files, date = argv
    args = load(Path(src)), tuple(map(Path, files)), dt.date.fromisoformat(date)
    run_side(*args)  # warms up the interpreter: lazy imports and first-call set-up
    side = run_side(*args)
    with open(result, "wb") as fh:
        pickle.dump(side, fh)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--side"]:
        return side_main(argv[1:])
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    reps = int(argv[1]) if len(argv) == 2 else 15
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", argv[0]], cwd=REPO,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "tree")
        sides = {"rev": tmp / "tree" / "src", "work": REPO / "src"}
        work = load(sides["work"])
        env = dict(os.environ)
        for name in importlib.import_module("mlofi.__main__").THREAD_CAPS:
            env.setdefault(name, "1")
        session = work["lobster"].SessionConfig()
        day = work["synth"].generate_zi_day(work["synth"].ZiParams(), session)
        message_file = tmp / f"SYN_{day.trading_date}_message_10.csv"
        work["lobster"].write_message_file(message_file, day.events)
        crlf_file = tmp / f"SYN_{day.trading_date}_message_10_crlf.csv"
        crlf_file.write_bytes(message_file.read_bytes().replace(b"\n", b"\r\n"))
        events = day.events
        last = max(i for i, e in enumerate(events)
                   if e.kind is work["book"].EventKind.CANCEL_FULL)
        error_file = tmp / f"SYN_{day.trading_date}_message_10_error.csv"
        work["lobster"].write_message_file(
            error_file, events[:last] + [dataclasses.replace(events[last],
                                                             size=events[last].size + 1)])
        times = {side: {layer: [] for layer in LAYERS} for side in sides}
        order = list(sides)
        for _ in range(reps):
            outputs, lambdas, curves = {}, {}, {}
            for side in order:
                ran = run_child(sides[side], (message_file, crlf_file, error_file),
                                day.trading_date, tmp / "side.pickle", env)
                if ran is None:
                    print(f"the {side} side failed", file=sys.stderr)
                    return 1
                us, outputs[side], lambdas[side], curves[side] = ran
                if outputs[side] is None:
                    print(f"the {side} side parses the LF and CRLF files to different events",
                          file=sys.stderr)
                    return 1
                for layer, value in us.items():
                    times[side][layer].append(value)
            if outputs["rev"] != outputs["work"]:
                print("the two sides' events, generated columns, samples, book tallies, replay "
                      "errors, problems or fits differ",
                      file=sys.stderr)
                return 1
            if all(curves.values()) and not np.allclose(curves["rev"], curves["work"],
                                                        rtol=CURVE_RTOL, atol=0.0):
                print(f"the two sides' curves differ by more than {CURVE_RTOL} relative",
                      file=sys.stderr)
                return 1
            moved = [i for i, (a, b) in enumerate(zip(lambdas["rev"], lambdas["work"])) if a != b]
            if moved:
                print(f"the two sides' penalties differ in {len(moved)} of "
                      f"{len(lambdas['rev'])} window searches", file=sys.stderr)
                return 1
            order.reverse()
    print(f"{len(day.columns.times)} events, {reps} reps; microseconds per row (parse, parse "
          f"rows), event or interval (assemble), milliseconds per window (select), fit (fit) "
          f"or call (curves)")
    print(f"{'layer':<24}{argv[0][:12]:>14}{'work':>14}{'work/rev':>10}{'q1':>8}{'q3':>8}")
    for layer in LAYERS:
        rev, new = times["rev"][layer], times["work"][layer]
        if not rev or not new:  # a layer that one side lacks
            print(f"{layer:<24}" + "".join(f"{statistics.median(t):>14.3f}" if t else f"{'-':>14}"
                                           for t in (rev, new)))
            continue
        ratios = [b / a for a, b in zip(rev, new)]
        q1, median, q3 = statistics.quantiles(ratios, n=4) if reps > 1 else ratios * 3
        print(f"{layer:<24}{statistics.median(rev):>14.3f}{statistics.median(new):>14.3f}"
              f"{median:>10.3f}{q1:>8.3f}{q3:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
