"""Compare the CLI's outputs at a git revision with the working tree's.

Usage: python tools/byte_compare.py REV

Extracts ``git archive REV`` into a temporary directory, then runs one
matrix of ``python -m mlofi`` commands in that tree and in the working tree,
each with ``PYTHONPATH=<tree>/src`` and its own scratch directory as working
directory. It compares the exit code, stdout and stderr of every run and
every file the runs write (``filecmp``, byte for byte), and whether each
run's ``--out`` directory exists on both sides; it prints each
difference and exits 1 if there is any, 0 otherwise. A ``.json`` or
``.csv`` file that differs also gets the largest relative difference over
its numeric fields, when both files hold the same keys, rows and text, and
the largest difference in units in the last place (doubles apart): a move
of the last bit reads as 1 ulp even where a figure near 0 makes its
relative difference large.

The matrix: ``evaluate`` and ``fit`` on two synthetic days at levels 1, 3
and 10 with each method set, without a penalized intercept, with the
per-window penalty on one-second sub-windows, with per-window ridge alone
on one-second sub-windows, and with OLS alone in per-window mode on a
30-row grid (legal, because no window runs its own penalty search); a
per-window ``fit`` at level 10 in 7 folds of uneven length, with and
without a penalized intercept; a per-window ``fit`` on a sparser book of
two-minute windows of 2 s intervals, with and without a penalized intercept,
whose 105 searched windows hold 84 of 60 rows (three blocks of the stacked
penalty screen) and 21 of eight other row counts, and a per-window
``evaluate`` on that book, whose 120 windows stack in 21 design shapes at
every depth from 1 to 5 and whose OLS fits leave out the 14 windows
rank-deficient at depth 4 and the 47 at depth 5; a sparse book that
discards intervals and leaves rank-deficient windows out;
``compute`` at levels 1, 3 and 10; a one-day ``evaluate``; ``evaluate
--config run.cfg``, a file that sets every run option, with ``--levels``
and ``--out`` flags overriding two of its keys; ``synth`` fixtures fed
back to ``compute --orderbooks`` with the session starting at 10:00 and at
10:30; copies of those fixtures renamed so that their name order is the
reverse of their date order, fed to ``compute --orderbooks`` and
``evaluate --orderbooks``; copies of those fixtures whose message files
reuse order ids (each arrival takes the smallest id that no resting order
holds, so an id arrives again once its order is gone) and whose ids have 20
digits (each plus 10**19, past int64, which the row-loop parse keeps as
object columns), each fed to ``compute --orderbooks`` and ``evaluate
--orderbooks``; a hand-written LOBSTER message file and its
2-level orderbook file (CRLF line ends, blank lines, hidden executions, a
cross trade, a halt and its resume) fed to ``compute --orderbooks`` with the
session starting at 10:00, which is message 1, and at 10:30, each with and
without ``--include-hidden``; the same four runs on a copy of that message
file with LF line ends and no blank lines, which is canonical and so takes
the columnar parse, as the CRLF original does not; ``evaluate`` on the sparse book at 10 levels,
which fails after both days have replayed; six runs that must exit 1:
``synth`` with a negative seed and with a negative day count, ``evaluate``
with ``--out`` naming an existing file, ``compute`` with a ``--messages``
glob that matches a directory, ``compute --synth-days 2 --start-date
9999-12-31``, whose second day has no date, and ``compute --tick 0``; and
five runs that must exit 2: ``compute`` on a message file holding a byte
that is not UTF-8, ``compute --orderbooks`` on a crossed seed row and on a
seed row that undoing message 1 crosses,
``compute`` on a message file whose fifth line, after two rows before the
session and a blank line, repeats a live order id, and ``compute`` on a
canonical message file whose timestamp decreases at line 4.
"""

from __future__ import annotations

import csv
import filecmp
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

TWO_DAYS = ["--synth-days", "2", "--seed", "7", "--session-end", "13:00"]
SPARSE_BOOK = [
    "--synth-days", "2", "--seed", "3", "--session-end", "11:00", "--DT", "600",
    "--dt", "10", "--zi-limit-rate", "0.01", "--zi-market-rate", "0.02", "--zi-band", "3",
]
# Discards leave its windows 50 to 60 rows; 15 of the 120 keep under 50, and
# 47 are rank-deficient for OLS at 5 levels.
SCREEN_BLOCKS = [
    "--synth-days", "2", "--seed", "3", "--session-end", "12:00", "--DT", "120",
    "--dt", "2", "--zi-limit-rate", "0.02", "--zi-market-rate", "0.04", "--zi-band", "3",
    "--levels", "5", "--lambda-mode", "per-window",
]
ORDERBOOK_FIXTURES = ["--messages", "fx/*_message_*", "--orderbooks", "fx/*_orderbook_*"]
REVERSED_FIXTURES = ["--messages", "fx-reversed/*_message_*",
                     "--orderbooks", "fx-reversed/*_orderbook_*"]
LOBSTER_OPTIONS = ["--levels", "2", "--session-end", "10:40", "--DT", "600", "--dt", "60"]
LOBSTER_NAME = "AAPL_2012-06-21_34200000_57600000_{}_2.csv"
# Written with CRLF line ends into each scratch directory's lobster/, and with
# LF line ends, the message file without its blank lines, into lobster-lf/. Before
# message 1 the book holds asks 5851500x100, 5851600x200 and bids
# 5851000x150, 5850900x300; orderbook row k is the book after message k.
LOBSTER_MESSAGES = """\
36000.000000000,1,1001,50,5851100,1
36012.5,1,1002,30,5851400,-1
36030.25,5,1003,20,5851200,-1
36100.004512,4,1001,20,5851100,1
36200.1,6,0,500,5851250,-1

36400.98765,2,1002,10,5851400,-1
36500.0,7,0,0,-1,-1
36500.0,7,0,0,1,-1
37000.123456789,3,1002,20,5851400,-1
37500.5,1,1003,40,5851000,1
37850.75,5,1004,15,5851300,1
38000.0,4,1001,30,5851100,1
38100.0,1,1005,25,5851300,-1
38200.333,2,999,40,5851500,-1
38390.0,4,1005,25,5851300,-1
38500.0,1,1006,10,5851200,1

"""
LOBSTER_ORDERBOOK = """\
5851500,100,5851100,50,5851600,200,5851000,150
5851400,30,5851100,50,5851500,100,5851000,150
5851400,30,5851100,50,5851500,100,5851000,150

5851400,30,5851100,30,5851500,100,5851000,150
5851400,30,5851100,30,5851500,100,5851000,150
5851400,20,5851100,30,5851500,100,5851000,150
5851400,20,5851100,30,5851500,100,5851000,150
5851400,20,5851100,30,5851500,100,5851000,150
5851500,100,5851100,30,5851600,200,5851000,150
5851500,100,5851100,30,5851600,200,5851000,190
5851500,100,5851100,30,5851600,200,5851000,190
5851500,100,5851000,190,5851600,200,5850900,300
5851300,25,5851000,190,5851500,100,5850900,300
5851300,25,5851000,190,5851500,60,5850900,300
5851500,60,5851000,190,5851600,200,5850900,300
5851500,60,5851200,10,5851600,200,5851000,190
"""
# An empty file written into each scratch directory; the run of this name
# takes it as its --out.
OUT_IS_A_FILE = "evaluate-out-is-a-file"
# Bad inputs written into each scratch directory's bad/: a message file with
# a 0xff byte in row 2, a message file whose seed row (orderbook row 1) is a
# crossed book, one whose seed row is crossed once its message 1 is undone,
# a message file whose line 5 repeats a live order id, and a canonical message
# file whose timestamp decreases at line 4.
BAD_FILES = {
    "X_2016-01-05_message_1.csv": b"36001.0,1,1,10,140000,1\n36002.5,1,2,1\xff,140000,1\n",
    "Y_2016-01-05_message_1.csv": b"35990.0,1,1,10,140000,1\n36001.0,1,2,10,140200,-1\n",
    "Y_2016-01-05_orderbook_1.csv": b"140000,5,140000,10\n",
    "W_2016-01-05_message_1.csv": b"36000.0,2,1,5,140300,1\n36001.0,1,2,10,140200,-1\n",
    "W_2016-01-05_orderbook_1.csv": b"140200,5,140000,10\n",
    "Z_2016-01-05_message_1.csv": b"35990.0,1,1,10,139000,1\n35995.0,1,2,10,141000,-1\n\n"
                                  b"36001.0,1,3,10,140000,1\n36002.0,1,3,10,140000,1\n",
    "V_2016-01-05_message_1.csv": b"36001.0,1,1,10,140000,1\n36002.0,1,2,10,140100,-1\n"
                                  b"36003.0,1,3,5,139900,1\n36002.5,1,4,10,140000,1\n"
                                  b"36004.0,1,5,10,140000,1\n",
}
# Written as run.cfg into each scratch directory. messages and orderbooks are
# left out: a run takes either them or synth_days.
CONFIG_FILE = """\
synth_days = 2
seed = 7
start_date = 2016-03-01
session_start = 10:00
session_end = 12:00
include_hidden = true
tick = 100
dt = 10
DT = 900
levels = 3            # --levels 4 wins
methods = ols,ridge
lambda_grid = 1e-4,1e4,25
lambda_mode = pooled
folds = 4
penalize_intercept = false
out = config-file-out # --out wins
zi_limit_rate = 0.06
zi_market_rate = 0.12
zi_cancel_rate = 0.0025
zi_band = 6
zi_mean_size = 7.5
"""


def matrix() -> list[tuple[str, list[str]]]:
    """(run name, CLI arguments); each run writes to the directory of its name."""
    runs = []
    for cmd in ("evaluate", "fit"):
        for levels in ("1", "3", "10"):
            for methods in ("ols", "ridge", "ols,ridge"):
                runs.append((f"{cmd}-{levels}-{methods}",
                             [cmd, *TWO_DAYS, "--levels", levels, "--methods", methods]))
        runs.append((f"{cmd}-free-intercept",
                     [cmd, *TWO_DAYS, "--levels", "3", "--no-penalize-intercept"]))
        runs.append((f"{cmd}-per-window", [cmd, *TWO_DAYS, "--levels", "3",
                                           "--lambda-mode", "per-window", "--DT", "60",
                                           "--dt", "1"]))
        runs.append((f"{cmd}-per-window-ridge-only",
                     [cmd, *TWO_DAYS, "--methods", "ridge", "--lambda-mode", "per-window",
                      "--DT", "60", "--dt", "1", "--levels", "3"]))
        runs.append((f"{cmd}-per-window-ols-only",
                     [cmd, *TWO_DAYS, "--methods", "ols", "--lambda-mode", "per-window",
                      "--dt", "60"]))
        runs.append((f"{cmd}-sparse", [cmd, *SPARSE_BOOK, "--levels", "5"]))
        runs.append((f"{cmd}-sparse-per-window", [cmd, *SPARSE_BOOK, "--levels", "3",
                                                  "--lambda-mode", "per-window"]))
    # At 10 levels no window keeps a full-rank OLS fit: exit 2 after both days.
    runs.append(("evaluate-sparse-10", ["evaluate", *SPARSE_BOOK]))
    # 120 rows a window in 7 folds: validation blocks of 18 and 17 rows.
    uneven = ["fit", *TWO_DAYS, "--levels", "10", "--lambda-mode", "per-window", "--DT",
              "120", "--dt", "1", "--folds", "7"]
    runs.append(("fit-per-window-uneven-folds", [*uneven, "--no-penalize-intercept"]))
    runs.append(("fit-per-window-uneven-folds-penalized-intercept", uneven))
    runs.append(("fit-per-window-screen-blocks", ["fit", *SCREEN_BLOCKS]))
    runs.append(("fit-per-window-screen-blocks-free-intercept",
                 ["fit", *SCREEN_BLOCKS, "--no-penalize-intercept"]))
    runs.append(("evaluate-per-window-screen-blocks", ["evaluate", *SCREEN_BLOCKS]))
    for levels in ("1", "3", "10"):
        runs.append((f"compute-{levels}", ["compute", *TWO_DAYS, "--levels", levels]))
    runs.append(("evaluate-one-day", ["evaluate", "--synth-days", "1", "--seed", "11",
                                      "--session-end", "12:00", "--levels", "10"]))
    runs.append(("evaluate-config", ["evaluate", "--config", "run.cfg", "--levels", "4"]))
    # The synth run writes the fixtures the orderbook runs read.
    runs.append(("fx", ["synth", "--synth-days", "2", "--seed", "1", "--levels", "10"]))
    runs.append(("orderbooks-1000", ["compute", *ORDERBOOK_FIXTURES, "--levels", "10"]))
    runs.append(("orderbooks-1030", ["compute", *ORDERBOOK_FIXTURES, "--levels", "10",
                                     "--session-start", "10:30"]))
    runs.append(("orderbooks-reversed-names",
                  ["compute", *REVERSED_FIXTURES, "--levels", "10"]))
    runs.append(("evaluate-reversed-names",
                  ["evaluate", *REVERSED_FIXTURES, "--levels", "10"]))
    for fixture in REWRITTEN_IDS:
        files = ["--messages", f"{fixture}/*_message_*", "--orderbooks", f"{fixture}/*_orderbook_*"]
        for cmd in ("compute", "evaluate"):
            runs.append((f"{cmd}-{fixture}", [cmd, *files, "--levels", "10"]))
    for fixture in ("lobster", "lobster-lf"):
        files = ["--messages", f"{fixture}/*_message_*", "--orderbooks", f"{fixture}/*_orderbook_*"]
        for start in ("10:00", "10:30"):
            for hidden in ([], ["--include-hidden"]):
                runs.append((f"{fixture}-{start.replace(':', '')}{'-hidden' * bool(hidden)}",
                             ["compute", *files, *LOBSTER_OPTIONS, "--session-start", start,
                              *hidden]))
    # Runs that must stop with exit 1 and an error line.
    runs.append(("synth-negative-seed", ["synth", "--synth-days", "1", "--seed", "-5",
                                         "--session-end", "10:05"]))
    runs.append(("synth-negative-days", ["synth", "--synth-days", "-1"]))
    runs.append((OUT_IS_A_FILE, ["evaluate", *TWO_DAYS, "--levels", "3"]))
    runs.append(("compute-messages-glob-matches-a-directory",
                  ["compute", "--messages", "lobster*"]))
    runs.append(("compute-past-the-last-date",
                  ["compute", "--synth-days", "2", "--start-date", "9999-12-31",
                   "--session-end", "10:05", "--DT", "300"]))
    runs.append(("compute-tick-0", ["compute", *TWO_DAYS, "--tick", "0"]))
    # Runs that must stop with exit 2 and a data error line.
    runs.append(("compute-non-utf8-byte", ["compute", "--messages", "bad/X_*_message_*"]))
    runs.append(("compute-crossed-seed-row",
                  ["compute", "--messages", "bad/Y_*_message_*",
                   "--orderbooks", "bad/Y_*_orderbook_*", "--levels", "1"]))
    runs.append(("compute-seed-undo-crossed",
                  ["compute", "--messages", "bad/W_*_message_*",
                   "--orderbooks", "bad/W_*_orderbook_*", "--levels", "1"]))
    runs.append(("compute-order-id-live-twice", ["compute", "--messages", "bad/Z_*_message_*"]))
    runs.append(("compute-decreasing-timestamp", ["compute", "--messages", "bad/V_*_message_*"]))
    return runs


def run_matrix(tree: Path, workdir: Path) -> dict[str, tuple[int, bytes, bytes]]:
    """Run every command in order with ``tree``'s sources; (code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("MLOFI_OUTPUT_DIR", None)
    (workdir / "run.cfg").write_text(CONFIG_FILE)
    (workdir / OUT_IS_A_FILE).write_text("")
    (workdir / "bad").mkdir()
    for name, data in BAD_FILES.items():
        (workdir / "bad" / name).write_bytes(data)
    for fixture in ("lobster", "lobster-lf"):
        (workdir / fixture).mkdir()
    for kind, text in (("message", LOBSTER_MESSAGES), ("orderbook", LOBSTER_ORDERBOOK)):
        name = LOBSTER_NAME.format(kind)
        (workdir / "lobster" / name).write_bytes(text.replace("\n", "\r\n").encode())
        if kind == "message":
            text = text.replace("\n\n", "\n")
        (workdir / "lobster-lf" / name).write_bytes(text.encode())
    results = {}
    for name, args in matrix():
        proc = subprocess.run(
            [sys.executable, "-m", "mlofi", *args, "--out", name],
            cwd=workdir, env=env, capture_output=True,
        )
        results[name] = (proc.returncode, proc.stdout, proc.stderr)
        if name == "fx":
            reverse_name_order(workdir / "fx", workdir / "fx-reversed")
            for fixture, rewrite in REWRITTEN_IDS.items():
                rewrite_ids(workdir / "fx", workdir / fixture, rewrite)
    return results


def reverse_name_order(src: Path, dst: Path) -> None:
    """Copy ``src``'s ``SYN_<date>_*`` files into ``dst``, each name prefixed
    with a letter that falls as its date rises, so that the names sort in
    the reverse of date order."""
    dst.mkdir()
    files = list(src.iterdir())
    dates = sorted({f.name.split("_")[1] for f in files})
    for f in files:
        letter = chr(ord("Z") - dates.index(f.name.split("_")[1]))
        shutil.copyfile(f, dst / f"{letter}_{f.name}")


def reuse_ids(text: str) -> str:
    """A message file's ``text`` with each order given, at its arrival, the
    smallest id that no resting order holds: an id arrives again once its
    order is gone."""
    new_id, resting, rows = {}, {}, []
    for line in text.splitlines():
        t, code, oid, size, *rest = line.split(",")
        if code == "1":
            free = min(set(range(len(resting) + 1)) - resting.keys())
            new_id[oid], resting[free] = free, int(size)
            oid = str(free)
        elif code in ("2", "3", "4") and oid in new_id:
            held = new_id[oid]
            resting[held] -= int(size)
            if not resting[held]:
                del resting[held], new_id[oid]
            oid = str(held)
        rows.append(",".join((t, code, oid, size, *rest)))
    return "\n".join(rows) + "\n"


def long_ids(text: str) -> str:
    """A message file's ``text`` with 10**19 added to every order id."""
    rows = []
    for line in text.splitlines():
        t, code, oid, *rest = line.split(",")
        rows.append(",".join((t, code, str(int(oid) + 10**19), *rest)))
    return "\n".join(rows) + "\n"


# Copies of the synth fixtures, by directory, and how their message files' ids change.
REWRITTEN_IDS = {"fx-reused-ids": reuse_ids, "fx-long-ids": long_ids}


def rewrite_ids(src: Path, dst: Path, rewrite) -> None:
    """Copy ``src``'s files into ``dst``, each message file's text through ``rewrite``."""
    dst.mkdir()
    for f in src.iterdir():
        text = f.read_text()
        (dst / f.name).write_text(rewrite(text) if "_message_" in f.name else text)


def _numbers(a, b) -> list[tuple[float, float]]:
    """Pairs of numbers at the same place in two JSON values or CSV fields.

    Raises ValueError where the two differ in anything but a number.
    """
    if a == b:
        return []
    if isinstance(a, str) and isinstance(b, str):
        return [(float(a), float(b))]
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)]
    if all(numbers):
        return [(float(a), float(b))]
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [pair for k in a for pair in _numbers(a[k], b[k])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [pair for u, v in zip(a, b) for pair in _numbers(u, v)]
    raise ValueError("the files differ in more than numbers")


def ulps_apart(x: float, y: float) -> int:
    """How many doubles lie from ``x`` to ``y``, counting one of them."""
    a, b = (struct.unpack("<q", struct.pack("<d", v))[0] for v in (x, y))
    # Negative doubles' bits, read as ints, fall as the doubles rise.
    a, b = (i if i >= 0 else -2**63 - i for i in (a, b))
    return abs(a - b)


def largest_difference(old: Path, new: Path) -> str:
    """How far two differing .json/.csv files are apart, as a message."""
    try:
        if old.suffix == ".json":
            a, b = (json.loads(p.read_text()) for p in (old, new))
        else:
            a, b = (list(csv.reader(p.read_text().splitlines())) for p in (old, new))
        pairs = _numbers(a, b)
    except ValueError:
        return "not only in numbers"
    moved = [(x, y) for x, y in pairs if x != y]
    rel = max((abs(x - y) / max(abs(x), abs(y)) for x, y in moved), default=0.0)
    ulps = max((ulps_apart(x, y) for x, y in moved), default=0)
    return f"largest relative difference {rel:.3g}, {ulps} ulps"


def compare(old_dir: Path, new_dir: Path, old, new) -> list[str]:
    diffs = []
    for name, _ in matrix():
        for what, a, b in zip(("exit code", "stdout", "stderr"), old[name], new[name]):
            if a != b:
                diffs.append(f"{name}: {what} differs: {a!r} -> {b!r}")
        old_out, new_out = (old_dir / name).is_dir(), (new_dir / name).is_dir()
        if old_out != new_out:
            diffs.append(f"{name}: --out directory only in {'REV' if old_out else 'working tree'}")
        old_files = {p.relative_to(old_dir) for p in (old_dir / name).rglob("*") if p.is_file()}
        new_files = {p.relative_to(new_dir) for p in (new_dir / name).rglob("*") if p.is_file()}
        for rel in sorted(old_files ^ new_files):
            diffs.append(f"{rel}: only in {'REV' if rel in old_files else 'working tree'}")
        for rel in sorted(old_files & new_files):
            if not filecmp.cmp(old_dir / rel, new_dir / rel, shallow=False):
                size = ""
                if rel.suffix in (".json", ".csv"):
                    size = f" ({largest_difference(old_dir / rel, new_dir / rel)})"
                diffs.append(f"{rel}: contents differ{size}")
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_tree, old_dir, new_dir = tmp / "tree", tmp / "rev", tmp / "work"
        for d in (old_tree, old_dir, new_dir):
            d.mkdir()
        archive = subprocess.run(["git", "archive", argv[0]], cwd=REPO,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(old_tree)
        with ThreadPoolExecutor(max_workers=2) as pool:
            old = pool.submit(run_matrix, old_tree, old_dir)
            new = pool.submit(run_matrix, REPO, new_dir)
            diffs = compare(old_dir, new_dir, old.result(), new.result())
        n_files = sum(1 for p in new_dir.rglob("*") if p.is_file())
    for line in diffs:
        print(line)
    print(f"{len(matrix())} runs, {n_files} output files in the working tree, "
          f"{len(diffs)} differences against {argv[0]}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
