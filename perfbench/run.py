#!/usr/bin/env python3
"""Benchmark of the ``mlofi`` command line on generated LOBSTER message files.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and writes only under
``.perfbench/`` there (and Python's ``__pycache__``). Each run of a workload is one fresh interpreter
(``child.py``) that imports ``mlofi.cli`` from the checkout's ``src`` and
calls ``mlofi.cli.main`` on message files generated from ``--seed`` before
any timing starts. BLAS and OpenMP pools are capped at one thread, so a run
is one process with one thread, as the CLI is used.

``--trace 0`` repeats the workload for about ``--seconds``, one fresh
interpreter per call, and reports medians over the calls of the end-to-end
metrics. ``--trace 1`` makes one untraced and one traced call and reports
the per-layer metrics of the traced one (see ``spans.py``). Both print
every metric they measured as a table, then the result as one JSON line.

Host speed. The shared host this runs on changes speed by up to 1.7x for
seconds to minutes at a time, which no median over a minute removes. So
each child times a fixed loop every 50 ms while it imports and calls the
program (``child.HostSampler``), and the end-to-end times (``setup_s``,
``wall_s``, ``cpu_s``, and so ``events_per_s``) are the measured times
scaled to a host where the tick takes ``TICK_REF_US``, about an unloaded
core of a 2.0 GHz Xeon (Sapphire Rapids) VM. Set-up time is scaled by
``TICK_REF_US`` over the mean tick of the import. The program's calls slow
down more than the tick when the host slows, by the power
``CALL_TICK_EXPONENT`` (fitted over about 150 calls of the two workloads on
that VM), so call times are scaled by that power of the ratio. A change to
the program moves the scaled times as it moves the measured ones; the
unscaled medians and the mean ticks are printed and saved with every
result. Per-layer times are scaled like call times, by the traced call's
ticks. All times include the sampler's ticks, about 0.3%.

Every run's output is checked. For seeds with a file under ``reference/``,
the generated inputs must match its row count and sha256 (else the
benchmark aborts, so a generator change cannot pass as a speed-up) and the
outputs must match the seed code's: ``samples.csv`` byte for byte, and
``report.json``/``fits.json`` with integers exact and floats within 1e-9
relative. For other seeds every run must reproduce the first run's output.
A nonzero exit or a mismatch counts as a failed run.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
REFERENCE_DIR = BENCH_DIR / "reference"

#: Float tolerance for JSON outputs (ROADMAP: refactors may move floats by
#: at most 1e-9 relative); below ABS_TOL a value counts as zero.
REL_TOL = 1e-9
ABS_TOL = 1e-12

THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
#: Host-speed tick of the reference host, in microseconds (see the module
#: docstring).
TICK_REF_US = 100.0
#: log(call time) / log(tick time) as the host's speed changes.
CALL_TICK_EXPONENT = 1.3
#: The whole invocation ends within this many seconds.
DEADLINE_S = 170.0

SESSION = {"session_start": 10 * 3600, "session_end": 15 * 3600 + 1800,
           "exclude_hidden": True, "tick_size": 100}
START_DATE = dt.date(2016, 1, 4)
#: ZI defaults, spelled out so that a change of the library defaults shows
#: up as an input digest mismatch instead of silently changing the inputs.
ZI_DEFAULT = {"limit_rate": 0.05, "market_rate": 0.1, "cancel_rate": 0.002,
              "price_band": 8, "mean_size": 8.0}
#: A liquid stock's day: ~270k messages, so per-event and per-row costs
#: and the memory of one resident day dominate.
ZI_BUSY = {**ZI_DEFAULT, "limit_rate": 0.2, "price_band": 16,
           "market_rate": 0.5, "cancel_rate": 0.01}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # mlofi arguments besides --messages and --out
    zi: dict
    n_days: int
    first_zi_seed: int
    output: str  # the output file checked against the reference

    def days(self, seed: int) -> list[dict]:
        """Day specs for a benchmark seed; seed 0 gives the documented inputs."""
        base = self.first_zi_seed + 5 * seed
        return [{"seed": base + i, "date": (START_DATE + dt.timedelta(days=i)).isoformat()}
                for i in range(self.n_days)]


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline report on one day: replay (three passes per
        # day) dominates, regression layers are <5%. One day per call keeps
        # a call at a few seconds, so a run takes the median of many calls.
        Workload("evaluate-1d", ("evaluate", "--levels", "10"),
                 ZI_DEFAULT, 1, 42, "report.json"),
        # 330 small per-window penalty searches: lambda selection and
        # per-window fits dominate, through cli's own problem assembly.
        Workload("fit-per-window-1d",
                 ("fit", "--methods", "ols,ridge", "--lambda-mode", "per-window",
                  "--DT", "60", "--dt", "1", "--levels", "10"),
                 ZI_DEFAULT, 1, 42, "fits.json"),
        # One busy day through parse and a single replay, no regression.
        Workload("compute-busy", ("compute", "--levels", "10"),
                 ZI_BUSY, 1, 7, "samples.csv"),
    )
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "events_per_s": "events/s",
                    "cpu_s": "s", "peak_rss_mib": "MiB"}


class BenchAbort(Exception):
    """The benchmark cannot produce a meaningful result."""


# -- inputs ------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MLOFI_OUTPUT_DIR"}
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(root / "src")
    return env


def digest_files(paths: list[Path]) -> dict:
    sha = hashlib.sha256()
    rows = 0
    for path in paths:
        data = path.read_bytes()
        sha.update(path.name.encode() + b"\n" + data)
        rows += data.count(b"\n")
    return {"rows": rows, "sha256": sha.hexdigest()}


def prepare_inputs(workload: Workload, seed: int, root: Path, work: Path) -> tuple[Path, dict]:
    """Generate (or reuse) the workload's message files for this seed."""
    target = work / "inputs" / f"{workload.name}-seed{seed}"
    if not (target / "DONE").exists():
        tmp = target.with_name(target.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        spec = {"session": SESSION, "zi": workload.zi, "days": workload.days(seed)}
        spec_path = tmp.with_name(tmp.name + ".json")
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, str(CHILD), "gen", str(spec_path), str(tmp)],
            env=child_env(root), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchAbort(f"input generation failed:\n{proc.stderr[-2000:]}")
        (tmp / "DONE").write_text("")
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
        spec_path.unlink()
    return target, digest_files(sorted(target.glob("*_message_*")))


def load_reference(workload: Workload, seed: int) -> dict | None:
    path = REFERENCE_DIR / workload.name / f"seed{seed}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


# -- outputs -----------------------------------------------------------------


def read_output(workload: Workload, out_dir: Path) -> tuple[object, str]:
    """The checked output as a comparable value, and the file's sha256."""
    data = (out_dir / workload.output).read_bytes()
    sha = hashlib.sha256(data).hexdigest()
    if workload.output.endswith(".json"):
        return json.loads(data), sha
    return {"rows": data.count(b"\n"), "sha256": sha}, sha


def first_difference(ref, got, path: str = "$") -> str | None:
    """Where ``got`` departs from ``ref``: ints and strings exact, floats to REL_TOL."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(ref)}"
        for key in sorted(ref):
            diff = first_difference(ref[key], got[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{path}: length {len(got) if isinstance(got, list) else got!r} != {len(ref)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            diff = first_difference(r, g, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(ref, float) and isinstance(got, float):
        if math.isnan(ref) and math.isnan(got):
            return None
        if math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return None
        return f"{path}: {got!r} != {ref!r}"
    if type(ref) is not type(got) or ref != got:
        return f"{path}: {got!r} != {ref!r}"
    return None


# -- runs ----------------------------------------------------------------------


@dataclass
class Bench:
    workload: Workload
    root: Path
    work: Path
    inputs: Path
    rows: int
    reference: dict | None
    deadline: float
    first_output: object = None
    n_runs: int = 0

    def __post_init__(self):
        # A program that caches derived data beside its inputs would move
        # work out of the timed runs; such runs fail instead.
        self.input_listing = sorted(p.name for p in self.inputs.iterdir())

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, trace: bool) -> dict:
        """One fresh-interpreter run; ``failure`` is None when it passed."""
        self.n_runs += 1
        runs = self.work / "runs"
        out = runs / f"out{self.n_runs}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        result_path = runs / f"result{self.n_runs}.json"
        log_path = runs / f"log{self.n_runs}.txt"
        argv = [*self.workload.argv, "--messages", str(self.inputs / "*_message_*"),
                "--out", str(out)]
        spawned = time.monotonic()
        try:
            with open(log_path, "w") as log:
                proc = subprocess.run(
                    [sys.executable, str(CHILD), "run", str(result_path),
                     "1" if trace else "0", "--", *argv],
                    env=child_env(self.root), stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.remaining()),
                )
        except subprocess.TimeoutExpired:
            return {"failure": "timed out", "elapsed_s": time.monotonic() - spawned}
        elapsed = time.monotonic() - spawned
        if sorted(p.name for p in self.inputs.iterdir()) != self.input_listing:
            return {"failure": "the program changed its input directory", "elapsed_s": elapsed}
        if proc.returncode != 0 or not result_path.exists():
            tail = log_path.read_text()[-1500:]
            return {"failure": f"child exited {proc.returncode}:\n{tail}", "elapsed_s": elapsed}
        with open(result_path) as fh:
            result = json.load(fh)
        result["elapsed_s"] = elapsed
        result["setup_s"] = result["import_done"] - spawned
        # A phase shorter than one tick interval borrows the other's ticks.
        setup_ticks = result["setup_ticks_us"] or result["call_ticks_us"] or [TICK_REF_US]
        result["setup_tick_us"] = statistics.mean(setup_ticks)
        result["call_tick_us"] = statistics.mean(result["call_ticks_us"] or setup_ticks)
        result["setup_scale"] = TICK_REF_US / result["setup_tick_us"]
        result["speed_scale"] = (TICK_REF_US / result["call_tick_us"]) ** CALL_TICK_EXPONENT
        result["failure"] = self.check(result, out)
        return result

    def check(self, result: dict, out: Path) -> str | None:
        if result["exit_code"] != 0:
            return f"mlofi exited {result['exit_code']}"
        try:
            got, sha = read_output(self.workload, out)
        except (OSError, ValueError) as exc:
            return f"unreadable {self.workload.output}: {exc}"
        result["output_sha256"] = sha
        if self.reference is not None:
            diff = first_difference(self.reference["output"], got)
            return f"{self.workload.output} differs from reference at {diff}" if diff else None
        if self.first_output is None:
            self.first_output = got
            return None
        diff = first_difference(self.first_output, got)
        return f"{self.workload.output} differs from the first run at {diff}" if diff else None


def percentile(values: list[float], q: float) -> tuple[float | None, int]:
    """Linear-interpolated percentile and the number of samples beyond it.

    The value is None when fewer than ten samples lie beyond it.
    """
    ordered = sorted(values)
    if not ordered:
        return None, 0
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    beyond = len(ordered) - 1 - lo
    if beyond < 10:
        return None, beyond
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]), beyond


def end_to_end(timed: list[dict], rows: int) -> dict:
    """Medians over the calls, times scaled to the reference host speed."""

    def median(values) -> tuple[float, int]:
        values = list(values)
        return statistics.median(values), len(values)

    return {
        "setup_s": median(r["setup_s"] * r["setup_scale"] for r in timed),
        "wall_s": median(r["wall_s"] * r["speed_scale"] for r in timed),
        "events_per_s": median(rows / (r["wall_s"] * r["speed_scale"]) for r in timed),
        "cpu_s": median(r["cpu_s"] * r["speed_scale"] for r in timed),
        "peak_rss_mib": median(r["peak_rss_mib"] for r in timed),
    }


def unscaled(timed: list[dict]) -> dict:
    """Medians of the measured times and of the mean ticks, for the record."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "cpu_s": statistics.median(r["cpu_s"] for r in timed),
        "setup_tick_us": statistics.median(r["setup_tick_us"] for r in timed),
        "call_tick_us": statistics.median(r["call_tick_us"] for r in timed),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced run: name -> (value, unit, samples, note).

    What each should move: parse and replay time move ``wall_s`` and
    ``events_per_s`` everywhere (replay also ``peak_rss_mib``); book summary
    time and ``replays_per_day`` move ``wall_s`` on evaluate-1d only; select,
    solves and fit move ``wall_s`` on fit-per-window-1d and barely elsewhere;
    compute-busy runs parse and one replay only. Self times plus
    ``cli.other_s`` add up to ``trace.wall_s``. Times are scaled by the
    traced call's ``speed_scale``, as the end-to-end ones are.
    """
    t = traced["trace"]
    scale = traced["speed_scale"]
    layers, counts = t["layers"], t["counts"]
    absent = set(t["absent_layers"])

    def note(layer_name: str) -> str:
        if layer_name in absent:
            return "absent"
        return "unavailable" if layer_name in t["unavailable"] else ""

    def layer(name: str):
        return layers[name]["self_s"] * scale, "s", layers[name]["calls"], note(name)

    def count(name: str, layer_name: str):
        return counts.get(name, 0), "count", 1, note(layer_name)

    def per_item(time_name: str, count_name: str):
        n = counts.get(count_name, 0)
        return (layers[time_name]["self_s"] * scale / n * 1e6 if n else 0.0), "us", n, ""

    def select_pct(q: float):
        calls = layers["inference.select"]["call_ms"]
        value, beyond = percentile(calls, q)
        note = "" if value is not None else f"undefined: {beyond} samples beyond"
        return (value or 0.0) * scale, "ms", len(calls), note

    days = layers["lobster.parse"]["calls"]
    replays = layers["imbalance.replay"]["calls"] + counts.get("evaluation.book_summary_days", 0)
    wall = traced["wall_s"] * scale
    return {
        "lobster.parse_s": layer("lobster.parse"),
        "lobster.rows": count("lobster.rows", "lobster.parse"),
        "lobster.us_per_row": per_item("lobster.parse", "lobster.rows"),
        "imbalance.replay_s": layer("imbalance.replay"),
        "imbalance.events": count("imbalance.events", "imbalance.replay"),
        "imbalance.us_per_event": per_item("imbalance.replay", "imbalance.events"),
        "imbalance.discarded_intervals": count("imbalance.discarded_intervals", "imbalance.replay"),
        "evaluation.book_summary_s": layer("evaluation.book_summary"),
        "evaluation.book_summary_calls": (layers["evaluation.book_summary"]["calls"], "count", 1, ""),
        "pipeline.replays_per_day": ((replays / days if days else 0.0), "replays/day", days, ""),
        "sampling.assemble_s": layer("sampling.assemble"),
        "sampling.problems": count("sampling.problems", "sampling.assemble"),
        "sampling.dropped_windows": count("sampling.dropped_windows", "sampling.assemble"),
        "inference.select_s": layer("inference.select"),
        "inference.select_calls": (layers["inference.select"]["calls"], "count", 1, ""),
        "inference.select_ms_p50": select_pct(0.50),
        "inference.select_ms_p95": select_pct(0.95),
        "inference.solves": count("inference.solves", "inference.solves"),
        "inference.fit_s": layer("inference.fit"),
        "inference.fit_calls": (layers["inference.fit"]["calls"], "count", 1, ""),
        "inference.rank_deficient": count("inference.fit.raised.RankDeficient", "inference.fit"),
        "evaluation.curves_s": layer("evaluation.curves"),
        "cli.other_s": (wall - t["top_level_s"] * scale, "s", 1, ""),
        "trace.wall_s": (wall, "s", 1, ""),
        "trace.overhead_s": (wall - untraced["wall_s"] * untraced["speed_scale"], "s", 1, ""),
        "trace.absent_layers": (len(absent), "count", 1, ", ".join(sorted(absent))),
    }


# -- environment ---------------------------------------------------------------


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def source_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest(root: Path) -> str:
    """sha256 over the program's sources; identifies the code without git."""
    sha = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode() + b"\n" + path.read_bytes())
    return sha.hexdigest()[:16]


def environment(root: Path) -> dict:
    return {
        "commit": source_commit(root),
        "src_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "thread_caps": THREAD_CAPS,
        "loadavg_start": loadavg(),
        "steal_s_start": steal_s(),
    }


# -- main ------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def measure(args: argparse.Namespace, root: Path) -> tuple[dict, dict]:
    started = time.monotonic()
    if not (root / "src" / "mlofi" / "cli.py").is_file():
        raise BenchAbort(f"no mlofi sources under {root / 'src'}; run from a checkout root")
    work = root / ".perfbench"
    shutil.rmtree(work / "runs", ignore_errors=True)
    (work / "runs").mkdir(parents=True)
    workload = WORKLOADS[args.workload]
    env = environment(root)
    inputs, digest = prepare_inputs(workload, args.seed, root, work)
    reference = load_reference(workload, args.seed)
    if reference is not None and reference["inputs"] != digest:
        raise BenchAbort(f"generated inputs {digest} differ from reference "
                         f"{reference['inputs']}: the generator changed")
    bench = Bench(workload, root, work, inputs, digest["rows"], reference,
                  deadline=started + DEADLINE_S)

    runs: list[dict] = []
    if args.trace:
        for trace in (False, True):
            runs.append(bench.run(trace=trace))
    else:
        loop_start = time.monotonic()
        while True:
            runs.append(bench.run(trace=False))
            last = runs[-1]["elapsed_s"]
            # Start another call only if one as long as the last still fits.
            if (time.monotonic() - loop_start + last > args.seconds
                    or bench.remaining() < 1.5 * last):
                break
    timed = [r for r in runs if "wall_s" in r]
    if not timed or (args.trace and len(timed) < len(runs)):
        raise BenchAbort("no run finished:\n" + "\n".join(str(r["failure"]) for r in runs))

    e2e = end_to_end(timed[:1] if args.trace else timed, bench.rows)
    layers = per_layer(timed[1], timed[0]) if args.trace else {}
    versions = timed[0]["versions"]
    env.update(versions)
    env["loadavg_end"] = loadavg()
    env["steal_s"] = steal_s() - env.pop("steal_s_start")
    env["unscaled"] = unscaled(timed[:1] if args.trace else timed)
    failures = [r["failure"] for r in runs if r["failure"]]
    record = {
        "workload": workload.name, "seed": args.seed, "traced": args.trace,
        "seconds": args.seconds, "environment": env, "inputs": digest,
        "reference": reference is not None,
        "output_bytes_match_reference": (
            reference is not None
            and all(r.get("output_sha256") == reference["output_sha256"] for r in timed)),
        "runs": [{k: v for k, v in r.items() if k != "trace"} for r in runs],
        "trace": timed[1]["trace"] if args.trace else None,
        "failures": failures,
    }
    return record, {"e2e": e2e, "layers": layers}


def print_table(record: dict, metrics: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['traced']}: "
          f"{record['inputs']['rows']} message rows, inputs sha256 "
          f"{record['inputs']['sha256'][:16]}, reference "
          f"{'checked' if record['reference'] else 'none (outputs checked run to run)'}")
    print("environment: " + json.dumps(env, sort_keys=True))
    raw = env["unscaled"]
    print(f"noise: unscaled medians setup {raw['setup_s']:.3f} s, wall {raw['wall_s']:.3f} s, "
          f"cpu {raw['cpu_s']:.3f} s; mean tick {raw['setup_tick_us']:.1f} us in set-up, "
          f"{raw['call_tick_us']:.1f} us in calls (reference {TICK_REF_US} us), steal {env['steal_s']:.2f} s, loadavg "
          f"{env['loadavg_start'].split()[0]} -> {env['loadavg_end'].split()[0]}")
    print(f"{'metric':34} {'value':>16} {'unit':12} {'n':>6}  note")
    for name, (value, n) in metrics["e2e"].items():
        print(f"{name:34} {value:16.6g} {END_TO_END_UNITS[name]:12} {n:6d}")
    attempted = len(record["runs"])
    print(f"{'error_rate':34} {len(record['failures']) / attempted:16.6g} {'ratio':12} {attempted:6d}")
    for name, (value, unit, n, note) in metrics["layers"].items():
        print(f"{name:34} {value:16.6g} {unit:12} {n:6d}  {note}")
    for failure in record["failures"]:
        print(f"FAILED RUN: {failure}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        record, metrics = measure(args, root)
    except BenchAbort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(results / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print_table(record, metrics)
    if args.trace:
        reported = {k: {"value": v[0], "unit": v[1]} for k, v in metrics["layers"].items()}
    else:
        reported = {k: {"value": v[0], "unit": END_TO_END_UNITS[k]}
                    for k, v in metrics["e2e"].items()}
    attempted = len(record["runs"])
    failed = len(record["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
