"""Paired perfbench runs of a git revision against the working tree.

Usage: python tools/perf_ab.py REV [--pairs 10] > BENCH.json

Extracts ``git archive REV`` into a temporary directory. For each of
``--pairs`` pairs and each workload ``BENCHMARK.json`` lists, it runs
``python3 perfbench/run.py --workload W --seed 0 --seconds S --trace 0``,
with S the benchmark's ``run_seconds``, once in REV's tree and once in the
working tree, each side with its own ``perfbench/`` and its own
``.perfbench/`` inputs, the side that runs first alternating from pair to
pair, so that a slow spell of the shared host lands on both sides alike. Every run must exit 0
and print ``correct: true``, or the tool exits 1.

It prints one JSON record in a fixed schema: per workload and end-to-end
metric, each side's median, quartiles and IQR over the pairs, the median
and quartiles of the paired ratio (working tree over REV) and the number of
pairs in which the working tree is better, by the metric's direction in
``BENCHMARK.json``. Per workload and side it also records the host's drift:
each run's unscaled medians (``setup_s``, ``wall_s``, ``cpu_s``) and mean
host ticks (``setup_tick_us``, ``call_tick_us``), which perfbench prints
with the run's environment, in pair order and with their spread. A/A
(REV ``HEAD`` on a clean tree) should give ratio quartiles that straddle 1 on
every metric.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCHEMA = "perf_ab/2"
#: The unscaled fields of a perfbench run's environment, recorded per side.
UNSCALED = ("setup_s", "wall_s", "cpu_s", "setup_tick_us", "call_tick_us")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, capture_output=True, text=True,
                          check=True).stdout.strip()


def perfbench(tree: Path, workload: str, seconds: float) -> dict:
    """The result line of one perfbench run in ``tree``, with its environment's
    ``unscaled`` medians added; exits the tool on a failed or incorrect run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.exit(f"perfbench {workload} in {tree} failed (exit {proc.returncode}):\n"
                 f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
    environment = next(line for line in lines if line.startswith("environment: "))
    result["unscaled"] = json.loads(environment.removeprefix("environment: "))["unscaled"]
    return result


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def drift(values: list[float]) -> dict:
    """``values`` in pair order, with their spread."""
    return {"values": values, **spread(values)}


def summary(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """One workload's record: per metric, both sides' spread, the paired
    ratios' spread and the pairs the working tree wins."""
    metrics = {}
    for name, unit in ((k, v["unit"]) for k, v in runs["work"][0]["metrics"].items()):
        rev = [r["metrics"][name]["value"] for r in runs["rev"]]
        work = [r["metrics"][name]["value"] for r in runs["work"]]
        sign = -1 if better[name] == "lower" else 1
        ratio = spread([w / r for r, w in zip(rev, work)])
        metrics[name] = {
            "unit": unit, "better": better[name],
            "rev": spread(rev), "work": spread(work),
            "ratio": {k: ratio[k] for k in ("median", "q1", "q3")},
            "pairs": len(rev),
            "pairs_work_better": sum(sign * (w - r) > 0 for r, w in zip(rev, work)),
        }
    return {
        "correct": True,
        "attempted_calls": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "failed_calls": sum(r["failed"] for side in runs for r in runs[side]),
        "metrics": metrics,
        "unscaled": {side: {name: drift([r["unscaled"][name] for r in runs[side]])
                            for name in UNSCALED} for side in runs},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {
        "schema": SCHEMA,
        "rev": args.rev, "rev_commit": git("rev-parse", args.rev),
        "work_commit": git("rev-parse", "HEAD"),
        "work_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "command": f"python3 perfbench/run.py --workload W --seed 0 --seconds {seconds:g} "
                   "--trace 0",
        "pairs": args.pairs,
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "loadavg_start": os.getloadavg()},
    }
    runs = {w: {"rev": [], "work": []} for w in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.rev], cwd=REPO,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        trees = {"rev": Path(tmp), "work": REPO}
        order = ["rev", "work"]
        for pair in range(args.pairs):
            for workload in workloads:
                for side in order:
                    runs[workload][side].append(
                        perfbench(trees[side], workload, seconds))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
            order.reverse()
    record["environment"]["loadavg_end"] = os.getloadavg()
    record["workloads"] = {w: summary(runs[w], better) for w in workloads}
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
