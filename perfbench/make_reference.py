#!/usr/bin/env python3
"""Record reference outputs of the program as it is now.

    python3 perfbench/make_reference.py SEED [SEED ...]

Run from a checkout root of the code whose outputs define correctness (the
references in ``reference/`` come from the commit that added the
benchmark). For each workload and seed it stores the generated inputs'
row count and sha256 and the output ``run.py`` checks. Existing files are
never overwritten: regenerating a reference on changed code would hide the
change.
"""

import json
import sys
import time
from pathlib import Path

import run


def main(seeds: list[int]) -> int:
    root = Path.cwd()
    work = root / ".perfbench"
    (work / "runs").mkdir(parents=True, exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        for seed in seeds:
            path = run.REFERENCE_DIR / name / f"seed{seed}.json"
            if path.exists():
                print(f"keep {path}")
                continue
            inputs, digest = run.prepare_inputs(workload, seed, root, work)
            bench = run.Bench(workload, root, work, inputs, digest["rows"],
                              reference=None, deadline=time.monotonic() + 600)
            result = bench.run(trace=False)
            if result["failure"]:
                raise SystemExit(f"{name} seed {seed}: {result['failure']}")
            output, sha = run.read_output(workload, work / "runs" / f"out{bench.n_runs}")
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w") as fh:
                json.dump({"inputs": digest, "output": output, "output_sha256": sha},
                          fh, sort_keys=True)
                fh.write("\n")
            print(f"wrote {path}: {digest['rows']} rows, {result['wall_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
