"""Store the report digests that run.py checks, in perfbench/reference.json.

Run from the repository root, after a change that is meant to alter the
reports (for example one that changes the random streams), or to add seeds:

    python3 perfbench/record.py [--workload NAME,...|all] [--seeds 0-31]

Each workload runs one round per seed in a fresh process.  Every call's
digest of `summary.json` and its claim CSV is stored with the claim verdict,
so checker FAILs at the benchmark's scales are on record, not hidden.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 0,5,7")
    args = parser.parse_args()
    names = list(workloads.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"workloads are {', '.join(workloads.WORKLOADS)}")

    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    for name in names:
        for seed in parse_seeds(args.seeds):
            workdir = run.OUT / f"record-{name}-seed{seed}"
            try:
                result, _ = run.spawn_worker(name, seed, 0, 0, workdir, run.RUN_LIMIT_S)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            calls = result["rounds"][0]
            bad = [c["call"] for c in calls if c["code"] not in (0, 1) or c["digest"] is None]
            if bad:
                print(f"error: {name} seed {seed}: {', '.join(bad)} failed", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = {
                c["call"]: {"sha256": c["digest"], "verdict": run.verdict(c["code"])}
                for c in calls
            }
            fails = [c["call"] for c in calls if c["code"] == 1]
            print(f"{name} seed {seed}: FAIL verdicts: {', '.join(fails) or 'none'}", flush=True)
            run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
