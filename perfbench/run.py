"""Benchmark of `fieldlab verify`: end-to-end metrics, or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py [--workload dependence|ladder|coupling|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload (see workloads.py) runs in a fresh process (worker.py) that
repeats the workload's `fieldlab verify` calls for `--seconds` seconds; the
default is `run_seconds` of BENCHMARK.json at the repository root.

With `--trace 0` the metrics are, per workload:
  wall_s       median wall time of one round of the workload's calls
  setup_s      median, over several fresh processes, of the time from process
               start to the first verify call (interpreter, numpy, scipy and
               fieldlab imports, writing the configs)
  peak_rss_mb  ru_maxrss of the workload's process, in MiB
failed_share (failed calls over attempted calls) is printed with them; the
same counts are the result's `attempted` and `failed`.

With `--trace 1` untraced and traced rounds alternate in one process and the
metrics are the per-layer ones (tracer.py): counts from the traced rounds,
which must repeat exactly, median busy times and the tracing overhead
(traced minus untraced round time).  The median time of each of the
workload's calls around `cli.main` on the untraced rounds,
`verify.call_s.<call>`, is printed on its own line and kept in the run
record; the JSON result leaves it out, because each workload makes other
calls.

A call fails if it raises, exits with code 2 or 3, or writes report bytes
(`summary.json` and the claim CSV) whose digest differs from the one stored
in reference.json for this workload and seed.  For a seed with no stored
digest the first round's digests are printed and later rounds must match
them.  A claim verdict of FAIL (exit code 1) is not a failed call.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Files go to `.perfbench_out/`
at the repository root: the work directory of a run (removed at its end) and
a record of each run (machine, verdicts, digests, per-function trace table).
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s

def machine_record() -> dict:
    """Core counts, versions, cache sizes and commit of this run."""

    def command(*argv):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    caches = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind != "Instruction":
            caches[f"l{level}"] = size
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = command("nproc")
    record = {
        "nproc": int(nproc) if nproc and nproc.isdigit() else None,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "cpu_model": cpu_model,
        "commit": command("git", "rev-parse", "HEAD"),
    }
    # The CLI starts os.cpu_count() threads; more threads than usable cores
    # would make the timings measure oversubscription.
    record["oversubscribed"] = (record["cpu_count"] or 0) > record["affinity"]
    return record


def spawn_worker(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
                 timeout: float, setup_only: bool = False) -> tuple[dict, float]:
    """Run worker.py to completion; return its result and its set-up time."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(workdir)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    started = time.monotonic()
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise RuntimeError(f"{workload}: worker did not finish within {e.timeout:.0f} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-20:])
        raise RuntimeError(f"{workload}: worker exited with code {done.returncode}\n{tail}")
    result = json.loads(lines[-1])
    return result, result["ready"] - started


def check_calls(workload: str, seed: int, rounds: list[list[dict]],
                reference: dict) -> tuple[int, int, list[dict]]:
    """(attempted, failed, first-round outcomes) against the stored digests."""
    stored = reference.get(workload, {}).get(str(seed), {})
    expected = {call: entry["sha256"] for call, entry in stored.items()}
    attempted = failed = 0
    for calls in rounds:
        for call in calls:
            attempted += 1
            want = expected.setdefault(call["call"], call["digest"])
            ok = call["code"] in (0, 1) and call["digest"] is not None
            failed += not (ok and call["digest"] == want)
    outcomes = [
        {"call": c["call"], "code": c["code"], "digest": c["digest"],
         "reference": c["call"] in stored,
         "matches": c["digest"] == expected[c["call"]]}
        for c in rounds[0]
    ]
    return attempted, failed, outcomes


def verdict(code) -> str:
    return {0: "PASS", 1: "FAIL"}.get(code, f"ERROR (exit {code})")


def round_seconds(calls: list[dict]) -> float:
    return sum(c["seconds"] for c in calls)


def layer_metrics(result: dict) -> tuple[dict, bool]:
    """Per-layer metrics of a traced run, and whether its counts repeated."""
    traced = result["traced"]

    def exact(t):  # what must repeat: every count and every function's call count
        return t["counts"], {name: rec[0] for name, rec in t["functions"].items()}

    repeat = all(exact(t) == exact(traced[0]) for t in traced[1:])
    if not repeat:
        print("error: counts differ between traced rounds (see the run record)")
    counts = traced[0]["counts"]
    streams, cells = counts["rng.streams"], counts["fields.cells"]
    metrics = {name: (value, "count") for name, value in counts.items()}
    metrics["rng.reopened_share"] = (
        1.0 - counts["rng.distinct_keys"] / streams if streams else 0.0, "ratio")
    metrics["fields.computed_bytes"] = (8 * cells, "B")
    metrics["fields.innovations_per_cell"] = (
        counts["fields.innovations"] / cells if cells else 0.0, "ratio")
    for name in traced[0]["seconds"]:
        metrics[name] = (statistics.median(t["seconds"][name] for t in traced), "s")
    untraced = result["rounds"]
    metrics["verify.bytes_written"] = (sum(c["bytes"] for c in traced[0]["calls"]), "B")
    metrics["trace.overhead_s"] = (
        statistics.median(round_seconds(t["calls"]) for t in traced)
        - statistics.median(round_seconds(r) for r in untraced), "s")
    return metrics, repeat


def call_seconds(workload: str, rounds: list[list[dict]]) -> dict:
    """verify.call_s.<call>: median time of each of the workload's calls."""
    return {
        f"verify.call_s.{call.name}": statistics.median(
            c["seconds"] for r in rounds for c in r if c["call"] == call.name)
        for call in workloads.WORKLOADS[workload]
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 machine: dict, reference: dict) -> tuple[dict, bool, int, int]:
    """Run one workload; return (metrics, correct, attempted, failed)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = OUT / f"work-{workload}-seed{seed}-{os.getpid()}"
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_REPEATS - 1):
                _, setup = spawn_worker(workload, seed, seconds, trace, workdir,
                                        deadline - time.monotonic(), setup_only=True)
                setups.append(setup)
        result, setup = spawn_worker(workload, seed, seconds, trace, workdir,
                                     deadline - time.monotonic())
        setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = result["rounds"] + [t["calls"] for t in result["traced"]]
    attempted, failed, outcomes = check_calls(workload, seed, rounds, reference)
    for o in outcomes:
        ref = ("matches reference" if o["matches"] else "DIFFERS from reference") \
            if o["reference"] else "no reference for this seed"
        print(f"{workload} seed={seed} {o['call']}: {verdict(o['code'])} "
              f"sha256={o['digest']} ({ref})")

    correct = failed == 0
    per_call = {}
    if trace:
        metrics, repeat = layer_metrics(result)
        correct = correct and repeat
        per_call = call_seconds(workload, result["rounds"])
    else:
        metrics = {
            "wall_s": (statistics.median(round_seconds(r) for r in result["rounds"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_kib"] / 1024.0, "MiB"),
        }
    for key, (value, unit) in metrics.items():
        print(f"{workload} {key} = {value:.6g} {unit}")
    for key, value in per_call.items():
        print(f"{workload} {key} = {value:.6g} s")
    print(f"{workload} failed_share = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} calls failed, {len(rounds)} rounds)")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine, "outcomes": outcomes,
        "attempted": attempted, "failed": failed, "setup_s": setups,
        "round_s": [round_seconds(r) for r in result["rounds"]],
        "rounds": result["rounds"],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "call_s": per_call,
        "traced": result["traced"],
    }
    Path(OUT, f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return metrics, correct, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="comma-separated workload names, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured time per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the
    # worker it is waiting for before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(workloads.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (SRC / "fieldlab" / "cli.py").is_file():
        print(f"error: no fieldlab sources under {SRC}", file=sys.stderr)
        return 2

    machine = machine_record()
    print("machine: " + json.dumps(machine, sort_keys=True))
    if machine["oversubscribed"]:
        print(f"warning: os.cpu_count() = {machine['cpu_count']} exceeds the "
              f"{machine['affinity']} usable cores; the CLI will oversubscribe them")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}

    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        try:
            m, ok, a, f = run_workload(name, args.seed, args.seconds, args.trace,
                                       machine, reference)
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
        correct, attempted, failed = correct and ok, attempted + a, failed + f
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
