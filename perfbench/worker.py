"""Run one workload of the fieldlab benchmark in a fresh process.

`run.py` starts this script with `src/` on `PYTHONPATH` and reads the one
JSON line it prints.  The script imports fieldlab (and with it numpy and
scipy), writes the workload's configs, and notes the `time.monotonic()` of
that moment, just before the first verify call; on Linux that clock is shared
by all processes, so `run.py` can take set-up time as the difference from the
moment it started this process.  With `--setup-only` it stops there.

Otherwise it repeats the workload's call list (a round) until `--seconds`
have passed.  Each call's exit code, time and report digest are returned,
and the process's peak RSS.  With `--trace 1` untraced and traced rounds
alternate, with at least two traced rounds, and each traced round also
returns the tracer's counts, seconds and per-function table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads


def digest_outputs(outdir: Path) -> tuple[str | None, int]:
    """SHA-256 over the call's report files, and their total size in bytes.

    `resolved_config.json` is left out: it holds the output path.
    """
    if not outdir.is_dir():
        return None, 0
    h = hashlib.sha256()
    size = 0
    for path in sorted(outdir.iterdir()):
        if path.name == "resolved_config.json":
            continue
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), size


def run_round(cli, calls, configs: dict, workdir: Path) -> list[dict]:
    """Make every call of the workload once; only the calls themselves are timed."""
    out = []
    for call in calls:
        outdir = workdir / "out" / call.name
        shutil.rmtree(outdir, ignore_errors=True)
        argv = ["verify", "--config", str(configs[call.name]), "--output-dir", str(outdir)]
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a call that raises is a failed operation; keep going
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - t0
        digest, size = digest_outputs(outdir)
        out.append({"call": call.name, "code": code, "seconds": seconds,
                    "digest": digest, "bytes": size})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from fieldlab import cli  # imports numpy and scipy

    calls = workloads.WORKLOADS[args.workload]
    configs = {}
    for call in calls:
        path = args.workdir / "configs" / f"{call.name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(workloads.config(call, args.seed), indent=2) + "\n")
        configs[call.name] = path
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        import tracer
    rounds, traced = [], []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(cli, calls, configs, args.workdir))
        if args.trace:
            with tracer.Tracer() as tr:
                calls_out = run_round(cli, calls, configs, args.workdir)
            counts, seconds, functions = tr.snapshot()
            traced.append({"calls": calls_out, "counts": counts, "seconds": seconds,
                           "functions": functions})
        if time.perf_counter() - start >= args.seconds and len(traced) >= 2 * args.trace:
            break

    result.update(
        rounds=rounds,
        traced=traced,
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
