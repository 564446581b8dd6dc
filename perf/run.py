#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, every metric by name.

One run (what ``BENCHMARK.json``'s ``command`` starts)::

    python3 perf/run.py --workload parity_1b --seed 0 --seconds 45 --trace 0

prints each metric with its unit and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` measures
the end-to-end metrics with nothing installed; ``--trace 1`` repeats the
workload with timing wrappers installed and reports the per-layer metrics.

Every workload, untraced then traced, each in a fresh process::

    python3 perf/run.py --all --seed 0 --runs 3 --out perf/results/mine

See ``perf/README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_SECONDS = 2.0


def _load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _env_block() -> dict:
    import numpy as np

    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        # Not pinned by the benchmark: it measures what a user gets by default.
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "commit": commit,
    }


def run_one(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its result."""
    bench = _load_benchmark()
    # Implementation-selecting environment must not leak into the measurement.
    for key in list(os.environ):
        if key == "REPRO_COMM_BACKEND" or key.startswith("REPRO_BENCH_"):
            del os.environ[key]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # keeps the service's AF_UNIX path short, whatever the checkout is called
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    start = perf_counter()
    import lifecycle
    import metrics

    import_s = perf_counter() - start

    workload = lifecycle.WORKLOADS[args.workload]
    work = HERE / ".work" / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    try:
        data = lifecycle.run_workload(
            workload, seed=args.seed, seconds=seconds, traced=bool(args.trace),
            work=work, import_s=import_s, smoke=args.smoke,
        )
        values = metrics.end_to_end(data)
        printed, section = values, "end_to_end"
        if args.trace:
            logical, disk = lifecycle.blob_sizes(work / "run")
            printed, section = metrics.per_layer(data, logical, disk), "per_layer"
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)

    out_metrics = {}
    for spec in bench[section]:
        value = float(printed[spec["name"]])
        if not math.isfinite(value):
            data.check(False, f"metric {spec['name']} is not finite")
            value = 0.0
        out_metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    unnamed = sorted(set(printed) - set(out_metrics))
    if unnamed:
        raise SystemExit(f"metrics computed but not named in BENCHMARK.json: {unnamed}")

    print(f"# {workload.name} seed={args.seed} seconds={seconds} trace={args.trace}")
    for name, entry in out_metrics.items():
        print(f"{name:48s} {entry['value']:16.6f} {entry['unit']}")
    for message in data.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    result = {
        "correct": data.failed == 0,
        "attempted": data.attempted,
        "failed": data.failed,
        "metrics": out_metrics,
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{workload.name}.{args.tag}"
        record = dict(result, workload=workload.name, seed=args.seed, seconds=seconds,
                      trace=args.trace, failures=data.failures, env=_env_block())
        if args.trace:
            # The same end-to-end numbers, measured with the wrappers installed:
            # their distance from an untraced run is the tracing overhead.
            record["end_to_end_while_traced"] = values
            record["wrappers_installed"] = data.patched
            (out / f"{stem}.trace.json").write_text(json.dumps({
                "fields": ["id", "name", "start", "end", "parent", "op"],
                "spans": data.spans,
            }), encoding="utf-8")
        (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, ``--runs`` times untraced and once traced, a process each."""
    bench = _load_benchmark()
    out = args.out or str(HERE / "results" / "latest")
    status = 0
    for spec in bench["workloads"]:
        plan = [(0, f"run{k}") for k in range(args.runs)] + [(1, "traced")]
        for trace, tag in plan:
            command = [sys.executable, str(HERE / "run.py"), "--workload", spec["name"],
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", out, "--tag", tag]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, check=False)
            status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload by name (see BENCHMARK.json)")
    parser.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="--all: untraced runs per workload")
    parser.add_argument("--out", help="directory for result files (none written without it, "
                                      "except by --all: perf/results/latest)")
    parser.add_argument("--tag", default="run0", help="result file name: <workload>.<tag>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="a short trail and a two-second run: checks the harness, not the program")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_load_benchmark()["run_seconds"])
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload NAME and --all")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
