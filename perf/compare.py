#!/usr/bin/env python3
"""Compare two sets of benchmark results: ``python3 perf/compare.py A B``.

A set is a directory written by ``run.py --all --runs 3 --out DIR`` (or any
directory of untraced result files): several runs per workload, compared by
their median.  ``A`` is the base, ``B`` the candidate.  One row is printed
per workload and end-to-end metric with both medians, the ratio ``B/A`` and
a verdict taken from the bounds and directions in ``BENCHMARK.json``:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is worse by more than the bound
``unresolved``  the runs of one set differ among themselves by more than
                the bound, so the medians cannot settle it, unless every
                run of one set reads better than every run of the other

Exits non-zero when any row is ``worse``.  Comparing two sets of the same
code is the benchmark's own acceptance test: every row must be ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per untraced run]}}`` of a result directory."""
    runs: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") != 0 or "metrics" not in record:
            continue
        for name, entry in record["metrics"].items():
            runs[record["workload"]][name].append(float(entry["value"]))
    return runs


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, B/A, spread)`` for one metric on one workload."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a
    spread = max((max(v) - min(v)) / statistics.median(v) for v in (a, b))
    if spread > bound:
        every_b = [sign * (y - x) for x in a for y in b]
        if max(every_b) < 0:
            status = "ok"  # every run of B reads better than every run of A
        elif min(every_b) > 0 and worse_by > bound:
            status = "worse"
        else:
            status = "unresolved"
    else:
        status = "worse" if worse_by > bound else "ok"
    return status, med_b / med_a, spread


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    set_a, set_b = (load_set(Path(p)) for p in argv)
    print(f"{'workload':14s} {'metric':28s} {'A (base)':>14s} {'B':>14s} {'B/A':>8s} "
          f"{'spread':>8s} {'bound':>7s}  verdict")
    counts: dict[str, int] = defaultdict(int)
    for workload in (w["name"] for w in bench["workloads"]):
        for spec in bench["end_to_end"]:
            a = set_a.get(workload, {}).get(spec["name"])
            b = set_b.get(workload, {}).get(spec["name"])
            if not a or not b:
                print(f"{workload:14s} {spec['name']:28s} missing from {'A' if not a else 'B'}")
                counts["unresolved"] += 1
                continue
            status, ratio, spread = verdict(a, b, spec["better"], spec["bound"])
            counts[status] += 1
            print(f"{workload:14s} {spec['name']:28s} {statistics.median(a):14.4f} "
                  f"{statistics.median(b):14.4f} {ratio:8.4f} {spread:8.2%} "
                  f"{spec['bound']:7.1%}  {status}")
    print(", ".join(f"{n} {status}" for status, n in sorted(counts.items())))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
