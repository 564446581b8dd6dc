"""Smoke test of the benchmark harness itself: ``pytest perf/tests``.

Not collected by the tier-1 suite (``testpaths = tests``).  ``--smoke`` runs
a short trail for two seconds, so this checks that the harness emits what
``BENCHMARK.json`` promises and cleans up after itself — not how fast the
program is.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _tree(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if "__pycache__" not in p.parts and ".pytest_cache" not in p.parts}


def test_benchmark_json_meets_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perf"]
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(n) for n in names)
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    # 4 + 22 runs per workload, each run_seconds plus set-up and checks, within 3420 s.
    runs = 4 + 22 * len(BENCH["workloads"])
    assert runs * (BENCH["run_seconds"] + 10) <= 3420


def test_all_smoke_emits_every_metric_once(tmp_path):
    before = _tree(ROOT)
    out = tmp_path / "results"
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--all", "--smoke", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    for workload in (w["name"] for w in BENCH["workloads"]):
        for tag, section in (("run0", "end_to_end"), ("traced", "per_layer")):
            record = json.loads((out / f"{workload}.{tag}.json").read_text(encoding="utf-8"))
            assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in BENCH[section]}
            assert set(record["metrics"]) == set(wanted)
            for name, entry in record["metrics"].items():
                assert entry["unit"] == wanted[name]
                assert math.isfinite(entry["value"]), name
            if section == "end_to_end":
                assert all(entry["value"] > 0 for entry in record["metrics"].values())
            else:
                assert record["wrappers_installed"] > 30
                assert record["metrics"]["harness.coverage_step_pct"]["value"] >= 90
        spans = json.loads((out / f"{workload}.traced.trace.json").read_text(encoding="utf-8"))
        assert spans["fields"] == ["id", "name", "start", "end", "parent", "op"]
        assert len(spans["spans"]) > 100
    # The last line of a run is the one JSON object the driver reads.
    last = [line for line in done.stdout.splitlines() if line.startswith("{")][-1]
    assert set(json.loads(last)) == {"correct", "attempted", "failed", "metrics"}
    # Nothing is left behind outside the result directory it was given.
    assert _tree(ROOT) - before <= {PERF / ".work"}
    assert not any((PERF / ".work").iterdir())


def test_wrappers_are_fully_removed(tmp_path):
    sys.path[:0] = [str(PERF), str(ROOT / "src")]
    try:
        import lifecycle
        from spans import _MISSING, Recorder

        workload = lifecycle.WORKLOADS[BENCH["workloads"][0]["name"]]
        trainer = lifecycle.Trainer(workload.train_config(tmp_path / "run", 0))
        rec = Recorder()
        installed = lifecycle.install_wrappers(rec, trainer)
        patched = rec.patched()
        assert installed == len(patched) > 30
        for owner, attr, _ in patched:
            assert hasattr(getattr(owner, attr), "__wrapped__")
        rec.unpatch()
        # Identity, not equality: the very objects that were there are back,
        # and an instance that had no attribute of its own has none again.
        for owner, attr, original in patched:
            assert vars(owner).get(attr, _MISSING) is original
            assert not hasattr(getattr(owner, attr), "__wrapped__")
        assert rec.patched() == []
    finally:
        del sys.path[:2]


def test_no_program_means_no_result(tmp_path):
    """In a tree that holds only the benchmark, a run fails without printing a result."""
    (tmp_path / "perf").mkdir()
    for name in ("run.py", "lifecycle.py", "metrics.py", "spans.py"):
        (tmp_path / "perf" / name).write_bytes((PERF / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", BENCH["workloads"][0]["name"],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and "{" not in done.stdout


@pytest.mark.parametrize("b_scale,expected", [(1.0, 0), (1.5, 1)])
def test_compare_flags_a_regression(tmp_path, b_scale, expected):
    def write(directory: Path, scale: float) -> None:
        directory.mkdir()
        for workload in BENCH["workloads"]:
            for k in range(3):
                metrics = {
                    m["name"]: {"unit": m["unit"], "value": (100.0 + k * 0.1)
                                * (scale if m["better"] == "lower" else 1 / scale)}
                    for m in BENCH["end_to_end"]
                }
                (directory / f"{workload['name']}.run{k}.json").write_text(json.dumps(
                    {"workload": workload["name"], "trace": 0, "metrics": metrics}))

    write(tmp_path / "a", 1.0)
    write(tmp_path / "b", b_scale)
    done = subprocess.run([sys.executable, str(PERF / "compare.py"), str(tmp_path / "a"),
                           str(tmp_path / "b")], capture_output=True, text=True, timeout=60)
    assert done.returncode == expected, done.stdout
    assert ("worse" in done.stdout.split("verdict")[1]) == bool(expected)
