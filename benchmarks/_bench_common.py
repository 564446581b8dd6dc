"""Helpers shared by the benchmark files (kept out of conftest so the
module name cannot collide with tests/conftest.py)."""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

# Timing rounds per measured case; every table reads the mean of these.
ROUNDS = 3
WARMUP_ROUNDS = 0

# Sim-scale experiment shape shared by every use-case pipeline.
SIM_STEPS = 100
SIM_INTERVAL = 20
SIM_FAILURE = 90


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    print()
    print(text)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
