#!/usr/bin/env python3
"""Use case 2 at small scale: CPT with the *filtered* strategy.

Mirrors the paper's §5.3 Llama CPT experiment: continual pre-training
on the PubMed-like corpus with only the first/last two layers saved
every interval and half the middle layers (plus the large auxiliary
layers) every 5x interval.  Reports the measured checkpoint-size
reduction against full checkpointing and the loss after recovery.

Run:  python examples/cpt_pubmed.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import TrainConfig, Trainer
from repro.io import checkpoint_dir, list_checkpoint_steps
from repro.util.humanize import format_bytes, format_ratio


def run(strategy: str, out: Path, failure_step: int | None):
    config = TrainConfig(
        model="llama3.2-1b-sim",      # real 16-layer topology, small width
        task="cpt",
        total_steps=80,
        checkpoint_strategy=strategy,
        checkpoint_interval=10,
        strategy_kwargs={"slow_factor": 3} if strategy == "filtered" else {},
        failure_step=failure_step,
        output_dir=str(out),
        world_size=2,
        micro_batch_size=2,
        grad_accum_steps=1,
        seq_len=48,
        log_every=20,
    )
    trainer = Trainer(config)
    result = trainer.train()
    return trainer, result


def run_bytes(root: Path) -> int:
    return sum(checkpoint_dir(root, s).nbytes() for s in list_checkpoint_steps(root))


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="llmtailor-cpt-"))

    print("=== baseline: full checkpointing, uninterrupted ===")
    _, baseline = run("full", workdir / "full", failure_step=None)
    print(baseline.summary())
    full_bytes = run_bytes(workdir / "full")

    print("\n=== filtered checkpointing with a crash at step 70 ===")
    trainer, interrupted = run("filtered", workdir / "filtered", failure_step=70)
    print(interrupted.summary())
    trainer.auto_recover(70)
    resumed = trainer.train()
    print(resumed.summary())
    filtered_bytes = run_bytes(workdir / "filtered")

    print("\n=== checkpoint volume (measured on disk) ===")
    print(f"  full     : {format_bytes(full_bytes)}")
    print(f"  filtered : {format_bytes(filtered_bytes)}")
    print(f"  reduction: {format_ratio(full_bytes, filtered_bytes)}")
    print("\nfinal losses (baseline vs filtered-recovered):")
    print(f"  train: {baseline.final_train_loss:.4f} vs {resumed.final_train_loss:.4f}")
    print(f"  eval : {baseline.final_eval_loss:.4f} vs {resumed.final_eval_loss:.4f}")
    print("(paper §5.3: filtered recovery may drift slightly — that is the trade-off)")


if __name__ == "__main__":
    main()
