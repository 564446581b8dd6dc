#!/usr/bin/env python3
"""Quickstart: train → crash → LLMTailor merge → resume, in ~30 seconds.

Walks the full LLMTailor loop on a tiny model:

1. train with the *parity* strategy (each checkpoint holds half the
   layers), with a simulated failure injected at step 45;
2. auto-generate a merge recipe from the partial-checkpoint trail and
   assemble a complete "Frankenstein" checkpoint;
3. resume training from it and finish the run.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import TrainConfig, Trainer
from repro.io import describe_checkpoint, list_checkpoint_steps
from repro.util.humanize import format_bytes


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="llmtailor-quickstart-"))
    print(f"working directory: {workdir}\n")

    config = TrainConfig(
        model="tiny-untied",          # 4 decoder layers, untied lm_head
        task="cpt",                   # continual pre-training on the toy corpus
        total_steps=60,
        checkpoint_strategy="parity",  # paper use case 1
        checkpoint_interval=10,
        failure_step=45,              # simulated crash after step 45
        output_dir=str(workdir / "run"),
        world_size=2,                 # two simulated ZeRO-3 ranks
        micro_batch_size=2,
        grad_accum_steps=1,
        seq_len=32,
        log_every=10,
    )

    print("=== phase 1: training with parity checkpointing (crash at 45) ===")
    trainer = Trainer(config)
    result = trainer.train()
    print(result.summary())

    print("\npartial checkpoints on disk:")
    for step in list_checkpoint_steps(trainer.storage.root):
        info = describe_checkpoint(trainer.storage.root / f"checkpoint-{step}")
        print(
            f"  checkpoint-{step}: slots={len(info['slots'])}/"
            f"{trainer.model_config.num_model_slots}, "
            f"size={format_bytes(info['total_nbytes'])}, complete={info['complete']}"
        )

    print("\n=== phase 2: LLMTailor auto-merge (recipe from manifests) ===")
    merged = trainer.auto_recover(failure_step=45)
    info = describe_checkpoint(merged)
    print(f"merged checkpoint: {merged.dir}")
    print(f"  complete={info['complete']}, size={format_bytes(info['total_nbytes'])}")

    print("\n=== phase 3: resume to completion ===")
    final = trainer.train()
    print(final.summary())
    assert final.interrupted_at is None
    print("\nrecovered and finished — the Frankenstein checkpoint worked.")


if __name__ == "__main__":
    main()
