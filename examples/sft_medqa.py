#!/usr/bin/env python3
"""Use case 1 at small scale: SFT with parity checkpointing + evaluation.

Mirrors the paper's §5.2 Qwen SFT experiment: supervised fine-tuning on
MedQA-like question-answer pairs with parity checkpoints, recovery from
a crash, and a zero-shot benchmark comparison between the uninterrupted
model and the Frankenstein-recovered one (paper Table 2).

Run:  python examples/sft_medqa.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import TrainConfig, Trainer
from repro.evalbench import evaluate_suite, suite_table


def make_trainer(out: Path, failure_step: int | None, strategy: str) -> Trainer:
    return Trainer(
        TrainConfig(
            model="tiny-qwen",        # attention biases, like Qwen2.5
            task="sft",
            total_steps=80,
            checkpoint_strategy=strategy,
            checkpoint_interval=10,
            failure_step=failure_step,
            output_dir=str(out),
            world_size=2,
            micro_batch_size=2,
            grad_accum_steps=1,
            seq_len=40,
            log_every=20,
        )
    )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="llmtailor-sft-"))

    print("=== baseline SFT run (no failures) ===")
    baseline = make_trainer(workdir / "baseline", None, "full")
    print(baseline.train().summary())

    print("\n=== parity SFT run, crash at 70, recover, finish ===")
    parity = make_trainer(workdir / "parity", 70, "parity")
    print(parity.train().summary())
    parity.auto_recover(70)
    print(parity.train().summary())

    print("\n=== zero-shot evaluation (paper Table 2 analogue) ===")
    rows = {
        "tiny-qwen (SFT)": evaluate_suite(
            baseline.model, baseline.tokenizer, baseline.kb, items_per_benchmark=25
        ),
        "parity-70": evaluate_suite(
            parity.model, parity.tokenizer, parity.kb, items_per_benchmark=25
        ),
    }
    print(suite_table(rows, "Zero-shot accuracy (higher is better; chance = 25 / 33%)").render())
    print("\nparity recovery should track the baseline row closely.")


if __name__ == "__main__":
    main()
