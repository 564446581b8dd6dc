#!/usr/bin/env python3
"""The explicit YAML recipe workflow (MergeKit-style, paper §3-4).

Instead of auto-recovery, this example writes the merge recipe by hand —
the way a user drives LLMTailor directly — and contrasts it with the
weights-only mini-MergeKit baseline that cannot restore training.

Run:  python examples/recipe_workflow.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import LLMTailor, TrainConfig, Trainer, verify_checkpoint
from repro.core import load_recipe, mergekit_merge


RECIPE_TEMPLATE = """\
# LLMTailor merge recipe: odd layers + embedding from checkpoint-20,
# everything else from checkpoint-30 (the base).
base_checkpoint: {run}/checkpoint-30
slices:
  - slot: layers.1
    source: {run}/checkpoint-20
  - slot: layers.3
    source: {run}/checkpoint-20
aux:
  embed_tokens: {run}/checkpoint-20
options:
  workers: 2
  cache_mode: per-checkpoint
  verify: true
"""


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="llmtailor-recipe-"))
    run_dir = workdir / "run"

    # Build a parity trail: full @10, odd @20, even @30.
    trainer = Trainer(
        TrainConfig(
            model="tiny-untied", task="cpt", total_steps=30,
            checkpoint_strategy="parity", checkpoint_interval=10,
            output_dir=str(run_dir), world_size=2,
            micro_batch_size=2, grad_accum_steps=1, seq_len=32,
        )
    )
    trainer.train()

    # 1. Write the recipe YAML by hand.
    recipe_path = workdir / "recipe.yaml"
    recipe_path.write_text(RECIPE_TEMPLATE.format(run=run_dir), encoding="utf-8")
    print(f"recipe written to {recipe_path}:\n")
    print(recipe_path.read_text())

    # 2. Parse, inspect, and execute it.
    recipe = load_recipe(recipe_path)
    print(f"parsed: base={recipe.base_checkpoint.name}, "
          f"{len(recipe.assignments)} explicit slot assignments")
    result = LLMTailor(recipe).merge(output=workdir / "merged")
    print()
    print(result.summary())

    # 3. Verify the result: complete, intact shards of the canonical layout.
    report = verify_checkpoint(workdir / "merged")
    print(f"\nverification: {report}")

    # 4. Contrast: mini-MergeKit merges weights only (not resumable).
    mk_out = mergekit_merge(
        base=run_dir / "checkpoint-10",  # the full snapshot has all weights
        output=workdir / "mergekit-out",
        method="passthrough",
    )
    print(f"\nmini-MergeKit output at {mk_out}:")
    print(f"  has weights          : {(mk_out / 'model.tsr').exists()}")
    print(f"  has optimizer shards : {any(mk_out.rglob('*optim_states*'))}")
    print(f"  has trainer state    : {(mk_out / 'trainer_state.json').exists()}")
    print("  -> weights-only merging cannot resume training (paper §3);")
    print("     LLMTailor's output above can.")


if __name__ == "__main__":
    main()
