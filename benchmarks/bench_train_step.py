"""Training hot path: the fused zero-allocation ZeRO-3 step.

Two views of the same engine:

* ``test_train_step_ws{1,2,4}`` — end-to-end optimizer-step cost on the
  sim-scale 1b config at increasing world sizes (forward/backward, grad
  averaging, reduce-scatter, per-rank AdamW, all-gather + re-quantize).
  The emitted table derives per-step seconds and pairs them with the
  ring-model bytes each step moved (``TrainResult.comm_traffic``), so
  the sharding tax is visible next to its wall-clock cost.
* ``test_train_step_drift_trail`` — the exact workload of
  ``bench_motivation_layer_drift`` (40 steps + 2 full checkpoints + a
  momentum-inclusive diff), kept here as the hot-path regression trail:
  this is the number the fused engine, the single-read diff, and the
  RLE shard compression together took from 7.54s (PR 3 baseline) to
  under half that.
"""

from __future__ import annotations

from _bench_common import ROUNDS, WARMUP_ROUNDS, emit

import pytest

from repro.core.diffstat import diff_checkpoints, drift_ranking
from repro.train import TrainConfig, Trainer
from repro.util.tables import Table

STEPS = 12
_PER_WS: dict[int, dict] = {}


def _train_config(tmp_path, *, world_size: int, total_steps: int,
                  checkpoint_interval: int = 10_000) -> TrainConfig:
    return TrainConfig(
        model="llama3.2-1b-sim", task="cpt", total_steps=total_steps,
        checkpoint_strategy="full", checkpoint_interval=checkpoint_interval,
        output_dir=str(tmp_path / f"run-ws{world_size}"), world_size=world_size,
        micro_batch_size=2, grad_accum_steps=1, seq_len=48, log_every=10_000,
    )


def _bench_steps(benchmark, tmp_path, world_size: int) -> None:
    result_box: dict = {}

    def run():
        cfg = _train_config(tmp_path, world_size=world_size, total_steps=STEPS)
        trainer = Trainer(cfg)
        result = trainer.train()
        result_box["result"] = result
        return result

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP_ROUNDS)
    result = result_box["result"]
    assert result.final_step == STEPS
    assert result.final_train_loss == result.final_train_loss  # not NaN
    per_step = benchmark.stats["min"] / STEPS
    traffic = result.comm_traffic["bytes_by_op"]
    _PER_WS[world_size] = {
        "per_step": per_step,
        "bytes_per_step": sum(traffic.values()) / STEPS,
    }
    if len(_PER_WS) == 3:
        table = Table(
            ["World size", "Per-step (ms, best)", "Collective bytes/step"],
            title=f"Fused training step, llama3.2-1b-sim, {STEPS} steps",
        )
        for ws in sorted(_PER_WS):
            row = _PER_WS[ws]
            table.add_row([ws, round(row["per_step"] * 1e3, 2),
                           int(row["bytes_per_step"])])
        emit("train_step_per_ws", table.render())


@pytest.mark.parametrize("world_size", [1, 2, 4])
def test_train_step_ws(benchmark, tmp_path, world_size):
    _bench_steps(benchmark, tmp_path, world_size)


def test_train_step_drift_trail(benchmark, tmp_path):
    """The motivation_layer_drift workload as a hot-path regression trail."""

    def run():
        cfg = _train_config(tmp_path, world_size=2, total_steps=40,
                            checkpoint_interval=20)
        trainer = Trainer(cfg)
        trainer.train()
        root = trainer.storage.root
        return diff_checkpoints(root / "checkpoint-20", root / "checkpoint-40",
                                include_momentum=True)

    drifts = benchmark.pedantic(run, rounds=ROUNDS, iterations=1,
                                warmup_rounds=WARMUP_ROUNDS)
    ranked = drift_ranking(drifts)
    assert ranked and ranked[0].weight_l2 > 0
    table = Table(
        ["Trail", "Best (s)", "Mean (s)"],
        title="Layer-drift trail (40 steps + 2 ckpts + momentum diff)",
    )
    table.add_row(["train+ckpt+diff", round(benchmark.stats["min"], 3),
                   round(benchmark.stats["mean"], 3)])
    emit("train_step_drift_trail", table.render())
