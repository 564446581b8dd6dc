"""Motivation (§1-2): layer updates are non-uniform during post-training.

The paper's premise — citing Jawahar et al., Phang et al., and Zhou et
al. — is that different layers change at very different rates, so
checkpointing them uniformly wastes I/O.  This bench measures it
directly on our substrate: train a sim-scale model, snapshot two
checkpoints, and report per-slot relative weight drift plus the
max/median non-uniformity index.
"""

from __future__ import annotations

from _bench_common import emit

from repro.core.diffstat import diff_checkpoints, drift_ranking, nonuniformity_index
from repro.train import TrainConfig, Trainer
from repro.util.tables import Table


def test_motivation_nonuniform_layer_updates(benchmark, tmp_path):
    def run():
        cfg = TrainConfig(
            model="llama3.2-1b-sim", task="cpt", total_steps=40,
            checkpoint_strategy="full", checkpoint_interval=20,
            output_dir=str(tmp_path / "run"), world_size=2,
            micro_batch_size=2, grad_accum_steps=1, seq_len=48,
            log_every=20,
        )
        trainer = Trainer(cfg)
        trainer.train()
        root = trainer.storage.root
        return diff_checkpoints(root / "checkpoint-20", root / "checkpoint-40",
                                include_momentum=True)

    drifts = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(
        ["Slot", "Weight drift (rel L2)", "Momentum drift", "#Params"],
        title="Motivation: per-layer drift between checkpoint-20 and checkpoint-40",
    )
    for d in drifts:
        table.add_row([d.slot, round(d.weight_l2, 5), round(d.momentum_l2, 4), d.params])
    idx = nonuniformity_index(drifts)
    ranked = drift_ranking(drifts)
    footer = (
        f"\nnon-uniformity index (max/median): {idx:.2f}"
        f"\nmost-changed slot : {ranked[0].slot} ({ranked[0].weight_l2:.5f})"
        f"\nleast-changed slot: {ranked[-1].slot} ({ranked[-1].weight_l2:.5f})"
    )
    emit("motivation_layer_drift", table.render() + footer)

    # The premise itself: updates are meaningfully non-uniform.
    assert idx > 1.2, f"layer updates unexpectedly uniform (index {idx:.2f})"
    assert ranked[0].weight_l2 > 2 * ranked[-1].weight_l2


def test_motivation_composability_async(benchmark):
    """§5.1: selective checkpointing composes with async-writer savings."""
    from repro.nn import get_config
    from repro.strategies import (
        FullStrategy,
        ParityStrategy,
        FilteredStrategy,
        plan_strategy,
        plan_strategy_async,
    )

    def sweep():
        cfg = get_config("qwen2.5-7b")
        rows = []
        for label, strat_fn in (
            ("full", lambda: FullStrategy(cfg, 50)),
            ("parity", lambda: ParityStrategy(cfg, 50, initial_full=False)),
            ("filtered", lambda: FilteredStrategy(cfg, 50, initial_full=False)),
        ):
            sync = plan_strategy(cfg, strat_fn(), total_steps=850,
                                 tokens_per_step_per_gpu=8192)
            asyn = plan_strategy_async(cfg, strat_fn(), total_steps=850,
                                       tokens_per_step_per_gpu=8192)
            rows.append((label, sync.checkpoint_time_fraction * 100,
                         asyn.checkpoint_time_fraction * 100))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table(
        ["Strategy", "Blocking writer ckpt %", "Async writer ckpt %"],
        title="Composability: strategy x writer (Qwen2.5-7B SFT shape, analytic)",
    )
    for label, sync_pct, async_pct in rows:
        table.add_row([label, round(sync_pct, 2), round(async_pct, 2)])
    emit("motivation_composability_async", table.render())

    by_label = {r[0]: r for r in rows}
    # Async always helps; parity+async beats parity+sync and full+async.
    for label, sync_pct, async_pct in rows:
        assert async_pct < sync_pct
    assert by_label["parity"][2] < by_label["parity"][1]
    assert by_label["parity"][2] < by_label["full"][2]
