"""Ablations over the merge-overhead drivers identified in §5.4.

The paper attributes LLMTailor's time overhead to: (i) loaded
checkpoint size, (ii) number of loaded checkpoints, (iii) the layer
load mode, and (iv) the number of total layers.  §4.2 additionally
credits ProcessPoolExecutor parallelism with reducing I/O latency.
This file sweeps each knob in isolation, plus the rank process pool on
the interleaved schedule (selective group decode, workers 1 vs 4).
"""

from __future__ import annotations

import itertools

import pytest

from _bench_common import ROUNDS, WARMUP_ROUNDS, emit

from repro.core import LLMTailor, MergeOptions, MergeRecipe
from repro.core.groups import tailored_param_groups
from repro.core.optimizer_merge import worker_budget
from repro.dist import ZeroStage3Engine
from repro.io import Storage, save_checkpoint
from repro.nn import build_model, get_config, model_slots
from repro.util.tables import Table

_counter = itertools.count()
POOL_WORKERS = (1, 2, 4)
INTERLEAVED_WORKERS = (1, 4)
_worker_times: dict[int, float] = {}


@pytest.fixture(scope="module")
def parity_trail_ws4(tmp_path_factory):
    """A parity pair for a 16-layer model with a 4-rank world."""
    config = get_config("llama3.2-1b-sim")
    model = build_model(config, seed=1)
    engine = ZeroStage3Engine(
        model, config, tailored_param_groups(model, config, 0.01), world_size=4
    )
    storage = Storage(tmp_path_factory.mktemp("ablate"))
    slots = model_slots(config)
    L = config.num_hidden_layers
    odd = [f"layers.{i}" for i in range(L) if i % 2 == 1] + ["embed_tokens"]
    even = [s for s in slots if s not in odd]
    save_checkpoint(storage, step=100, model=model, config=config, engine=engine,
                    trainer_state={"global_step": 100}, slots=odd, strategy="parity")
    save_checkpoint(storage, step=200, model=model, config=config, engine=engine,
                    trainer_state={"global_step": 200}, slots=even, strategy="parity")
    return storage, config, odd


def _recipe(storage, odd, *, workers: int, cache_mode: str) -> MergeRecipe:
    return MergeRecipe(
        base_checkpoint=storage.root / "checkpoint-200",
        assignments={s: storage.root / "checkpoint-100" for s in odd},
        options=MergeOptions(workers=workers, cache_mode=cache_mode, verify=False),
    )


def _complete(times: dict[int, float], workers: tuple[int, ...], what: str) -> None:
    """Tables render only complete: skip (writing nothing) when a run
    measured a subset of the worker counts (``-k``)."""
    missing = [w for w in workers if w not in times]
    if missing:
        pytest.skip(f"{what} is incomplete; workers not measured: {missing}")


@pytest.mark.parametrize("workers", POOL_WORKERS)
def test_ablation_worker_pool(benchmark, parity_trail_ws4, tmp_path, workers):
    """§4.2: ProcessPoolExecutor parallelism across rank shards."""
    storage, config, odd = parity_trail_ws4

    def run():
        out = tmp_path / f"w{workers}-{next(_counter)}"
        return LLMTailor(_recipe(storage, odd, workers=workers, cache_mode="per-checkpoint")).merge(
            output=out
        )

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP_ROUNDS)
    _worker_times[workers] = benchmark.stats["mean"]
    if workers == POOL_WORKERS[-1]:
        _complete(_worker_times, POOL_WORKERS, "the worker-pool table")
        table = Table(["Workers", "Merge time (s)"],
                      title="Ablation: ProcessPoolExecutor workers (4 rank shards)")
        for w, t in sorted(_worker_times.items()):
            table.add_row([w, round(t, 4)])
        emit("ablation_worker_pool", table.render())


_interleaved_times: dict[int, float] = {}


@pytest.mark.parametrize("workers", INTERLEAVED_WORKERS)
def test_ablation_rank_pool_interleaved(benchmark, parity_trail_ws4, tmp_path, workers):
    """The rank process pool on the interleaved parity workload (one load
    per slot): ``workers=4`` runs min(4, ranks, cores) rank processes.

    The merged output is bitwise-identical at any ``workers`` (pinned by
    tier-1 tests), so this measures what the pool costs or saves.
    """
    storage, config, odd = parity_trail_ws4
    holder = {}

    def run():
        out = tmp_path / f"s{workers}-{next(_counter)}"
        holder["result"] = LLMTailor(
            _recipe(storage, odd, workers=workers, cache_mode="none")
        ).merge(output=out)

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP_ROUNDS)
    _interleaved_times[workers] = benchmark.stats["mean"]
    # Same interleaved load schedule regardless of fan-out.
    assert holder["result"].optimizer_files_loaded == config.num_model_slots * 4
    if workers == INTERLEAVED_WORKERS[-1]:
        _complete(_interleaved_times, INTERLEAVED_WORKERS, "the interleaved rank-pool table")
        table = Table(
            ["Workers", "Rank processes", "Merge time (s)"],
            title="Ablation: rank process pool (interleaved parity, ws=4)",
        )
        for key, seconds in sorted(_interleaved_times.items()):
            table.add_row([key, worker_budget(key, 4), round(seconds, 4)])
        emit("ablation_rank_pool_interleaved", table.render())
        assert _interleaved_times[4] < _interleaved_times[1] * 1.5, (
            "the rank pool should not be drastically slower than in-process ranks"
        )


@pytest.mark.parametrize("cache_mode", ["per-checkpoint", "none"])
def test_ablation_cache_mode(benchmark, parity_trail_ws4, tmp_path, cache_mode):
    """§5.4 driver (iii): layer load mode."""
    storage, config, odd = parity_trail_ws4
    holder = {}

    def run():
        out = tmp_path / f"c{cache_mode}-{next(_counter)}"
        holder["result"] = LLMTailor(
            _recipe(storage, odd, workers=1, cache_mode=cache_mode)
        ).merge(output=out)

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP_ROUNDS)
    result = holder["result"]
    lines = [
        f"cache_mode={cache_mode}: files={result.optimizer_files_loaded}, "
        f"bytes={result.optimizer_bytes_loaded}, mean={benchmark.stats['mean']:.4f}s"
    ]
    emit(f"ablation_cache_mode_{cache_mode}", "\n".join(lines))
    expected = 2 * 4 if cache_mode == "per-checkpoint" else config.num_model_slots * 4
    assert result.optimizer_files_loaded == expected


def test_ablation_strategy_size_sweep(benchmark):
    """§5.4 driver (i): checkpoint size under each strategy, per model."""
    from repro.strategies import build_strategy, plan_strategy

    def sweep():
        rows = []
        for model in ("llama3.2-1b", "llama3.1-8b", "qwen2.5-7b"):
            config = get_config(model)
            for strategy in ("full", "parity", "filtered"):
                strat = build_strategy(strategy, config, 100,
                                       **({"initial_full": False} if strategy != "full" else {}))
                plan = plan_strategy(config, strat, total_steps=1000)
                rows.append((model, strategy, plan.total_bytes / 1e9,
                             plan.checkpoint_time_fraction * 100))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table(["Model", "Strategy", "Total GB (10 events)", "Ckpt time (%)"],
                  title="Ablation: strategy x model checkpoint volume (analytic)")
    for row in rows:
        table.add_row([row[0], row[1], round(row[2], 1), round(row[3], 2)])
    emit("ablation_strategy_sweep", table.render())
    by_key = {(r[0], r[1]): r[2] for r in rows}
    for model in ("llama3.2-1b", "llama3.1-8b", "qwen2.5-7b"):
        assert by_key[(model, "filtered")] < by_key[(model, "parity")] < by_key[(model, "full")]
