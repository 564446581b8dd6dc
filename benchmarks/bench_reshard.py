"""Elastic N→M resharding cost (extends the paper's §5.4 loading study).

The merge experiments measure consolidating shards *to one rank*; real
fleets also resume on a different world size than they checkpointed
with.  This scenario times the resharding engine over the shapes that
matter: shrink (4→2), consolidate (4→1, the merge-degenerate case), and
scatter (1→4).  Each runs on the one source-major sweep, which reads
every source shard exactly once (asserted: ``files_loaded == N``) and
never holds more than one source plus the open target.
"""

from __future__ import annotations

import itertools

import pytest

from _bench_common import ROUNDS, WARMUP_ROUNDS, emit

from repro.core.groups import tailored_param_groups
from repro.dist import ZeroStage3Engine, reshard_checkpoint
from repro.io import Storage, save_checkpoint
from repro.nn import build_model, get_config
from repro.util.tables import Table

_counter = itertools.count()
_times: dict[str, float] = {}


@pytest.fixture(scope="module")
def full_checkpoints(tmp_path_factory):
    """A complete ws-4 checkpoint for a 16-layer model, plus its ws-1 form."""
    config = get_config("llama3.2-1b-sim")
    model = build_model(config, seed=1)
    engine = ZeroStage3Engine(
        model, config, tailored_param_groups(model, config, 0.01), world_size=4
    )
    storage = Storage(tmp_path_factory.mktemp("reshard"))
    save_checkpoint(storage, step=100, model=model, config=config, engine=engine,
                    trainer_state={"global_step": 100}, strategy="full")
    ws4 = storage.root / "checkpoint-100"
    ws1 = storage.root / "consolidated-100"
    reshard_checkpoint(ws4, ws1, 1)
    return ws4, ws1


def _record(shape: str, mean: float) -> None:
    _times[shape] = mean
    if len(_times) == 3:  # final shape: emit the comparison table
        table = Table(["Reshard", "Time (s)"],
                      title="Elastic resharding (llama3.2-1b-sim, 34 groups)")
        for name, seconds in _times.items():
            table.add_row([name, round(seconds, 4)])
        emit("reshard_times", table.render())


def _bench(benchmark, source, tmp_path, target: int, source_world: int) -> None:
    holder = {}

    def run():
        holder["report"] = reshard_checkpoint(
            source, tmp_path / f"out-{next(_counter)}", target
        )

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP_ROUNDS)
    assert holder["report"].files_loaded == source_world  # one read per source shard
    _record(f"{source_world}->{target}", benchmark.stats["mean"])


def test_reshard_shrink_4_to_2(benchmark, full_checkpoints, tmp_path):
    """The elastic-fleet case neither merge nor scatter covers."""
    _bench(benchmark, full_checkpoints[0], tmp_path, 2, 4)


def test_reshard_consolidate_4_to_1(benchmark, full_checkpoints, tmp_path):
    """N→1: the resharder degenerating to a full consolidation."""
    _bench(benchmark, full_checkpoints[0], tmp_path, 1, 4)


def test_reshard_scatter_1_to_4(benchmark, full_checkpoints, tmp_path):
    """1→M: growing a fleet from a consolidated checkpoint."""
    _bench(benchmark, full_checkpoints[1], tmp_path, 4, 1)
