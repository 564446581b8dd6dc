"""One price per checkpoint operation: merge and reshard are priced by the
engines' own schedules run dry against a :class:`~repro.io.storage.Ledger`,
a save and a resume by the writer's and reader's own prices.

On-disk sizes make the dry run equal the live engine's counters (``==``,
never ``approx``); nominal sizes make it the planner; the same sizes give
the same ledger whichever caller feeds them.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.plan import price_merge
from repro.core.recipe import parse_recipe
from repro.core.tailor import LLMTailor
from repro.dist.reshard import price_reshard, reshard_checkpoint
from repro.dist.topology import Topology
from repro.io import CheckpointSizes, Ledger, price_resume, price_save
from repro.nn import get_config
from repro.nn.slots import model_slots
from repro.serve import JobSpec, estimate_job_cost
from repro.strategies import nominal_manifest, plan_merge_cost, plan_reshard_cost
from repro.train import TrainConfig, Trainer
from repro.util.errors import MergeError

CONFIG = get_config("tiny-untied")


def _trail(out, world_size: int):
    """Full checkpoints at steps 8, 16 and 24 of a ``world_size`` run."""
    Trainer(TrainConfig(
        model="tiny-untied", task="cpt", total_steps=24, checkpoint_strategy="full",
        checkpoint_interval=8, output_dir=str(out), world_size=world_size,
        micro_batch_size=2, grad_accum_steps=1, seq_len=32, log_every=100,
    )).train()
    return out


@pytest.fixture(scope="module", params=[2, 3], ids=["ws2", "ws3"])
def trail(request, tmp_path_factory):
    return _trail(tmp_path_factory.mktemp(f"prices-ws{request.param}") / "run", request.param)


@pytest.fixture(scope="module")
def run2(tmp_path_factory):
    return _trail(tmp_path_factory.mktemp("prices-run2") / "run", 2)


def _recipe(run, sources: int) -> dict:
    """A 2-source recipe (base 24, layers 0-1 from 16) or a 3-source one
    (plus layer 2 and the norm from 8)."""
    doc = {"base_checkpoint": str(run / "checkpoint-24"),
           "slices": [{"slot": "layers.0-1", "source": str(run / "checkpoint-16")}]}
    if sources == 3:
        doc["slices"].append({"slot": "layers.2", "source": str(run / "checkpoint-8")})
        doc["aux"] = {"norm": str(run / "checkpoint-8")}
    return doc


@pytest.mark.parametrize("sources", [2, 3])
@pytest.mark.parametrize("cache_mode", ["per-checkpoint", "none"])
def test_merge_dry_run_equals_live_counters(trail, tmp_path, sources, cache_mode):
    recipe = parse_recipe({**_recipe(trail, sources),
                           "options": {"cache_mode": cache_mode, "verify": False}})
    ledger = Ledger()
    schedule = price_merge(
        ledger, CONFIG, {slot: recipe.source_for(slot) for slot in model_slots(CONFIG)},
        CheckpointSizes.on_disk, cache_mode=cache_mode,
    )
    live = LLMTailor(recipe).merge(tmp_path / "merged")
    books = ledger.stats
    world_size = len(live.rank_stats)
    assert world_size * len(schedule) == live.optimizer_files_loaded
    assert books.category_bytes("merge.optimizer.read") == live.optimizer_bytes_loaded
    assert books.files_read == live.optimizer_files_loaded + live.weight_stats.files_opened
    assert live.weight_stats.files_opened == sources
    assert books.category_bytes("merge.weights.read") == live.weight_stats.bytes_read


def test_reshard_dry_run_equals_live_counters(trail, tmp_path):
    source = trail / "checkpoint-24"
    sizes = CheckpointSizes.on_disk(source)
    N = len(sizes.shards)
    M = 5 - N  # 2 -> 3 and 3 -> 2
    ledger = Ledger()
    price_reshard(ledger, sizes, M)
    topology = Topology(nodes=2, ranks_per_node=2)
    live = reshard_checkpoint(source, tmp_path / f"re{M}", M, topology=topology)
    assert ledger.stats.files_read - 1 == live.files_loaded == N  # + the weight file
    assert ledger.stats.category_bytes("reshard.optimizer.read") == live.bytes_loaded
    plan = plan_reshard_cost(CONFIG, source_world_size=N, target_world_size=M,
                             topology=topology)
    assert (plan.intra_bytes, plan.inter_bytes) == (live.intra_bytes, live.inter_bytes)
    assert plan.loads == live.files_loaded


def _books(storage, prefix: str) -> dict:
    """Per-category bytes and seconds charged under ``prefix``."""
    return {k: (v, storage.clock.by_category[k])
            for k, v in storage.stats.by_category.items() if k.startswith(prefix)}


@pytest.mark.parametrize("resume_world_size", [2, 3])
def test_save_and_resume_live_counters_equal_the_price(tmp_path, resume_world_size):
    """A trainer's save and resume charge ``price_save`` / ``price_resume``
    over the on-disk sizes, category by category.  At the parent the resume
    charged the weight file's payload without its header."""
    def trainer(world_size: int) -> Trainer:
        return Trainer(TrainConfig(
            model="tiny-untied", task="cpt", total_steps=8, checkpoint_strategy="full",
            checkpoint_interval=8, output_dir=str(tmp_path / f"ws{world_size}"),
            world_size=world_size, micro_batch_size=2, grad_accum_steps=1, seq_len=32,
            log_every=100,
        ))

    saver = trainer(2)
    saver.train()
    checkpoint = tmp_path / "ws2" / "checkpoint-8"
    sizes = CheckpointSizes.on_disk(checkpoint)
    priced = Ledger()
    price_save(priced, sizes.weights, sum(sizes.shards), len(sizes.shards))
    live = _books(saver.storage, "checkpoint_write")
    assert live.pop("checkpoint_write.config")[0] > 0  # the writer's alone
    assert live == _books(priced, "checkpoint_write")

    loader = trainer(resume_world_size)
    assert loader.resume_from(checkpoint) == 8
    priced = Ledger()
    price_resume(priced, sizes.weights, sum(sizes.shards), len(sizes.shards))
    assert _books(loader.storage, "checkpoint_read") == _books(priced, "checkpoint_read")


@pytest.fixture
def nominal_disk(monkeypatch):
    """Make the on-disk lookup answer with the planner's nominal sizes."""
    sizes = CheckpointSizes.nominal(
        nominal_manifest(CONFIG, model_slots(CONFIG), world_size=2), CONFIG
    )
    monkeypatch.setattr(CheckpointSizes, "on_disk", classmethod(lambda cls, *a, **k: sizes))
    return sizes


@pytest.mark.parametrize("cache_mode", ["per-checkpoint", "none"])
def test_same_sizes_same_ledger_for_planner_and_admission(run2, nominal_disk, cache_mode):
    """Fed one set of sizes, ``plan_merge_cost`` / ``plan_reshard_cost`` and
    admission's ``estimate_job_cost`` charge the same ledger."""
    # The planner's round-robin slot assignment, as a recipe over two sources.
    slots = model_slots(CONFIG)
    other = str(run2 / "checkpoint-16")
    doc = {"base_checkpoint": str(run2 / "checkpoint-24"),
           "slices": [{"slot": s, "source": other} for s in slots[1::2] if s.startswith("layers.")],
           "aux": {s: other for s in slots[1::2] if not s.startswith("layers.")}}
    cost = estimate_job_cost(JobSpec(tenant="t", kind="merge", params={
        "recipe_doc": doc, "cache_mode": cache_mode}))
    plan = plan_merge_cost(CONFIG, world_size=2, num_checkpoints=2,
                           cache_mode=cache_mode, workers=1)  # a served merge's ranks, in turn
    assert cost.bytes_read == plan.bytes_loaded + nominal_disk.weights
    assert cost.bytes_written == plan.bytes_written
    assert cost.files == 2 * plan.loads_per_rank + 2
    assert cost.est_seconds == plan.seconds

    cost = estimate_job_cost(JobSpec(tenant="t", kind="reshard", params={
        "checkpoint": str(run2 / "checkpoint-24"), "output": "o", "target_world_size": 3}))
    plan = plan_reshard_cost(CONFIG, source_world_size=2, target_world_size=3)
    assert cost.bytes_read == plan.bytes_loaded + nominal_disk.weights
    assert cost.bytes_written == plan.bytes_written + nominal_disk.weights
    assert (cost.files, cost.est_seconds) == (plan.loads + 1, plan.seconds)


def test_a_missing_source_is_the_engines_typed_error(run2):
    """The price never falls back to the base: a source that is not there
    is refused as the engine would refuse it."""
    doc = {"base_checkpoint": str(run2 / "checkpoint-24"),
           "slices": [{"slot": "layers.0-1", "source": str(run2 / "checkpoint-99")}]}
    with pytest.raises(MergeError, match="checkpoint not found"):
        estimate_job_cost(JobSpec(tenant="t", kind="merge", params={"recipe_doc": doc}))
    with pytest.raises(MergeError, match="checkpoint not found"):
        price_merge(Ledger(), CONFIG, {s: run2 / "checkpoint-99" for s in model_slots(CONFIG)},
                    partial(CheckpointSizes.on_disk, error=MergeError), cache_mode="none")


@pytest.mark.parametrize("argv", [
    ["--merge-checkpoints", "0"],
    ["--merge-checkpoints", "-3"],
    ["--merge-checkpoints", "2", "--workers", "0"],
    ["--reshard-to", "0"],
    ["--world-size", "8", "--topology", "1x4"],
    ["--world-size", "4", "--reshard-to", "8", "--topology", "1x4"],
    ["--serve", "missing-source"],
    ["--steps", "-5"],
    ["--steps", "0"],
    ["--steps", "abc"],
    ["--interval", "0"],
    ["--interval", "2.5"],
], ids=lambda argv: " ".join(argv))
def test_plan_refuses_bad_input_typed_with_exit_2(argv, run2, tmp_path, capsys):
    """At the parent these printed ``loads per rank 1`` for zero sources or
    workers, or died with a ValueError / DistError / ReshardError traceback
    (a ReshardError after the strategy table had printed)."""
    import json

    from repro.cli import main

    argv = list(argv)
    if "1x4" in argv:
        argv[argv.index("1x4")] = str(tmp_path / "topo.yaml")
        (tmp_path / "topo.yaml").write_text("nodes: 1\nranks_per_node: 4\n")
    if "missing-source" in argv:
        argv[argv.index("missing-source")] = str(tmp_path / "jobs.json")
        (tmp_path / "jobs.json").write_text(json.dumps({"tenant": "t", "kind": "merge", "params": {
            "recipe_doc": {"base_checkpoint": str(run2 / "checkpoint-24"),
                           "slices": [{"slot": "layers.0", "source": str(tmp_path / "gone")}]}}}))
    else:
        argv = ["llama3.1-8b", "full", *argv]
    try:
        code = main(["plan", *argv])
    except SystemExit as exit_info:  # argparse's refusal
        code = exit_info.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "error" in err and "Traceback" not in err
