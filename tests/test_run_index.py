"""RunIndex: the one reader of a run directory.

The index replaced eight hand-written ``list_checkpoint_steps`` +
``read_manifest`` loops; these tests pin it to what those loops computed
— on a parity trail, a trail straddling a grow (mixed world sizes) and a
retention-pruned run — and check it reads each manifest at most once.
"""

from __future__ import annotations

import logging
import shutil

import pytest

from repro.core import recipe_from_run
from repro.dist.faults import FaultPlan, rank_join
from repro.io import (
    RunIndex,
    checkpoint_dir,
    list_checkpoint_steps,
    prunable_steps,
)
from repro.io.layout import CheckpointPaths, manifest_doc
from repro.train import ChaosSupervisor, TrainConfig, Trainer
from repro.util.errors import CheckpointError, MergeError


def _config(out, **overrides) -> TrainConfig:
    base = dict(
        model="tiny-untied", task="cpt", total_steps=12,
        checkpoint_strategy="parity", checkpoint_interval=3,
        output_dir=str(out), world_size=2, micro_batch_size=1,
        grad_accum_steps=1, seq_len=32, log_every=6,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def parity_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("parity") / "run"
    Trainer(_config(out)).train()
    return out


@pytest.fixture(scope="module")
def grown_run(tmp_path_factory):
    """ws 2 -> 3 at step 5: a join-sync at ws 2, then partials at ws 3
    (no initial full snapshot, so the halves really come from both)."""
    out = tmp_path_factory.mktemp("grown") / "run"
    config = _config(out, strategy_kwargs={"initial_full": False})
    ChaosSupervisor(config, FaultPlan(events=(rank_join(5),))).run()
    return out


@pytest.fixture(scope="module")
def pruned_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pruned") / "run"
    Trainer(_config(out, max_checkpoints=2)).train()
    return out


def _scan(root):
    """What the deleted loops computed: {step: manifest} by brute force."""
    return {
        s: checkpoint_dir(root, s).read_manifest()
        for s in list_checkpoint_steps(root)
    }


@pytest.mark.parametrize("run", ["parity_run", "grown_run", "pruned_run"])
def test_index_equals_the_scans(run, request):
    root = request.getfixturevalue(run)
    manifests = _scan(root)
    index = RunIndex(root)
    assert index.steps() == sorted(manifests)
    assert index.steps(7) == [s for s in sorted(manifests) if s <= 7]
    assert index.complete_steps() == [
        s for s, m in sorted(manifests.items()) if m["complete"]
    ]
    assert index.coverage_map() == {s: m["slots"] for s, m in manifests.items()}
    for step, manifest in manifests.items():
        assert index.manifest(step) == manifest
        assert index.world_size(step) == manifest["world_size"]
        paths = checkpoint_dir(root, step)
        assert index.shard_nbytes(step) == sum(
            p.stat().st_size for p in paths.shard_paths(manifest["world_size"])
        )
    for failure_step in (None, 7, 10):
        coverage: dict[str, int] = {}
        for step in sorted(manifests):
            if failure_step is None or step <= failure_step:
                for slot in manifests[step]["slots"]:
                    coverage[slot] = step
        assert index.slot_coverage(failure_step) == coverage


def test_trail_straddling_a_grow_is_not_mergeable(grown_run):
    index = RunIndex(grown_run)
    assert index.is_complete(5) and index.manifest(5)["strategy"] == "join_sync"
    sources = set(index.slot_coverage(7).values())
    assert sources == {5, 6}
    assert {index.world_size(s) for s in sources} == {2, 3}  # not mergeable
    later = set(index.slot_coverage(11).values())
    assert {index.world_size(s) for s in later} == {3}  # uniform again


def test_pruned_run_keeps_coverage_and_prunes_nothing_more(pruned_run):
    index = RunIndex(pruned_run)
    assert len(index.steps()) < 4  # 12 steps / interval 3, retention bit
    assert set(index.slot_coverage()) == set(index.manifest(index.steps()[0])["all_slots"])
    assert prunable_steps(pruned_run, 2) == []


def test_each_manifest_is_read_at_most_once(parity_run, monkeypatch):
    reads: list[str] = []
    real = CheckpointPaths.read_manifest

    def counting(self):
        reads.append(self.dir.name)
        return real(self)

    monkeypatch.setattr(CheckpointPaths, "read_manifest", counting)
    index = RunIndex(parity_run)
    assert reads == []  # the scan lists directories, nothing more
    index.complete_steps(), index.slot_coverage(10), index.coverage_map()
    for step in index.steps():
        index.world_size(step), index.shard_nbytes(step)
    assert sorted(reads) == sorted(f"checkpoint-{s}" for s in index.steps())
    reads.clear()
    prunable_steps(parity_run, 2)
    assert len(reads) == len(set(reads)) == len(index.steps())


def test_torn_newest_checkpoint_is_not_there_yet(parity_run, tmp_path, caplog):
    """A crash before the manifest-last write leaves a manifest-less
    directory: recovery, auto-recipe and retention step over it (they
    used to die on ``missing JSON file``) and say so once."""
    run = tmp_path / "run"
    shutil.copytree(parity_run, run)
    torn = max(list_checkpoint_steps(run))
    checkpoint_dir(run, torn).manifest.unlink()

    logger = logging.getLogger("repro.io.layout")
    logger.addHandler(caplog.handler)
    try:
        index = RunIndex(run)
    finally:
        logger.removeHandler(caplog.handler)
    assert caplog.text.count(f"checkpoint-{torn}") == 1
    assert torn in list_checkpoint_steps(run) and torn not in index.steps()
    assert index.complete_steps() == [3]
    assert torn not in index.slot_coverage().values()

    sources = {CheckpointPaths(p).step for p in recipe_from_run(run).distinct_sources()}
    assert sources == {6, 9}
    trainer = Trainer(_config(run))
    trainer.auto_recover(torn)
    assert trainer.state.global_step == 9

    # Retention never counts the torn directory as coverage (or prunes it).
    gone = tmp_path / "gone"
    shutil.copytree(parity_run, gone)
    shutil.rmtree(checkpoint_dir(gone, torn).dir)
    for keep_last in (1, 2):
        assert prunable_steps(run, keep_last) == prunable_steps(gone, keep_last)


def test_missing_and_empty_runs(tmp_path):
    index = RunIndex(tmp_path / "nowhere")
    assert index.steps() == [] and index.complete_steps() == []
    with pytest.raises(MergeError, match="no usable checkpoints"):
        index.slot_coverage(5)
    with pytest.raises(CheckpointError):
        index.manifest(3)


def test_dict_backed_index_answers_from_memory(tmp_path):
    index = RunIndex(tmp_path / "never-created", manifests={})
    def doc(step, slots, nbytes):
        return manifest_doc(step=step, model_config="m", strategy="parity", world_size=2,
                            slots=slots, all_slots=["a", "b"], shard_nbytes=nbytes)

    index.record("checkpoint-4", doc(4, ["a", "b"], 96))
    index.record("checkpoint-8", doc(8, ["b"], 48))
    index.record("merged-8", doc(8, ["a", "b"], 96))
    with pytest.raises(CheckpointError, match="bad manifest"):  # same schema as on disk
        index.record("checkpoint-9", {"step": 9, "world_size": 2, "complete": True})
    assert index.steps() == [4, 8] and index.complete_steps() == [4]
    assert index.slot_coverage(9) == {"a": 4, "b": 8}
    assert index.shard_nbytes("merged-8") == 96 and index.is_complete("merged-8")
    with pytest.raises(CheckpointError):
        index.manifest(12)
    assert not (tmp_path / "never-created").exists()
