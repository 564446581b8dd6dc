"""The manifest has one schema: ``repro.io.layout`` builds it and checks it.

``manifest_doc`` is the tree's one manifest literal and ``check_manifest``
its one reader-side gate; every reader gets its manifest through
``CheckpointPaths.read_manifest`` / ``RunIndex``.  These tests pin the
strictness matrix (every schema defect is refused, typed and fast, by
every reader), the build → check round trip of all four writers, and
"``check_manifest`` over arbitrary JSON raises only ``CheckpointError``".
"""

from __future__ import annotations

import shutil
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LLMTailor, verify_checkpoint
from repro.dist import reshard_checkpoint
from repro.dist.faults import FaultPlan
from repro.io import RunIndex, checkpoint_dir
from repro.io.layout import CheckpointPaths, check_manifest, manifest_doc
from repro.nn import get_config
from repro.serve import JobSpec
from repro.serve.admission import estimate_job_cost
from repro.train import ChaosSupervisor, TrainConfig, Trainer
from repro.train.supervisor import NullLeg
from repro.util.errors import CheckpointError, ReproError
from repro.util.jsonio import read_json, write_json_atomic


def _config(out, **overrides) -> TrainConfig:
    base = dict(
        model="tiny-untied", task="cpt", total_steps=12,
        checkpoint_strategy="parity", checkpoint_interval=4,
        output_dir=str(out), world_size=2, micro_batch_size=1,
        grad_accum_steps=1, seq_len=32, log_every=12,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def parity_run(tmp_path_factory):
    """full@4 (the initial snapshot), then the parity halves @8 and @12."""
    out = tmp_path_factory.mktemp("manifest") / "run"
    Trainer(_config(out)).train()
    assert RunIndex(out).complete_steps() == [4]
    return out


# The step-4 checkpoint is both the oldest member of the trail (auto-merge
# and slot_coverage read it) and complete (verify, reshard, resume and
# admission take it directly), so one defect there faces all six readers.
DEFECTS = {
    "world_size-string": lambda m: m.update(world_size="2"),
    "world_size-missing": lambda m: m.pop("world_size"),
    "world_size-huge": lambda m: m.update(world_size=10**7),
    "step-string": lambda m: m.update(step="4"),
    "slots-string": lambda m: m.update(slots="embed"),
    "slots-unknown": lambda m: m.update(slots=[*m["slots"][1:], "layers.99"]),
    "complete-string": lambda m: m.update(complete="yes"),
    "format_version-99": lambda m: m.update(format_version=99),
    "json-list": None,
}


def _auto_merge(run, ckpt, scratch):
    LLMTailor.from_checkpoints(run, failure_step=12).merge(scratch / "merged")


def _verify(run, ckpt, scratch):
    report = verify_checkpoint(ckpt.dir)
    assert not report.ok and report.issues
    raise CheckpointError(report.issues[0])  # a typed refusal, as a report


def _resume(run, ckpt, scratch):
    Trainer(_config(scratch / "resumed")).resume_from(ckpt)


def _admission(run, ckpt, scratch):
    estimate_job_cost(JobSpec(kind="reshard", tenant="t", params={
        "checkpoint": str(ckpt.dir), "output": str(scratch / "served"), "target_world_size": 3,
    }))


READERS = {
    "auto-merge": _auto_merge,
    "slot_coverage": lambda run, ckpt, scratch: RunIndex(run).slot_coverage(),
    "verify": _verify,
    "reshard": lambda run, ckpt, scratch: reshard_checkpoint(ckpt, scratch / "re3", 3),
    "resume_from": _resume,
    "admission": _admission,
}


@pytest.fixture(scope="module")
def defective_runs(parity_run, tmp_path_factory):
    """One copy of the run per defect, planted in checkpoint-4's manifest."""
    runs = {}
    for name, plant in DEFECTS.items():
        run = tmp_path_factory.mktemp(name) / "run"
        shutil.copytree(parity_run, run)
        path = checkpoint_dir(run, 4).manifest
        manifest = read_json(path)
        if plant is None:
            manifest = [manifest]
        else:
            plant(manifest)
        write_json_atomic(path, manifest)
        runs[name] = run
    return runs


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("defect", DEFECTS)
def test_strictness_matrix(defective_runs, tmp_path, defect, reader):
    """9 defects x 6 readers: every cell a typed refusal inside a second
    (at c0c49a9: 7 typed, 37 accepted, 8 untyped, 2 looped ``range(10**7)``)."""
    run = defective_runs[defect]
    start = perf_counter()
    with pytest.raises(ReproError, match="manifest|checkpoint-4"):
        READERS[reader](run, checkpoint_dir(run, 4), tmp_path)
    assert perf_counter() - start < 1.0
    assert not list(tmp_path.rglob("tailor_manifest.json"))  # and nothing got published


def test_the_sound_run_passes_every_reader(parity_run, tmp_path):
    """The matrix's control: without a defect no reader objects."""
    for name, reader in READERS.items():
        if name != "verify":
            reader(parity_run, checkpoint_dir(parity_run, 4), tmp_path / name)
    assert verify_checkpoint(checkpoint_dir(parity_run, 4).dir).ok


def _dry_run_manifests() -> list[dict]:
    cfg = _config("<dry-run>")
    disk = RunIndex(Path(cfg.output_dir), manifests={})
    leg = partial(NullLeg, model_config=get_config("tiny-untied"), disk=disk)
    ChaosSupervisor(cfg, FaultPlan(events=()), _leg=leg).run()
    return [disk.manifest(step) for step in disk.steps()]


def test_build_check_round_trip_for_every_writer(parity_run, tmp_path):
    """save_checkpoint, merge, reshard and the dry run's null leg all build
    through ``manifest_doc``: what they publish passes ``check_manifest``
    unchanged and is a fixpoint of the builder."""
    merged = LLMTailor.from_checkpoints(parity_run).merge(tmp_path / "merged").output
    resharded = reshard_checkpoint(merged, tmp_path / "re3", 3).output
    on_disk = [
        read_json(CheckpointPaths(d).manifest)
        for d in (checkpoint_dir(parity_run, 4).dir, checkpoint_dir(parity_run, 8).dir,
                  merged.dir, resharded)
    ]
    dry = _dry_run_manifests()
    assert [m["complete"] for m in on_disk] == [True, False, True, True]
    assert {"merge_provenance", "reshard_provenance"} <= set(on_disk[3])
    assert dry and all({"shard_nbytes", "weight_nbytes"} <= set(m) for m in dry)
    for manifest in (*on_disk, *dry):
        assert check_manifest(manifest, "round-trip") is manifest
        assert manifest_doc(**manifest) == manifest
    # Derived fields are restamped, never carried.
    lie = manifest_doc(**{**on_disk[1], "complete": True, "format_version": 99})
    assert lie == on_disk[1]
    # The dry run records what the live run publishes, key for key.
    live = [RunIndex(parity_run).manifest(s) for s in RunIndex(parity_run).steps()]
    extras = ("shard_nbytes", "weight_nbytes")
    assert [{k: v for k, v in m.items() if k not in extras} for m in dry] == live


def test_a_directory_name_and_its_manifest_must_agree(parity_run, tmp_path):
    moved = tmp_path / "checkpoint-7"
    shutil.copytree(checkpoint_dir(parity_run, 4).dir, moved)
    # The name wins (as for the writers): the shards are sought under
    # global_step7/, which the step-4 manifest cannot vouch for.
    with pytest.raises(CheckpointError, match="declares step 4.*global_step7/ holds 0"):
        CheckpointPaths(moved).read_manifest()
    renamed = tmp_path / "anything-else"
    moved.rename(renamed)
    paths = CheckpointPaths(renamed)
    assert paths.read_manifest()["step"] == paths.step == 4


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_VALID = manifest_doc(step=3, model_config="m", strategy="parity", world_size=2,
                      slots=["a"], all_slots=["a", "b"])


# Tier-1 is derandomized; the nightly's --hypothesis-seed=random draws afresh.
_NIGHTLY = any(arg.startswith("--hypothesis-seed") for arg in sys.argv)


@settings(max_examples=300, deadline=None, derandomize=not _NIGHTLY)
@given(doc=_JSON | st.fixed_dictionaries(
    {}, optional={key: _JSON for key in _VALID}
).map(lambda patch: {**_VALID, **patch}))
def test_check_manifest_raises_only_checkpoint_error(doc):
    """Arbitrary JSON, and a valid manifest with arbitrary fields swapped
    in: accepted as is, or refused with ``CheckpointError`` — never a
    ``KeyError`` / ``TypeError`` / ``AttributeError`` out of a reader."""
    try:
        checked = check_manifest(doc, "fuzz")
    except CheckpointError:
        return
    assert checked is doc
    assert type(doc["step"]) is int and type(doc["world_size"]) is int and doc["world_size"] >= 1
    assert set(doc["slots"]) <= set(doc["all_slots"])
    assert doc["complete"] is (set(doc["slots"]) == set(doc["all_slots"]))
