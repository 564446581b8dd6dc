"""``repro.dist.shard``: one builder, one checker, one strictness.

* the builder re-creates, byte for byte, every payload a writer emits;
* every reader (engine load, reshard, merge, verify, diff) rejects the
  same defects with its own typed error, and still accepts pre-CRC shards;
* the holes the hand-written validators left open stay closed: a rank
  swap through merge, and ``llmtailor verify`` passing bitrot, a rank
  swap and a foreign format version;
* no hostile payload makes the checker raise anything but the caller's
  error class, or allocate by a declared size.
"""

from __future__ import annotations

import shutil
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main
from repro.core import LLMTailor, MergeOptions, MergeRecipe, verify_checkpoint
from repro.core.diffstat import diff_checkpoints
from repro.dist import reshard_checkpoint
from repro.dist.faults import inject_bitrot
from repro.dist.reshard import reshard_sweep
from repro.dist.shard import build_payload, check_payload, payload_extras
from repro.io import CheckpointPaths, load_checkpoint, read_blob, write_blob
from repro.io.blobfile import encode
from repro.nn import get_config
from repro.train import TrainConfig, Trainer
from repro.util.errors import CheckpointError, MergeError, ReshardError

from conftest import make_engine, train_steps

GROUP = 3  # a layer no-decay group of tiny-untied: present in every shard


@pytest.fixture(scope="module")
def trail(tmp_path_factory):
    """A ws-2 parity trail (full @3, halves @6/@9/@12) and its merge."""
    root = tmp_path_factory.mktemp("shard-payload")
    Trainer(TrainConfig(
        model="tiny-untied", task="cpt", total_steps=12, checkpoint_strategy="parity",
        checkpoint_interval=3, output_dir=str(root / "run"), world_size=2,
        micro_batch_size=1, grad_accum_steps=1, seq_len=32, log_every=100,
    )).train()
    merged = LLMTailor.from_checkpoints(root / "run").merge(output=root / "merged").output
    return root / "run", merged


def _tampered(source, dest, rank, edit) -> CheckpointPaths:
    """A private copy of ``source`` whose rank shard went through ``edit``."""
    shutil.copytree(CheckpointPaths(source).dir, dest)
    paths = CheckpointPaths(dest)
    doc = read_blob(paths.shard(rank))
    edit(doc)
    write_blob(paths.shard(rank), doc)
    return paths


def _swap_ranks(paths: CheckpointPaths) -> None:
    a, b = paths.shard(0), paths.shard(1)
    tmp = a.with_suffix(".swap")
    a.rename(tmp), b.rename(a), tmp.rename(b)


# ---------------------------------------------------------------------------
# Same bits: build(check(p)) == p
# ---------------------------------------------------------------------------

def _rebuilt(payload: dict) -> dict:
    entries = check_payload(
        payload, world_size=payload["world_size"], rank=payload["rank"],
        origin="roundtrip", error=AssertionError,
    )
    return build_payload(
        payload["world_size"], payload["rank"], payload["num_total_groups"],
        entries.values(), payload_extras(payload),
    )


@pytest.mark.parametrize("world_size", [1, 2, 3, 4])
def test_builder_recreates_engine_and_resharded_payloads(untied_config, world_size):
    model, engine = make_engine(untied_config, world_size=world_size)
    train_steps(model, engine, untied_config, 2)
    full = [engine.rank_state_dict(r) for r in range(world_size)]
    partial = [engine.rank_state_dict(r, slots={"layers.0", "norm"}) for r in range(world_size)]
    resharded = [p for m in (1, 2, 3, 5) for p in reshard_sweep(full, world_size, m)]
    for payload in full + partial + resharded:
        assert encode(_rebuilt(payload)) == encode(payload)


def test_builder_recreates_written_and_merged_shards(trail):
    run, merged = trail
    for ckpt in (run / "checkpoint-6", run / "checkpoint-12", merged.dir):
        for rank in range(2):
            payload = read_blob(CheckpointPaths(ckpt).shard(rank))
            assert encode(_rebuilt(payload)) == encode(payload)


# ---------------------------------------------------------------------------
# One strictness: five readers, one verdict
# ---------------------------------------------------------------------------

def _engine_load(ckpt, out):
    config = get_config("tiny-untied")
    model, engine = make_engine(config, seed=5)
    load_checkpoint(CheckpointPaths(ckpt), model=model, config=config, engine=engine)


def _reshard(ckpt, out):
    reshard_checkpoint(ckpt, out / "resharded", 3)


def _merge(ckpt, out):
    recipe = MergeRecipe(base_checkpoint=CheckpointPaths(ckpt).dir,
                         options=MergeOptions(verify=False))
    LLMTailor(recipe).merge(output=out / "remerged")


def _verify(ckpt, out):
    verify_checkpoint(CheckpointPaths(ckpt).dir).raise_if_failed()


READERS = {
    "engine": (_engine_load, CheckpointError),
    "reshard": (_reshard, ReshardError),
    "merge": (_merge, MergeError),
    "verify": (_verify, MergeError),
    "diff": (None, MergeError),  # needs the clean twin: see _read
}


def _read(reader, ckpt, clean, out):
    if reader == "diff":
        return diff_checkpoints(clean.dir, CheckpointPaths(ckpt).dir, include_momentum=True)
    return READERS[reader][0](ckpt, out)


def _drop_group(doc):
    doc["groups"] = [h for h in doc["groups"] if h["index"] != GROUP]
    del doc["fp32_flat_groups"][GROUP], doc["state"][GROUP]


def _stale_crc(doc):
    doc["fp32_flat_groups"][GROUP] = doc["fp32_flat_groups"][GROUP] + 1.0


DEFECTS = {
    "format_version": lambda d: d.update(format_version=99),
    "world_size": lambda d: d.update(world_size=3),
    "rank": lambda d: d.update(rank=0),
    "group_missing": _drop_group,
    "padded_numel": lambda d: d["groups"][GROUP].update(
        padded_numel=d["groups"][GROUP]["padded_numel"] + 2),
    "array_shape": lambda d: d["fp32_flat_groups"].update(
        {GROUP: d["fp32_flat_groups"][GROUP][:-1]}),
    "missing_moment": lambda d: d["state"][GROUP].pop("exp_avg_sq"),
    "missing_step": lambda d: d["state"][GROUP].pop("step"),
    "stale_crc": _stale_crc,
}


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("defect", list(DEFECTS))
def test_every_reader_rejects_every_defect(trail, tmp_path, defect, reader):
    _, merged = trail
    bad = _tampered(merged, tmp_path / "bad", 1, DEFECTS[defect])
    with pytest.raises(READERS[reader][1]):
        _read(reader, bad, merged, tmp_path)


def _reverse_shapes(doc):
    header = doc["groups"][-1]
    assert any(s[0] != s[-1] for s in header["shapes"])  # a non-square weight
    header["shapes"] = [list(reversed(s)) for s in header["shapes"]]


GEOMETRY = {
    "numel": lambda d: d["groups"][GROUP].update(
        numel=d["groups"][GROUP]["numel"] + 2,
        padded_numel=d["groups"][GROUP]["padded_numel"] + 2),
    "param_names": lambda d: d["groups"][GROUP]["param_names"].append("ghost"),
    "shapes": _reverse_shapes,
}


@pytest.mark.parametrize("reader", ["engine", "reshard", "verify"])
@pytest.mark.parametrize("field", list(GEOMETRY))
def test_readers_with_a_reference_reject_foreign_geometry(trail, tmp_path, field, reader):
    """The CRCs cover only arrays, so a header that disagrees with the
    engine's layout / rank 0 / the canonical layout needs its own check."""
    _, merged = trail
    bad = _tampered(merged, tmp_path / "bad", 1, GEOMETRY[field])
    with pytest.raises(READERS[reader][1], match="geometry differs"):
        _read(reader, bad, merged, tmp_path)


@pytest.mark.parametrize("reader", list(READERS))
def test_pre_crc_shards_stay_loadable(trail, tmp_path, reader):
    _, merged = trail
    shutil.copytree(merged.dir, tmp_path / "old")
    old = CheckpointPaths(tmp_path / "old")
    for rank in range(2):
        doc = read_blob(old.shard(rank))
        for header in doc["groups"]:
            del header["crc32"]
        write_blob(old.shard(rank), doc)
    _read(reader, old, merged, tmp_path)


# ---------------------------------------------------------------------------
# The holes that closed
# ---------------------------------------------------------------------------

def test_rank_swapped_source_cannot_merge(trail, tmp_path):
    """Swapped rank files in one source used to merge, be re-stamped with
    the right ``rank`` and then resume and reshard: a silently wrong
    checkpoint.  Library and CLI now refuse, naming the rank."""
    run, _ = trail
    shutil.copytree(run, tmp_path / "run")
    _swap_ranks(CheckpointPaths(tmp_path / "run" / "checkpoint-12"))
    tailor = LLMTailor.from_checkpoints(tmp_path / "run")
    with pytest.raises(MergeError, match="written for rank 1, expected rank 0"):
        tailor.merge(output=tmp_path / "m")
    assert not CheckpointPaths(tmp_path / "m").manifest.exists()
    tailor.recipe.save(tmp_path / "recipe.yaml")
    with pytest.raises(MergeError, match="written for rank 1, expected rank 0"):
        main(["merge", "-r", str(tmp_path / "recipe.yaml"), "-o", str(tmp_path / "m-cli")])


@pytest.mark.parametrize("damage, named", [
    (lambda paths: inject_bitrot(paths, 1, GROUP, keep_replica=False), "CRC mismatch for group 3"),
    (_swap_ranks, "written for rank 1, expected rank 0"),
    (lambda paths: write_blob(
        paths.shard(0), dict(read_blob(paths.shard(0)), format_version=99)), "format_version 99"),
])
def test_verify_names_what_the_engine_would_refuse(trail, tmp_path, damage, named, capsys):
    _, merged = trail
    shutil.copytree(merged.dir, tmp_path / "victim")
    damage(CheckpointPaths(tmp_path / "victim"))
    report = verify_checkpoint(tmp_path / "victim")
    assert not report.ok and any(named in issue for issue in report.issues), report.issues
    assert main(["verify", str(tmp_path / "victim")]) == 1
    assert named in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Hostile payloads: typed, bounded
# ---------------------------------------------------------------------------

class _Boom(Exception):
    pass


_SEED = {}


def _seed_payload() -> tuple[dict, dict]:
    if not _SEED:
        config = get_config("tiny-untied")
        model, engine = make_engine(config, world_size=2)
        train_steps(model, engine, config, 1)
        _SEED["payload"] = engine.rank_state_dict(1)
        _SEED["expect"] = {m.index: m.header() for m in engine.group_meta}
    return _SEED["payload"], _SEED["expect"]


def _clone(payload: dict) -> dict:
    """Fresh containers, shared arrays (mutations replace, never write)."""
    out = dict(payload)
    out["groups"] = [dict(h) for h in payload["groups"]]
    out["hyperparams"] = [dict(h) for h in payload["hyperparams"]]
    out["fp32_flat_groups"] = dict(payload["fp32_flat_groups"])
    out["state"] = {g: dict(e) for g, e in payload["state"].items()}
    return out


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.just(-(2**62)), st.just(2**62),
    st.floats(allow_nan=True), st.text(max_size=3), st.just([]), st.just({}), st.just([[1], "x"]),
    st.just(np.zeros(3, dtype=np.float64)), st.just(np.zeros((2, 2), dtype=np.float32)),
    st.just(np.float32(1.5)), st.just(np.int64(7)),
)
_TOP = ["format_version", "zero_stage", "world_size", "rank", "num_total_groups",
        "groups", "hyperparams", "fp32_flat_groups", "state"]
_HEADER = ["index", "numel", "padded_numel", "param_names", "shapes", "crc32", "name"]


@st.composite
def _mutation(draw):
    kind = draw(st.sampled_from(["top", "header", "hyper", "fp32", "state", "dup"]))
    g = draw(st.integers(0, 10))
    field = draw(st.sampled_from({
        "top": _TOP, "header": _HEADER, "hyper": ["index", "lr", "betas"],
        "fp32": [g], "state": ["step", "exp_avg", "exp_avg_sq", None], "dup": [None],
    }[kind]))
    return kind, g, field, draw(st.booleans()), draw(_JUNK)


def _apply(doc: dict, mutation) -> None:
    kind, g, field, drop, junk = mutation
    try:
        target = {
            "top": lambda: doc, "header": lambda: doc["groups"][g],
            "hyper": lambda: doc["hyperparams"][g], "fp32": lambda: doc["fp32_flat_groups"],
            "state": lambda: doc["state"], "dup": lambda: doc["groups"],
        }[kind]()
        if kind == "dup":
            return target.append(target[g])
        if kind == "state" and field is not None:
            target = target[g]
        elif kind == "state":
            field = g
        if drop:
            target.pop(field, None)
        else:
            target[field] = junk
    except (KeyError, IndexError, TypeError, ValueError, AttributeError):
        pass  # an earlier mutation already destroyed this container


# The nightly passes --hypothesis-seed=random, which a derandomized test ignores.
_NIGHTLY = any(arg.startswith("--hypothesis-seed") for arg in sys.argv)


@settings(max_examples=150, deadline=None, derandomize=not _NIGHTLY)
@given(
    mutations=st.lists(_mutation(), min_size=1, max_size=4),
    complete=st.booleans(), with_expect=st.booleans(),
    wanted=st.one_of(st.none(), st.lists(st.integers(-1, 12), max_size=3)),
)
# Arrays where scalars or lists belong make ``!=`` ambiguous, not False.
@example([("top", 0, "format_version", False, np.zeros(3))], False, False, None)
@example([("header", 0, "crc32", False, np.zeros(3))], False, False, None)
@example([("header", 1, "param_names", False, np.float32(1.5))], False, True, None)
@example([("header", 2, "numel", False, 2**62), ("header", 2, "padded_numel", False, 2**62)],
         True, False, None)
def test_checker_raises_only_the_callers_error(mutations, complete, with_expect, wanted):
    payload, expect = _seed_payload()
    doc = _clone(payload)
    for mutation in mutations:
        _apply(doc, mutation)
    tracemalloc.start()
    try:
        check_payload(
            doc, world_size=2, rank=1, origin="fuzz", error=_Boom, complete=complete,
            expect=expect if with_expect else None, wanted=wanted,
        )
    except _Boom:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 256 << 10, f"checker allocated {peak} bytes on a ~150 KiB payload"
