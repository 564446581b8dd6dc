"""The elastic resharding engine: N→M bitwise validity and bounded memory.

The contract under test (ISSUE 3 tentpole): ``repro.dist.reshard``
converts a complete ``SHARD_FORMAT_VERSION`` checkpoint written at world
size N into a bitwise-valid checkpoint at world size M, for any N, M ≥ 1:

* chains compose — N→M→1 equals the direct N→1 consolidation byte for
  byte, for every strategy's trail merged into a complete checkpoint;
* round trips are lossless — N→M→N reproduces the original shard files
  exactly;
* the sweep equals a gather-then-reslice oracle bitwise — on real
  checkpoints and on synthetic payloads with ragged group sizes — while
  reading every source shard exactly once and never holding more than
  one source plus the open target;
* corruption in any source group is rejected via its per-group CRC.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.dist.reshard as reshard_module
from repro.core import LLMTailor, MergeOptions, recipe_from_run, verify_checkpoint
from repro.dist import GroupPartition, reshard_checkpoint
from repro.dist.reshard import reshard_sweep
from repro.dist.zero import SHARD_FORMAT_VERSION, group_payload_crc
from repro.io import CheckpointPaths, Storage, save_checkpoint, load_checkpoint
from repro.io.blobfile import encode, read_blob, write_blob
from repro.nn import get_config
from repro.strategies import build_strategy, plan_reshard_cost
from repro.util.errors import CheckpointError, CheckpointFormatError, ReshardError

from conftest import decoded_nbytes, make_engine, peak_outside_writes, train_steps

WORLD_SIZES = [1, 2, 3, 4]
STRATEGIES = ["parity", "magnitude", "filtered", "full"]


def _build_complete_checkpoint(root, config, strategy_name: str, world_size: int):
    """Train under a strategy, then merge the trail into a complete ckpt.

    The merged output is the realistic reshard input: its shards carry
    the merge engine's extra payload keys (``global_step``,
    ``merged_by``), which the resharder must transport verbatim.
    """
    model, engine = make_engine(config, world_size=world_size)
    storage = Storage(root / f"run-{strategy_name}-ws{world_size}")
    strategy = build_strategy(strategy_name, config, interval=1)
    for step in range(1, 4):
        train_steps(model, engine, config, 1, seed=step)
        slots = strategy.plan_step(step, model=model)
        assert slots is not None
        save_checkpoint(
            storage, step=step, model=model, config=config, engine=engine,
            trainer_state={"global_step": step}, slots=slots,
            strategy=strategy_name,
        )
    recipe = recipe_from_run(storage.root)
    recipe.options = MergeOptions(verify=False)
    result = LLMTailor(recipe).merge(output=root / f"complete-{strategy_name}-ws{world_size}")
    return result.output


@pytest.fixture(scope="module")
def ckpt_factory(tmp_path_factory):
    """Cached (strategy, world_size) -> complete CheckpointPaths."""
    root = tmp_path_factory.mktemp("reshard-sources")
    config = get_config("tiny-untied")
    cache: dict[tuple[str, int], CheckpointPaths] = {}

    def get(strategy: str, world_size: int) -> CheckpointPaths:
        key = (strategy, world_size)
        if key not in cache:
            cache[key] = _build_complete_checkpoint(root, config, strategy, world_size)
        return cache[key]

    return get


def _shards_bytes(paths: CheckpointPaths, world_size: int) -> list[bytes]:
    return [paths.shard(r).read_bytes() for r in range(world_size)]


def _gather_reslice(sources: list[dict], M: int) -> list[dict]:
    """Oracle: materialize each group's full master, re-pad, re-slice.

    The textbook N→M algorithm (everything in memory at once), written
    against :class:`GroupPartition` only — independent of the sweep.
    """
    ref, N = sources[0], len(sources)
    targets = []
    for m in range(M):
        groups, fp32, state = [], {}, {}
        for header in ref["groups"]:
            g = header["index"]
            src, dst = GroupPartition(header["numel"], N), GroupPartition(header["numel"], M)

            def resliced(pick):
                return dst.shards(src.gather([pick(s) for s in sources]))[m]

            fp32[g] = resliced(lambda s: s["fp32_flat_groups"][g])
            state[g] = {
                "step": ref["state"][g]["step"],
                "exp_avg": resliced(lambda s: s["state"][g]["exp_avg"]),
                "exp_avg_sq": resliced(lambda s: s["state"][g]["exp_avg_sq"]),
            }
            crc = group_payload_crc(fp32[g], state[g]["exp_avg"], state[g]["exp_avg_sq"])
            groups.append(dict(header, padded_numel=dst.padded_numel, crc32=crc))
        targets.append(
            {**ref, "world_size": M, "rank": m, "groups": groups,
             "fp32_flat_groups": fp32, "state": state}
        )
    return targets


# ---------------------------------------------------------------------------
# Bitwise contracts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("world_size", WORLD_SIZES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_chain_via_m_equals_direct_consolidation(
    ckpt_factory, tmp_path, strategy, world_size
):
    """N→3→1 must equal the direct N→1 consolidation byte for byte."""
    src = ckpt_factory(strategy, world_size)
    direct = reshard_checkpoint(src, tmp_path / "direct1", 1)
    mid = reshard_checkpoint(src, tmp_path / "mid3", 3)
    chained = reshard_checkpoint(tmp_path / "mid3", tmp_path / "chain1", 1)
    assert direct.target_world_size == chained.target_world_size == 1
    assert mid.target_world_size == 3
    assert (
        CheckpointPaths(tmp_path / "direct1").shard(0).read_bytes()
        == CheckpointPaths(tmp_path / "chain1").shard(0).read_bytes()
    ), f"chain differs from direct ({strategy}, ws={world_size})"
    assert (
        CheckpointPaths(tmp_path / "direct1").weights.read_bytes()
        == CheckpointPaths(tmp_path / "chain1").weights.read_bytes()
    )


@pytest.mark.parametrize("target", WORLD_SIZES)
@pytest.mark.parametrize("source", WORLD_SIZES)
def test_roundtrip_reproduces_original_shards(ckpt_factory, tmp_path, source, target):
    """N→M→N reproduces the original shard files bitwise (acceptance)."""
    src = ckpt_factory("full", source)
    original = _shards_bytes(src, source)
    there = reshard_checkpoint(src, tmp_path / "mid", target)
    back_report = reshard_checkpoint(tmp_path / "mid", tmp_path / "back", source)
    # Exactly one read per source shard, whatever the target world size.
    assert (there.files_loaded, back_report.files_loaded) == (source, target)
    assert len(there.rank_seconds) == target
    back = CheckpointPaths(tmp_path / "back")
    assert _shards_bytes(back, source) == original, (
        f"{source}->{target}->{source} round trip is not bitwise"
    )
    assert back.weights.read_bytes() == src.weights.read_bytes()
    assert int(back.read_manifest()["world_size"]) == source


@pytest.mark.parametrize("target", [1, 3])
def test_stream_equals_materializing_engine(ckpt_factory, tmp_path, target):
    """The sweep's files equal the materializing oracle's, byte for byte."""
    src = ckpt_factory("parity", 2)
    reshard_checkpoint(src, tmp_path / "s", target)
    sources = [read_blob(src.shard(r)) for r in range(2)]
    for rank, payload in enumerate(_gather_reslice(sources, target)):
        write_blob(tmp_path / "oracle.blob", payload)
        assert (
            CheckpointPaths(tmp_path / "s").shard(rank).read_bytes()
            == (tmp_path / "oracle.blob").read_bytes()
        )


def _synthetic_sources(numels: list[int], world_size: int, seed: int) -> list[dict]:
    """Complete rank payloads for groups of the given (ragged) sizes."""
    rng = np.random.default_rng(seed)
    parts = [GroupPartition(n, world_size) for n in numels]
    masters = [
        [p.shards(rng.standard_normal(p.numel).astype(np.float32)) for _ in range(3)]
        for p in parts
    ]
    payloads = []
    for rank in range(world_size):
        arrays = {g: [kind[rank] for kind in masters[g]] for g in range(len(numels))}
        payloads.append({
            "format_version": SHARD_FORMAT_VERSION, "zero_stage": 3,
            "world_size": world_size, "rank": rank, "num_total_groups": len(numels),
            "groups": [
                {"index": g, "numel": p.numel, "padded_numel": p.padded_numel,
                 "param_names": [f"p{g}"], "crc32": group_payload_crc(*arrays[g])}
                for g, p in enumerate(parts)
            ],
            "hyperparams": [{"index": g, "lr": 0.1 * (g + 1)} for g in range(len(numels))],
            "fp32_flat_groups": {g: a[0] for g, a in arrays.items()},
            "state": {
                g: {"step": 7 + g, "exp_avg": a[1], "exp_avg_sq": a[2]}
                for g, a in arrays.items()
            },
            "global_step": 7,
        })
    return payloads


@settings(max_examples=120, deadline=None)
@given(
    numels=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    source=st.integers(1, 6),
    target=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_sweep_matches_oracle_on_ragged_groups(numels, source, target, seed):
    """Any N, M in 1..6 and any group sizes, including numel < world size.

    Tiny groups leave trailing ranks empty, so a later target can finish
    before an earlier one and a second target can stay open across a
    source boundary — shapes the file-based pairs never reach.
    """
    sources = _synthetic_sources(numels, source, seed)
    swept = list(reshard_sweep(sources, source, target))
    oracle = _gather_reslice(sources, target)
    assert [encode(p) for p in swept] == [encode(p) for p in oracle]
    back = list(reshard_sweep(swept, target, source))
    assert [encode(p) for p in back] == [encode(p) for p in sources]


def test_resharded_checkpoint_verifies(ckpt_factory, tmp_path):
    """The output passes structural verification at its new world size."""
    src = ckpt_factory("full", 2)
    reshard_checkpoint(src, tmp_path / "v3", 3)
    verify = verify_checkpoint(tmp_path / "v3")
    assert verify.ok, verify.issues


# ---------------------------------------------------------------------------
# Memory bound
# ---------------------------------------------------------------------------

def test_stream_peak_memory_below_full_materialization(ckpt_factory, tmp_path, monkeypatch):
    """4→2 never holds more than one source shard plus the open target.

    An absolute bound, far below the full optimizer state (four source
    shards): while source ``r+1`` is decoded, source ``r`` and every
    already-written target must be gone.  A loop variable, an
    ``enumerate`` tuple or a lingering payload that keeps one of them
    alive through the next ``read_blob`` breaks it.
    """
    src = ckpt_factory("full", 4)
    source_bytes = decoded_nbytes(read_blob(src.shard(0)))
    target_bytes = 2 * source_bytes
    peak = peak_outside_writes(
        monkeypatch, reshard_module,
        lambda: reshard_checkpoint(src, tmp_path / "mem", 2),
    )
    # Codec slack: read_blob holds the file's bytes while decoding them,
    # and a tiny model's headers are not negligible next to its arrays.
    slack = src.shard(0).stat().st_size + (128 << 10)
    assert peak <= source_bytes + target_bytes + slack, (
        f"reshard peak {peak} exceeds one source ({source_bytes}) + one target "
        f"({target_bytes}) + slack ({slack})"
    )


# ---------------------------------------------------------------------------
# Corruption and misuse rejection
# ---------------------------------------------------------------------------

def test_corrupted_group_rejected(ckpt_factory, tmp_path):
    """A tampered group fails its per-group CRC even in a valid container."""
    src = ckpt_factory("full", 2)
    copy = reshard_checkpoint(src, tmp_path / "victim", 2)  # fresh private copy
    shard_path = CheckpointPaths(copy.output).shard(0)
    doc = read_blob(shard_path)
    g = next(iter(doc["fp32_flat_groups"]))
    doc["fp32_flat_groups"][g] = doc["fp32_flat_groups"][g] + 1.0
    write_blob(shard_path, doc)  # container CRC valid again
    with pytest.raises(ReshardError, match="CRC mismatch for group"):
        reshard_checkpoint(copy.output, tmp_path / "out", 1)


def test_bit_rot_rejected(ckpt_factory, tmp_path):
    """Raw bit flips fail the container checks."""
    src = ckpt_factory("full", 2)
    copy = reshard_checkpoint(src, tmp_path / "victim2", 2)
    shard_path = CheckpointPaths(copy.output).shard(1)
    raw = bytearray(shard_path.read_bytes())
    raw[-3] ^= 0xFF
    shard_path.write_bytes(bytes(raw))
    with pytest.raises((CheckpointFormatError, ReshardError)):
        reshard_checkpoint(copy.output, tmp_path / "out", 1)


def test_stream_rejects_corruption_after_the_last_group(ckpt_factory, tmp_path):
    """The whole file is verified, not just the groups that are copied.

    Shards carry non-canonical top-level keys through a reshard; here
    one of them makes the tail of the file (past every group) longer
    than a read chunk.  A flipped byte in that tail must fail the
    container CRC.
    """
    src = ckpt_factory("full", 2)
    copy = reshard_checkpoint(src, tmp_path / "victim-tail", 2)
    shard_path = CheckpointPaths(copy.output).shard(1)
    doc = read_blob(shard_path)
    doc["user_extra"] = np.random.default_rng(0).bytes(400_000)
    write_blob(shard_path, doc)
    reshard_checkpoint(copy.output, tmp_path / "clean", 1)  # intact: fine
    raw = bytearray(shard_path.read_bytes())
    raw[-3] ^= 0xFF
    shard_path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="CRC mismatch"):
        reshard_checkpoint(copy.output, tmp_path / "out", 1)


def test_step_disagreement_rejected(ckpt_factory, tmp_path):
    """Mixed-up shard files (diverging step counters) must not merge."""
    src = ckpt_factory("full", 2)
    copy = reshard_checkpoint(src, tmp_path / "victim3", 2)
    shard_path = CheckpointPaths(copy.output).shard(1)
    doc = read_blob(shard_path)
    g = next(iter(doc["state"]))
    doc["state"][g]["step"] = int(doc["state"][g]["step"]) + 7
    write_blob(shard_path, doc)
    with pytest.raises(ReshardError, match="step"):
        reshard_checkpoint(copy.output, tmp_path / "out", 1)


def test_scheduler_staleness_does_not_break_roundtrip(tmp_path, untied_config):
    """Shards stay canonical when ranks' LR mirrors lag the reference.

    The scheduler advances the reference optimizer *after* a step;
    ranks >= 1 only pick the new LR up at the top of the next one.
    ``rank_state_dict`` must emit the reference hyperparams for every
    rank — otherwise N→M→N round trips of real trainer checkpoints
    would lose the per-rank staleness and stop being bitwise.
    """
    model, engine = make_engine(untied_config, world_size=2)
    train_steps(model, engine, untied_config, 1)
    # Simulate the post-step scheduler tick: only the reference moves.
    for group in engine.reference_optimizer.param_groups:
        group["lr"] *= 0.5
    assert engine.rank_state_dict(0)["hyperparams"] == engine.rank_state_dict(1)["hyperparams"]

    storage = Storage(tmp_path / "run")
    paths = save_checkpoint(
        storage, step=1, model=model, config=untied_config, engine=engine,
        trainer_state={}, strategy="full",
    )
    original = _shards_bytes(paths, 2)
    reshard_checkpoint(paths, tmp_path / "mid", 3)
    reshard_checkpoint(tmp_path / "mid", tmp_path / "back", 2)
    assert _shards_bytes(CheckpointPaths(tmp_path / "back"), 2) == original


def test_foreign_shard_geometry_rejected(ckpt_factory, tmp_path):
    """A shard whose group geometry diverges from rank 0 must not merge.

    The header tamper leaves the per-group CRCs valid (they cover only
    the arrays), so this is exactly the case the cross-rank geometry
    check exists for.
    """
    src = ckpt_factory("full", 2)
    copy = reshard_checkpoint(src, tmp_path / "victim-geom", 2)
    shard_path = CheckpointPaths(copy.output).shard(1)
    doc = read_blob(shard_path)
    doc["groups"][0]["param_names"] = list(doc["groups"][0]["param_names"]) + ["ghost"]
    write_blob(shard_path, doc)
    with pytest.raises(ReshardError, match="geometry differs"):
        reshard_checkpoint(copy.output, tmp_path / "out-geom", 1)


def test_aborted_reshard_leaves_no_complete_manifest(ckpt_factory, tmp_path):
    """A failed reshard must not leave a complete-marked output directory.

    The manifest is written last (save_checkpoint's discipline): resume
    tooling scanning for complete checkpoints must never pick up a
    directory whose shards were not all written.
    """
    src = ckpt_factory("full", 2)
    copy = reshard_checkpoint(src, tmp_path / "victim-abort", 2)
    CheckpointPaths(copy.output).shard(1).unlink()
    out = tmp_path / "out-abort"
    with pytest.raises(CheckpointError, match="missing shard for rank 1"):
        reshard_checkpoint(copy.output, out, 3)
    assert not CheckpointPaths(out).manifest.exists()


def test_partial_checkpoint_rejected(tmp_path, untied_config):
    model, engine = make_engine(untied_config)
    storage = Storage(tmp_path / "run")
    train_steps(model, engine, untied_config, 1)
    paths = save_checkpoint(
        storage, step=1, model=model, config=untied_config, engine=engine,
        trainer_state={}, slots=["layers.0"], strategy="parity",
    )
    with pytest.raises(ReshardError, match="partial"):
        reshard_checkpoint(paths, tmp_path / "out", 2)


def test_in_place_reshard_rejected(ckpt_factory, tmp_path):
    """Resharding into the source directory would destroy it mid-read."""
    src = ckpt_factory("full", 2)
    copy = reshard_checkpoint(src, tmp_path / "victim-inplace", 2)
    with pytest.raises(ReshardError, match="in place"):
        reshard_checkpoint(copy.output, copy.output, 4)
    # The source must be untouched and still loadable.
    assert _shards_bytes(CheckpointPaths(copy.output), 2) == _shards_bytes(src, 2)


def test_output_reuse_cleans_stale_higher_ranks(ckpt_factory, tmp_path):
    """Shrinking into a reused output dir must not leave stale rank files."""
    src = ckpt_factory("full", 2)
    out = tmp_path / "reused"
    reshard_checkpoint(src, out, 4)
    reshard_checkpoint(src, out, 2)
    paths = CheckpointPaths(out)
    assert int(paths.read_manifest()["world_size"]) == 2
    assert sorted(p.name for p in paths.optim_dir.glob("*.blob")) == [
        paths.shard(0).name, paths.shard(1).name,
    ]
    assert _shards_bytes(paths, 2) == _shards_bytes(src, 2)


def test_checkpoint_named_output_rejects_step_conflict(ckpt_factory, tmp_path):
    """A ``checkpoint-<other-step>`` output name would misresolve shards.

    ``CheckpointPaths.step`` prefers the directory name over the
    manifest, so shards written under the source step's global_step dir
    would be unfindable afterwards — reject the name up front.  The
    matching name (and any non-checkpoint name) must still work.
    """
    src = ckpt_factory("full", 2)
    step = int(src.read_manifest()["step"])
    with pytest.raises(ReshardError, match="names step"):
        reshard_checkpoint(src, tmp_path / "checkpoint-999", 2)
    report = reshard_checkpoint(src, tmp_path / f"checkpoint-{step}", 2)
    assert verify_checkpoint(report.output).ok


def test_consume_drains_sources_without_changing_output(untied_config):
    """Feeding the sweep lazily (the elastic reader's mode) is bit-identical.

    The sweep must pull each source only when it needs it — target 0 of
    a 2→3 reshard is out before source 1 is asked for — and drain the
    iterator exactly once.
    """
    model, engine = make_engine(untied_config, world_size=2)
    train_steps(model, engine, untied_config, 1)
    kept = list(reshard_sweep([engine.rank_state_dict(r) for r in range(2)], 2, 3))

    pulled = []

    def lazy_sources():
        for r in range(2):
            pulled.append(r)
            yield engine.rank_state_dict(r)

    sweep = reshard_sweep(lazy_sources(), 2, 3)
    assert encode(next(sweep)) == encode(kept[0]) and pulled == [0]
    assert [encode(p) for p in sweep] == [encode(p) for p in kept[1:]]
    assert pulled == [0, 1]
    with pytest.raises(ReshardError, match="got only 1"):
        list(reshard_sweep(iter(kept[:1]), 3, 2))


def test_bad_target_world_size_rejected(ckpt_factory, tmp_path):
    src = ckpt_factory("full", 2)
    with pytest.raises(ReshardError, match="world_size"):
        reshard_checkpoint(src, tmp_path / "out", 0)
    with pytest.raises(ReshardError):
        list(reshard_sweep([], 0, 2))


# ---------------------------------------------------------------------------
# Engine and trainer wiring
# ---------------------------------------------------------------------------

def test_engine_load_world_size_mismatch_raises(untied_config):
    """One mismatched shard alone cannot be re-partitioned: the error points
    at the elastic paths (`llmtailor reshard` / load_checkpoint)."""
    model, engine = make_engine(untied_config, world_size=2)
    shard = engine.rank_state_dict(0)
    _, engine3 = make_engine(untied_config, world_size=3)
    with pytest.raises(CheckpointError, match="reshard"):
        engine3.load_rank_state_dict(0, shard)


def test_elastic_resume_preserves_training(tmp_path, untied_config):
    """A ws-3 checkpoint resumed at ws-2 continues with identical losses."""
    model, engine = make_engine(untied_config, world_size=3)
    train_steps(model, engine, untied_config, 2)
    storage = Storage(tmp_path / "run")
    paths = save_checkpoint(
        storage, step=2, model=model, config=untied_config, engine=engine,
        trainer_state={"global_step": 2}, strategy="full",
    )
    model2, engine2 = make_engine(untied_config, world_size=2, seed=55)
    load_checkpoint(paths, model=model2, config=untied_config, engine=engine2)
    reference = train_steps(model, engine, untied_config, 2, seed=9)
    resumed = train_steps(model2, engine2, untied_config, 2, seed=9)
    assert reference == resumed


# ---------------------------------------------------------------------------
# Partition interval math
# ---------------------------------------------------------------------------

def test_overlap_pair_count_matches_gcd_formula():
    """For boundary-aligned sizes the transfer count is N + M - gcd."""
    import math

    numel = 840  # divisible by every world size below: exact boundaries
    for n, m in itertools.product(range(1, 7), range(1, 7)):
        src = GroupPartition(numel, n)
        dst = GroupPartition(numel, m)
        pairs = sum(len(dst.overlapping_ranks(t, src)) for t in range(m))
        assert pairs == n + m - math.gcd(n, m), (n, m, pairs)


def test_master_bounds_cover_exactly():
    for numel, ws in [(7, 3), (10, 4), (5, 8), (0, 2), (12, 1)]:
        part = GroupPartition(numel, ws)
        covered = []
        for rank in range(ws):
            lo, hi = part.master_bounds(rank)
            assert 0 <= lo <= hi <= numel
            covered.extend(range(lo, hi))
        assert covered == list(range(numel))


def test_overlap_requires_same_numel():
    from repro.util.errors import DistError

    with pytest.raises(DistError, match="intersect"):
        GroupPartition(10, 2).overlapping_ranks(0, GroupPartition(11, 2))


# ---------------------------------------------------------------------------
# CLI and planner
# ---------------------------------------------------------------------------

def test_cli_reshard_roundtrip(ckpt_factory, tmp_path, capsys):
    from repro.cli import main

    src = ckpt_factory("full", 2)
    assert main([
        "reshard", str(src.dir), "-o", str(tmp_path / "m3"),
        "--target-world-size", "3",
    ]) == 0
    assert main([
        "reshard", str(tmp_path / "m3"), "-o", str(tmp_path / "back"), "-w", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "world size           : 2 -> 3" in out
    assert _shards_bytes(CheckpointPaths(tmp_path / "back"), 2) == _shards_bytes(src, 2)


def test_plan_reshard_cost_model():
    config = get_config("llama3.1-8b")
    plan = plan_reshard_cost(config, source_world_size=8, target_world_size=3)
    optim_bytes = plan.bytes_written  # 3 target shards == the whole state
    assert plan.loads == 8  # one read per source shard, whatever M is
    assert plan.bytes_loaded == 8 * (optim_bytes // 8)
    # The memory guarantee: one source shard plus one target shard.
    assert plan.peak_bytes == optim_bytes // 8 + optim_bytes // 3
    assert plan.peak_bytes < optim_bytes
    assert plan.seconds > 0
    assert plan.describe()["model"] == config.name
    assert "stream" not in plan.describe() and "workers" not in plan.describe()


def test_cli_plan_reshard_estimate(capsys):
    from repro.cli import main

    assert main([
        "plan", "llama3.1-8b", "full", "--world-size", "8",
        "--reshard-to", "2", "--merge-checkpoints", "2", "--workers", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "reshard estimate (8 -> 2 ranks):" in out
    assert "shard loads            : 8" in out
    assert "peak memory" in out
    assert "merge estimate (2 ckpts, per-checkpoint, workers=4)" in out
    # The removed engine switches are gone from every command.
    for argv in (
        ["plan", "llama3.1-8b", "full", "--reshard-to", "2", "--stream"],
        ["reshard", "x", "-o", "y", "-w", "2", "--no-stream"],
        ["reshard", "x", "-o", "y", "-w", "2", "--workers", "2"],
    ):
        with pytest.raises(SystemExit):
            main(argv)
