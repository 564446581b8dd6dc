"""Shared fixtures for the test suite.

Heavy artifacts (trained models with checkpoint trails) are built once
per session and reused read-only across tests.
"""

from __future__ import annotations

import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core.groups import tailored_param_groups
from repro.dist import GroupPartition, SimComm, ZeroStage3Engine, flatten_arrays, unflatten_array
from repro.io import Storage, save_checkpoint
from repro.nn import build_model, get_config
from repro.numerics import quantize
from repro.optim import AdamW
from repro.train import TrainConfig, Trainer


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(params=["tiny-untied", "tiny-tied", "tiny-qwen"])
def tiny_config(request):
    return get_config(request.param)


@pytest.fixture
def untied_config():
    return get_config("tiny-untied")


@pytest.fixture
def tied_config():
    return get_config("tiny-tied")


def make_engine(config, *, world_size=2, seed=1, lr=1e-3, weight_decay=0.01):
    """Model + tailored-group ZeRO engine, ready to train."""
    model = build_model(config, seed=seed)
    groups = tailored_param_groups(model, config, weight_decay)
    engine = ZeroStage3Engine(model, config, groups, world_size=world_size, lr=lr)
    return model, engine


def train_steps(model, engine, config, n_steps, *, seed=0):
    """Run n quick optimizer steps on a fixed random batch; returns losses."""
    data_rng = np.random.default_rng(seed)
    ids = data_rng.integers(0, config.vocab_size, size=(2, 16))
    labels = np.roll(ids, -1, axis=1)
    losses = []
    for _ in range(n_steps):
        engine.zero_grad()
        loss = model.loss(ids, labels)
        loss.backward()
        engine.step()
        losses.append(loss.item())
    return losses


class ReferenceZeroEngine:
    """Test oracle: the allocate-per-step ZeRO-3 step the engine's buffers replaced — flatten, pad,
    reduce-scatter, ``AdamW(fused=False)`` on owned shard copies, all-gather, per-param quantize."""

    def __init__(self, model, config, groups, *, world_size=1, lr=1e-3):
        self.comm, self._dtype = SimComm(world_size), config.storage_dtype
        self._names = [g["param_names"] for g in groups]
        self._params = [list(g["params"]) for g in groups]
        flats = [flatten_arrays([p.data for p in ps]) for ps in self._params]
        self._parts = [GroupPartition(flat.size, world_size) for flat in flats]
        self._shards = [[Tensor(s) for s in pt.shards(fl)] for pt, fl in zip(self._parts, flats)]
        per_group = [{**g, "params": shards} for g, shards in zip(groups, self._shards)]
        self.reference_optimizer = AdamW(per_group, lr=lr, fused=False)
        self._requantize(range(len(groups)), np.concatenate)

    def _masters(self, g, gather=np.concatenate):
        flat = gather([t.data for t in self._shards[g]])[: self._parts[g].numel]
        return unflatten_array(flat, [p.data.shape for p in self._params[g]])

    def _requantize(self, touched, gather):
        for g in touched:
            for p, master in zip(self._params[g], self._masters(g, gather)):
                p.data[...] = quantize(master, self._dtype)

    def zero_grad(self):
        for t in sum(self._params + self._shards, []):
            t.grad = None

    def step(self):
        stepped = [g for g, ps in enumerate(self._params) if any(p.grad is not None for p in ps)]
        for g in stepped:
            grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in self._params[g]]
            padded = [self._parts[g].pad(flatten_arrays(grads))] * self.comm.world_size
            for t, shard in zip(self._shards[g], self.comm.reduce_scatter_mean(padded)):
                t.grad = shard
        self.reference_optimizer.step()
        self._requantize(stepped, self.comm.all_gather)

    def master_state_dict(self):
        return {n: m for g, ns in enumerate(self._names) for n, m in zip(ns, self._masters(g))}

    def rank_state_dict(self, rank):
        mine, fresh = [s[rank] for s in self._shards], dict(step=0, exp_avg=0.0, exp_avg_sq=0.0)
        state = {g: self.reference_optimizer.state.get(id(t), fresh) for g, t in enumerate(mine)}
        return {"fp32_flat_groups": {g: t.data for g, t in enumerate(mine)}, "state": state}


def _encode_blob_v1(obj) -> bytes:
    """The version-1 TLV encoding: every ndarray under tag ``A``, no planes."""
    if obj is None:
        return b"N"
    if obj is True or obj is False:
        return b"T" if obj else b"F"
    if isinstance(obj, (int, np.integer)):
        return b"I" + struct.pack("<q", int(obj))
    if isinstance(obj, (float, np.floating)):
        return b"D" + struct.pack("<d", float(obj))
    if isinstance(obj, str):
        raw = obj.encode("utf-8")
        return b"S" + struct.pack("<I", len(raw)) + raw
    if isinstance(obj, bytes):
        return b"B" + struct.pack("<Q", len(obj)) + obj
    if isinstance(obj, (list, tuple)):
        return b"L" + struct.pack("<I", len(obj)) + b"".join(map(_encode_blob_v1, obj))
    if isinstance(obj, dict):
        items = b"".join(_encode_blob_v1(k) + _encode_blob_v1(v) for k, v in obj.items())
        return b"M" + struct.pack("<I", len(obj)) + items
    assert isinstance(obj, np.ndarray), type(obj)
    dtype_str = obj.dtype.str.encode("ascii")
    return (
        b"A" + struct.pack("<B", len(dtype_str)) + dtype_str
        + struct.pack("<B", obj.ndim) + struct.pack(f"<{obj.ndim}q", *obj.shape)
        + struct.pack("<Q", obj.nbytes) + obj.tobytes()
    )


def write_blob_v1(path, obj, *, compress: bool = True) -> None:
    """Test oracle: write ``obj`` as the version-1 container ``repro`` used to emit.

    Whole payload in one zlib stream (header flag bit 0), arrays under
    tag ``A`` only, CRC over the uncompressed payload.  Independent of
    ``repro.io.blobfile`` so it pins the on-disk compatibility contract.
    """
    raw = _encode_blob_v1(obj)
    payload = zlib.compress(raw, 1) if compress else raw
    header = b"REPROBLB" + struct.pack(
        "<IBQQI", 1, int(compress), len(payload), len(raw), zlib.crc32(raw)
    )
    Path(path).write_bytes(header + payload)


def reference_merged_shard(recipe, config, rank: int) -> dict:
    """Test oracle: one merged rank shard built the serial way — a full
    ``read_blob`` of each slot's source shard, then take that slot's groups."""
    from repro.core.groups import groups_for_slot
    from repro.io import CheckpointPaths, read_blob
    from repro.nn import model_slots

    out = {"groups": {}, "hyperparams": {}, "fp32_flat_groups": {}, "state": {}}
    for slot in model_slots(config):
        shard = read_blob(CheckpointPaths(recipe.source_for(slot)).shard(rank))
        for key in ("groups", "hyperparams"):
            shard[key] = {h["index"]: h for h in shard[key]}
        for g in groups_for_slot(config, slot):
            for key in out:
                out[key][g] = shard[key][g]
    out = {key: dict(sorted(part.items())) for key, part in out.items()}
    return {
        "format_version": shard["format_version"], "zero_stage": 3,
        "world_size": shard["world_size"], "rank": rank,
        "num_total_groups": len(out["groups"]),
        "groups": list(out["groups"].values()),
        "hyperparams": list(out["hyperparams"].values()),
        "fp32_flat_groups": out["fp32_flat_groups"], "state": out["state"],
        "global_step": CheckpointPaths(recipe.base_checkpoint).step, "merged_by": "llmtailor",
    }


def count_packed_planes(monkeypatch) -> list[int]:
    """Record the length of every byte plane the blob encoder packs from here on."""
    import repro.io.blobfile as blobfile

    real, planes = blobfile._pack_plane, []

    def counting(plane):
        planes.append(plane.size)
        return real(plane)

    monkeypatch.setattr(blobfile, "_pack_plane", counting)
    return planes


def shard_arrays(payload: dict, groups=None) -> list:
    """A rank payload's optimizer arrays (fp32 master + both moments) of ``groups``."""
    return [
        arr for g, state in payload["state"].items() if groups is None or g in groups
        for arr in (payload["fp32_flat_groups"][g], state["exp_avg"], state["exp_avg_sq"])
    ]


def planar_planes(arrays) -> int:
    """Planes the encoder packs for fresh ``arrays``: every plane of each
    tag-``P`` array (numeric, itemsize >= 2, at least 4 KiB)."""
    return sum(
        a.dtype.itemsize for a in arrays
        if a.dtype.kind in "iufc" and a.dtype.itemsize >= 2 and a.nbytes >= 4096
    )


def peak_outside_writes(monkeypatch, module, run) -> int:
    """tracemalloc peak of ``run()``, not counting time inside ``module.write_blob``.

    ``write_blob``'s fixed 1 MiB file buffer would drown a tiny-model
    shard, and what the memory bounds are about — how many decoded
    shards are alive at once — is decided before each write starts.
    """
    real, peaks = module.write_blob, []

    def write(path, obj):
        peaks.append(tracemalloc.get_traced_memory()[1])
        try:
            return real(path, obj)
        finally:
            tracemalloc.reset_peak()

    monkeypatch.setattr(module, "write_blob", write)
    tracemalloc.start()
    try:
        run()
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return max(peaks)


def decoded_nbytes(shard: dict) -> int:
    """Bytes of a rank payload's arrays (fp32 master + both moments)."""
    return sum(a.nbytes for a in shard["fp32_flat_groups"].values()) + sum(
        e["exp_avg"].nbytes + e["exp_avg_sq"].nbytes for e in shard["state"].values()
    )


@pytest.fixture
def engine_pair(untied_config):
    return make_engine(untied_config)


@pytest.fixture
def checkpoint_run(tmp_path):
    """A short run with two partial (parity-style) checkpoints on disk.

    Returns (storage, model, engine, config, snapshots) where snapshots
    maps saved step -> master state dict at save time.
    """
    config = get_config("tiny-untied")
    model, engine = make_engine(config)
    storage = Storage(tmp_path / "run")
    L = config.num_hidden_layers
    odd = [f"layers.{i}" for i in range(L) if i % 2 == 1] + ["embed_tokens"]
    even = [f"layers.{i}" for i in range(L) if i % 2 == 0] + ["norm", "lm_head"]
    snapshots = {}

    train_steps(model, engine, config, 2)
    save_checkpoint(
        storage, step=100, model=model, config=config, engine=engine,
        trainer_state={"global_step": 100}, slots=odd, strategy="parity",
    )
    snapshots[100] = engine.master_state_dict()

    train_steps(model, engine, config, 2)
    save_checkpoint(
        storage, step=200, model=model, config=config, engine=engine,
        trainer_state={"global_step": 200}, slots=even, strategy="parity",
    )
    snapshots[200] = engine.master_state_dict()
    return storage, model, engine, config, snapshots


_TRAINED_CACHE: dict[str, tuple] = {}


@pytest.fixture(scope="session")
def session_tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("shared-runs")


@pytest.fixture(scope="session")
def trained_run(session_tmp) -> tuple[Trainer, object, Path]:
    """A completed short CPT training run with full checkpoints (cached)."""
    key = "cpt-full"
    if key not in _TRAINED_CACHE:
        out = session_tmp / key
        cfg = TrainConfig(
            model="tiny-untied", task="cpt", total_steps=24,
            checkpoint_strategy="full", checkpoint_interval=8,
            output_dir=str(out), world_size=2, micro_batch_size=2,
            grad_accum_steps=1, seq_len=32, log_every=4,
        )
        trainer = Trainer(cfg)
        result = trainer.train()
        _TRAINED_CACHE[key] = (trainer, result, out)
    return _TRAINED_CACHE[key]


def dry_comm_stats(model_config, world_size, steps, *, topology=None, weight_decay=0.01):
    """The ``CommStats`` of ``steps`` optimizer steps charged dry: the
    engine's charge sequence with no model behind it.  A live run's
    counters must *equal* these — same charges, same accumulation order
    (``plan_step_traffic`` is the ``steps == 1`` case)."""
    from repro.core.groups import group_numels

    comm = SimComm(world_size, topology)
    numels = group_numels(model_config, weight_decay)
    for _ in range(steps):
        comm.charge_step(numels)
    return comm.stats


def dry_run_of(supervisor):
    """``plan_fault_cost`` for exactly the run a live supervisor executed."""
    from repro.strategies import plan_fault_cost

    cfg = supervisor.config
    return plan_fault_cost(
        supervisor.trainer.model_config, supervisor.plan,
        world_size=cfg.world_size, total_steps=cfg.total_steps,
        checkpoint_interval=cfg.checkpoint_interval,
        strategy=cfg.checkpoint_strategy, topology=cfg.resolved_topology,
    )


def assert_dry_run_equals_live(cost, supervisor, result) -> None:
    """Planner-vs-live parity is equality, not a tolerance: the planner
    runs the same supervisor over a null leg (docs/faults.md)."""
    timeline = result.fault_timeline
    assert cost.lost_steps == timeline.lost_steps
    assert cost.reshard_loads == timeline.reshard_loads
    assert cost.num_joins == timeline.grows
    assert cost.executed_steps == supervisor.config.total_steps + timeline.lost_steps
    assert cost.final_world_size == supervisor.trainer.config.world_size
    assert cost.comm_seconds == result.clock.get("comm", 0.0)
    assert cost.straggler_seconds == result.clock.get("fault_straggler", 0.0)
    assert cost.goodput == result.goodput.goodput
    assert cost.goodput_report().useful_steps == result.goodput.useful_steps
    assert cost.timeline.kinds() == timeline.kinds()
    assert list(cost.recovery_sources) == [
        e["source"] for e in timeline.events if e["kind"] == "recovery"
    ]
