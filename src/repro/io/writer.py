"""Checkpoint writer: full or partial (layer-selective) snapshots.

A *full* checkpoint stores every slot; a *partial* one stores only the
slots a :class:`repro.strategies` policy selected for this step.  Both
use the identical layout; ``tailor_manifest.json`` records coverage.

A save is two parts, after CheckFreq (Mohan et al., FAST '21):

* :func:`snapshot_checkpoint` copies what the save writes off the live
  model and engine — the saved slots' weights, each rank's
  :meth:`~repro.dist.zero.ZeroStage3Engine.rank_state_dict` and the five
  JSON documents, rendered — into a :class:`CheckpointSnapshot`; later
  training steps cannot change it;
* :func:`persist_checkpoint` writes a snapshot inside one
  :meth:`~repro.io.layout.CheckpointPaths.rewrite` transaction, which
  owns the order (un-publish first, manifest last) and the manifest's
  schema.  ``model.tsr`` and every rank shard are fsynced before the
  manifest is published, so a published manifest vouches for bytes on
  the device.

:func:`save_checkpoint` is the two in a row.  A
:class:`~repro.train.Trainer` takes the snapshot on the training thread
and persists it on a writer thread (:mod:`repro.train.trainer`).

A save's one price is :func:`price_save` (the weight file by rank 0
alone, as in §2.3, then one shard per rank in parallel); dry runs charge
it nominal bytes.  Only the writer charges config files
(:meth:`SavedCheckpoint.charge`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from ..dist.zero import ZeroStage3Engine
from ..nn.config import ModelConfig
from ..nn.module import Module
from ..nn.slots import model_slots, slot_of_param
from ..numerics import DType
from ..util.errors import CheckpointError
from ..util.jsonio import dump_json, fsync_file, write_text_atomic
from .blobfile import write_blob
from .layout import CheckpointPaths, checkpoint_dir, write_latest
from .storage import Storage
from .tensorfile import write_tensorfile

__all__ = [
    "CheckpointSnapshot",
    "SavedCheckpoint",
    "persist_checkpoint",
    "price_save",
    "save_checkpoint",
    "snapshot_checkpoint",
]


def price_save(
    storage: Storage, weight_bytes: int, shard_bytes: int, world_size: int,
    category: str = "checkpoint_write",
) -> None:
    """Charge ``storage`` one checkpoint save: the weight file by one
    writer, then the ``world_size`` optimizer shards (``shard_bytes`` over
    all ranks) concurrently — the two phases are sequential, as in the
    DeepSpeed save path."""
    storage.charge_write(weight_bytes, files=1, parallel=1, category=f"{category}.weights")
    storage.charge_write(shard_bytes, files=world_size, parallel=world_size,
                         category=f"{category}.optimizer")


@dataclass(eq=False)
class CheckpointSnapshot:
    """One checkpoint held in memory: everything :func:`persist_checkpoint`
    writes, owned by the snapshot (no view into a live buffer)."""

    step: int
    world_size: int
    #: fp32 copies of the saved slots' parameters, and their storage dtype.
    weights: dict[str, np.ndarray]
    storage_dtype: DType
    weights_metadata: dict[str, Any]
    #: One payload per rank, ``global_step`` stamped.
    shards: list[dict[str, Any]]
    #: Config file name -> rendered JSON text (``CheckpointPaths.CONFIG_FILES``).
    documents: dict[str, str]
    #: The manifest's fields (``model_config``, ``strategy``, ``slots``, ``all_slots``).
    manifest: dict[str, Any]


@dataclass(frozen=True)
class SavedCheckpoint:
    """What a persisted checkpoint cost: the byte counts its price is charged on."""

    paths: CheckpointPaths
    world_size: int
    weight_bytes: int
    shard_bytes: int
    config_bytes: int

    def charge(self, storage: Storage) -> None:
        """Charge ``storage`` this save: :func:`price_save`, then the
        config files and manifest (one writer)."""
        price_save(storage, self.weight_bytes, self.shard_bytes, self.world_size)
        storage.charge_write(
            self.config_bytes, files=len(CheckpointPaths.CONFIG_FILES) + 1, parallel=1,
            category="checkpoint_write.config",
        )


def snapshot_checkpoint(
    *,
    step: int,
    model: Module,
    config: ModelConfig,
    engine: ZeroStage3Engine,
    trainer_state: dict[str, Any],
    training_args: dict[str, Any] | None = None,
    scheduler_state: dict[str, Any] | None = None,
    rng_state: dict[str, Any] | None = None,
    slots: Iterable[str] | None = None,
    strategy: str = "full",
) -> CheckpointSnapshot:
    """Copy what a save of ``step`` writes; touches no file.

    ``slots=None`` saves everything; otherwise only the named slots'
    weights and optimizer groups are copied.
    """
    all_slots = model_slots(config)
    if slots is None:
        saved_slots = list(all_slots)
    else:
        saved_slots = [s for s in all_slots if s in set(slots)]
        unknown = set(slots) - set(all_slots)
        if unknown:
            raise CheckpointError(f"unknown slots for {config.name}: {sorted(unknown)}")
        if not saved_slots:
            raise CheckpointError("refusing to write a checkpoint with zero slots")

    slot_set = set(saved_slots)
    weights = {
        name: p.data.copy() for name, p in model.named_parameters()
        if slot_of_param(name) in slot_set
    }
    shards = []
    for rank in range(engine.world_size):
        shard = engine.rank_state_dict(rank, slots=slot_set)
        shard["global_step"] = step
        shards.append(shard)
    documents = (config.to_dict(), trainer_state, training_args or {},
                 scheduler_state or {}, rng_state or {})
    return CheckpointSnapshot(
        step=step,
        world_size=engine.world_size,
        weights=weights,
        storage_dtype=config.storage_dtype,
        weights_metadata={"model": config.name, "step": step, "slots": saved_slots,
                          "strategy": strategy},
        shards=shards,
        documents={name: dump_json(doc)
                   for name, doc in zip(CheckpointPaths.CONFIG_FILES, documents)},
        manifest={"model_config": config.name, "strategy": strategy,
                  "slots": saved_slots, "all_slots": all_slots},
    )


def persist_checkpoint(
    root: str | Path, snapshot: CheckpointSnapshot, *, update_latest: bool = True
) -> SavedCheckpoint:
    """Write ``snapshot`` as ``checkpoint-<step>`` under ``root``, then
    point ``latest`` at it; charges nothing (see :meth:`SavedCheckpoint.charge`)."""
    paths = checkpoint_dir(root, snapshot.step)
    with paths.rewrite(snapshot.step, snapshot.world_size) as tx:
        # 1. Consolidated model weights (bf16, lazy container), rank-0 serial.
        weight_bytes = write_tensorfile(
            tx.weights, snapshot.weights, dtype=snapshot.storage_dtype,
            metadata=snapshot.weights_metadata,
        )
        fsync_file(tx.weights)

        # 2. Per-rank optimizer shard blobs, written one rank after another
        # (only price_save models the ranks writing concurrently).
        shard_bytes = 0
        for rank, shard in enumerate(snapshot.shards):
            shard_bytes += write_blob(tx.shard(rank), shard)
            fsync_file(tx.shard(rank))

        # 3. Config / metadata files (paper §4.4), then the manifest (publish
        # first sweeps shards a write of this step at a larger world left).
        for name, text in snapshot.documents.items():
            write_text_atomic(tx.dir / name, text)
        tx.publish(**snapshot.manifest)
    config_bytes = sum(
        (paths.dir / name).stat().st_size for name in CheckpointPaths.CONFIG_FILES
    ) + paths.manifest.stat().st_size

    if update_latest:
        write_latest(root, snapshot.step)
    return SavedCheckpoint(paths, snapshot.world_size, weight_bytes, shard_bytes, config_bytes)


def save_checkpoint(
    storage: Storage,
    *,
    step: int,
    model: Module,
    config: ModelConfig,
    engine: ZeroStage3Engine,
    trainer_state: dict[str, Any],
    training_args: dict[str, Any] | None = None,
    scheduler_state: dict[str, Any] | None = None,
    rng_state: dict[str, Any] | None = None,
    slots: Iterable[str] | None = None,
    strategy: str = "full",
    update_latest: bool = True,
) -> CheckpointPaths:
    """Write ``checkpoint-<step>`` under the storage root and charge it:
    :func:`snapshot_checkpoint`, :func:`persist_checkpoint`, then
    :meth:`SavedCheckpoint.charge`.

    ``slots=None`` saves everything; otherwise only the named slots'
    weights and optimizer groups are written.  Returns the path bundle.
    """
    snapshot = snapshot_checkpoint(
        step=step, model=model, config=config, engine=engine,
        trainer_state=trainer_state, training_args=training_args,
        scheduler_state=scheduler_state, rng_state=rng_state,
        slots=slots, strategy=strategy,
    )
    saved = persist_checkpoint(storage.root, snapshot, update_latest=update_latest)
    saved.charge(storage)
    return saved.paths
