"""Checkpoint reader: restore model + optimizer + trainer metadata.

Only *complete* checkpoints are resumable — a partial checkpoint must
first be merged into a Frankenstein checkpoint by LLMTailor.  The reader
enforces this via the manifest and gives an actionable error otherwise.

Resume is *elastic*: a checkpoint written at world size N loads into an
engine running at world size M — the reader reshards the optimizer
payloads N→M in memory (:func:`repro.dist.reshard.reshard_sweep`) as it
hands them to the engine.

A resume's one price is :func:`price_resume`: the reader charges it the
files' sizes on disk, the supervisor's null leg nominal ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..dist.zero import ZeroStage3Engine
from ..nn.config import ModelConfig
from ..nn.module import Module
from ..util.errors import CheckpointError
from ..util.jsonio import read_json
from .blobfile import read_blob
from .layout import CheckpointPaths, CheckpointSizes
from .storage import Storage
from .tensorfile import TensorFile

__all__ = ["LoadedCheckpoint", "describe_checkpoint", "load_checkpoint", "price_resume"]


@dataclass
class LoadedCheckpoint:
    """Metadata recovered alongside the weights/optimizer state."""

    step: int
    trainer_state: dict[str, Any]
    training_args: dict[str, Any]
    scheduler_state: dict[str, Any]
    rng_state: dict[str, Any]
    manifest: dict[str, Any]


def price_resume(storage: Storage, weight_bytes: int, shard_bytes: int, world_size: int) -> None:
    """Charge ``storage`` one resume: the weight file by one reader, then
    the ``world_size`` optimizer shards (``shard_bytes`` over all ranks)
    concurrently, inflated."""
    storage.charge_read(weight_bytes, files=1, category="checkpoint_read.weights")
    storage.charge_read(shard_bytes, files=world_size, parallel=world_size, decompress=True,
                        category="checkpoint_read.optimizer")


def load_checkpoint(
    paths: CheckpointPaths,
    *,
    model: Module,
    config: ModelConfig,
    engine: ZeroStage3Engine,
    storage: Storage | None = None,
) -> LoadedCheckpoint:
    """Restore a complete checkpoint into ``model`` and ``engine``."""
    manifest = paths.read_complete_manifest(
        "assemble a complete one with LLMTailor.merge() before resuming"
    )
    if manifest["model_config"] != config.name:
        raise CheckpointError(
            f"checkpoint was written for model {manifest['model_config']!r}, "
            f"attempting to load into {config.name!r}"
        )
    source_world = manifest["world_size"]

    # Model weights (informational only for training — the fp32 masters in
    # the shards are authoritative — but loaded for inference parity).
    model.load_state_dict(TensorFile(paths.weights).read_all(), strict=True)

    # Optimizer shards: full files, one per rank (no lazy load), read on
    # demand so one is resident at a time.  When the checkpoint's world
    # size differs from the engine's, the sweep reshards them on the way
    # (elastic resume): one source shard plus the open target.
    shards = (read_blob(paths.shard(r)) for r in range(source_world))
    if source_world != engine.world_size:
        from ..dist.reshard import reshard_sweep  # avoid import cycle

        shards = reshard_sweep(shards, source_world, engine.world_size)
    for rank in range(engine.world_size):
        # Re-materializing weights gathers every rank's shard, so defer
        # it until the last rank is in place instead of doing it N times.
        # (next() as an argument: no name here keeps the payload alive
        # while the following shard is decoded.)
        engine.load_rank_state_dict(
            rank, next(shards), materialize=rank == engine.world_size - 1
        )
    if storage is not None:
        price_resume(
            storage, paths.weights.stat().st_size,
            sum(p.stat().st_size for p in paths.shard_paths(source_world)), source_world,
        )

    return LoadedCheckpoint(
        step=manifest["step"],
        trainer_state=read_json(paths.trainer_state),
        training_args=read_json(paths.training_args),
        scheduler_state=read_json(paths.scheduler),
        rng_state=read_json(paths.rng_state),
        manifest=manifest,
    )


def describe_checkpoint(directory: str | Path) -> dict[str, Any]:
    """Summarize a checkpoint directory (sizes, coverage) for tooling; the
    sizes are :meth:`CheckpointSizes.on_disk`'s, the ones every price uses."""
    sizes = CheckpointSizes.on_disk(directory)
    paths = CheckpointPaths(directory)
    manifest = paths.read_manifest()
    return {
        "step": manifest["step"],
        "model_config": manifest["model_config"],
        "strategy": manifest["strategy"],
        "complete": manifest["complete"],
        "slots": manifest["slots"],
        "num_weight_tensors": len(sizes.tensors),
        "weight_nbytes": sizes.weights,
        "num_shards": len(sizes.shards),
        "shard_nbytes": sum(sizes.shards),
        "total_nbytes": paths.nbytes(),
    }
