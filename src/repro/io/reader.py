"""Checkpoint reader: restore model + optimizer + trainer metadata.

Only *complete* checkpoints are resumable — a partial checkpoint must
first be merged into a Frankenstein checkpoint by LLMTailor.  The reader
enforces this via the manifest and gives an actionable error otherwise.

Resume is *elastic*: a checkpoint written at world size N loads into an
engine running at world size M — the reader reshards the optimizer
payloads N→M in memory (:func:`repro.dist.reshard.reshard_sweep`) as it
hands them to the engine.
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
from .layout import CheckpointPaths, shard_filename
from .storage import Storage
from .tensorfile import TensorFile

__all__ = ["LoadedCheckpoint", "load_checkpoint", "describe_checkpoint"]


@dataclass
class LoadedCheckpoint:
    """Metadata recovered alongside the weights/optimizer state."""

    step: int
    trainer_state: dict[str, Any]
    training_args: dict[str, Any]
    scheduler_state: dict[str, Any]
    rng_state: dict[str, Any]
    manifest: dict[str, Any]


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
    weights = TensorFile(paths.weights)
    model.load_state_dict(weights.read_all(), strict=True)
    if storage is not None:
        storage.charge_read(weights.total_nbytes(), files=1, category="checkpoint_read.weights")

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
        storage.charge_read(
            sum(p.stat().st_size for p in paths.shard_paths(source_world)),
            files=source_world,
            parallel=source_world,
            decompress=True,
            category="checkpoint_read.optimizer",
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
    """Summarize a checkpoint directory (sizes, coverage) for tooling."""
    paths = CheckpointPaths(directory)
    manifest = paths.read_manifest()
    weights = TensorFile(paths.weights)
    shards = sorted(paths.optim_dir.glob(shard_filename("*")))
    return {
        "step": manifest["step"],
        "model_config": manifest["model_config"],
        "strategy": manifest["strategy"],
        "complete": manifest["complete"],
        "slots": manifest["slots"],
        "num_weight_tensors": len(weights),
        "weight_nbytes": weights.total_nbytes(),
        "num_shards": len(shards),
        "shard_nbytes": sum(p.stat().st_size for p in shards),
        "total_nbytes": paths.nbytes(),
    }
