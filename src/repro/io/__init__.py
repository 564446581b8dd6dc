"""Checkpoint I/O substrate: formats, layout, storage cost model."""

from .blobfile import BLOB_VERSION, read_blob, write_blob
from .layout import (
    CheckpointPaths,
    CheckpointSizes,
    RunIndex,
    checkpoint_dir,
    list_checkpoint_steps,
    read_latest,
    write_latest,
)
from .reader import LoadedCheckpoint, describe_checkpoint, load_checkpoint, price_resume
from .retention import prunable_steps, prune_checkpoints
from .storage import LUSTRE_DEFAULT, IOStats, Ledger, Storage, StorageCostModel
from .tensorfile import TENSORFILE_VERSION, TensorFile, write_tensorfile
from .writer import price_save, save_checkpoint

__all__ = [
    "BLOB_VERSION",
    "CheckpointPaths",
    "CheckpointSizes",
    "IOStats",
    "LUSTRE_DEFAULT",
    "Ledger",
    "LoadedCheckpoint",
    "RunIndex",
    "Storage",
    "StorageCostModel",
    "TENSORFILE_VERSION",
    "TensorFile",
    "checkpoint_dir",
    "describe_checkpoint",
    "prunable_steps",
    "prune_checkpoints",
    "list_checkpoint_steps",
    "load_checkpoint",
    "price_resume",
    "price_save",
    "read_blob",
    "read_latest",
    "save_checkpoint",
    "write_blob",
    "write_latest",
    "write_tensorfile",
]
