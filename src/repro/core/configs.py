"""Configuration/metadata handling for merged checkpoints (paper §4.4).

Metadata files (training args, trainer state with step and learning
rate, scheduler state, RNG provenance) are copied verbatim from the most
recent source checkpoint so the Frankenstein checkpoint resumes with the
correct schedule position.  A fresh manifest marks the output complete
and records full merge provenance.  Both are steps of the merge's
:meth:`~repro.io.layout.CheckpointPaths.rewrite` transaction ``tx``.
"""

from __future__ import annotations

from ..nn.slots import model_slots
from .plan import MergePlan

__all__ = ["copy_config_files", "write_merged_manifest"]


def copy_config_files(plan: MergePlan, tx) -> list[str]:
    """Copy the metadata files from ``plan.config_source`` to the output.

    Returns the list of files copied.  Missing optional files are tolerated (older
    checkpoints); without ``config.json`` or ``trainer_state.json`` resume cannot work.
    """
    return tx.copy_configs(plan.config_source)


def write_merged_manifest(plan: MergePlan, tx) -> dict:
    """Manifest for the merged (complete) checkpoint, with provenance."""
    slots = model_slots(plan.config)
    return tx.publish(
        model_config=plan.config.name, strategy="llmtailor-merge",
        slots=slots, all_slots=slots, merge_provenance=plan.describe(),
    )
