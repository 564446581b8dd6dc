"""Structural verification of (merged) checkpoints.

After assembling a Frankenstein checkpoint, LLMTailor verifies that the
result is a well-formed *complete* checkpoint: the weight file covers
the exact parameter set, and every rank shard is a complete, intact
payload (:func:`repro.dist.shard.check_payload`) of the canonical 2L+x
layout with the right decay settings.

Each shard is read once, arrays as records (container length and CRC
over every byte; dtype and shape from the record headers), and each
group decoded for its ``crc32`` — unless its writer's ``digests`` show
its records are the ones the merge's load already decoded and checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from ..dist.shard import check_payload, group_array
from ..io.blobfile import read_blob_selected
from ..io.layout import CheckpointPaths
from ..io.tensorfile import TensorFile
from ..nn.config import ModelConfig
from ..nn.slots import parameter_shapes
from ..util.errors import CheckpointError, MergeError
from ..util.jsonio import read_json
from .groups import group_numels, tailored_group_specs

__all__ = ["VerifyReport", "verify_checkpoint"]


@dataclass
class VerifyReport:
    path: Path
    issues: list[str] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        """True when every recorded check passed."""
        return not self.issues

    def note(self, ok: bool, message: str) -> None:
        """Record one check: increments the counter, collects the failure message."""
        self.checks_run += 1
        if not ok:
            self.issues.append(message)

    def raise_if_failed(self) -> None:
        """Raise :class:`MergeError` summarizing the issues, if any."""
        if self.issues:
            summary = "; ".join(self.issues[:5])
            raise MergeError(f"checkpoint verification failed for {self.path}: {summary}")

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.issues)} issue(s)"
        return f"VerifyReport({self.path}: {self.checks_run} checks, {status})"


def verify_checkpoint(
    directory: str | Path,
    *,
    weight_decay: float = 0.01,
    digests: Sequence[Mapping[int, tuple]] | None = None,
) -> VerifyReport:
    """Run structural checks; returns a report (never raises directly).
    ``digests``: per rank, the merge's ``RankMergeStats.digests``."""
    paths = CheckpointPaths(directory)
    report = VerifyReport(path=Path(directory))

    if not paths.exists():
        report.note(False, "directory does not exist")
        return report
    try:  # missing, malformed, or over a missing shard: all one typed refusal
        manifest = paths.read_manifest()
    except CheckpointError as exc:
        report.note(False, str(exc))
        return report
    report.note(manifest["complete"], "manifest not marked complete")

    try:
        config = ModelConfig.from_dict(read_json(paths.config))
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        report.note(False, f"config.json unreadable: {exc}")
        return report

    # 1. Weight file covers the exact parameter set with exact shapes.
    try:
        weights = TensorFile(paths.weights)
        expected = parameter_shapes(config)
        missing = [n for n in expected if n not in weights]
        extra = [n for n in weights.names if n not in expected]
        report.note(not missing, f"weight file missing tensors: {missing[:4]}")
        report.note(not extra, f"weight file has unexpected tensors: {extra[:4]}")
        for name, shape in expected.items():
            if name in weights and weights.shape(name) != tuple(shape):
                report.note(
                    False, f"tensor {name} shape {weights.shape(name)} != {tuple(shape)}"
                )
        report.note(True, "")
    except Exception as exc:  # noqa: BLE001
        report.note(False, f"weight file unreadable: {exc}")
        return report

    # 2. Every rank shard: a complete, intact payload of the canonical layout.
    world_size = manifest["world_size"]
    specs = tailored_group_specs(config, weight_decay)
    shapes = parameter_shapes(config)
    canonical = {
        spec.index: {
            "param_names": spec.param_names,
            "numel": numel,
            "shapes": [shapes[n] for n in spec.param_names],
        }
        for spec, numel in zip(specs, group_numels(config, weight_decay))
    }
    for rank, shard_path in enumerate(paths.shard_paths(world_size)):
        try:
            entries = check_payload(
                read_blob_selected(shard_path, lambda path: True, as_record=group_array),
                world_size=world_size, rank=rank, origin=f"rank {rank} shard",
                error=MergeError, complete=True, expect=canonical,
                digests=digests[rank] if digests is not None else None,
            )
        except Exception as exc:  # noqa: BLE001
            report.note(False, str(exc))
            continue
        report.note(True, "")
        for g, entry in entries.items():
            decayed = float(entry.header.get("weight_decay", 0.0)) != 0.0
            report.note(
                decayed == specs[g].is_decay,
                f"rank {rank} group {g} decay setting inverted vs canonical layout",
            )
    return report
