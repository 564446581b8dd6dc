"""On-disk checkpoint layout (HF transformers + DeepSpeed conventions).

::

    <run_root>/
      latest                                   # text: "checkpoint-<step>"
      checkpoint-<step>/
        config.json                            # model config
        model.tsr                              # consolidated bf16 weights (lazy)
        trainer_state.json                     # step, log history, LR
        training_args.json                     # run hyper-parameters
        scheduler.json                         # LR scheduler state
        rng_state.json                         # data-order RNG provenance
        tailor_manifest.json                   # slots saved in this ckpt
        global_step<step>/
          zero_pp_rank_<r>_mp_rank_00_optim_states.blob   # per-rank shard

Partial checkpoints simply omit slots from ``model.tsr`` and groups from
the shard blobs; ``tailor_manifest.json`` records exactly what is
present.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any

from ..util.errors import CheckpointError, MergeError
from ..util.jsonio import read_json, write_json_atomic, write_text_atomic
from ..util.logging import get_logger

__all__ = [
    "CheckpointPaths",
    "RunIndex",
    "checkpoint_dir",
    "list_checkpoint_steps",
    "read_latest",
    "shard_filename",
    "write_latest",
    "MANIFEST_NAME",
    "WEIGHTS_NAME",
]


def shard_filename(rank: "int | str") -> str:
    """The on-disk name of one rank's optimizer shard (DeepSpeed layout).

    Accepts ``"*"`` for glob patterns.  The single owner of the format —
    the merge tool and the resharder build shard paths without a
    manifest, so this lives outside :class:`CheckpointPaths`.
    """
    return f"zero_pp_rank_{rank}_mp_rank_00_optim_states.blob"

WEIGHTS_NAME = "model.tsr"
CONFIG_NAME = "config.json"
TRAINER_STATE_NAME = "trainer_state.json"
TRAINING_ARGS_NAME = "training_args.json"
SCHEDULER_NAME = "scheduler.json"
RNG_STATE_NAME = "rng_state.json"
MANIFEST_NAME = "tailor_manifest.json"
LATEST_NAME = "latest"

_CKPT_RE = re.compile(r"^checkpoint-(\d+)$")

log = get_logger("io.layout")


class CheckpointPaths:
    """Path bundle for one ``checkpoint-<step>`` directory."""

    # Config files copied verbatim when assembling a Frankenstein
    # checkpoint (paper §4.4).
    CONFIG_FILES = (
        CONFIG_NAME,
        TRAINER_STATE_NAME,
        TRAINING_ARGS_NAME,
        SCHEDULER_NAME,
        RNG_STATE_NAME,
    )

    def __init__(self, directory: "str | Path | CheckpointPaths") -> None:
        if isinstance(directory, CheckpointPaths):
            directory = directory.dir
        self.dir = Path(directory)

    @property
    def step(self) -> int:
        """Training step of this checkpoint.

        Normally parsed from the ``checkpoint-<step>`` directory name;
        merged outputs may use arbitrary names, in which case the step
        comes from the manifest.
        """
        m = _CKPT_RE.match(self.dir.name)
        if m:
            return int(m.group(1))
        if self.manifest.exists():
            return int(self.read_manifest()["step"])
        raise CheckpointError(
            f"{self.dir} is neither a checkpoint-<step> directory nor has a manifest"
        )

    @property
    def weights(self) -> Path:
        """Path of the consolidated weight tensor file (``model.tsr``)."""
        return self.dir / WEIGHTS_NAME

    @property
    def config(self) -> Path:
        """Path of the model config JSON (``config.json``)."""
        return self.dir / CONFIG_NAME

    @property
    def trainer_state(self) -> Path:
        """Path of the trainer bookkeeping JSON (``trainer_state.json``)."""
        return self.dir / TRAINER_STATE_NAME

    @property
    def training_args(self) -> Path:
        """Path of the run hyper-parameter JSON (``training_args.json``)."""
        return self.dir / TRAINING_ARGS_NAME

    @property
    def scheduler(self) -> Path:
        """Path of the LR-scheduler state JSON (``scheduler.json``)."""
        return self.dir / SCHEDULER_NAME

    @property
    def rng_state(self) -> Path:
        """Path of the RNG provenance JSON (``rng_state.json``)."""
        return self.dir / RNG_STATE_NAME

    @property
    def manifest(self) -> Path:
        """Path of the slot-coverage manifest (``tailor_manifest.json``)."""
        return self.dir / MANIFEST_NAME

    @property
    def optim_dir(self) -> Path:
        """The per-rank optimizer shard directory (``global_step<step>/``)."""
        return self.dir / f"global_step{self.step}"

    def shard(self, rank: int) -> Path:
        """Path of one rank's optimizer shard blob."""
        return self.optim_dir / shard_filename(rank)

    def shard_paths(self, world_size: int) -> list[Path]:
        """Shard paths for every rank of a ``world_size`` checkpoint."""
        return [self.shard(r) for r in range(world_size)]

    def exists(self) -> bool:
        """Whether the checkpoint directory exists on disk."""
        return self.dir.is_dir()

    def read_manifest(self) -> dict[str, Any]:
        """Parse and return the manifest JSON."""
        return read_json(self.manifest)

    def write_manifest(self, manifest: dict[str, Any]) -> None:
        """Atomically write the manifest JSON."""
        write_json_atomic(self.manifest, manifest)

    def unpublish(self) -> None:
        """Drop the manifest before the first byte of a rewrite, so new
        files never sit under the old manifest's geometry: a rewrite that
        dies midway leaves a directory every reader treats as absent."""
        self.manifest.unlink(missing_ok=True)

    def sweep_stale_shards(self, step: int, world_size: int) -> None:
        """Delete what an earlier write at another geometry left in
        ``global_step<step>/``: shards of ranks ``>= world_size`` and
        fault-injection replicas (restoring one would resurrect
        pre-rewrite state).  Call before the manifest-last write."""
        optim_dir = self.dir / f"global_step{step}"
        keep = {shard_filename(r) for r in range(world_size)}
        for name in (shard_filename("*"), "*.replica"):
            for stale in optim_dir.glob(name):
                if stale.name not in keep:
                    stale.unlink()

    def nbytes(self) -> int:
        """Total bytes on disk in this checkpoint."""
        return sum(p.stat().st_size for p in self.dir.rglob("*") if p.is_file())

    def __repr__(self) -> str:
        return f"CheckpointPaths({self.dir})"


def checkpoint_dir(root: str | Path, step: int) -> CheckpointPaths:
    """The :class:`CheckpointPaths` bundle for ``<root>/checkpoint-<step>``."""
    return CheckpointPaths(Path(root) / f"checkpoint-{step}")


def list_checkpoint_steps(root: str | Path) -> list[int]:
    """Steps of all checkpoint directories under ``root``, ascending."""
    root = Path(root)
    if not root.is_dir():
        return []
    steps = []
    for child in root.iterdir():
        m = _CKPT_RE.match(child.name)
        if m and child.is_dir():
            steps.append(int(m.group(1)))
    return sorted(steps)


class RunIndex:
    """The one reader of a run directory: what is on disk, at what shape.

    ``RunIndex(root)`` scans ``root`` once for ``checkpoint-<step>``
    directories that have a manifest (one without is a torn write,
    skipped with a warning) and reads each manifest at most once, on
    first use — a snapshot for one decision (where to resume, what to
    prune, which trail to merge).  ``RunIndex(root, manifests={})`` is the dict-backed
    form a dry run fills through :meth:`record` instead of writing
    files: same answers, from memory, never touching disk.  Entries are
    addressed by step (``checkpoint-<step>``) or by directory name (a
    merged output such as ``"merged-8"``).
    """

    def __init__(
        self, root: str | Path, manifests: dict[str, dict[str, Any]] | None = None
    ) -> None:
        self.root = Path(root)
        self._on_disk = manifests is None
        self._manifests = {} if manifests is None else manifests
        self._scanned: list[int] = []
        if self._on_disk:
            for step in list_checkpoint_steps(self.root):
                # Writers publish the manifest last, so a directory
                # without one is a write that never finished: not there yet.
                if checkpoint_dir(self.root, step).manifest.exists():
                    self._scanned.append(step)
                else:
                    log.warning(
                        "ignoring %s/checkpoint-%d: no manifest (torn write)",
                        self.root, step,
                    )

    def record(self, name: str, manifest: dict[str, Any]) -> None:
        """Enter (or overwrite) a manifest — the dict-backed form's write."""
        self._manifests[name] = manifest

    def steps(self, upto: int | None = None) -> list[int]:
        """Checkpoint steps under the root (``<= upto``), ascending."""
        steps = self._scanned if self._on_disk else (
            int(m.group(1)) for m in map(_CKPT_RE.match, self._manifests) if m
        )
        return sorted(s for s in steps if upto is None or s <= upto)

    def manifest(self, key: "int | str") -> dict[str, Any]:
        """The manifest of ``checkpoint-<key>`` (int) or directory ``key``."""
        name = key if isinstance(key, str) else f"checkpoint-{key}"
        if name not in self._manifests:
            if not self._on_disk:
                raise CheckpointError(f"no checkpoint {name!r} under {self.root}")
            self._manifests[name] = CheckpointPaths(self.root / name).read_manifest()
        return self._manifests[name]

    def is_complete(self, key: "int | str") -> bool:
        """Whether the entry is a self-sufficient (every-slot) checkpoint."""
        return bool(self.manifest(key).get("complete", False))

    def complete_steps(self, upto: int | None = None) -> list[int]:
        """Steps (``<= upto``) whose manifest marks them complete, ascending."""
        return [s for s in self.steps(upto) if self.is_complete(s)]

    def world_size(self, key: "int | str") -> int:
        """The world size the entry's optimizer shards were written at."""
        return int(self.manifest(key)["world_size"])

    def shard_nbytes(self, key: "int | str") -> int:
        """Total optimizer-shard bytes of the entry: file sizes on disk,
        the recorded nominal ``shard_nbytes`` when dict-backed."""
        manifest = self.manifest(key)
        if not self._on_disk:
            return int(manifest["shard_nbytes"])
        name = key if isinstance(key, str) else f"checkpoint-{key}"
        # Built from the manifest already in hand: CheckpointPaths.step
        # would re-read it per shard for a merged-<k> directory.
        optim_dir = self.root / name / f"global_step{int(manifest['step'])}"
        return sum(
            (optim_dir / shard_filename(r)).stat().st_size
            for r in range(int(manifest["world_size"]))
        )

    def coverage_map(self) -> dict[int, list[str]]:
        """Step -> slots saved, for every checkpoint under the root."""
        return {s: list(self.manifest(s).get("slots", [])) for s in self.steps()}

    def slot_coverage(self, failure_step: int | None = None) -> dict[str, int]:
        """Map each slot to the newest step (``<= failure_step``) carrying
        it; :class:`~repro.util.errors.MergeError` when there is nothing
        to draw from or a slot (manifest ``all_slots``) was never saved."""
        steps = self.steps(failure_step)
        if not steps:
            raise MergeError(
                f"no usable checkpoints under {self.root}"
                + (f" at or before step {failure_step}" if failure_step is not None else "")
            )
        coverage: dict[str, int] = {}
        for step in steps:  # ascending: later checkpoints overwrite earlier
            for slot in self.manifest(step).get("slots", []):
                coverage[slot] = step
        missing = [
            s for s in self.manifest(steps[0]).get("all_slots", []) if s not in coverage
        ]
        if missing:
            raise MergeError(
                f"slots {missing[:6]} were never checkpointed before step "
                f"{failure_step}; recovery is impossible — checkpoint strategy bug?"
            )
        return coverage


def read_latest(root: str | Path) -> CheckpointPaths | None:
    """Resolve the ``latest`` pointer, if present and valid."""
    latest = Path(root) / LATEST_NAME
    if not latest.exists():
        return None
    name = latest.read_text(encoding="utf-8").strip()
    if not _CKPT_RE.match(name):
        raise CheckpointError(
            f"latest pointer {latest} holds {name!r}, not a checkpoint-<step> name"
        )
    candidate = Path(root) / name
    if not candidate.is_dir():
        raise CheckpointError(f"latest points at missing checkpoint {name!r}")
    return CheckpointPaths(candidate)


def write_latest(root: str | Path, step: int) -> None:
    """Atomically point the run's ``latest`` file at ``checkpoint-<step>``."""
    write_text_atomic(Path(root) / LATEST_NAME, f"checkpoint-{step}\n")
