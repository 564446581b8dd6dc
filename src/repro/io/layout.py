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

This module is the directory's one owner: it alone spells the manifest
schema (:func:`manifest_doc` builds, :func:`check_manifest` checks; readers
index what :meth:`CheckpointPaths.read_manifest` / :class:`RunIndex` return
without defaults) and the order a directory is written in
(:meth:`CheckpointPaths.rewrite`: un-publish first, manifest last).  A
directory without a manifest is not there; one with has every shard declared.
"""

from __future__ import annotations

import math
import os
import re
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..util.errors import CheckpointError, MergeError
from ..util.jsonio import atomic_path, read_json, write_json_atomic, write_text_atomic
from ..util.logging import get_logger

__all__ = [
    "CheckpointPaths",
    "CheckpointRewrite",
    "CheckpointSizes",
    "RunIndex",
    "check_manifest",
    "checkpoint_dir",
    "list_checkpoint_steps",
    "manifest_doc",
    "read_latest",
    "shard_filename",
    "write_latest",
    "MANIFEST_NAME",
    "WEIGHTS_NAME",
]


def shard_filename(rank: "int | str") -> str:
    """The on-disk name of one rank's optimizer shard (DeepSpeed layout);
    ``"*"`` gives the glob pattern.  The single owner of the format."""
    return f"zero_pp_rank_{rank}_mp_rank_00_optim_states.blob"

WEIGHTS_NAME = "model.tsr"
CONFIG_NAME = "config.json"
TRAINER_STATE_NAME = "trainer_state.json"
TRAINING_ARGS_NAME = "training_args.json"
SCHEDULER_NAME = "scheduler.json"
RNG_STATE_NAME = "rng_state.json"
MANIFEST_NAME = "tailor_manifest.json"
LATEST_NAME = "latest"

MANIFEST_FORMAT_VERSION = 1

_CKPT_RE = re.compile(r"^checkpoint-(\d+)$")

log = get_logger("io.layout")


def _optim_dirname(step: int) -> str:
    return f"global_step{step}"


def manifest_doc(
    *, step: int, model_config: str, strategy: str, world_size: int,
    slots: Iterable[str], all_slots: Iterable[str], **extras: Any,
) -> dict[str, Any]:
    """Build a (checked) manifest — the tree's one manifest literal.

    ``format_version`` is stamped and ``complete`` derived (``slots`` cover
    ``all_slots``), overwriting either if it arrives in ``extras`` (a manifest
    read from disk, splatted back in); other extras ride along verbatim
    (``merge_provenance``, ``reshard_provenance``, a dry run's nominal bytes).
    """
    slots, all_slots = list(slots), list(all_slots)
    return check_manifest({
        **extras, "format_version": MANIFEST_FORMAT_VERSION, "step": step,
        "model_config": model_config, "strategy": strategy, "world_size": world_size,
        "slots": slots, "all_slots": all_slots, "complete": set(slots) == set(all_slots),
    }, "manifest_doc")


_MANIFEST_SCHEMA = {
    "format_version": int, "step": int, "world_size": int, "model_config": str,
    "strategy": str, "slots": list, "all_slots": list, "complete": bool,
}


def check_manifest(doc: Any, origin: "str | Path") -> dict[str, Any]:
    """Return ``doc`` if it is a well-formed manifest; raise
    :class:`~repro.util.errors.CheckpointError` (and nothing else) if not.

    Readers index the returned document without defaults: ``step >= 0``
    and ``world_size >= 1`` are true integers, ``model_config`` and
    ``strategy`` strings, ``slots`` distinct names drawn from the distinct,
    non-empty ``all_slots``, ``complete`` the boolean "``slots`` cover
    ``all_slots``".  Work is bounded by the document, never by a number in it.
    """
    def fail(why: str):
        raise CheckpointError(f"{origin}: bad manifest: {why}")

    if not isinstance(doc, dict):
        fail(f"expected a JSON object, got {type(doc).__name__}")
    for key, kind in _MANIFEST_SCHEMA.items():
        if type(doc.get(key)) is not kind:  # exact: a bool is no step
            fail(f"{key!r} must be {kind.__name__}, got {repr(doc.get(key))[:80]}")
    if doc["format_version"] != MANIFEST_FORMAT_VERSION:
        fail(f"format_version {doc['format_version']} is not {MANIFEST_FORMAT_VERSION}")
    if doc["step"] < 0 or doc["world_size"] < 1:
        fail(f"step {doc['step']} / world_size {doc['world_size']} out of range")
    slots, all_slots = doc["slots"], doc["all_slots"]
    for key in ("slots", "all_slots"):
        if not all(type(s) is str for s in doc[key]) or len(set(doc[key])) != len(doc[key]):
            fail(f"{key!r} must hold distinct slot names, got {repr(doc[key])[:80]}")
    if not all_slots or not set(slots) <= set(all_slots):
        fail(f"'slots' {repr(slots)[:80]} are not drawn from 'all_slots' {repr(all_slots)[:80]}")
    if doc["complete"] != (len(slots) == len(all_slots)):
        fail(f"'complete' is {doc['complete']} with {len(slots)} of {len(all_slots)} slots saved")
    return doc


def _file(name: str, what: str) -> property:
    return property(lambda self: self.dir / name, doc=f"Path of {what} (``{name}``).")


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
        named = _CKPT_RE.match(self.dir.name)
        self._named = self._step = int(named.group(1)) if named else None

    @property
    def step(self) -> int:
        """Training step of this checkpoint.

        Normally parsed from the ``checkpoint-<step>`` directory name;
        merged outputs may use arbitrary names, in which case the step
        comes from the manifest (read once, then remembered; a
        :class:`~repro.util.errors.CheckpointError` when there is none).
        """
        if self._step is None:
            self.read_manifest()
        return self._step

    weights = _file(WEIGHTS_NAME, "the consolidated weight tensor file")
    config = _file(CONFIG_NAME, "the model config JSON")
    trainer_state = _file(TRAINER_STATE_NAME, "the trainer bookkeeping JSON")
    training_args = _file(TRAINING_ARGS_NAME, "the run hyper-parameter JSON")
    scheduler = _file(SCHEDULER_NAME, "the LR-scheduler state JSON")
    rng_state = _file(RNG_STATE_NAME, "the RNG provenance JSON")
    manifest = _file(MANIFEST_NAME, "the slot-coverage manifest")

    @property
    def optim_dir(self) -> Path:
        """The per-rank optimizer shard directory (``global_step<step>/``)."""
        return self.dir / _optim_dirname(self.step)

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
        """Parse and return the manifest, checked against the schema
        (:func:`check_manifest`) and — one listing of ``global_step<step>/``
        — the shards it declares: a manifest over a missing shard is a
        :class:`~repro.util.errors.CheckpointError`."""
        doc = check_manifest(read_json(self.manifest), self.dir)
        if self._named is None:  # a checkpoint-<n> name wins, as for the writers
            self._step = doc["step"]
        present = set(os.listdir(self.optim_dir)) if self.optim_dir.is_dir() else set()
        # Lazy and first-miss: at most len(present) + 1 probes, whatever
        # world_size the document declares.
        ranks = range(doc["world_size"])
        missing = next((r for r in ranks if shard_filename(r) not in present), None)
        if missing is not None:
            raise CheckpointError(
                f"{self.dir}: missing shard for rank {missing}: the manifest declares step "
                f"{doc['step']}, world_size {len(ranks)}; {self.optim_dir.name}/ holds "
                f"{len(present)} file(s)"
            )
        return doc

    def read_complete_manifest(self, remedy: str, error=CheckpointError) -> dict[str, Any]:
        """:meth:`read_manifest`, refusing (``error``) a partial checkpoint:
        only a complete one resumes or reshards, ``remedy`` says how to get one."""
        doc = self.read_manifest()
        if not doc["complete"]:
            missing = sorted(set(doc["all_slots"]) - set(doc["slots"]))
            missing = f"{missing[:6]}{'...' if len(missing) > 6 else ''}"
            raise error(f"{self.dir} is a partial checkpoint (missing slots {missing}); {remedy}")
        return doc

    def delete(self) -> None:
        """Remove it, manifest first: a kill mid-delete leaves what every reader skips."""
        self._unpublish()
        shutil.rmtree(self.dir)

    def check_rewritable(self, step: int, sources: Iterable = (), error=CheckpointError) -> None:
        """The rule :meth:`rewrite` opens with, callable by a dry run: refuse
        (``error``) a directory that is one of the operation's ``sources`` (it
        would be un-published mid-read) or is named ``checkpoint-<n != step>``."""
        if self._named not in (None, step):
            raise error(
                f"output directory {self.dir.name!r} names step {self._named} but "
                f"the checkpoint is at step {step}; use checkpoint-{step} or a "
                "non-checkpoint-<step> name"
            )
        here = self.dir.resolve()
        if any(CheckpointPaths(src).dir.resolve() == here for src in sources):
            raise error(
                f"cannot rewrite {self.dir} in place: it is a source of this "
                "operation — the output directory must differ from every source"
            )

    @contextmanager
    def rewrite(
        self, step: int, world_size: int, *, sources: Iterable = (), error=CheckpointError
    ) -> Iterator["CheckpointRewrite"]:
        """The one way a checkpoint directory is (re)written.

        Opening checks :meth:`check_rewritable`, creates the directory and
        ``global_step<step>/``, un-publishes (drops the manifest, so new files
        never sit under the old manifest's geometry) and removes ``*.tmp``
        debris of a killed earlier writer.  The block writes through the
        yielded :class:`CheckpointRewrite` and ends with its ``publish``; if it
        raises — before *or after* publishing, e.g. a failed post-write
        verification — the manifest is dropped again.
        """
        self.check_rewritable(step, sources, error)
        tx = CheckpointRewrite(self.dir, step, world_size)
        tx.optim_dir.mkdir(parents=True, exist_ok=True)
        self._unpublish()
        for debris in (*self.dir.glob("*.tmp"), *tx.optim_dir.glob("*.tmp")):
            debris.unlink()
        try:
            yield tx
        except BaseException:
            self._unpublish()
            raise

    def _unpublish(self) -> None:
        self.manifest.unlink(missing_ok=True)

    def nbytes(self) -> int:
        """Total bytes on disk in this checkpoint."""
        return sum(p.stat().st_size for p in self.dir.rglob("*") if p.is_file())

    def __repr__(self) -> str:
        return f"CheckpointPaths({self.dir})"


class CheckpointRewrite(CheckpointPaths):
    """An open :meth:`CheckpointPaths.rewrite`: the output's paths at a
    step and world size fixed up front (no manifest exists to ask)."""

    def __init__(self, directory: Path, step: int, world_size: int) -> None:
        super().__init__(directory)
        self._step, self.world_size = step, world_size

    def copy(self, source: Path, name: str) -> None:
        """Copy one file into the directory, atomically."""
        with atomic_path(self.dir / name) as tmp:
            shutil.copyfile(source, tmp)

    def copy_configs(self, source: CheckpointPaths) -> list[str]:
        """Copy ``source``'s config files verbatim; returns the names copied.
        A missing file is skipped (older checkpoints) — except ``config.json``
        and ``trainer_state.json``, without which the output cannot resume."""
        copied = []
        for name in self.CONFIG_FILES:
            if (source.dir / name).exists():
                self.copy(source.dir / name, name)
                copied.append(name)
            elif name in (CONFIG_NAME, TRAINER_STATE_NAME):
                raise CheckpointError(f"config source {source.dir} is missing required {name}")
        return copied

    def publish(self, **fields: Any) -> dict[str, Any]:
        """Sweep what a write at another geometry left in ``global_step<step>/``
        (shards of ranks ``>= world_size``; fault-injection replicas, whose
        restore would resurrect pre-rewrite state), then write the manifest,
        last: :func:`manifest_doc` of ``fields`` at this step and world size."""
        keep = {shard_filename(r) for r in range(self.world_size)}
        for pattern in (shard_filename("*"), "*.replica"):
            for stale in self.optim_dir.glob(pattern):
                if stale.name not in keep:
                    stale.unlink()
        doc = manifest_doc(**{**fields, "step": self._step, "world_size": self.world_size})
        write_json_atomic(self.manifest, doc)
        return doc


@dataclass(frozen=True)
class CheckpointSizes:
    """The bytes a dry run prices one checkpoint at — the one size lookup of
    the merge, reshard and diff prices, with two sources: :meth:`on_disk`
    and :meth:`nominal`."""

    slots: tuple[str, ...]  # the slots it saved
    shards: tuple[int, ...]  # per-rank optimizer shard bytes
    weights: int  # the consolidated weight file
    tensors: dict[str, int]  # per weight tensor (weights are read lazily)

    @classmethod
    def on_disk(
        cls, directory: "str | Path", error=CheckpointError, role: str = ""
    ) -> "CheckpointSizes":
        """``stat`` of the files the checked manifest vouches for (``error``,
        as the engine words it, when the checkpoint does not exist)."""
        from .tensorfile import TensorFile  # lazy: the layout stays format-free

        ckpt = CheckpointPaths(directory)
        if not ckpt.exists():
            raise error(f"{role} checkpoint not found: {ckpt.dir}".lstrip())
        manifest = ckpt.read_manifest()
        weights = TensorFile(ckpt.weights)
        return cls(
            tuple(manifest["slots"]),
            tuple(p.stat().st_size for p in ckpt.shard_paths(manifest["world_size"])),
            ckpt.weights.stat().st_size, {n: weights.nbytes(n) for n in weights.names},
        )

    @classmethod
    def nominal(cls, manifest: dict[str, Any], config) -> "CheckpointSizes":
        """A dry run's manifest: its nominal ``shard_nbytes`` split over its
        ranks, ``weight_nbytes``, and each saved tensor at the storage dtype."""
        from ..nn.slots import slot_parameter_shapes  # lazy: io stays below nn

        ws, total = manifest["world_size"], manifest["shard_nbytes"]
        shapes, itemsize = slot_parameter_shapes(config), config.storage_dtype.itemsize
        return cls(
            tuple(manifest["slots"]), tuple(total // ws + (r < total % ws) for r in range(ws)),
            manifest["weight_nbytes"],
            {n: math.prod(shape) * itemsize
             for s in manifest["slots"] for n, shape in shapes[s].items()},
        )


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
        self._manifests[name] = check_manifest(manifest, name)

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
        return self.manifest(key)["complete"]

    def complete_steps(self, upto: int | None = None) -> list[int]:
        """Steps (``<= upto``) whose manifest marks them complete, ascending."""
        return [s for s in self.steps(upto) if self.is_complete(s)]

    def world_size(self, key: "int | str") -> int:
        """The world size the entry's optimizer shards were written at."""
        return self.manifest(key)["world_size"]

    def shard_nbytes(self, key: "int | str") -> int:
        """Total optimizer-shard bytes of the entry: file sizes on disk,
        the recorded nominal ``shard_nbytes`` when dict-backed."""
        manifest = self.manifest(key)
        if not self._on_disk:
            return int(manifest["shard_nbytes"])
        name = key if isinstance(key, str) else f"checkpoint-{key}"
        # Built from the manifest already in hand, not re-read for a
        # merged-<k> directory's step.
        optim_dir = self.root / name / _optim_dirname(manifest["step"])
        return sum(
            (optim_dir / shard_filename(r)).stat().st_size
            for r in range(manifest["world_size"])
        )

    def coverage_map(self) -> dict[int, list[str]]:
        """Step -> slots saved, for every checkpoint under the root."""
        return {s: list(self.manifest(s)["slots"]) for s in self.steps()}

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
            for slot in self.manifest(step)["slots"]:
                coverage[slot] = step
        missing = [s for s in self.manifest(steps[0])["all_slots"] if s not in coverage]
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
    """Atomically point the run's ``latest`` file at ``checkpoint-<step>``
    (removing the temp file a writer killed mid-update left behind)."""
    for debris in Path(root).glob(f"{LATEST_NAME}.*.tmp"):
        debris.unlink()
    write_text_atomic(Path(root) / LATEST_NAME, f"checkpoint-{step}\n")
