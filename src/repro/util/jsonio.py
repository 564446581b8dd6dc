"""Atomic file replacement, and JSON reading/writing on top of it.

No checkpoint file (``model.tsr``, a shard blob, ``trainer_state.json``,
``tailor_manifest.json``) must ever be observed half-written: a crash
while checkpointing should leave either the old file or the new file, not
a truncated one.  Every writer therefore fills a temporary sibling
(:func:`atomic_path`) that is ``os.replace``d into place (atomic on POSIX).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

from .errors import CheckpointError

__all__ = [
    "JsonEncoder",
    "atomic_path",
    "dump_json",
    "fsync_file",
    "read_json",
    "write_json_atomic",
    "write_text_atomic",
]


class JsonEncoder(json.JSONEncoder):
    """JSON encoder that understands numpy scalars/arrays and paths."""

    def default(self, o: Any) -> Any:
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, Path):
            return str(o)
        if isinstance(o, set):
            return sorted(o)
        return super().default(o)


def read_json(path: str | Path) -> Any:
    """Parse a JSON file, raising :class:`CheckpointError` when missing/invalid."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"missing JSON file: {path}")
    try:
        with path.open("r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt JSON file {path}: {exc}") from exc


@contextmanager
def atomic_path(path: str | Path):
    """Yield a unique ``*.tmp`` sibling of ``path`` to fill: ``os.replace``d over
    ``path`` on a clean exit, unlinked on failure — every file writer's one spelling."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)  # no orphan debris on failed saves
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text via a temp file + fsync + rename: readers see old or new."""
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def fsync_file(path: str | Path) -> None:
    """Flush a written file's data to the device (the file, not its directory entry)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def dump_json(obj: Any, *, indent: int = 2) -> str:
    """The text :func:`write_json_atomic` writes for ``obj``."""
    return json.dumps(obj, indent=indent, sort_keys=True, cls=JsonEncoder) + "\n"


def write_json_atomic(path: str | Path, obj: Any, *, indent: int = 2) -> None:
    """Write JSON via :func:`write_text_atomic` so readers never see partial files."""
    write_text_atomic(path, dump_json(obj, indent=indent))
