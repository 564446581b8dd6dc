"""Atomic JSON reading/writing for checkpoint metadata files.

Checkpoint metadata (``trainer_state.json``, ``config.json``,
``tailor_manifest.json``) must never be observed half-written: a crash
while checkpointing should leave either the old file or the new file, not
a truncated one.  Writes therefore go to a temporary sibling and are
``os.replace``d into place (atomic on POSIX).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from .errors import CheckpointError

__all__ = ["read_json", "write_json_atomic", "write_text_atomic", "JsonEncoder"]


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


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text via a temp file + fsync + rename: readers see old or new."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_json_atomic(path: str | Path, obj: Any, *, indent: int = 2) -> None:
    """Write JSON via :func:`write_text_atomic` so readers never see partial files."""
    write_text_atomic(
        path, json.dumps(obj, indent=indent, sort_keys=True, cls=JsonEncoder) + "\n"
    )
