"""Crash-safe job journal: JSONL submit/done records + restart replay.

Every admitted job appends one ``submit`` line *before* it is queued;
reaching a terminal state appends one ``done`` line.  Both writes are
single ``write()`` calls of one newline-terminated line on an
append-mode handle, flushed and fsync'd, so a crash can at worst lose
the final line — never interleave two.

On restart, :func:`replay_journal` pairs the records: a job with a
``submit`` but no ``done`` was lost mid-flight (queued or running when
the process died) and is re-queued with its tenant budget
force-charged (quota limits are not re-checked on replay).  Job
execution is idempotent — merge/reshard rewrite their output
atomically, diff/plan are pure — so replaying a job that had actually
*finished* its work but not its journal line is safe.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from ..util.errors import ConfigError
from .protocol import JobSpec, parse_job

__all__ = ["JobJournal", "replay_journal"]


class JobJournal:
    """Append-only JSONL record of submits and completions."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def _append(self, record: dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def submitted(self, job_id: str, spec: JobSpec) -> None:
        """Record one admitted job before it enters the queue."""
        self._append({"event": "submit", "id": job_id, "job": spec.to_dict()})

    def finished(self, job_id: str, status: str) -> None:
        """Record one job reaching a terminal state."""
        self._append({"event": "done", "id": job_id, "status": status})

    def close(self) -> None:
        """Flush and close the journal handle."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


def replay_journal(path: str | Path) -> list[tuple[str, JobSpec]]:
    """Jobs submitted but never finished, in submit order.

    Reads the JSONL journal tolerantly: a torn final line (crash
    mid-write) is ignored, anything else malformed (not JSON, not an
    object, an unknown event) raises
    :class:`~repro.util.errors.ConfigError` (prefixed ``path:line``)
    since silently skipping a *valid-looking* but unparseable record
    could drop a tenant's job.  Only still-pending submits are
    validated as jobs.
    """
    path = Path(path)
    if not path.exists():
        return []
    # Pair submit/done first and validate only what is still pending:
    # a finished job recorded under an older protocol (a param this
    # version no longer accepts) must not stop the daemon from starting.
    pending: dict[str, tuple[int, Any]] = {}
    lines = path.read_bytes().splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)  # bytes: bad UTF-8 is a ValueError too
        except (ValueError, RecursionError):
            if i == len(lines) - 1:
                break  # torn final line from a crash mid-append
            raise ConfigError(f"{path}:{i + 1}: malformed journal line") from None
        if not isinstance(record, dict):
            raise ConfigError(f"{path}:{i + 1}: journal line is not a JSON object")
        event = record.get("event")
        job_id = str(record.get("id"))
        if event == "submit":
            pending[job_id] = (i + 1, record.get("job") or {})
        elif event == "done":
            pending.pop(job_id, None)
        else:
            raise ConfigError(f"{path}:{i + 1}: unknown journal event {event!r}")
    replay = []
    for job_id, (lineno, doc) in pending.items():
        try:
            replay.append((job_id, parse_job(doc)))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return replay
