"""Wire protocol of the merge service: newline-delimited JSON.

Each connection carries a sequence of request lines; the server answers
every request with exactly one response line.  Requests are JSON objects
with an ``op`` field::

    {"op": "ping"}
    {"op": "submit", "job": {"tenant": "a", "kind": "merge",
                             "priority": 1, "params": {...}}}
    {"op": "status", "id": "job-000001"}
    {"op": "wait",   "id": "job-000001"}      # long-poll until terminal
    {"op": "stats"}
    {"op": "shutdown", "drain": true}

Responses always carry ``ok`` (bool); successful submits add ``id``,
``status`` and the admission cost estimate, rejections add ``error``
and — for quota rejections — ``retry_after`` seconds.

Job kinds and their ``params`` (unknown keys are rejected so a typo'd
option fails at submit, not silently at run time):

* ``merge``   — ``recipe`` (YAML path) or ``recipe_doc`` (inline
  mapping), optional ``output``, ``cache_mode`` (no ``workers``: a
  served merge runs in its worker thread, ranks in turn);
* ``reshard`` — ``checkpoint``, ``output``, ``target_world_size``;
* ``diff``    — ``checkpoint_a``, ``checkpoint_b``, optional
  ``momentum``;
* ``plan``    — ``model``, ``strategy``, optional ``interval``,
  ``steps``, ``world_size``.

Everything on the wire round-trips through :func:`encode_line` /
:func:`decode_line`; job files for the CLI client load through
:func:`load_job_file` (YAML via the repo's mini-YAML subset, or JSON).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..util.errors import ConfigError

__all__ = [
    "JOB_KINDS",
    "JobSpec",
    "decode_line",
    "encode_line",
    "load_job_file",
    "parse_job",
]

JOB_KINDS = ("merge", "reshard", "diff", "plan")

# Allowed params per kind; values are the required subset.
_PARAM_KEYS: dict[str, tuple[set, set]] = {
    "merge": (
        {"recipe", "recipe_doc", "output", "cache_mode"},
        set(),  # recipe/recipe_doc checked separately (exactly one)
    ),
    "reshard": (
        {"checkpoint", "output", "target_world_size"},
        {"checkpoint", "output", "target_world_size"},
    ),
    "diff": (
        {"checkpoint_a", "checkpoint_b", "momentum"},
        {"checkpoint_a", "checkpoint_b"},
    ),
    "plan": (
        {"model", "strategy", "interval", "steps", "world_size"},
        {"model", "strategy"},
    ),
}


@dataclass(frozen=True)
class JobSpec:
    """One validated job request (pure data, JSON-serializable)."""

    tenant: str
    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    priority: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Wire/journal form (round-trips :func:`parse_job`)."""
        return {
            "tenant": self.tenant,
            "kind": self.kind,
            "priority": self.priority,
            "params": dict(self.params),
        }


def _check_param_types(kind: str, params: Mapping[str, Any]) -> None:
    """The params pricing and execution read, by type (``ConfigError`` naming
    the field): counts are ints >= 1 (``type`` is exact: a bool is no count),
    paths strings, ``recipe_doc`` a mapping, ``momentum`` a bool and
    ``cache_mode`` one of the recipe's modes."""
    from ..core.recipe import CACHE_MODES  # lazy: the wire format stays light

    def fail(key: str, what: str):
        raise ConfigError(f"{kind} job param {key!r} must be {what}, got {params[key]!r:.80}")

    for key, value in params.items():
        if key in ("target_world_size", "interval", "steps", "world_size") \
                and (type(value) is not int or value < 1):
            fail(key, "an int >= 1")
        if key in ("recipe", "output", "checkpoint", "checkpoint_a", "checkpoint_b") \
                and not isinstance(value, str):
            fail(key, "a path string")
        if key == "recipe_doc" and not isinstance(value, Mapping):
            fail(key, "a mapping")
        if key == "momentum" and not isinstance(value, bool):
            fail(key, "true or false")
        if key == "cache_mode" and value not in CACHE_MODES:
            fail(key, f"one of {CACHE_MODES}")


def parse_job(doc: Mapping[str, Any]) -> JobSpec:
    """Validate a job document into a :class:`JobSpec`.

    Raises :class:`~repro.util.errors.ConfigError` on any malformed
    field — the server turns that into a protocol-level rejection, so a
    bad job never reaches the queue.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError(f"job must be a mapping, got {type(doc).__name__}")
    unknown = set(doc) - {"tenant", "kind", "priority", "params"}
    if unknown:
        raise ConfigError(f"unknown job keys: {sorted(unknown)}")
    tenant = doc.get("tenant")
    if not tenant or not isinstance(tenant, str):
        raise ConfigError("job missing required string field 'tenant'")
    kind = doc.get("kind")
    if kind not in JOB_KINDS:
        raise ConfigError(f"job kind must be one of {JOB_KINDS}, got {kind!r}")
    try:
        priority = int(doc.get("priority", 0))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"job priority must be an int, got {doc.get('priority')!r}")
    params = doc.get("params") or {}
    if not isinstance(params, Mapping):
        raise ConfigError("job 'params' must be a mapping")
    allowed, required = _PARAM_KEYS[kind]
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"{kind} job has unknown params: {sorted(unknown)}")
    missing = required - set(params)
    if missing:
        raise ConfigError(f"{kind} job missing params: {sorted(missing)}")
    if kind == "merge" and ("recipe" in params) == ("recipe_doc" in params):
        raise ConfigError(
            "merge job needs exactly one of 'recipe' (path) or 'recipe_doc' (inline)"
        )
    _check_param_types(kind, params)
    return JobSpec(
        tenant=str(tenant), kind=str(kind), params=dict(params), priority=priority
    )


def encode_line(obj: Mapping[str, Any]) -> bytes:
    """One protocol message as a compact JSON line (trailing newline)."""
    return (json.dumps(obj, separators=(",", ":"), default=str) + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one protocol line; raises ``ConfigError`` on malformed JSON."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed protocol line: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"protocol line must be a JSON object, got {type(doc).__name__}")
    return doc


def load_job_file(path: str | Path) -> list[JobSpec]:
    """Load one or many jobs from a YAML/JSON job file.

    The document is either a single job mapping or ``{"jobs": [...]}``
    with an optional top-level ``tenant`` default applied to entries
    that do not name their own.
    """
    path = Path(path)
    if path.suffix == ".json":
        doc = json.loads(path.read_text(encoding="utf-8"))
    else:
        from ..util.miniyaml import load_file

        doc = load_file(path)
    if not isinstance(doc, Mapping):
        raise ConfigError(f"job file {path} must hold a mapping")
    if "jobs" not in doc:
        return [parse_job(doc)]
    default_tenant = doc.get("tenant")
    unknown = set(doc) - {"jobs", "tenant"}
    if unknown:
        raise ConfigError(f"unknown job file keys: {sorted(unknown)}")
    jobs: list[JobSpec] = []
    for i, entry in enumerate(doc["jobs"] or []):
        if not isinstance(entry, Mapping):
            raise ConfigError(f"jobs[{i}] must be a mapping")
        if default_tenant and "tenant" not in entry:
            entry = dict(entry, tenant=default_tenant)
        jobs.append(parse_job(entry))
    if not jobs:
        raise ConfigError(f"job file {path} contains no jobs")
    return jobs
