"""The ``SHARD_FORMAT_VERSION`` rank-shard payload: one builder, one checker.

The only module that knows the payload's key names, order and per-group layout;
every writer goes through :func:`build_payload`, every reader through :func:`check_payload`::

    format_version    int
    zero_stage        3
    world_size, rank  int
    num_total_groups  int   (2L + x for the tailored layout)
    groups            [ {index, name, slot, weight_decay, param_names,
                         shapes, numel, padded_numel, crc32} ]
    hyperparams       [ {index, lr, betas, eps, weight_decay} ]
    fp32_flat_groups  {group index -> fp32 master shard (shard_numel,)}
    state             {group index -> {step, exp_avg, exp_avg_sq}}
    ...extras         (``global_step``, ``merged_by``, ...) carried verbatim

``crc32`` (:func:`group_payload_crc`) gives each group its own integrity
check, so a selective reader verifies exactly the groups it materializes;
shards written before it carry none and stay loadable; a writer of checked
records vouches for them by :func:`group_digest` instead of a second decode.
The wire format stays a plain dict; callers exchange per-group
:class:`GroupEntry` tuples.
"""

from __future__ import annotations

import zlib
from itertools import islice
from typing import Any, Callable, Iterable, Mapping, NamedTuple

import numpy as np

from ..io.blobfile import Record
from ..util.errors import CheckpointFormatError
from .partition import GroupPartition

__all__ = [
    "SHARD_FORMAT_VERSION", "GroupEntry", "build_payload", "check_payload", "content_key",
    "group_array", "group_digest", "group_payload_crc", "metadata_only", "payload_extras",
    "select_groups",
]

SHARD_FORMAT_VERSION = 1

_KEYS = (
    "format_version", "zero_stage", "world_size", "rank", "num_total_groups",
    "groups", "hyperparams", "fp32_flat_groups", "state",
)
_ARRAYS = ("fp32", "exp_avg", "exp_avg_sq")


class GroupEntry(NamedTuple):
    """One parameter group of one rank's shard."""

    header: Mapping[str, Any]
    hyper: Mapping[str, Any]
    fp32: np.ndarray
    step: int
    exp_avg: np.ndarray
    exp_avg_sq: np.ndarray
    crc: int | None = None  # the group CRC they were checked against (decoded or by digest)


def group_digest(entry: GroupEntry) -> tuple | None:
    """``(crc, (zlib.crc32, length) of each record's bytes)`` of a group of three
    checked records, else ``None``: what their writer hands :func:`check_payload`."""
    arrays = (entry.fp32, entry.exp_avg, entry.exp_avg_sq)
    if entry.crc is None or not all(isinstance(a, Record) for a in arrays):
        return None
    return (entry.crc, *((zlib.crc32(a.data), len(a.data)) for a in arrays))


def group_payload_crc(fp32: np.ndarray, exp_avg: np.ndarray, exp_avg_sq: np.ndarray) -> int:
    """CRC-32 over one group's shard data (master + moments, in order)."""
    crc = 0
    for arr in (fp32, exp_avg, exp_avg_sq):  # CRC the buffers in place, no copies
        crc = zlib.crc32(np.ascontiguousarray(arr).reshape(-1).view(np.uint8), crc)
    return crc


def build_payload(
    world_size: int, rank: int, num_total_groups: int,
    groups: Iterable[GroupEntry], extras: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """One rank's payload in canonical key order, groups ascending, every
    header's ``padded_numel`` and ``crc32`` re-stamped for what is written: a
    group of three records takes the ``crc`` :func:`check_payload` verified."""
    headers, hypers, fp32, state = [], [], {}, {}
    for e in sorted(groups, key=lambda e: e.header["index"]):
        g = int(e.header["index"])
        header = dict(e.header)  # replaced keys keep their position
        header["padded_numel"] = GroupPartition(int(header["numel"]), world_size).padded_numel
        arrays = (e.fp32, e.exp_avg, e.exp_avg_sq)
        verified = e.crc is not None and all(isinstance(a, Record) for a in arrays)
        header["crc32"] = e.crc if verified else group_payload_crc(*arrays)
        headers.append(header)
        hypers.append(dict(e.hyper, index=g))
        fp32[g] = e.fp32
        state[g] = {"step": e.step, "exp_avg": e.exp_avg, "exp_avg_sq": e.exp_avg_sq}
    values = (SHARD_FORMAT_VERSION, 3, int(world_size), int(rank), int(num_total_groups),
              headers, hypers, fp32, state)
    return {**dict(zip(_KEYS, values)), **(extras or {})}


def payload_extras(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Top-level keys outside the format, in source order (carried verbatim)."""
    return {k: v for k, v in payload.items() if k not in _KEYS}


def _int(value: Any) -> int | None:
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return int(value) if ok else None


def _plain(value: Any) -> Any:
    """Tuples and arrays as lists, recursively, so any two header values compare."""
    value = value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value
    return [_plain(v) for v in value] if isinstance(value, (list, tuple)) else value


def _table(value: Any) -> Mapping:
    return value if isinstance(value, Mapping) else {}


def _rows(value: Any) -> list[Mapping]:
    return [v for v in value if isinstance(v, Mapping)] if isinstance(value, (list, tuple)) else []


def check_payload(
    payload: Mapping[str, Any], *, world_size: int, rank: int, origin: str,
    error: type[Exception], complete: bool = False,
    expect: Mapping[int, Mapping[str, Any]] | None = None, wanted: Iterable[int] | None = None,
    digests: Mapping[int, tuple] | None = None,
) -> dict[int, GroupEntry]:
    """Validate one rank's payload; returns its groups, ascending.

    Checks format version, world size, rank, header indices, ``padded_numel``
    against ``numel`` and the world size; with ``complete`` that no group is
    missing; with ``expect`` (``{g: reference header}``) ``param_names`` /
    ``numel`` / ``shapes``; for every ``wanted`` group (default: all present)
    float32 arrays of the rank-local length, a step counter and the header
    ``crc32`` if any, then carried as ``crc``.  Arrays may be records: each
    is decoded once for the CRC (and kept decoded if the group has none),
    unless ``digests`` (``{g: group_digest}`` of the records a writer checked
    and wrote) holds the group's digest under its header ``crc32``: those
    are the checked bytes, so the group counts as checked undecoded.
    Raises only ``error``; sizes nothing by the payload.
    """
    def fail(message: str):
        raise error(f"{origin}: {message}")

    payload = _table(payload)
    if _int(payload.get("format_version")) != SHARD_FORMAT_VERSION:
        fail(f"unsupported shard format_version {payload.get('format_version')!r}")
    if _int(payload.get("world_size")) != world_size:
        fail(f"shard world_size {payload.get('world_size')!r} != expected {world_size} "
             "(`llmtailor reshard` converts a checkpoint; load_checkpoint reshards elastically)")
    if _int(payload.get("rank")) != rank:
        fail(f"shard was written for rank {payload.get('rank')!r}, expected rank {rank}")
    universe = expect if expect is not None else range(_int(payload.get("num_total_groups")) or 0)
    hyper_of = {_int(h.get("index")): h for h in _rows(payload.get("hyperparams"))}
    headers: dict[int, Mapping] = {}
    for h in _rows(payload.get("groups")):
        g = _int(h.get("index"))
        if g is None or g not in universe or g in headers:
            fail(f"group index {h.get('index')!r} repeated or not one of {len(universe)} groups")
        numel, padded = _int(h.get("numel")), _int(h.get("padded_numel"))
        if numel is None or numel < 0 or padded != GroupPartition(numel, world_size).padded_numel:
            fail(f"group {g}: padded_numel {h.get('padded_numel')!r} inconsistent with "
                 f"numel {h.get('numel')!r} at world size {world_size}")
        for key in ("param_names", "numel", "shapes") if expect is not None else ():
            if key in expect[g] and _plain(h.get(key)) != _plain(expect[g][key]):
                what = "parameter names differ" if key == "param_names" else f"{key} differs"
                fail(f"group {g} geometry differs from the reference layout ({what}) — "
                     "the shard belongs to a different checkpoint")
        headers[g] = h
    if complete and len(headers) != len(universe):
        missing = list(islice((g for g in universe if g not in headers), 8))
        fail(f"shard is partial: missing groups {missing} of {len(universe) - len(headers)}")
    fp32s, states = _table(payload.get("fp32_flat_groups")), _table(payload.get("state"))
    entries = {}
    for g in sorted(headers):
        state = _table(states.get(g))
        entries[g] = GroupEntry(
            headers[g], hyper_of.get(g, {}), fp32s.get(g), _int(state.get("step")),
            state.get("exp_avg"), state.get("exp_avg_sq"),
        )
    for g in entries if wanted is None else wanted:
        if g not in entries:
            fail(f"rank {rank} shard lacks group {g}: more partial than its manifest claims")
        e = entries[g]
        shape, arrays = (e.header["padded_numel"] // world_size,), (e.fp32, e.exp_avg, e.exp_avg_sq)
        for name, arr in zip(_ARRAYS, arrays):
            if not isinstance(arr, (np.ndarray, Record)) or (arr.dtype, arr.shape) != (
                np.float32, shape
            ):
                got = f"{getattr(arr, 'dtype', type(arr).__name__)}{getattr(arr, 'shape', '')}"
                fail(f"group {g} {name} shard malformed: {got}, expected float32{shape}")
        if e.step is None:
            fail(f"group {g} state is missing its step counter")
        crc = e.header.get("crc32")  # pre-CRC shards: container checks already applied
        if digests and g in digests and digests[g] == group_digest(
            vouched := e._replace(crc=_int(crc))
        ):
            entries[g] = vouched  # the checked records, byte for byte: no decode
            continue
        try:  # a record's planes are checked here, as it is decoded
            actual = None if crc is None else group_payload_crc(*arrays)
            decoded = [np.asarray(a) for a in arrays] if crc is None else arrays
        except CheckpointFormatError as exc:
            fail(f"group {g} arrays undecodable: {exc}")
        if actual != _int(crc):
            fail(f"CRC mismatch for group {g} in rank {rank} shard (corrupt optimizer state)")
        entries[g] = GroupEntry(e.header, e.hyper, decoded[0], e.step, *decoded[1:], actual)
    return entries


def select_groups(wanted: "set[int]") -> tuple[Callable, Callable]:
    """``(want, indexed_filter)`` for ``read_blob_selected``: decode the
    headers, hyperparams and arrays of the ``wanted`` groups only."""
    return (
        lambda p: p[1] in wanted if len(p) == 2 and p[0] in ("fp32_flat_groups", "state") else True,
        lambda p: wanted if p in (("groups",), ("hyperparams",)) else None,
    )


def group_array(path: tuple) -> bool:
    """Whether a payload key path names one of a group's arrays (master or moment)."""
    if len(path) == 2 and path[0] == "fp32_flat_groups":
        return True
    return len(path) == 3 and path[0] == "state" and path[2] in _ARRAYS


def metadata_only(path: tuple) -> bool:
    """``want`` for ``read_blob_selected``: everything but the array payloads."""
    return not group_array(path)


def content_key(header: Mapping[str, Any], world_size: int) -> tuple[int, int] | None:
    """A group's ``(crc32, rank-local length)`` — ``group_key``'s arguments; ``None`` pre-CRC."""
    crc = _int(header.get("crc32"))
    return None if crc is None else (crc, int(header["padded_numel"]) // world_size)
