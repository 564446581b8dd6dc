"""Storage backends: real local filesystem + a Lustre-like cost model.

Files are always materialised on the local filesystem (so merging and
resuming are real); the *cost model* additionally charges a simulated
clock for each read/write, reproducing the time behaviour of the paper's
testbed (Lustre over InfiniBand, 8 concurrent GPU writers).

Checkpoint-time proportions in Tables 3/6 are read off the simulated
clock, so they are deterministic; Table 7's merge timings use real wall
clock on real files (the data volumes at simulation scale are honest).

The module also hosts the multi-tenant service's storage layer
(``llmtailor serve``):

* :class:`BlobStore` — a content-addressed, reference-counted object
  store keyed by per-group ``(crc32, numel)``.  Identical shard groups
  across different tenants' checkpoints hash to the same key and dedup
  to one stored copy; ownership is tracked per ``(tenant, checkpoint)``
  so no tenant's retention pass can delete a group another tenant still
  references (see :func:`repro.io.retention.prune_checkpoints`).
* :class:`GroupCache` — a thread-safe, byte-bounded LRU of *verified*
  shard groups plus a per-file metadata memo, shared across requests by
  the serve worker pool and optionally backed by a :class:`BlobStore`.
  The merge engine consults it through
  :func:`repro.core.optimizer_merge.set_group_cache`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..dist.shard import group_payload_crc
from ..util.errors import CheckpointFormatError
from ..util.jsonio import read_json, write_json_atomic
from .blobfile import Record, read_blob_selected, write_blob
from ..util.timer import SimClock

__all__ = [
    "BlobStore",
    "GroupCache",
    "IOStats",
    "LUSTRE_DEFAULT",
    "Ledger",
    "Storage",
    "StorageCostModel",
    "group_key",
]


@dataclass
class IOStats:
    """Byte/file counters, split by category prefix."""

    bytes_written: float = 0.0
    bytes_read: float = 0.0
    files_written: int = 0
    files_read: int = 0
    by_category: dict[str, float] = field(default_factory=dict)

    def record(self, nbytes: float, category: str) -> None:
        """Count ``nbytes`` under a category (no file moved: e.g. an inflate)."""
        self.by_category[category] = self.by_category.get(category, 0.0) + nbytes

    def record_write(self, nbytes: float, category: str, files: int = 1) -> None:
        """Count a write of ``nbytes`` over ``files`` files under a category."""
        self.bytes_written += nbytes
        self.files_written += files
        self.record(nbytes, category)

    def record_read(self, nbytes: float, category: str, files: int = 1) -> None:
        """Count a read of ``nbytes`` over ``files`` files under a category."""
        self.bytes_read += nbytes
        self.files_read += files
        self.record(nbytes, category)

    def category_bytes(self, prefix: str) -> float:
        """Total bytes recorded under categories starting with ``prefix``."""
        return sum(v for k, v in self.by_category.items() if k.startswith(prefix))

    def reset(self) -> None:
        """Zero all counters and categories."""
        self.bytes_written = self.bytes_read = 0.0
        self.files_written = self.files_read = 0
        self.by_category.clear()


@dataclass(frozen=True)
class StorageCostModel:
    """Bandwidth/latency parameters of the simulated parallel filesystem.

    Defaults approximate a Lustre filesystem over InfiniBand as seen from
    one node: a few GB/s of aggregate write bandwidth shared by the
    node's writers, per-file metadata latency dominated by the MDS.
    """

    write_bandwidth: float = 3.0e9  # bytes/s aggregate
    read_bandwidth: float = 6.0e9  # bytes/s aggregate
    file_latency: float = 0.010  # seconds per file (open/close/MDS)
    decompress_bandwidth: float = 1.5e9  # bytes/s per core (zlib-ish)
    concurrent_writers: int = 8  # ranks writing shards in parallel

    def write_time(self, nbytes: float, files: int = 1, parallel: int | None = None) -> float:
        """Seconds to write ``nbytes`` spread over ``files`` files.

        ``parallel`` caps how many of the files are written concurrently
        (per-rank shard writes overlap; the consolidated weight file does
        not).
        """
        parallel = min(parallel or 1, self.concurrent_writers)
        bw_time = nbytes / self.write_bandwidth
        lat_time = self.file_latency * files / max(1, parallel)
        return bw_time + lat_time

    def read_time(
        self,
        nbytes: float,
        files: int = 1,
        parallel: int | None = None,
        decompress: bool = False,
    ) -> float:
        """Seconds to read ``nbytes`` over ``files`` files (latency + bandwidth + optional decompress)."""
        parallel = max(1, min(parallel or 1, self.concurrent_writers))
        bw_time = nbytes / self.read_bandwidth
        lat_time = self.file_latency * files / parallel
        extra = self.inflate_time(nbytes, parallel) if decompress else 0.0
        return bw_time + lat_time + extra

    def inflate_time(self, nbytes: float, parallel: int = 1) -> float:
        """Seconds to decompress ``nbytes`` already read, on ``parallel`` cores."""
        return nbytes / (self.decompress_bandwidth * parallel)


LUSTRE_DEFAULT = StorageCostModel()


class Storage:
    """A rooted directory plus simulated-cost accounting.

    All real file creation goes through the tensorfile/blobfile modules;
    this class tracks what was moved and charges the simulated clock.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        cost_model: StorageCostModel | None = None,
        clock: SimClock | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cost_model = cost_model or LUSTRE_DEFAULT
        self.clock = clock or SimClock()
        self.stats = IOStats()

    def path(self, *parts: str) -> Path:
        """A path under the storage root (``root / parts...``)."""
        return self.root.joinpath(*parts)

    # -- accounting hooks -----------------------------------------------------

    def charge_write(
        self,
        nbytes: float,
        *,
        files: int = 1,
        parallel: int | None = None,
        category: str = "checkpoint_write",
    ) -> float:
        """Record a write and advance the simulated clock; returns dt."""
        dt = self.cost_model.write_time(nbytes, files=files, parallel=parallel)
        self.clock.advance(dt, category)
        self.stats.record_write(nbytes, category, files)
        return dt

    def charge_read(
        self,
        nbytes: float,
        *,
        files: int = 1,
        parallel: int | None = None,
        decompress: bool = False,
        category: str = "checkpoint_read",
    ) -> float:
        """Record a read and advance the simulated clock; returns dt."""
        dt = self.cost_model.read_time(
            nbytes, files=files, parallel=parallel, decompress=decompress
        )
        self.clock.advance(dt, category)
        self.stats.record_read(nbytes, category, files)
        return dt

    def charge_inflate(self, nbytes: float, *, category: str = "checkpoint_read") -> float:
        """Record decompressing ``nbytes`` already read (a selective read
        inflates less than it reads) and advance the clock; returns dt."""
        dt = self.cost_model.inflate_time(nbytes)
        self.clock.advance(dt, category)
        self.stats.record(nbytes, category)
        return dt

    def charge_compute(self, seconds: float, category: str = "compute") -> float:
        """Advance the simulated clock by ``seconds`` under a category."""
        self.clock.advance(seconds, category)
        return seconds


class Ledger(Storage):
    """A :class:`Storage` that only keeps the books: no directory, no files.

    Every dry run charges one — a checkpoint save or resume price
    (:func:`~repro.io.writer.price_save`,
    :func:`~repro.io.reader.price_resume`), a merge, reshard or diff price
    (:func:`~repro.core.plan.price_merge`,
    :func:`~repro.dist.reshard.price_reshard`), the supervisor's null leg —
    and its callers read their numbers off ``stats`` and ``clock``.
    """

    def __init__(self, cost_model: StorageCostModel | None = None,
                 root: str | Path = "<ledger>") -> None:
        self.root = Path(root)
        self.cost_model = cost_model or LUSTRE_DEFAULT
        self.clock = SimClock()
        self.stats = IOStats()

    def lane(self) -> "Ledger":
        """A ledger on these books with a clock of its own: one of several
        workers running concurrently (the caller advances this clock by the
        slowest lane's time)."""
        lane = Ledger(self.cost_model, self.root)
        lane.stats = self.stats
        return lane


# ---------------------------------------------------------------------------
# Content-addressed blob store (the serve subsystem's dedup layer)
# ---------------------------------------------------------------------------

def group_key(crc32: int, numel: int) -> str:
    """Content-address of one rank-local shard group: CRC + length.

    The CRC is the per-group ``crc32`` the ZeRO engine writes into every
    shard header (over the concatenated fp32 master, ``exp_avg`` and
    ``exp_avg_sq`` slices); ``numel`` is the rank-local slice length.
    Two groups with the same key are treated as identical content — the
    dedup contract of the serve blob store.
    """
    return f"{int(crc32) & 0xFFFFFFFF:08x}-{int(numel)}"


def _is_group(group: Any, key: str) -> bool:
    """Whether ``group`` is one shard group's records whose content is
    ``key``: float32 vectors of one length whose group CRC
    (:func:`~repro.dist.shard.group_payload_crc`) is the key's."""
    names = ("fp32", "exp_avg", "exp_avg_sq")
    if not isinstance(group, dict) or group.keys() != set(names):
        return False
    arrays = [group[name] for name in names]
    if not all(isinstance(a, Record) and a.dtype == np.float32 and len(a.shape) == 1
               and a.shape == arrays[0].shape for a in arrays):
        return False
    return group_key(group_payload_crc(*arrays), arrays[0].shape[0]) == key


class BlobStore:
    """Content-addressed, reference-counted store for shard groups.

    Objects live under ``<root>/objects/<key>.blob`` (the standard TLV
    blob container, so they inherit its whole-payload CRC, and ``get``
    checks each against its key); references live in ``<root>/refs.json``
    mapping key -> sorted owner tokens.
    An *owner* is an opaque string — the serve daemon uses
    :meth:`owner_token` (``tenant:resolved-checkpoint-dir``) so each
    tenant's claim on each source checkpoint is tracked independently.

    Dedup invariant: ``put`` is a no-op when the key already exists, so
    N tenants whose checkpoints share a group store one copy.  Deletion
    only ever happens in :meth:`sweep`, and only for keys with zero
    owners — a retention pass that releases one tenant's references can
    never delete content another tenant still claims.

    All mutating operations are serialized by an internal lock; the
    refs file is rewritten atomically, so a crash never leaves a
    half-written ownership table (reopening removes a killed writer's temp files).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._refs_path = self.root / "refs.json"
        self._lock = threading.Lock()
        self._refs: dict[str, list[str]] = {}
        for debris in (*self.objects_dir.glob("*.tmp"), *self.root.glob("*.tmp")):
            debris.unlink()
        if self._refs_path.exists():
            self._refs = {
                k: list(v) for k, v in read_json(self._refs_path).items()
            }

    @staticmethod
    def owner_token(tenant: str, checkpoint_dir: str | Path) -> str:
        """The canonical owner string for a tenant's claim on a checkpoint."""
        return f"{tenant}:{Path(checkpoint_dir).resolve()}"

    def _object_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.blob"

    def _save_refs(self) -> None:
        write_json_atomic(self._refs_path, self._refs)

    # -- objects --------------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Whether a payload object for ``key`` is stored."""
        return self._object_path(key).exists()

    def put(self, key: str, arrays: Mapping[str, Any]) -> bool:
        """Store one group's arrays under ``key``; returns True if written.

        A key that already has a payload is left untouched (content
        addressing makes rewrites pointless) — that no-op *is* the
        dedup: the second tenant's identical group costs zero bytes.
        """
        path = self._object_path(key)
        with self._lock:
            if path.exists():
                return False
            write_blob(path, dict(arrays))
            return True

    def get(self, key: str) -> dict[str, Record] | None:
        """Load one group's records, or ``None`` if the key has no payload
        or its payload is not the key's content (a rejected object stays).

        A concurrent :meth:`sweep` (e.g. another tenant's retention
        pass) may unlink the object between lookup and read; that race
        degrades to a miss rather than failing the caller's job.
        """
        path = self._object_path(key)
        if not path.exists():
            return None
        try:
            group = read_blob_selected(path, lambda _p: True, as_record=lambda _p: True)
            return group if _is_group(group, key) else None
        except (OSError, CheckpointFormatError):
            return None

    # -- ownership ------------------------------------------------------------

    def add_refs(self, keys: Iterable[str], owner: str) -> int:
        """Register ``owner``'s claim on every key (idempotent).

        Returns the number of claims that were actually new.
        """
        with self._lock:
            added = 0
            for key in keys:
                owners = self._refs.setdefault(key, [])
                if owner not in owners:
                    owners.append(owner)
                    owners.sort()
                    added += 1
            if added:
                self._save_refs()
            return added

    def owners(self, key: str) -> list[str]:
        """All owner tokens currently claiming ``key``."""
        with self._lock:
            return list(self._refs.get(key, []))

    def release(self, owner: str) -> list[str]:
        """Drop every claim held by ``owner``; returns keys that lost a ref.

        Keys are never deleted here — call :meth:`sweep` afterwards to
        reclaim payloads whose owner set became empty.
        """
        with self._lock:
            touched: list[str] = []
            for key, owners in list(self._refs.items()):
                if owner in owners:
                    owners.remove(owner)
                    touched.append(key)
                if not owners:
                    del self._refs[key]
            if touched:
                self._save_refs()
            return touched

    def sweep(self) -> list[str]:
        """Delete payload objects with zero owners; returns removed keys."""
        removed: list[str] = []
        with self._lock:
            for path in self.objects_dir.glob("*.blob"):
                key = path.stem
                if not self._refs.get(key):
                    path.unlink()
                    removed.append(key)
        return sorted(removed)

    def stats(self) -> dict[str, Any]:
        """Dedup accounting: object/ref counts and stored bytes."""
        with self._lock:
            objects = list(self.objects_dir.glob("*.blob"))
            total_refs = sum(len(v) for v in self._refs.values())
            return {
                "objects": len(objects),
                "object_bytes": sum(p.stat().st_size for p in objects),
                "referenced_keys": len(self._refs),
                "total_refs": total_refs,
                # refs / keys: 1.0 means no cross-owner sharing at all.
                "dedup_factor": (
                    total_refs / len(self._refs) if self._refs else 0.0
                ),
            }


# ---------------------------------------------------------------------------
# Cross-request group cache (shared by the serve worker pool)
# ---------------------------------------------------------------------------

@dataclass
class GroupCacheStats:
    """Hit/miss counters for one :class:`GroupCache`."""

    hits: int = 0
    misses: int = 0
    store_hits: int = 0
    evictions: int = 0
    meta_passes: int = 0
    meta_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of group lookups served without decoding a shard."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        """Flat dict form (for the serve ``stats`` op and bench tables)."""
        out = dict(self.__dict__)
        out["hit_rate"] = self.hit_rate
        return out


class _ThreadLookups(threading.local):
    """One thread's group-lookup counts (a served job runs on one thread)."""

    hits = 0
    misses = 0


class GroupCache:
    """Byte-bounded LRU of verified shard groups, keyed by content.

    Two layers, both thread-safe:

    * the *group* layer maps :func:`group_key` -> ``fp32``/``exp_avg``/
      ``exp_avg_sq`` records, its bound counting their bytes; a miss
      optionally falls through to a backing :class:`BlobStore` before
      giving up, so a group any tenant ever merged can be served without
      touching the owning tenant's checkpoint again;
    * the *metadata* layer memoizes per-file header passes keyed by
      ``(path, size, mtime_ns)`` — a changed or rewritten shard file
      never serves stale headers.

    Bitwise safety: cached entries are only ever *content* (records whose
    per-group CRC the engine verified on first decode, or the store
    checked against the key on read).  Headers, hyperparameters and step
    counters always come from the actual source file's metadata pass, so
    two content-identical groups with different schedules can never
    cross-contaminate.
    """

    def __init__(
        self, max_bytes: int = 256 << 20, *, store: BlobStore | None = None
    ) -> None:
        self.max_bytes = int(max_bytes)
        self.store = store
        self.stats = GroupCacheStats()
        #: ``hits`` / ``misses`` of the calling thread's lookups alone.
        self.thread_lookups = _ThreadLookups()
        self._lock = threading.Lock()
        self._groups: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._meta: dict[tuple, dict] = {}
        self._nbytes = 0

    @staticmethod
    def _entry_nbytes(records: Mapping[str, Record]) -> int:
        return sum(len(r.data) for r in records.values())

    def get(self, key: str) -> dict[str, Record] | None:
        """Look one group's records up by content key (LRU touch on hit)."""
        with self._lock:
            entry = self._groups.get(key)
            if entry is not None:
                self._groups.move_to_end(key)
                self.stats.hits += 1
                self.thread_lookups.hits += 1
                return entry
        if self.store is not None:
            from_store = self.store.get(key)
            if from_store is not None:
                with self._lock:
                    self.stats.hits += 1
                    self.stats.store_hits += 1
                self.thread_lookups.hits += 1
                self._insert(key, from_store)
                return from_store
        with self._lock:
            self.stats.misses += 1
        self.thread_lookups.misses += 1
        return None

    def put(self, key: str, records: Mapping[str, Record]) -> None:
        """Insert one verified group's records (write-through to the blob store)."""
        self._insert(key, dict(records))
        if self.store is not None:
            self.store.put(key, records)

    def _insert(self, key: str, records: dict[str, Record]) -> None:
        with self._lock:
            if key in self._groups:
                self._groups.move_to_end(key)
                return
            nbytes = self._entry_nbytes(records)
            if nbytes > self.max_bytes:
                return
            self._groups[key] = records
            self._nbytes += nbytes
            while self._nbytes > self.max_bytes:
                _, evicted = self._groups.popitem(last=False)
                self._nbytes -= self._entry_nbytes(evicted)
                self.stats.evictions += 1

    def metadata(
        self, path: str | Path, loader: Callable[[Path], dict]
    ) -> tuple[dict, bool]:
        """Per-file metadata memo; returns ``(meta, freshly_loaded)``.

        The memo key includes size and mtime, so rewriting a shard file
        in place invalidates its entry.
        """
        path = Path(path)
        st = path.stat()
        key = (str(path), st.st_size, st.st_mtime_ns)
        with self._lock:
            if key in self._meta:
                self.stats.meta_hits += 1
                return self._meta[key], False
        meta = loader(path)
        with self._lock:
            self._meta[key] = meta
            self.stats.meta_passes += 1
        return meta, True

    @property
    def nbytes(self) -> int:
        """Bytes of records currently resident."""
        with self._lock:
            return self._nbytes

    def clear(self) -> None:
        """Drop every cached group and metadata entry (counters survive)."""
        with self._lock:
            self._groups.clear()
            self._meta.clear()
            self._nbytes = 0
