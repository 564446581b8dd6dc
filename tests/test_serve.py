"""The merge service: protocol, admission, queue, dedup, and the daemon.

The end-to-end classes drive a real server over a unix socket (via
``serve_in_thread``) against the session-scoped trained run, including
the headline invariant: N concurrent clients submitting interleaved
merge/reshard jobs produce outputs bitwise-identical to serial one-shot
CLI runs (modulo the manifest's self-referential output path).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import re
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tailor import LLMTailor
from repro.dist.reshard import reshard_checkpoint
from repro.dist.shard import group_payload_crc
from repro.io.blobfile import Record, encode
from repro.io.retention import prune_checkpoints
from repro.io.storage import BlobStore, GroupCache, group_key
from repro.serve import (
    AdmissionController,
    Job,
    JobQueue,
    JobSpec,
    JobTimeline,
    ServeClient,
    ServeConfig,
    TenantQuota,
    estimate_job_cost,
    load_job_file,
    parse_job,
    serve_in_thread,
)
from repro.serve.journal import JobJournal, replay_journal
from repro.util.errors import ConfigError


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _short_socket() -> str:
    """A socket path safely under the 108-char AF_UNIX limit."""
    return os.path.join(tempfile.mkdtemp(prefix="st", dir="/tmp"), "s.sock")


def _digest(root: Path) -> str:
    """Content hash of a checkpoint dir, output-path self-reference masked."""
    root = Path(root)
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        h.update(p.relative_to(root).as_posix().encode())
        data = p.read_bytes()
        if p.name.endswith(".json"):
            data = data.replace(str(root).encode(), b"<OUT>")
        h.update(data)
    return h.hexdigest()


def _recipe_doc(run: Path) -> dict:
    return {
        "base_checkpoint": str(run / "checkpoint-24"),
        "slices": [{"slot": "layers.0-1", "source": str(run / "checkpoint-16")}],
    }


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    """A short full-strategy run (checkpoints at 8/16/24, world size 2)."""
    from repro.train import TrainConfig, Trainer

    out = tmp_path_factory.mktemp("serve-run") / "run"
    cfg = TrainConfig(
        model="tiny-untied", task="cpt", total_steps=24,
        checkpoint_strategy="full", checkpoint_interval=8,
        output_dir=str(out), world_size=2, micro_batch_size=2,
        grad_accum_steps=1, seq_len=32, log_every=100,
    )
    Trainer(cfg).train()
    return out


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

# Tier-1 is derandomized; the nightly's --hypothesis-seed=random draws afresh.
_NIGHTLY = any(arg.startswith("--hypothesis-seed") for arg in sys.argv)


def _json_values():
    """Arbitrary JSON values."""
    scalar = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
              | st.text(max_size=8))
    return st.recursive(
        scalar, lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=8), inner, max_size=3), max_leaves=8,
    )


def _json_docs():
    """Arbitrary JSON, most of it job-shaped: each kind's required params
    present (with arbitrary values) plus arbitrary optional ones."""
    value = _json_values()
    required = {"merge": ["recipe"], "reshard": ["checkpoint", "output", "target_world_size"],
                "diff": ["checkpoint_a", "checkpoint_b"], "plan": ["model", "strategy"]}
    optional = {"merge": ["output", "cache_mode"], "reshard": [],
                "diff": ["momentum"], "plan": ["interval", "steps", "world_size"]}
    jobs = [st.fixed_dictionaries({
        "tenant": st.just("t") | value, "kind": st.just(kind),
        "params": st.fixed_dictionaries(
            {key: value for key in required[kind]},
            optional={key: value for key in optional[kind]}),
    }, optional={"priority": value}) for kind in required]
    return st.one_of(*jobs) | value


def _journal_records():
    """Arbitrary JSON values, most of them journal-shaped: a ``submit`` of
    an arbitrary (mostly job-shaped) document or a ``done``, under ids
    that often pair up."""
    ids = st.sampled_from(["job-1", "job-2"]) | _json_values()
    return (st.fixed_dictionaries({"event": st.just("submit"), "id": ids, "job": _json_docs()})
            | st.fixed_dictionaries({"event": st.just("done"), "id": ids},
                                    optional={"status": _json_values()})
            | _json_values())


class TestProtocol:
    def test_parse_valid_job(self):
        spec = parse_job({"tenant": "a", "kind": "plan", "priority": 2,
                          "params": {"model": "tiny-qwen", "strategy": "full"}})
        assert spec.tenant == "a" and spec.priority == 2
        assert parse_job(spec.to_dict()) == spec  # round-trips

    @pytest.mark.parametrize("doc", [
        {"kind": "plan", "params": {"model": "m", "strategy": "full"}},  # no tenant
        {"tenant": "a", "kind": "bogus"},
        {"tenant": "a", "kind": "plan", "params": {"model": "m"}},  # missing strategy
        {"tenant": "a", "kind": "diff", "params": {
            "checkpoint_a": "x", "checkpoint_b": "y", "typo": 1}},
        {"tenant": "a", "kind": "merge", "params": {}},  # neither recipe form
        {"tenant": "a", "kind": "merge", "params": {
            "recipe": "r.yaml", "recipe_doc": {}}},  # both recipe forms
        {"tenant": "a", "kind": "reshard", "params": {
            "checkpoint": "c", "output": "o", "target_world_size": 0}},
        {"tenant": "a", "kind": "reshard", "params": {  # removed engine switch
            "checkpoint": "c", "output": "o", "target_world_size": 2, "stream": True}},
        {"tenant": "a", "kind": "reshard", "params": {  # removed fan-out
            "checkpoint": "c", "output": "o", "target_world_size": 2, "workers": 2}},
        {"tenant": "a", "kind": "merge", "params": {"recipe": "r.yaml", "stream": True}},
        {"tenant": "a", "kind": "plan", "priority": "high",
         "params": {"model": "m", "strategy": "full"}},
        {"tenant": "a", "kind": "plan", "surprise": 1,
         "params": {"model": "m", "strategy": "full"}},
    ])
    def test_parse_rejects_malformed(self, doc):
        with pytest.raises(ConfigError):
            parse_job(doc)

    @pytest.mark.parametrize("kind, key, value", [
        *[("reshard", "target_world_size", v) for v in ("abc", None, [3], True, 2.5, "3")],
        # A merge job's ``workers`` param is removed: refused whatever its value.
        *[("merge", "workers", v) for v in ("abc", -4, True, 0, 1.0)],
        ("merge", "cache_mode", "bogus"),
        ("merge", "cache_mode", None),
        ("merge", "recipe", 5),
        ("merge", "recipe_doc", ["base_checkpoint"]),
        ("diff", "momentum", "no"),
        ("diff", "momentum", 0),
        ("diff", "checkpoint_a", None),
        *[("plan", key, v) for key in ("interval", "steps", "world_size")
          for v in (0, -5, 2.5, True, "abc")],
    ])
    def test_parse_refuses_mistyped_params_naming_the_field(self, kind, key, value):
        """Only typed refusals reach the pricing and the engines: at the
        parent ``"abc"`` raised ValueError, ``None`` / ``[3]`` TypeError,
        and ``True``, ``2.5``, ``-4``, ``"bogus"`` and a truthy ``"no"``
        were admitted and charged."""
        params = {
            "reshard": {"checkpoint": "c", "output": "o", "target_world_size": 2},
            "merge": {"recipe": "r.yaml"},
            "diff": {"checkpoint_a": "a", "checkpoint_b": "b"},
            "plan": {"model": "m", "strategy": "full"},
        }[kind]
        if key == "recipe_doc":
            params = {}
        refusal = (rf"unknown params: \['{key}'\]" if key == "workers"
                   else rf"param '{key}' must be")
        with pytest.raises(ConfigError, match=refusal):
            parse_job({"tenant": "t", "kind": kind, "params": {**params, key: value}})

    def test_parse_accepts_well_typed_params(self):
        spec = parse_job({"tenant": "t", "kind": "merge", "params": {
            "recipe_doc": {"base_checkpoint": "b"}, "cache_mode": "none"}})
        assert spec.params["cache_mode"] == "none"
        assert parse_job({"tenant": "t", "kind": "diff", "params": {
            "checkpoint_a": "a", "checkpoint_b": "b", "momentum": True}}).params["momentum"]

    @given(doc=_json_docs())
    @settings(max_examples=300, deadline=None, derandomize=not _NIGHTLY)
    def test_parse_job_raises_only_config_error(self, doc):
        """Arbitrary JSON is a job or a ``ConfigError`` — nothing else escapes."""
        try:
            spec = parse_job(doc)
        except ConfigError:
            return
        assert parse_job(spec.to_dict()) == spec

    def test_job_file_single_and_list(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(json.dumps(
            {"tenant": "a", "kind": "plan",
             "params": {"model": "m", "strategy": "full"}}))
        assert len(load_job_file(single)) == 1

        many = tmp_path / "many.json"
        many.write_text(json.dumps({"tenant": "shared", "jobs": [
            {"kind": "plan", "params": {"model": "m", "strategy": "full"}},
            {"tenant": "own", "kind": "plan",
             "params": {"model": "m", "strategy": "full"}},
        ]}))
        jobs = load_job_file(many)
        assert [j.tenant for j in jobs] == ["shared", "own"]

    def test_job_file_yaml(self, tmp_path):
        path = tmp_path / "jobs.yaml"
        path.write_text(
            "tenant: t\n"
            "jobs:\n"
            "  - kind: plan\n"
            "    params:\n"
            "      model: tiny-qwen\n"
            "      strategy: full\n"
        )
        (job,) = load_job_file(path)
        assert job.tenant == "t" and job.kind == "plan"

    def test_job_file_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"jobs": []}))
        with pytest.raises(ConfigError):
            load_job_file(path)


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------

def _plan_spec(tenant="t") -> JobSpec:
    return JobSpec(tenant=tenant, kind="plan",
                   params={"model": "tiny-qwen", "strategy": "full"})


class TestAdmission:
    def test_force_admit_bypasses_checks_but_charges(self):
        # Journal replay path: a tenant crashed at its inflight limit
        # must replay (no quota re-check), yet the budget is charged so
        # finish() releases exactly what was taken — finishing the
        # replayed job must not free budget a live job still holds.
        ctl = AdmissionController(TenantQuota(max_inflight=1))
        spec = _plan_spec()
        cost = estimate_job_cost(spec)
        assert ctl.admit(spec, cost).accepted
        ctl.force_admit(spec, cost)  # would be rejected by admit()
        assert ctl.stats()["t"]["inflight"] == 2
        ctl.finish(spec, cost)  # replayed job done
        assert ctl.stats()["t"]["inflight"] == 1
        assert not ctl.admit(spec, cost).accepted  # live job still charged
        ctl.finish(spec, cost)
        assert ctl.stats()["t"]["inflight"] == 0

    def test_inflight_quota(self):
        ctl = AdmissionController(TenantQuota(max_inflight=2))
        spec = _plan_spec()
        cost = estimate_job_cost(spec)
        assert ctl.admit(spec, cost).accepted
        assert ctl.admit(spec, cost).accepted
        third = ctl.admit(spec, cost)
        assert not third.accepted
        assert third.retry_after >= 0.05
        ctl.finish(spec, cost)
        assert ctl.admit(spec, cost).accepted  # slot freed

    def test_byte_quota_and_isolation(self, run_dir):
        spec = JobSpec(tenant="big", kind="diff", params={
            "checkpoint_a": str(run_dir / "checkpoint-16"),
            "checkpoint_b": str(run_dir / "checkpoint-24"),
        })
        cost = estimate_job_cost(spec)
        assert cost.total_bytes > 0
        ctl = AdmissionController(TenantQuota(max_queued_bytes=cost.total_bytes))
        assert ctl.admit(spec, cost).accepted
        rejected = ctl.admit(spec, cost)  # second would exceed the budget
        assert not rejected.accepted and "max_queued_bytes" in rejected.reason
        # Another tenant has its own budget.
        other = JobSpec(tenant="other", kind=spec.kind, params=spec.params)
        assert ctl.admit(other, cost).accepted

    def test_estimate_deterministic(self, run_dir):
        spec = JobSpec(tenant="t", kind="reshard", params={
            "checkpoint": str(run_dir / "checkpoint-24"),
            "output": "/tmp/ignored", "target_world_size": 3,
        })
        cost = estimate_job_cost(spec)
        assert cost == estimate_job_cost(spec)
        # One read per source shard (N = 2, any M) plus the weight file.
        assert cost.files == 2 + 1

    def test_merge_cost_scales_with_cache_mode(self, run_dir):
        base = {"recipe_doc": _recipe_doc(run_dir)}
        per_ckpt = estimate_job_cost(JobSpec(
            tenant="t", kind="merge",
            params={**base, "cache_mode": "per-checkpoint"}))
        none = estimate_job_cost(JobSpec(
            tenant="t", kind="merge", params={**base, "cache_mode": "none"}))
        # cache_mode none reloads per slot: strictly more bytes.
        assert none.bytes_read > per_ckpt.bytes_read > 0

    def test_missing_checkpoint_rejected(self, tmp_path):
        spec = JobSpec(tenant="t", kind="reshard", params={
            "checkpoint": str(tmp_path / "nope"), "output": "o",
            "target_world_size": 2})
        with pytest.raises(ConfigError):
            estimate_job_cost(spec)


# ---------------------------------------------------------------------------
# queue
# ---------------------------------------------------------------------------

def _job(tenant="t", priority=0, n=[0]) -> Job:
    n[0] += 1
    spec = JobSpec(tenant=tenant, kind="plan", priority=priority,
                   params={"model": "m", "strategy": "full"})
    return Job(id=f"j{n[0]}", spec=spec, cost=estimate_job_cost(_plan_spec()))


class TestJobQueue:
    def test_priority_then_fifo(self):
        async def scenario():
            q = JobQueue()
            low1, low2 = _job(priority=0), _job(priority=0)
            high = _job(priority=5)
            await q.put(low1)
            await q.put(low2)
            await q.put(high)
            order = [await q.get() for _ in range(3)]
            return order

        order = asyncio.run(scenario())
        assert [j.spec.priority for j in order] == [5, 0, 0]
        assert order[1].id < order[2].id  # FIFO within a priority level

    def test_close_drains_then_none(self):
        async def scenario():
            q = JobQueue()
            await q.put(_job())
            await q.close()
            with pytest.raises(RuntimeError):
                await q.put(_job())
            first = await q.get()
            sentinel = await q.get()
            return first, sentinel

        first, sentinel = asyncio.run(scenario())
        assert first is not None and sentinel is None


# ---------------------------------------------------------------------------
# blob store + group cache
# ---------------------------------------------------------------------------

def _group(seed: int, numel: int = 10) -> tuple[str, dict[str, Record]]:
    """One shard group's records under its real content key."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(numel).astype(np.float32) for _ in range(3)]
    records = {name: Record(encode(a), a.dtype, a.shape)
               for name, a in zip(("fp32", "exp_avg", "exp_avg_sq"), arrays)}
    return group_key(group_payload_crc(*arrays), numel), records


def _same_records(got, records) -> bool:
    return got.keys() == records.keys() and all(
        isinstance(got[n], Record) and got[n].data == records[n].data for n in records)


class TestBlobStore:
    def test_put_dedups(self, tmp_path):
        store = BlobStore(tmp_path / "blobs")
        key, records = _group(0, 6)
        assert store.put(key, records) is True
        assert store.put(key, records) is False  # dedup: no-op
        assert _same_records(store.get(key), records)
        assert store.get("ffffffff-1") is None

    def test_get_races_sweep_as_miss(self, tmp_path):
        # A concurrent sweep (another tenant's retention pass) may
        # unlink the object between lookup and read; get() must degrade
        # to a cache miss, not fail the reading job.
        store = BlobStore(tmp_path / "blobs")
        key = group_key(0x1234, 4)
        store.put(key, {"fp32": np.arange(4, dtype=np.float32)})
        store._object_path(key).unlink()  # sweep won the race
        assert store.get(key) is None

    def test_refcount_lifecycle(self, tmp_path):
        store = BlobStore(tmp_path / "blobs")
        key = group_key(1, 4)
        store.put(key, {"fp32": np.zeros(4, dtype=np.float32)})
        assert store.add_refs([key], "t1:/a") == 1
        assert store.add_refs([key], "t1:/a") == 0  # idempotent
        assert store.add_refs([key], "t2:/b") == 1
        assert store.owners(key) == ["t1:/a", "t2:/b"]
        # One owner leaves: object must survive the sweep.
        assert store.release("t1:/a") == [key]
        assert store.sweep() == []
        assert store.contains(key)
        # Last owner leaves: now it is garbage.
        store.release("t2:/b")
        assert store.sweep() == [key]
        assert not store.contains(key)

    def test_refs_persist_across_reopen(self, tmp_path):
        root = tmp_path / "blobs"
        key = group_key(2, 4)
        BlobStore(root).add_refs([key], "t:/x")
        reopened = BlobStore(root)
        assert reopened.owners(key) == ["t:/x"]

    def test_stats(self, tmp_path):
        store = BlobStore(tmp_path / "blobs")
        key = group_key(3, 4)
        store.put(key, {"fp32": np.zeros(4, dtype=np.float32)})
        store.add_refs([key], "a:/1")
        store.add_refs([key], "b:/2")
        stats = store.stats()
        assert stats["objects"] == 1 and stats["total_refs"] == 2
        assert stats["dedup_factor"] == 2.0


class TestGroupCache:
    def test_hit_miss_and_eviction(self):
        (k1, a), (k2, b), (k3, c) = (_group(seed) for seed in range(3))
        size = sum(len(r.data) for r in a.values())
        cache = GroupCache(max_bytes=2 * size)  # room for two 10-float groups
        assert cache.get(k1) is None
        cache.put(k1, a)
        assert cache.get(k1) is not None
        cache.put(k2, b)
        cache.put(k3, c)  # evicts the LRU entry (k1)
        assert cache.get(k1) is None
        assert cache.stats.evictions >= 1 and cache.nbytes == 2 * size
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_store_write_through_and_fallback(self, tmp_path):
        store = BlobStore(tmp_path / "blobs")
        cache = GroupCache(max_bytes=1 << 20, store=store)
        key, records = _group(0, 4)
        cache.put(key, records)
        assert store.contains(key)  # write-through
        cold = GroupCache(max_bytes=1 << 20, store=store)  # fresh process
        assert _same_records(cold.get(key), records)
        assert cold.stats.store_hits == 1

    def test_a_rewritten_store_object_cannot_enter_a_merge(self, run_dir, tmp_path):
        """A store object rewritten as a valid blob of other content is a
        miss: that group is read from its source and the merge is unchanged."""
        from repro.core.optimizer_merge import set_group_cache
        from repro.core.verify import verify_checkpoint
        from repro.io.blobfile import read_blob, write_blob

        cache = GroupCache(store=BlobStore(tmp_path / "blobs"))
        previous = set_group_cache(cache)
        try:
            LLMTailor.from_dict(_recipe_doc(run_dir)).merge(tmp_path / "first")
            victim = sorted((tmp_path / "blobs" / "objects").glob("*.blob"))[0]
            group = read_blob(victim)
            write_blob(victim, dict(group, exp_avg=group["exp_avg"] + 1))
            cache.clear()
            misses, store_hits = cache.stats.misses, cache.stats.store_hits
            LLMTailor.from_dict(_recipe_doc(run_dir)).merge(tmp_path / "second")
        finally:
            set_group_cache(previous)
        assert cache.stats.misses - misses == 1 and cache.stats.store_hits > store_hits
        assert verify_checkpoint(tmp_path / "second").ok
        assert _digest(tmp_path / "second") == _digest(tmp_path / "first")
        assert victim.exists() and BlobStore(tmp_path / "blobs").get(victim.stem) is None

    def test_metadata_memo(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"payload")
        cache = GroupCache()
        calls = []

        def loader(p):
            calls.append(p)
            return {"meta": 1}

        meta1, fresh1 = cache.metadata(path, loader)
        meta2, fresh2 = cache.metadata(path, loader)
        assert fresh1 and not fresh2 and meta1 == meta2 and len(calls) == 1
        path.write_bytes(b"payload-changed!")  # size changes -> memo invalid
        _, fresh3 = cache.metadata(path, loader)
        assert fresh3 and len(calls) == 2


# ---------------------------------------------------------------------------
# retention <-> blob store ownership (the dedup'd-group deletion fix)
# ---------------------------------------------------------------------------

class TestRetentionBlobOwnership:
    def test_shared_group_survives_one_tenants_prune(self, run_dir, tmp_path):
        # Two tenants with byte-identical runs (copied): their shard
        # groups dedup to the same objects in the store.
        run_a = tmp_path / "tenant-a"
        run_b = tmp_path / "tenant-b"
        shutil.copytree(run_dir, run_a)
        shutil.copytree(run_dir, run_b)
        store = BlobStore(tmp_path / "blobs")

        from repro.serve.jobs import register_checkpoint_refs

        timeline = JobTimeline()
        key_count = 0
        for run, tenant in ((run_a, "a"), (run_b, "b")):
            for step in (8, 16, 24):
                added = register_checkpoint_refs(
                    store, tenant, run / f"checkpoint-{step}", timeline)
                key_count += added
        stats = store.stats()
        assert stats["dedup_factor"] == 2.0  # every key claimed by both

        # Seed one shared object so the sweep has something to protect.
        from repro.serve.jobs import _shard_group_keys
        from repro.io.layout import CheckpointPaths

        keys = _shard_group_keys(CheckpointPaths(run_a / "checkpoint-8"))
        store.put(keys[0], {"fp32": np.zeros(2, dtype=np.float32)})

        # Tenant a's retention prunes checkpoint-8 (oldest).  The object
        # is still owned by tenant b -> must survive.
        removed = prune_checkpoints(run_a, keep_last=2, blob_store=store,
                                    tenant="a")
        assert removed == [8]
        assert store.contains(keys[0])
        # Tenant b prunes too: last owner gone -> object reclaimed.
        prune_checkpoints(run_b, keep_last=2, blob_store=store, tenant="b")
        assert not store.contains(keys[0])

    def test_prune_without_store_unchanged(self, run_dir, tmp_path):
        run = tmp_path / "plain"
        shutil.copytree(run_dir, run)
        assert prune_checkpoints(run, keep_last=2) == [8]


# ---------------------------------------------------------------------------
# job timeline + journal
# ---------------------------------------------------------------------------

class TestJobTimeline:
    def test_mirrors_fault_timeline_api(self):
        tl = JobTimeline()
        tl.record("admitted", total_bytes=10)
        tl.record("start", worker=0)
        assert tl.kinds() == ["admitted", "start"]
        doc = tl.to_dict()
        assert [e["kind"] for e in doc["events"]] == ["admitted", "start"]
        assert all(e["t"] >= 0 for e in doc["events"])
        assert "2 event(s)" in tl.summary()

    def test_counters_serialize(self):
        tl = JobTimeline()
        tl.cache_hits = 3
        assert tl.to_dict()["cache_hits"] == 3


class TestJournal:
    def test_replay_pairs_submit_done(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        spec = _plan_spec()
        journal.submitted("job-1", spec)
        journal.submitted("job-2", spec)
        journal.finished("job-1", "done")
        journal.close()
        pending = replay_journal(path)
        assert [job_id for job_id, _ in pending] == ["job-2"]
        assert pending[0][1] == spec

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.submitted("job-1", _plan_spec())
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"event":"done","id":"jo')  # crash mid-append
        assert [j for j, _ in replay_journal(path)] == ["job-1"]

    def test_malformed_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('not json\n{"event":"done","id":"x"}\n')
        with pytest.raises(ConfigError):
            replay_journal(path)

    def test_missing_journal_is_empty(self, tmp_path):
        assert replay_journal(tmp_path / "absent.jsonl") == []

    @pytest.mark.parametrize("line", [
        "[1,2]", "3", '"submit"', "null", "1" * 5000, "[" * 100_000 + "]" * 100_000,
    ], ids=["array", "number", "string", "null", "5000-digit number", "100000-deep array"])
    def test_a_line_that_is_not_an_object_names_its_line(self, tmp_path, line):
        """A refusal naming ``path:line``, never an ``AttributeError``,
        ``ValueError`` or ``RecursionError`` out of ``MergeService.start``."""
        path = tmp_path / "j.jsonl"
        path.write_text(line + "\n" + json.dumps({"event": "done", "id": "x"}) + "\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:1: "):
            replay_journal(path)

    @given(records=st.lists(_journal_records(), max_size=5))
    @settings(max_examples=300, deadline=None, derandomize=not _NIGHTLY)
    def test_replay_journal_raises_only_config_error(self, tmp_path_factory, records):
        """Any sequence of JSON lines replays to jobs or is refused with a
        ``ConfigError`` naming ``path:line`` — nothing else escapes."""
        path = tmp_path_factory.getbasetemp() / "journal-property.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        try:
            replay = replay_journal(path)
        except ConfigError as exc:
            assert str(exc).startswith(f"{path}:")
            return
        assert all(isinstance(spec, JobSpec) for _, spec in replay)

    @staticmethod
    def _journal_with_removed_param(path, *, finished: bool) -> None:
        """A reshard journaled by a daemon that still accepted ``stream``."""
        job = {"tenant": "t", "kind": "reshard", "priority": 0, "params": {
            "checkpoint": "c", "output": "o", "target_world_size": 2, "stream": True}}
        records = [{"event": "submit", "id": "job-1", "job": _plan_spec().to_dict()},
                   {"event": "submit", "id": "job-2", "job": job},
                   {"event": "done", "id": "job-1", "status": "done"}]
        if finished:
            records.append({"event": "done", "id": "job-2", "status": "done"})
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    def test_finished_job_with_removed_param_does_not_block_start(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._journal_with_removed_param(path, finished=True)
        assert replay_journal(path) == []
        sock = _short_socket()
        with serve_in_thread(ServeConfig(socket_path=sock, journal_path=str(path))):
            with ServeClient(sock) as client:
                assert client.stats()["jobs"]["replayed"] == 0

    def test_job_whose_checkpoint_vanished_fails_instead_of_wedging_start(
        self, run_dir, tmp_path
    ):
        """At the parent ``start`` raised ``ConfigError: reshard source
        checkpoint not found`` on every restart: the daemon never came up."""
        gone = tmp_path / "checkpoint-24"
        shutil.copytree(run_dir / "checkpoint-24", gone)
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.submitted("job-000007", JobSpec(tenant="t", kind="reshard", params={
            "checkpoint": str(gone), "output": str(tmp_path / "o"), "target_world_size": 3}))
        journal.close()
        shutil.rmtree(gone)
        sock = _short_socket()
        config = ServeConfig(socket_path=sock, workers=1, journal_path=str(path))
        with serve_in_thread(config):
            with ServeClient(sock) as client:
                assert client.ping()
                job = client.status("job-000007")["job"]
                assert job["status"] == "failed"
                assert "checkpoint not found" in job["error"]
                stats = client.stats()
                assert stats["jobs"]["replayed"] == 1 and stats["jobs"]["failed"] == 1
                assert stats["tenants"]["t"]["inflight"] == 0
        assert replay_journal(path) == []  # journaled failed: a restart replays nothing
        with serve_in_thread(config):
            with ServeClient(sock) as client:
                assert client.stats()["jobs"]["replayed"] == 0

    def test_pending_job_with_removed_param_names_line_and_key(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._journal_with_removed_param(path, finished=False)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: .*'stream'"):
            replay_journal(path)
        # A merge journaled by a daemon that still accepted ``workers``.
        job = {"tenant": "t", "kind": "merge", "priority": 0, "params": {
            "recipe": "r.yaml", "workers": 2}}
        path.write_text(json.dumps({"event": "submit", "id": "job-1", "job": job}) + "\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:1: .*'workers'"):
            replay_journal(path)


# ---------------------------------------------------------------------------
# the daemon, end to end
# ---------------------------------------------------------------------------

class TestServerEndToEnd:
    def test_ping_status_stats_and_bad_ops(self):
        sock = _short_socket()
        with serve_in_thread(ServeConfig(socket_path=sock, workers=1)):
            with ServeClient(sock) as client:
                assert client.ping()
                bad = client.request({"op": "nope"})
                assert not bad["ok"] and "unknown op" in bad["error"]
                missing = client.status("job-999999")
                assert not missing["ok"]
                # A malformed submit is rejected but the connection lives.
                rejected = client.submit({"tenant": "t", "kind": "bogus"})
                assert not rejected["ok"]
                assert client.ping()
                assert client.stats()["jobs"]["submitted"] == 0

    def test_submit_cost_matches_offline_plan(self, run_dir, tmp_path):
        from repro.strategies import plan_serve_cost

        job_file = tmp_path / "jobs.json"
        job_file.write_text(json.dumps({"jobs": [
            {"tenant": "t", "kind": "diff", "params": {
                "checkpoint_a": str(run_dir / "checkpoint-16"),
                "checkpoint_b": str(run_dir / "checkpoint-24")}},
            {"tenant": "t", "kind": "plan", "params": {
                "model": "tiny-qwen", "strategy": "full"}},
            *({"tenant": "t", "kind": "merge", "params": {
                "recipe_doc": _recipe_doc(run_dir), "cache_mode": mode,
                "output": str(tmp_path / mode)}} for mode in ("per-checkpoint", "none")),
            {"tenant": "t", "kind": "reshard", "params": {
                "checkpoint": str(run_dir / "checkpoint-24"),
                "output": str(tmp_path / "re3"), "target_world_size": 3}},
        ]}))
        offline = plan_serve_cost(job_file)
        assert [e["kind"] for e in offline.entries] == [
            "diff", "plan", "merge", "merge", "reshard"]
        sock = _short_socket()
        with serve_in_thread(ServeConfig(socket_path=sock, workers=1)):
            with ServeClient(sock) as client:
                for spec, expected in zip(load_job_file(job_file),
                                          offline.entries):
                    response = client.submit(spec)
                    assert response["ok"]
                    # The live server charges exactly the offline estimate.
                    assert response["cost"] == expected["cost"]

    def test_quota_rejection_carries_retry_after(self, run_dir):
        sock = _short_socket()
        config = ServeConfig(socket_path=sock, workers=1,
                             quota=TenantQuota(max_queued_bytes=1))
        spec = {"tenant": "t", "kind": "diff", "params": {
            "checkpoint_a": str(run_dir / "checkpoint-16"),
            "checkpoint_b": str(run_dir / "checkpoint-24")}}
        with serve_in_thread(config):
            with ServeClient(sock) as client:
                response = client.submit(spec)
                assert not response["ok"]
                assert response["retry_after"] >= 0.05
                assert "max_queued_bytes" in response["error"]
                assert client.stats()["jobs"]["rejected"] == 1

    def test_unestimatable_job_rejected_at_submit(self, tmp_path):
        # Admission estimates from disk state: a job over checkpoints
        # that do not exist fails the submit, never reaching the queue.
        sock = _short_socket()
        with serve_in_thread(ServeConfig(socket_path=sock, workers=1)):
            with ServeClient(sock) as client:
                response = client.submit({"tenant": "t", "kind": "diff",
                                          "params": {
                                              "checkpoint_a": str(tmp_path / "a"),
                                              "checkpoint_b": str(tmp_path / "b")}})
                assert not response["ok"]
                assert "not found" in response["error"]
                assert client.stats()["jobs"]["submitted"] == 0

    def test_hostile_manifest_costs_one_listing_not_the_submit_path(self, run_dir, tmp_path):
        """``world_size: 10**7`` used to make the estimate stat ten million
        shard paths inside the daemon; the checked manifest refuses it."""
        import shutil
        from time import perf_counter

        from repro.util.jsonio import read_json, write_json_atomic

        hostile = tmp_path / "checkpoint-16"
        shutil.copytree(run_dir / "checkpoint-16", hostile)
        manifest = hostile / "tailor_manifest.json"
        write_json_atomic(manifest, {**read_json(manifest), "world_size": 10**7})
        sock = _short_socket()
        with serve_in_thread(ServeConfig(socket_path=sock, workers=1)):
            with ServeClient(sock) as client:
                start = perf_counter()
                response = client.submit({"tenant": "t", "kind": "reshard", "params": {
                    "checkpoint": str(hostile), "output": str(tmp_path / "out"),
                    "target_world_size": 3}})
                assert perf_counter() - start < 1.0
                assert not response["ok"] and "missing shard for rank 2" in response["error"]
                assert client.stats()["jobs"]["submitted"] == 0

    @pytest.mark.parametrize("defect", ["missing source", "bogus cache_mode"])
    def test_unpriceable_merge_refused_at_submit_and_charges_nothing(
        self, run_dir, tmp_path, defect
    ):
        """At the parent a merge naming a missing source was admitted and
        charged as if it were the base, and ``cache_mode: bogus`` was
        admitted and charged, failing only at execution."""
        doc, params = _recipe_doc(run_dir), {}
        if defect == "missing source":
            doc["slices"] = [{"slot": "layers.0", "source": str(tmp_path / "missing-ckpt")}]
        else:
            params["cache_mode"] = "bogus"
        sock = _short_socket()
        with serve_in_thread(ServeConfig(socket_path=sock, workers=1)):
            with ServeClient(sock) as client:
                response = client.submit({"tenant": "t", "kind": "merge", "params": {
                    "recipe_doc": doc, "output": str(tmp_path / "m"), **params}})
                assert not response["ok"] and "cost" not in response
                assert ("checkpoint not found" if defect == "missing source"
                        else "cache_mode") in response["error"]
                stats = client.stats()
                assert stats["jobs"]["submitted"] == 0
                assert stats["tenants"].get("t", {"queued_bytes": 0})["queued_bytes"] == 0

    def test_failed_job_reports_error(self, run_dir, tmp_path):
        # A job that passes admission but whose engine run fails turns
        # into status=failed with the engine error, not a dead server.
        # (A missing source no longer passes admission: the merge's price
        # looks every source up.  Writing over a source is the engine's
        # refusal, before anything is written.)
        sock = _short_socket()
        with serve_in_thread(ServeConfig(socket_path=sock, workers=1)):
            with ServeClient(sock) as client:
                response = client.submit({
                    "tenant": "t", "kind": "merge",
                    "params": {"recipe_doc": _recipe_doc(run_dir),
                               "output": str(run_dir / "checkpoint-24")}})
                assert response["ok"]
                job = client.wait(response["id"], timeout=120)["job"]
                assert job["status"] == "failed"
                assert "in place" in job["error"]
                assert client.ping()  # service survived the failure

    def test_job_timeline_in_response(self, run_dir, tmp_path):
        sock = _short_socket()
        blob_root = tmp_path / "blobs"
        config = ServeConfig(socket_path=sock, workers=1,
                             blob_root=str(blob_root))
        with serve_in_thread(config):
            with ServeClient(sock) as client:
                job = client.submit_and_wait({
                    "tenant": "t", "kind": "merge",
                    "params": {"recipe_doc": _recipe_doc(run_dir),
                               "output": str(tmp_path / "m1")}})
                assert job["status"] == "done"
                kinds = [e["kind"] for e in job["timeline"]["events"]]
                assert kinds[0] == "admitted" and "merged" in kinds
                assert job["timeline"]["blob_refs_added"] > 0

    def test_journal_replay_completes_lost_job(self, run_dir, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        out = tmp_path / "replayed-merge"
        # Simulate a daemon that crashed after admitting a merge job.
        journal = JobJournal(journal_path)
        journal.submitted("job-000042", JobSpec(
            tenant="t", kind="merge",
            params={"recipe_doc": _recipe_doc(run_dir), "output": str(out)}))
        journal.close()

        sock = _short_socket()
        config = ServeConfig(socket_path=sock, workers=1,
                             journal_path=str(journal_path))
        with serve_in_thread(config):
            with ServeClient(sock) as client:
                job = client.wait("job-000042", timeout=120)["job"]
                assert job["status"] == "done"
                assert client.stats()["jobs"]["replayed"] == 1
        assert out.exists()
        # The journal now records the replayed job as done.
        assert replay_journal(journal_path) == []

    def test_replay_seeds_job_seq_and_charges_tenant(self, tmp_path):
        # New ids must never collide with replayed ones, and a replayed
        # job's budget must be charged/released symmetrically.
        journal_path = tmp_path / "j.jsonl"
        journal = JobJournal(journal_path)
        journal.submitted("job-000042", _plan_spec())
        journal.close()

        sock = _short_socket()
        config = ServeConfig(socket_path=sock, workers=1,
                             journal_path=str(journal_path))
        with serve_in_thread(config) as handle:
            with ServeClient(sock) as client:
                response = client.submit(_plan_spec())
                assert response["ok"]
                assert response["id"] == "job-000043"  # seeded past replay
                assert client.wait(response["id"], timeout=60)["job"][
                    "status"] == "done"
                assert client.wait("job-000042", timeout=60)["job"][
                    "status"] == "done"
                stats = client.stats()
                assert stats["jobs"]["replayed"] == 1
                # force-admit charge fully released on finish
                assert stats["tenants"]["t"]["inflight"] == 0
            service = handle.service
        assert set(service.jobs) == {"job-000042", "job-000043"}

    def test_submit_during_queue_close_releases_charge(self, tmp_path):
        # The drain race: shutdown closes the queue while a submit's
        # cost estimate is off in the executor.  The client must get the
        # normal draining response, the admission charge must be
        # released, and the journaled submit must not replay.
        journal_path = tmp_path / "j.jsonl"
        sock = _short_socket()
        config = ServeConfig(socket_path=sock, workers=1,
                             journal_path=str(journal_path))
        handle = serve_in_thread(config)
        service = handle.service
        original = service._estimate

        def estimate_then_close(spec):
            service.queue._closed = True  # shutdown wins the race
            return original(spec)

        service._estimate = estimate_then_close
        with ServeClient(sock) as client:
            response = client.submit(_plan_spec())
        assert not response["ok"]
        assert response["error"] == "service is draining"
        assert response["retry_after"] == 1.0
        assert service.admission.stats()["t"]["inflight"] == 0  # released
        assert service.jobs == {}  # untracked
        handle.stop()
        assert replay_journal(journal_path) == []  # journaled terminal

    def test_finished_jobs_evicted_beyond_keep(self):
        sock = _short_socket()
        config = ServeConfig(socket_path=sock, workers=1, keep_finished=2)
        with serve_in_thread(config) as handle:
            with ServeClient(sock) as client:
                ids = []
                for _ in range(4):
                    job = client.submit_and_wait(_plan_spec(), timeout=60)
                    assert job["status"] == "done"
                    ids.append(job["id"])
                assert not client.status(ids[0])["ok"]  # evicted
                assert client.status(ids[-1])["ok"]  # retained
            assert set(handle.service.jobs) == set(ids[-2:])

    def test_max_jobs_drains_and_exits(self):
        sock = _short_socket()
        handle = serve_in_thread(
            ServeConfig(socket_path=sock, workers=1, max_jobs=2))
        with ServeClient(sock) as client:
            for _ in range(2):
                job = client.submit_and_wait(_plan_spec())
                assert job["status"] == "done"
        handle.thread.join(timeout=30)
        assert not handle.thread.is_alive()

    def test_drain_flushes_a_reply_written_after_the_last_job(self, monkeypatch):
        """Teardown must not outrun a waiter: the final ``wait`` reply is
        written *after* the --max-jobs drain began (forced here, not left
        to scheduling), and the client still receives it."""
        import repro.serve.server as server_mod
        from repro.serve.server import MergeService

        wait_arrived = threading.Event()
        real_execute, real_wait = server_mod.execute_job, MergeService._op_wait

        def gated_execute(job, **kwargs):
            # The job cannot finish before its waiter is parked.
            assert wait_arrived.wait(timeout=30)
            return real_execute(job, **kwargs)

        async def slow_wait(self, request):
            wait_arrived.set()
            response = await real_wait(self, request)
            await asyncio.sleep(0.3)  # far past the drain's own few ms
            return response

        monkeypatch.setattr(server_mod, "execute_job", gated_execute)
        monkeypatch.setattr(MergeService, "_op_wait", slow_wait)
        sock = _short_socket()
        handle = serve_in_thread(
            ServeConfig(socket_path=sock, workers=1, max_jobs=1))
        with ServeClient(sock) as client:
            job = client.submit_and_wait(_plan_spec())
            assert job["status"] == "done"
        handle.thread.join(timeout=30)
        assert not handle.thread.is_alive()

    def test_max_jobs_drain_answers_a_request_sent_after_the_last_job(self):
        """The job beats its own ``wait`` line: the --max-jobs drain has
        begun before the request arrives, and the open connection is
        still served until the client closes it."""
        import time

        sock = _short_socket()
        handle = serve_in_thread(
            ServeConfig(socket_path=sock, workers=1, max_jobs=1))
        with ServeClient(sock) as client:
            response = client.submit(_plan_spec())
            assert response["ok"]
            deadline = time.monotonic() + 60
            while handle.service.counters["completed"] < 1:
                assert time.monotonic() < deadline, "the job never finished"
                time.sleep(0.01)
            time.sleep(1.0)  # the drain runs to its wait for open connections
            assert handle.thread.is_alive()
            job = client.wait(response["id"], timeout=60)["job"]
            assert job["status"] == "done"
            assert client.submit(_plan_spec())["error"] == "service is draining"
        handle.thread.join(timeout=30)
        assert not handle.thread.is_alive()

    def test_cache_counts_are_the_jobs_own_lookups(self, monkeypatch):
        """Two jobs overlap on two workers, making 3 and 5 cache misses:
        each timeline counts its own lookups, not the shared counters'
        movement while it ran."""
        import repro.serve.server as server_mod

        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the pool is min(workers, cpus)
        both_running, both_looked_up = threading.Barrier(2), threading.Barrier(2)
        sock = _short_socket()
        handle = serve_in_thread(ServeConfig(socket_path=sock, workers=2))
        misses = {"a": 3, "b": 5}

        def overlapping_lookups(job, **kwargs):
            both_running.wait(timeout=30)
            for i in range(misses[job.spec.tenant]):
                assert handle.service.cache.get(f"absent-{job.spec.tenant}-{i}") is None
            both_looked_up.wait(timeout=30)
            return {}

        monkeypatch.setattr(server_mod, "execute_job", overlapping_lookups)
        with handle, ServeClient(sock) as client:
            ids = {t: client.submit(_plan_spec(t))["id"] for t in misses}
            for tenant, job_id in ids.items():
                job = client.wait(job_id, timeout=60)["job"]
                assert job["status"] == "done", job
                assert job["timeline"]["cache_misses"] == misses[tenant]
                assert job["timeline"]["cache_hits"] == 0
            assert client.stats()["cache"]["misses"] == 8
        assert not handle.thread.is_alive()

    def test_shutdown_op_drains(self):
        sock = _short_socket()
        handle = serve_in_thread(ServeConfig(socket_path=sock, workers=1))
        with ServeClient(sock) as client:
            response = client.submit(_plan_spec())
            assert response["ok"]
            assert client.shutdown()["ok"]
        handle.thread.join(timeout=30)
        assert not handle.thread.is_alive()
        assert handle.service.jobs[response["id"]].status == "done"  # drained

    def test_served_merge_never_leaves_its_worker_thread(
        self, run_dir, tmp_path, monkeypatch
    ):
        """A merge job's ``workers`` param once forked the daemon and
        bypassed its group cache.  The param is refused at submit, and a
        recipe's ``options.workers`` runs in-process, where the cache is."""
        import repro.core.optimizer_merge as optimizer_merge

        def no_pool(*args, **kwargs):
            raise AssertionError("a served merge created a process pool")

        # Cores to spare, so only the forced ``workers=1`` keeps the merge in-process.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(optimizer_merge, "ProcessPoolExecutor", no_pool)
        doc = {**_recipe_doc(run_dir), "options": {"workers": 4}}
        sock = _short_socket()
        with serve_in_thread(ServeConfig(socket_path=sock, workers=1)):
            with ServeClient(sock) as client:
                refused = client.submit({"tenant": "t", "kind": "merge", "params": {
                    "recipe_doc": _recipe_doc(run_dir), "output": str(tmp_path / "w"),
                    "workers": 2}})
                assert not refused["ok"] and "'workers'" in refused["error"]
                assert client.stats()["jobs"]["submitted"] == 0
                runs = []
                for i in range(2):
                    job = client.submit_and_wait({"tenant": "t", "kind": "merge", "params": {
                        "recipe_doc": doc, "output": str(tmp_path / f"m{i}")}})
                    assert job["status"] == "done", job
                    runs.append(client.stats()["cache"])
        first, second = runs
        assert first["hits"] == 0 and first["misses"] > 0
        assert second["hits"] - first["hits"] == first["misses"]
        assert second["misses"] == first["misses"]
        assert _digest(tmp_path / "m0") == _digest(tmp_path / "m1")


class TestSigterm:
    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        import signal
        import subprocess
        import sys
        import time

        sock = _short_socket()
        journal = tmp_path / "j.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket", sock,
             "--workers", "1", "--journal", str(journal)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ,
                 "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        )
        try:
            deadline = time.monotonic() + 30
            while not os.path.exists(sock):
                assert time.monotonic() < deadline, "server never bound"
                assert proc.poll() is None, proc.stdout.read()
                time.sleep(0.05)
            with ServeClient(sock) as client:
                response = client.submit(_plan_spec())
                assert response["ok"]
                client.wait(response["id"], timeout=60)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out
        assert "served 1 job(s)" in out
        # The drained job is journaled done: nothing replays next boot.
        assert replay_journal(journal) == []


class TestConcurrentClientsBitwise:
    """N async clients, interleaved merge/reshard jobs, bitwise outputs."""

    def test_concurrent_matches_serial_one_shot(self, run_dir, tmp_path):
        tenants = ["alpha", "beta", "gamma", "delta"]
        runs = {}
        for tenant in tenants:
            run = tmp_path / f"run-{tenant}"
            shutil.copytree(run_dir, run)
            runs[tenant] = run

        # Serial one-shot references, one per unique job shape.
        ref_merge = {}
        ref_reshard = {}
        for tenant, run in runs.items():
            out = tmp_path / f"ref-merge-{tenant}"
            LLMTailor.from_dict(_recipe_doc(run)).merge(out)
            ref_merge[tenant] = _digest(out)
            out = tmp_path / f"ref-reshard-{tenant}"
            reshard_checkpoint(run / "checkpoint-24", out, 3)
            ref_reshard[tenant] = _digest(out)

        sock = _short_socket()
        config = ServeConfig(
            socket_path=sock, workers=2,
            blob_root=str(tmp_path / "blobs"),
            quota=TenantQuota(max_inflight=8, max_queued_bytes=1 << 32),
        )
        outputs: dict[str, tuple[str, Path]] = {}
        errors: list[str] = []

        def client_thread(tenant: str, run: Path) -> None:
            try:
                with ServeClient(sock) as client:
                    jobs = []
                    for i in range(2):  # interleave merge and reshard
                        merge_out = tmp_path / f"srv-merge-{tenant}-{i}"
                        r = client.submit(JobSpec(
                            tenant=tenant, kind="merge",
                            params={"recipe_doc": _recipe_doc(run),
                                    "output": str(merge_out)}))
                        assert r["ok"], r
                        jobs.append((r["id"], "merge", merge_out))
                        reshard_out = tmp_path / f"srv-reshard-{tenant}-{i}"
                        r = client.submit(JobSpec(
                            tenant=tenant, kind="reshard",
                            params={"checkpoint": str(run / "checkpoint-24"),
                                    "output": str(reshard_out),
                                    "target_world_size": 3}))
                        assert r["ok"], r
                        jobs.append((r["id"], "reshard", reshard_out))
                    for job_id, kind, out in jobs:
                        result = client.wait(job_id, timeout=300)
                        assert result["ok"] and result["job"]["status"] == "done", result
                        outputs[f"{tenant}:{job_id}"] = (f"{tenant}:{kind}", out)
            except Exception as exc:  # surfaced below: threads may not fail a test
                errors.append(f"{tenant}: {exc!r}")

        with serve_in_thread(config) as handle:
            threads = [threading.Thread(target=client_thread, args=(t, runs[t]))
                       for t in tenants]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            assert not errors, errors
            stats = handle.service.stats()

        # Every served output is bitwise-identical to its one-shot twin.
        assert len(outputs) == len(tenants) * 4
        for tagged, (key, out) in outputs.items():
            tenant, kind = key.split(":")
            expected = (ref_merge if kind == "merge" else ref_reshard)[tenant]
            assert _digest(out) == expected, f"{tagged} diverged from one-shot"

        # Identical content across tenants dedup'd in the blob store.
        assert stats["blob_store"]["dedup_factor"] >= 2.0
        # Repeat merges were served from the cross-request cache.
        assert stats["cache"]["hits"] > 0
