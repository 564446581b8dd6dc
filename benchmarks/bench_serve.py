"""Merge-service load test: multi-tenant mixed workload over one daemon.

The ablation study (``bench_ablation_merge``) shows a warm source cache
is worth ~3.6x on repeated merges; the serve subsystem is what turns
that observation into an architecture — a shared daemon whose
cross-request group cache and content-addressed blob store let many
tenants pay the decode cost once.  This scenario drives a realistic
mix (plan/diff/merge/reshard) from four tenant threads through one
service and reports what the one-shot CLI cannot: request latency
percentiles (p50/p99) and the service-wide cache hit rate.

Every merge and reshard output is verified bitwise-identical to a
serial one-shot run of the same job (modulo the manifest's
self-referential output path), and the run *fails* if the cache hit
rate falls below threshold.

1000 requests across 4 tenants.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
import statistics
import threading
import time
from pathlib import Path

import pytest

from _bench_common import emit

from repro.core.tailor import LLMTailor
from repro.dist.reshard import reshard_checkpoint
from repro.serve import JobSpec, ServeClient, ServeConfig, TenantQuota, serve_in_thread
from repro.train import TrainConfig, Trainer
from repro.util.tables import Table

TENANTS = ("alpha", "beta", "gamma", "delta")
REQUESTS_PER_TENANT = 250  # 1000 in total
# Per 10 requests: 5 plan, 3 diff, 1 merge, 1 reshard.
MIX = ("plan", "diff", "plan", "merge", "plan", "diff", "reshard",
       "plan", "diff", "plan")
HIT_RATE_FLOOR = 0.5

_counter = itertools.count()


def _digest(root: Path) -> str:
    """Checkpoint content hash, output-path self-reference masked."""
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
def tenant_runs(tmp_path_factory):
    """One short training run, copied per tenant (identical content).

    Byte-identical copies are the dedup-friendly case the blob store is
    built for: four tenants, one stored copy of every shard group.
    """
    base = tmp_path_factory.mktemp("serve-bench")
    run = base / "run"
    cfg = TrainConfig(
        model="tiny-untied", task="cpt", total_steps=24,
        checkpoint_strategy="full", checkpoint_interval=8,
        output_dir=str(run), world_size=2, micro_batch_size=2,
        grad_accum_steps=1, seq_len=32, log_every=100,
    )
    Trainer(cfg).train()
    runs = {}
    for tenant in TENANTS:
        dst = base / f"tenant-{tenant}"
        shutil.copytree(run, dst)
        runs[tenant] = dst

    # Serial one-shot references for the bitwise check, one per tenant
    # per kind (sources differ by path, so manifests differ per tenant).
    refs = {}
    for tenant, tdir in runs.items():
        out = base / f"ref-merge-{tenant}"
        LLMTailor.from_dict(_recipe_doc(tdir)).merge(out)
        refs[(tenant, "merge")] = _digest(out)
        out = base / f"ref-reshard-{tenant}"
        reshard_checkpoint(tdir / "checkpoint-24", out, 3)
        refs[(tenant, "reshard")] = _digest(out)
    return base, runs, refs


def _job_for(kind: str, tenant: str, run: Path, scratch: Path) -> tuple[JobSpec, Path | None]:
    if kind == "plan":
        return JobSpec(tenant=tenant, kind="plan", params={
            "model": "tiny-untied", "strategy": "full"}), None
    if kind == "diff":
        return JobSpec(tenant=tenant, kind="diff", params={
            "checkpoint_a": str(run / "checkpoint-16"),
            "checkpoint_b": str(run / "checkpoint-24")}), None
    out = scratch / f"{kind}-{tenant}-{next(_counter)}"
    if kind == "merge":
        return JobSpec(tenant=tenant, kind="merge", params={
            "recipe_doc": _recipe_doc(run), "output": str(out)}), out
    return JobSpec(tenant=tenant, kind="reshard", params={
        "checkpoint": str(run / "checkpoint-24"), "output": str(out),
        "target_world_size": 3}), out


def test_serve_mixed_workload(benchmark, tenant_runs, tmp_path):
    base, runs, refs = tenant_runs
    sock = str(tmp_path / "s.sock")
    assert len(sock) < 100, "AF_UNIX path limit"
    config = ServeConfig(
        socket_path=sock, workers=2,
        blob_root=str(tmp_path / "blobs"),
        quota=TenantQuota(max_inflight=16, max_queued_bytes=1 << 33),
    )
    latencies: dict[str, list[float]] = {k: [] for k in ("plan", "diff",
                                                         "merge", "reshard")}
    verified: list[tuple[str, str, Path]] = []
    errors: list[str] = []
    final_stats: dict = {}

    def tenant_thread(tenant: str) -> None:
        run = runs[tenant]
        try:
            with ServeClient(sock) as client:
                for i in range(REQUESTS_PER_TENANT):
                    kind = MIX[i % len(MIX)]
                    spec, out = _job_for(kind, tenant, run, tmp_path)
                    t0 = time.perf_counter()
                    job = client.submit_and_wait(spec, timeout=600)
                    latency = time.perf_counter() - t0
                    if job["status"] != "done":
                        errors.append(f"{tenant}/{kind}: {job.get('error')}")
                        return
                    latencies[kind].append(latency)
                    if out is not None:
                        verified.append((tenant, kind, out))
        except Exception as exc:
            errors.append(f"{tenant}: {exc!r}")

    def run_workload():
        with serve_in_thread(config) as handle:
            threads = [threading.Thread(target=tenant_thread, args=(t,))
                       for t in TENANTS]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            final_stats.update(handle.service.stats())

    benchmark.pedantic(run_workload, rounds=1, iterations=1)
    assert not errors, errors[:5]

    total = sum(len(v) for v in latencies.values())
    assert total == REQUESTS_PER_TENANT * len(TENANTS)

    # Bitwise: every served merge/reshard equals its one-shot twin.
    for tenant, kind, out in verified:
        assert _digest(out) == refs[(tenant, kind)], (
            f"served {kind} for {tenant} diverged from one-shot output")

    hit_rate = final_stats["cache"]["hit_rate"]
    dedup = final_stats["blob_store"]["dedup_factor"]
    assert hit_rate >= HIT_RATE_FLOOR, (
        f"cache hit rate {hit_rate:.2%} below floor {HIT_RATE_FLOOR:.0%}")
    assert dedup >= 2.0, f"dedup factor {dedup} (identical tenants should share)"

    table = Table(["Kind", "Requests", "p50 (s)", "p99 (s)"],
                  title=f"Merge service: {total} requests, {len(TENANTS)} "
                        f"tenants, hit rate {hit_rate:.1%}, dedup {dedup:.1f}x")
    for kind, vals in latencies.items():
        svals = sorted(vals)
        table.add_row([kind, len(vals), round(statistics.median(svals), 4),
                       round(svals[min(len(svals) - 1,
                                       int(len(svals) * 0.99))], 4)])
    emit("serve_mixed_workload", table.render())
