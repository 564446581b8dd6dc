#!/usr/bin/env python3
"""Merge service: two tenants share one daemon's cache, bitwise-safe.

Walks the serve subsystem end to end:

1. train a tiny run and hand identical copies to two "tenants";
2. start the merge service in-process (`serve_in_thread`) with a
   content-addressed blob store;
3. each tenant submits the same merge recipe over the socket — the
   second tenant's job hits the cross-request group cache, and the
   blob store keeps exactly one copy of every shared shard group;
4. verify the served outputs are BITWISE IDENTICAL to a one-shot
   `LLMTailor.merge()` of the same recipe (modulo the manifest's
   self-referential output path).

Run:  python examples/serve_client.py
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from pathlib import Path

from repro import TrainConfig, Trainer
from repro.core.tailor import LLMTailor
from repro.serve import JobSpec, ServeClient, ServeConfig, serve_in_thread
from repro.util.humanize import format_bytes

TENANTS = ("alpha", "beta")


def digest(root: Path) -> str:
    """Checkpoint content hash with the output path self-reference masked."""
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


def recipe_doc(run: Path) -> dict:
    return {
        "base_checkpoint": str(run / "checkpoint-24"),
        "slices": [{"slot": "layers.0-1", "source": str(run / "checkpoint-16")}],
    }


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="llmtailor-serve-", dir="/tmp"))
    print(f"working directory: {workdir}\n")

    print("=== phase 1: train a tiny run, copy it to two tenants ===")
    run = workdir / "run"
    Trainer(TrainConfig(
        model="tiny-untied", task="cpt", total_steps=24,
        checkpoint_strategy="full", checkpoint_interval=8,
        output_dir=str(run), world_size=2, micro_batch_size=2,
        grad_accum_steps=1, seq_len=32, log_every=100,
    )).train()
    runs = {}
    for tenant in TENANTS:
        runs[tenant] = workdir / f"tenant-{tenant}"
        shutil.copytree(run, runs[tenant])
    print(f"tenants: {', '.join(TENANTS)} (byte-identical checkpoint trails)")

    print("\n=== phase 2: one-shot reference merges (no daemon) ===")
    refs = {}
    for tenant in TENANTS:
        out = workdir / f"ref-{tenant}"
        LLMTailor.from_dict(recipe_doc(runs[tenant])).merge(out)
        refs[tenant] = digest(out)
    print("reference digests computed")

    print("\n=== phase 3: the same merges, served over the socket ===")
    sock = str(workdir / "s.sock")
    config = ServeConfig(socket_path=sock, workers=2,
                         blob_root=str(workdir / "blobs"))
    with serve_in_thread(config) as handle:
        with ServeClient(sock) as client:
            for tenant in TENANTS:
                out = workdir / f"served-{tenant}"
                job = client.submit_and_wait(JobSpec(
                    tenant=tenant, kind="merge",
                    params={"recipe_doc": recipe_doc(runs[tenant]),
                            "output": str(out)}), timeout=300)
                assert job["status"] == "done", job.get("error")
                timeline = job["timeline"]
                print(f"  {tenant}: {job['id']} done, "
                      f"cache hits={timeline['cache_hits']}, "
                      f"misses={timeline['cache_misses']}")
                assert digest(out) == refs[tenant], (
                    f"served merge for {tenant} diverged from one-shot output")
        stats = handle.service.stats()

    cache = stats["cache"]
    blobs = stats["blob_store"]
    print(f"\nserved output is BITWISE IDENTICAL to the one-shot merge "
          f"for all {len(TENANTS)} tenants")
    print(f"cache hit rate : {cache['hit_rate']:.1%}")
    print(f"blob store     : {blobs['objects']} objects for "
          f"{blobs['total_refs']} refs "
          f"({format_bytes(blobs['object_bytes'])} stored, "
          f"dedup {blobs['dedup_factor']:.1f}x)")
    assert cache["hits"] > 0, "second tenant should hit the shared cache"
    assert blobs["dedup_factor"] >= 2.0, "identical tenants should dedup"
    print("\ntwo tenants, one decode — the shared cache and blob store paid off.")


if __name__ == "__main__":
    main()
