"""Turn one run's raw samples and spans into the metrics ``BENCHMARK.json`` names.

``end_to_end`` is what a user of the tool chain sees; it is computed from
stamps and replies only, so it is the same code with tracing on or off.
``per_layer`` decomposes those numbers by repository module, from the
spans of a traced run and from the accounting the program already returns
(``MergeResult``, ``ReshardReport``, ``CommStats``, job timelines, the
serve ``stats`` op).  Units and bounds live in ``BENCHMARK.json`` alone.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from lifecycle import MIX, TENANTS, WARM_CYCLES, WARM_STEPS, RunData

__all__ = ["end_to_end", "per_layer"]

MS = 1e3
LIGHT = ("plan", "diff")
HEAVY = ("merge", "reshard")


def _p50(samples: list[float]) -> float:
    return statistics.median(samples)


def _percentile(samples: list[float], pct: int) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


def _latencies(data: RunData, kinds: tuple[str, ...], key: str = "latency_s") -> list[float]:
    return [r[key] for r in data.requests if r["kind"] in kinds]


def _per_round(data: RunData, kinds: tuple[str, ...]) -> list[float]:
    """Mean latency of the given kinds within each round of the request mix.

    A round holds every kind in fixed numbers, so its mean is one
    population; pooling raw latencies instead would put the median between
    the clusters of two kinds, where it jumps from run to run.  A round
    that lost a request to a failure is left out.
    """
    rounds: dict[str, list[float]] = defaultdict(list)
    for r in data.requests:
        if r["kind"] in kinds:
            rounds[r["round"]].append(r["latency_s"])
    full = sum(MIX.count(k) for k in kinds)
    return [statistics.fmean(v) for v in rounds.values() if len(v) == full]


def _merges(data: RunData) -> list[float]:
    return [s for trail in TENANTS for s in data.merge_s.get(trail, [])]


def end_to_end(data: RunData) -> dict[str, float]:
    """The user-visible numbers, over the counted operations.

    The serial operations (step, stall, merge, load, reshard) are gated on
    their tenth percentile, the time of an operation the neighbours did not
    disturb: on a shared box the median follows the neighbours' load (the
    same code read 52 ms and 63 ms per step half an hour apart) while the
    tenth percentile holds.  Medians and tails are per-layer metrics.
    """
    counted_steps = data.steps - WARM_STEPS
    return {
        "setup_s": data.import_s + _p50(data.setup_samples),
        "peak_rss_mib": data.peak_rss_mib,
        "step_ms_p10": _percentile(data.step_s, 10) * MS,
        "tokens_per_s": data.tokens_per_step * counted_steps / data.train_wall_s,
        "ckpt_stall_ms_p10": _percentile(data.stall_s, 10) * MS,
        "ckpt_disk_bytes_per_event": data.trail_disk_bytes / data.trail_events,
        "merge_ms_p10": _percentile(_merges(data), 10) * MS,
        "resume_load_ms_p10": _percentile(data.resume_s, 10) * MS,
        "reshard_ms_p10": _percentile(data.reshard_s, 10) * MS,
        "serve_rps": data.serve_completed / data.serve_wall_s,
        "serve_heavy_ms_p50": _p50(_per_round(data, HEAVY)) * MS,
    }


class _Trace:
    """Spans indexed for the questions the per-layer metrics ask.

    ``total(name, root)`` sums the spans called ``name`` that lie under a
    root span called ``root`` (the harness's own span around one operation),
    leaving out warm-up operations and spans nested in a span of the same
    name.  ``inside(name, root)`` is the part of that time covered by the
    spans' direct children, so ``total - inside`` is self time.
    """

    def __init__(self, spans: list, warm_ops: set[str]) -> None:
        by_id = {s[0]: s for s in spans}
        self._total: dict[tuple[str, str], float] = defaultdict(float)
        self._calls: dict[tuple[str, str], int] = defaultdict(int)
        self._inside: dict[tuple[str, str], float] = defaultdict(float)
        self.count = len(spans)
        for sid, name, start, end, parent, op in spans:
            if op in warm_ops:
                continue
            root = by_id[sid]
            while root[4] != -1 and root[4] in by_id:
                root = by_id[root[4]]
            above = by_id.get(parent)
            if above is not None and above[1] == name:
                continue
            key = (name, root[1])
            self._total[key] += end - start
            self._calls[key] += 1
            if above is not None:
                self._inside[(above[1], root[1])] += end - start

    def total(self, name: str, root: str) -> float:
        return self._total[(name, root)]

    def calls(self, name: str, root: str) -> int:
        return self._calls[(name, root)]

    def inside(self, name: str, root: str) -> float:
        return self._inside[(name, root)]

    def coverage_pct(self, root: str) -> float:
        total = self.total(root, root)
        return 100.0 * self.inside(root, root) / total if total else 0.0


def per_layer(data: RunData, blob_logical_bytes: int, blob_disk_bytes: int) -> dict[str, float]:
    """One number per layer boundary, named ``<module>.<what>_<per what>``."""
    warm_ops = {f"step:{i}" for i in range(1, WARM_STEPS + 1)}
    for kind in ("merge", "resume", "reshard"):
        warm_ops |= {f"{kind}:{c}" for c in range(WARM_CYCLES * len(TENANTS))}
    warm_ops |= data.warm_jobs
    t = _Trace(data.spans, warm_ops)

    steps = data.steps - WARM_STEPS
    events = max(data.events, 1)
    merges = max(len(data.merge_results), 1)
    loads = max(len(data.resume_s), 1)
    reshards = max(len(data.reshard_reports), 1)
    served_heavy = max(len(_latencies(data, HEAVY)), 1)
    STEP, STALL = "train.step", "train.callbacks"
    MERGE, LOAD, RESHARD = "recover.merge", "recover.resume", "recover.reshard"
    JOB = "serve.jobs.execute"

    def per(name: str, root: str, ops: int) -> float:
        return t.total(name, root) * MS / ops

    def mean(rows: list[dict], key: str) -> float:
        # Cycles alternate the two trails; an even number weighs them equally,
        # so byte counts repeat exactly however many cycles a run fitted in.
        rows = rows[: len(rows) // 2 * 2] or rows
        return sum(r[key] for r in rows) / max(len(rows), 1)

    comm = t.total("dist.comm.reduce_scatter", STEP) + t.total("dist.comm.all_gather", STEP)
    blob_read_merge = t.total("io.blobfile.read", MERGE) + t.total("io.blobfile.read_selected", MERGE)
    blob_read_calls = t.calls("io.blobfile.read", MERGE) + t.calls("io.blobfile.read_selected", MERGE)
    bytes_loaded = mean(data.merge_results, "bytes_loaded")
    stats = data.serve_stats
    cache = stats.get("cache", {})
    meta_lookups = cache.get("meta_hits", 0) + cache.get("meta_passes", 0)
    jobs = stats.get("jobs", {})
    asked = jobs.get("submitted", 0) + jobs.get("rejected", 0)
    overhead = [r["latency_s"] - r["queue_s"] - r["exec_s"] for r in data.requests]
    queue = _latencies(data, LIGHT + HEAVY, "queue_s")

    out = {
        # -- train: one optimizer step --------------------------------------
        "data.batch_ms_per_step": per("data.batch", STEP, steps),
        "nn.forward_ms_per_step": per("nn.forward", STEP, steps),
        "autograd.backward_ms_per_step": per("autograd.backward", STEP, steps),
        "autograd.backward_calls_per_step": t.calls("autograd.backward", STEP) / steps,
        "optim.clip_ms_per_step": per("optim.clip", STEP, steps),
        "dist.zero.zero_grad_ms_per_step": per("dist.zero.zero_grad", STEP, steps),
        "dist.zero.step_ms_per_step": per("dist.zero.step", STEP, steps),
        "dist.zero.step_self_ms_per_step": (t.total("dist.zero.step", STEP) - comm) * MS / steps,
        "dist.comm.reduce_scatter_ms_per_step": per("dist.comm.reduce_scatter", STEP, steps),
        "dist.comm.all_gather_ms_per_step": per("dist.comm.all_gather", STEP, steps),
        "dist.comm.bytes_per_step": data.comm_bytes_per_step,
        "dist.comm.calls_per_step": data.comm_calls_per_step,
        "train.step_self_ms_per_step": (t.total(STEP, STEP) - t.inside(STEP, STEP)) * MS / steps,
        "train.callbacks_other_ms_per_step": data.other_callbacks_s * MS / steps,
        "train.step_ms_p50": _p50(data.step_s) * MS,
        "train.step_ms_p90": _percentile(data.step_s, 90) * MS,
        "train.steps": float(steps),
        # -- train: one checkpoint event (training is blocked) ---------------
        "strategies.plan_step_ms_per_step": per("strategies.plan_step", STALL, steps),
        "train.ckpt_stall_ms_p50": _p50(data.stall_s) * MS,
        "train.ckpt_stall_ms_p75": _percentile(data.stall_s, 75) * MS,
        "train.ckpt_events": float(data.events),
        "io.writer.save_ms_per_event": per("io.writer.save", STALL, events),
        "io.writer.self_ms_per_event":
            (t.total("io.writer.save", STALL) - t.inside("io.writer.save", STALL)) * MS / events,
        "io.writer.files_per_event": data.trail_files / data.trail_events,
        "dist.zero.rank_state_dict_ms_per_event": per("dist.zero.rank_state_dict", STALL, events),
        "io.tensorfile.write_ms_per_event": per("io.tensorfile.write", STALL, events),
        "io.blobfile.write_ms_per_event": per("io.blobfile.write", STALL, events),
        "io.blobfile.compress_ratio": blob_logical_bytes / max(blob_disk_bytes, 1),
        "io.storage.sim_ckpt_s_per_event": data.sim_ckpt_s_per_event,
        # -- recover: merge a partial trail ----------------------------------
        "core.autorecipe.ms_per_merge": per("core.autorecipe", MERGE, merges),
        "core.plan.resolve_ms_per_merge": per("core.plan.resolve", MERGE, merges),
        "core.weights.ms_per_merge": per("core.weights", MERGE, merges),
        "core.weights.bytes_read_per_merge": mean(data.merge_results, "weight_bytes_read"),
        "core.optimizer_merge.ms_per_merge": per("core.optimizer_merge", MERGE, merges),
        "core.optimizer_merge.load_ms_per_merge": mean(data.merge_results, "load_s") * MS,
        "core.optimizer_merge.write_ms_per_merge": mean(data.merge_results, "write_s") * MS,
        "core.optimizer_merge.files_loaded_per_merge": mean(data.merge_results, "files_loaded"),
        "core.optimizer_merge.bytes_loaded_per_merge": bytes_loaded,
        "core.optimizer_merge.read_amplification":
            bytes_loaded / max(mean(data.merge_results, "bytes_written"), 1.0),
        "core.configs.copy_ms_per_merge": per("core.configs.copy", MERGE, merges),
        "core.verify.ms_per_merge": per("core.verify", MERGE, merges),
        "core.tailor.merge_ms_p50": _p50(_merges(data)) * MS,
        "io.blobfile.read_ms_per_merge": blob_read_merge * MS / merges,
        "io.blobfile.read_calls_per_merge": blob_read_calls / merges,
        "io.blobfile.write_ms_per_merge": per("io.blobfile.write", MERGE, merges),
        # -- recover: load the merged checkpoint -----------------------------
        "train.resume_ms_p50": _p50(data.resume_s) * MS,
        "io.reader.load_ms_per_load": per("io.reader.load", LOAD, loads),
        "io.reader.self_ms_per_load":
            (t.total("io.reader.load", LOAD) - t.inside("io.reader.load", LOAD)) * MS / loads,
        "io.tensorfile.read_ms_per_load": per("io.tensorfile.read", LOAD, loads),
        "io.blobfile.read_ms_per_load": per("io.blobfile.read", LOAD, loads),
        "dist.zero.load_rank_state_ms_per_load": per("dist.zero.load_rank_state", LOAD, loads),
        # -- recover: reshard 2 -> 3 ------------------------------------------
        "dist.reshard.ms_p50": _p50(data.reshard_s) * MS,
        "dist.reshard.ms_per_reshard": per("dist.reshard", RESHARD, reshards),
        "dist.reshard.self_ms_per_reshard":
            (t.total("dist.reshard", RESHARD) - t.inside("dist.reshard", RESHARD)) * MS / reshards,
        "dist.reshard.files_loaded_per_reshard": mean(data.reshard_reports, "files_loaded"),
        "dist.reshard.bytes_loaded_per_reshard": mean(data.reshard_reports, "bytes_loaded"),
        "dist.reshard.bytes_written_per_reshard": mean(data.reshard_reports, "bytes_written"),
        "dist.reshard.rank_ms_max": mean(data.reshard_reports, "rank_s_max") * MS,
        "io.blobfile.read_selected_ms_per_reshard": per("io.blobfile.read_selected", RESHARD, reshards),
        "io.blobfile.write_ms_per_reshard": per("io.blobfile.write", RESHARD, reshards),
        "recover.cycles": float(len(data.resume_s)),
        # -- serve ------------------------------------------------------------
        "serve.admission.reject_share": jobs.get("rejected", 0) / max(asked, 1),
        "serve.queue.wait_ms_p50": _p50(queue) * MS,
        "serve.queue.wait_ms_p90": _percentile(queue, 90) * MS,
        "serve.protocol.overhead_ms_p50": _p50(overhead) * MS,
        "serve.cache.hit_rate": cache.get("hit_rate", 0.0),
        "serve.cache.meta_hit_rate": cache.get("meta_hits", 0) / max(meta_lookups, 1),
        "serve.cache.evictions": float(cache.get("evictions", 0)),
        # Not gated: a light request's latency is a few interpreter-lock
        # hand-offs, and its quartile spread over ten seeds reached 24 %.
        "serve.client.light_ms_p50": _p50(_per_round(data, LIGHT)) * MS,
        "serve.client.light_ms_p90": _percentile(_latencies(data, LIGHT), 90) * MS,
        "serve.client.heavy_ms_p75": _percentile(_latencies(data, HEAVY), 75) * MS,
        "serve.client.rounds": float(len(_per_round(data, HEAVY))),
        "serve.requests": float(len(data.requests)),
        # What a served merge or reshard still decodes itself: the miss path.
        "io.blobfile.read_ms_per_served_heavy":
            (t.total("io.blobfile.read", JOB) + t.total("io.blobfile.read_selected", JOB))
            * MS / served_heavy,
        # -- harness ----------------------------------------------------------
        "harness.wall_s": data.wall_s,
        "harness.cpu_s": data.cpu_s,
        "harness.cpu_util": data.cpu_s / data.wall_s,
        "harness.spans": float(t.count),
        "harness.trace_overhead_pct": 100.0 * t.count * data.span_cost_s / data.wall_s,
    }
    for trail in TENANTS:
        out[f"core.tailor.merge_{trail}_ms_p50"] = _p50(data.merge_s[trail]) * MS
    for kind in LIGHT + HEAVY:
        out[f"serve.jobs.exec_{kind}_ms_p50"] = _p50(_latencies(data, (kind,), "exec_s")) * MS
        out[f"serve.client.{kind}_ms_p50"] = _p50(_latencies(data, (kind,))) * MS
    for label, root in (("step", STEP), ("stall", STALL), ("merge", MERGE),
                        ("resume", LOAD), ("reshard", RESHARD)):
        out[f"harness.coverage_{label}_pct"] = t.coverage_pct(root)
    return out
