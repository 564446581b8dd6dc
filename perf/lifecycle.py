"""One run of a workload: set-up, then a checkpoint's whole life in three timed phases.

Every run walks the path a user of the paper's tool walks, in one process:

1. **train** — a ZeRO-3 training run that writes partial checkpoints and
   is stopped the way a crash stops it (``SimulatedFailure``);
2. **recover** — merge the partial trail into a complete checkpoint, load
   it into the trainer, reshard it to another world size (one-shot calls,
   product defaults);
3. **serve** — the same merge/reshard engines behind the merge service,
   driven by two closed-loop clients with a mixed request stream.

The phases share ``--seconds`` by ``PHASE_SHARES``.  Each phase repeats its
operation until its share is spent (and at least a minimum number of
times), so a run measures for the time it was given on any machine.  What
the later phases read is a fixed prefix of the trail (``Workload.failures``),
so their inputs depend on the seed only, never on how fast the box is.

The harness passes only the configuration that *defines* a workload and
never a flag that selects an implementation: it measures what a user gets
by default.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import repro.dist.reshard as reshard_mod
from repro.core.autorecipe import recipe_from_run
from repro.core.tailor import LLMTailor
from repro.io.layout import CheckpointPaths, checkpoint_dir, list_checkpoint_steps
from repro.serve import JobSpec, ServeClient, ServeConfig, serve_in_thread
from repro.train import TrainConfig, Trainer
from repro.train.callbacks import Callback
from repro.util.errors import SimulatedFailure

from layers import install_wrappers
from spans import Recorder

__all__ = ["MIX", "PHASE_SHARES", "RunData", "WORKLOADS", "Workload", "blob_sizes", "run_workload"]

# Share of --seconds given to train / recover / serve: about 19 / 18 / 18 s
# of the 55 s a run measures.  A shorter window can lie wholly inside one of
# the shared box's slow stretches, and then no percentile of it is steady.
PHASE_SHARES = (0.35, 0.33, 0.32)

# Per ten requests: 5 plan, 3 diff, 1 merge, 1 reshard (bench_serve's mix).
MIX = ("plan", "diff", "plan", "merge", "plan", "diff", "reshard", "plan", "diff", "plan")

# Discarded before timing statistics: caches fill and lazy set-up finishes.
WARM_STEPS = 5
WARM_CYCLES = 1  # per trail
WARM_ROUNDS = 1  # per client; a round is one pass over MIX

MIN_CYCLES = 4  # two per trail: the first of each is the reference, the second is counted
MIN_ROUNDS = 2  # per client

SETUP_REPEATS = 5
REFERENCE_STEPS = 6  # past the first checkpoint of either strategy
TARGET_WORLD = 3  # 2 -> 3 is non-divisible, forcing N+M-gcd selective loads
TENANTS = ("a", "b")
SMOKE_SHIFT = 20


@dataclass(frozen=True)
class Workload:
    """The inputs that define one workload (nothing here picks an implementation)."""

    name: str
    why: str
    model: str
    strategy: str
    interval: int
    # The trail the later phases read: training always runs at least
    # ``trail_steps``; trail ``a`` / ``b`` is recovered as if the run had
    # failed at ``failures[0]`` / ``failures[1]``.
    trail_steps: int
    failures: tuple[int, int]

    def train_config(self, output_dir: Path, seed: int, **overrides) -> TrainConfig:
        fields = dict(
            model=self.model,
            task="cpt",
            output_dir=str(output_dir),
            seed=seed,
            world_size=2,
            micro_batch_size=2,
            grad_accum_steps=1,
            seq_len=48,
            total_steps=100_000,  # never reached: the deadline stops the run
            checkpoint_strategy=self.strategy,
            checkpoint_interval=self.interval,
        )
        fields.update(overrides)
        return TrainConfig(**fields)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="parity_1b",
            why="paper use case 1: half the layers every 5 steps; "
            "few large writes, 2-source merges",
            model="llama3.2-1b-sim",
            strategy="parity",
            interval=5,
            trail_steps=40,
            failures=(38, 28),
        ),
        Workload(
            name="filtered_1b",
            why="paper use case 2: boundary layers every 2 steps, the middle every 10; "
            "many small writes, 3-source merges",
            model="llama3.2-1b-sim",
            strategy="filtered",
            interval=2,
            trail_steps=40,
            failures=(29, 39),
        ),
    )
}


@dataclass
class RunData:
    """Raw samples and counts of one run; ``metrics.py`` turns them into metrics."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    import_s: float = 0.0
    setup_samples: list[float] = field(default_factory=list)
    # train
    steps: int = 0
    tokens_per_step: int = 0
    step_s: list[float] = field(default_factory=list)  # after warm-up
    stall_s: list[float] = field(default_factory=list)  # checkpoint steps only
    other_callbacks_s: float = 0.0
    train_wall_s: float = 0.0
    events: int = 0
    trail_events: int = 0
    trail_disk_bytes: int = 0
    trail_files: int = 0
    comm_bytes_per_step: float = 0.0
    comm_calls_per_step: float = 0.0
    sim_ckpt_s_per_event: float = 0.0
    # recover
    merge_s: dict[str, list[float]] = field(default_factory=dict)
    resume_s: list[float] = field(default_factory=list)
    reshard_s: list[float] = field(default_factory=list)
    merge_results: list[dict] = field(default_factory=list)
    reshard_reports: list[dict] = field(default_factory=list)
    # serve: one dict per counted request
    requests: list[dict] = field(default_factory=list)
    serve_wall_s: float = 0.0
    serve_completed: int = 0
    serve_stats: dict = field(default_factory=dict)
    warm_jobs: set[str] = field(default_factory=set)  # ops of the discarded first requests
    # harness
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    spans: list = field(default_factory=list)
    span_cost_s: float = 0.0
    patched: int = 0

    def check(self, ok: bool, message: str) -> None:
        """Count one attempted operation or check; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)


# ---------------------------------------------------------------------------
# helpers


def digest(root: Path) -> str:
    """Content hash of a checkpoint directory, independent of where it lies.

    The manifest names its own output directory, and a merge records the
    engine options it ran with (the service streams, a one-shot merge does
    not): neither is checkpoint *content*, so both are masked.
    """
    h = hashlib.blake2b()
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        h.update(path.relative_to(root).as_posix().encode())
        data = path.read_bytes()
        if path.name == "tailor_manifest.json":
            manifest = json.loads(data)
            manifest.get("merge_provenance", {}).pop("options", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        if path.suffix == ".json":
            data = data.replace(str(root).encode(), b"<OUT>")
        h.update(data)
    return h.hexdigest()


def loss_digest(losses: list[float]) -> str:
    return hashlib.blake2b(struct.pack(f"<{len(losses)}d", *losses)).hexdigest()


def _tree_bytes(root: Path) -> tuple[int, int]:
    files = [p for p in root.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def blob_sizes(run_dir: Path) -> tuple[int, int]:
    """Logical (decoded array) and on-disk bytes of every optimizer shard in a run."""
    import numpy as np
    from repro.io.blobfile import read_blob

    def nbytes(obj) -> int:
        if isinstance(obj, np.ndarray):
            return obj.nbytes
        if isinstance(obj, dict):
            return sum(nbytes(v) for v in obj.values())
        if isinstance(obj, (list, tuple)):
            return sum(nbytes(v) for v in obj)
        return 0

    logical = disk = 0
    for step in list_checkpoint_steps(run_dir):
        for shard in sorted(checkpoint_dir(run_dir, step).optim_dir.glob("*.blob")):
            logical += nbytes(read_blob(shard))
            disk += shard.stat().st_size
    return logical, disk


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# phase 1: train


class _Front(Callback):
    """First in ``trainer.callbacks``: the optimizer step ends here."""

    def __init__(self, phase: "_TrainPhase") -> None:
        self.phase = phase

    def on_train_start(self, trainer) -> None:
        self.phase.begin_step(trainer.state.global_step + 1)

    def on_step_end(self, trainer, step: int, loss: float) -> None:
        self.phase.end_step(loss)


class _Back(Callback):
    """Last in ``trainer.callbacks``: the callback chain (the stall) ends here."""

    def __init__(self, phase: "_TrainPhase") -> None:
        self.phase = phase

    def on_step_end(self, trainer, step: int, loss: float) -> None:
        self.phase.end_callbacks(trainer, step)


class _TrainPhase:
    """Stamps every step at two ``perf_counter`` calls and stops at the deadline."""

    def __init__(self, rec: Recorder | None, min_steps: int) -> None:
        self.rec = rec
        self.min_steps = min_steps
        self.deadline = float("inf")
        self.opened: list[float] = []  # step i starts
        self.front: list[float] = []  # step i's optimizer step is done
        self.back: list[float] = []  # step i's callbacks are done
        self.losses: list[float] = []
        self.warm_comm: tuple[float, int] | None = None
        self.sim_ckpt: dict[int, float] = {}  # simulated checkpoint seconds charged by step

    def begin_step(self, step: int) -> None:
        if self.rec is not None:
            self.rec.set_op(f"step:{step}")
            self.rec.begin("train.step")
        self.opened.append(perf_counter())

    def end_step(self, loss: float) -> None:
        self.front.append(perf_counter())
        self.losses.append(loss)
        if self.rec is not None:
            self.rec.end()
            self.rec.begin("train.callbacks")

    def end_callbacks(self, trainer, step: int) -> None:
        now = perf_counter()
        self.back.append(now)
        if self.rec is not None:
            self.rec.end()
        if step == WARM_STEPS:
            stats = trainer.engine.comm.stats
            self.warm_comm = (stats.total_bytes(), sum(stats.calls_by_op.values()))
        if step in (WARM_STEPS, self.min_steps):
            self.sim_ckpt[step] = trainer.storage.clock.category_total("checkpoint_write")
        if now >= self.deadline and step >= self.min_steps:
            # The documented way a run ends early: the injected crash.
            raise SimulatedFailure(step)
        self.begin_step(step + 1)


def _train(data: RunData, trainer: Trainer, phase: _TrainPhase, seconds: float,
           run_dir: Path, trail_steps: int) -> None:
    trainer.callbacks.insert(0, _Front(phase))
    trainer.callbacks.append(_Back(phase))
    phase.deadline = perf_counter() + seconds
    try:
        result = trainer.train()
    finally:
        trainer.callbacks.pop()
        trainer.callbacks.pop(0)
    steps = len(phase.back)
    data.check(result.interrupted_at == steps and steps >= trail_steps,
               f"training stopped at {result.interrupted_at} after {steps} stamped steps")
    data.steps = steps
    data.tokens_per_step = trainer.config.tokens_per_step
    ckpt_steps = set(trainer.state.checkpoints_written)
    for i in range(WARM_STEPS, steps):
        data.step_s.append(phase.front[i] - phase.opened[i])
        stall = phase.back[i] - phase.front[i]
        if (i + 1) in ckpt_steps:
            data.stall_s.append(stall)
        else:
            data.other_callbacks_s += stall
    data.train_wall_s = phase.back[-1] - phase.back[WARM_STEPS - 1]
    data.events = len(data.stall_s)
    data.attempted += steps + len(ckpt_steps)  # each step and each checkpoint is an operation
    counted = steps - WARM_STEPS
    stats = trainer.engine.comm.stats
    warm_bytes, warm_calls = phase.warm_comm or (0.0, 0)
    data.comm_bytes_per_step = (stats.total_bytes() - warm_bytes) / counted
    data.comm_calls_per_step = (sum(stats.calls_by_op.values()) - warm_calls) / counted
    # Over the fixed trail, like the sizes below, so that it repeats exactly.
    trail_events = sum(1 for s in ckpt_steps if WARM_STEPS < s <= trail_steps)
    if trail_events and len(phase.sim_ckpt) == 2:
        data.sim_ckpt_s_per_event = (
            phase.sim_ckpt[trail_steps] - phase.sim_ckpt[WARM_STEPS]) / trail_events

    # Size on disk is taken over the fixed trail so that it repeats exactly
    # for a seed; everything later is dropped before the next phase.
    for step in list_checkpoint_steps(run_dir):
        ckpt = checkpoint_dir(run_dir, step).dir
        if step <= trail_steps:
            nbytes, files = _tree_bytes(ckpt)
            data.trail_events += 1
            data.trail_disk_bytes += nbytes
            data.trail_files += files
        else:
            shutil.rmtree(ckpt)


# ---------------------------------------------------------------------------
# phase 2: recover


def _timed(rec: Recorder | None, name: str, op: str, fn):
    if rec is not None:
        rec.set_op(op)
        rec.begin(name)
    start = perf_counter()
    try:
        return fn(), perf_counter() - start
    finally:
        if rec is not None:
            rec.end()
            rec.set_op(None)


def _recover(data: RunData, rec: Recorder | None, trainer: Trainer, seconds: float,
             run_dir: Path, out_dir: Path, failures: tuple[int, int]) -> dict[str, dict]:
    """Cycle merge -> resume -> reshard over the two trails; returns cycle-0 digests."""
    reference: dict[str, dict] = {}
    counts = dict.fromkeys(TENANTS, 0)
    deadline = perf_counter() + seconds
    cycle = 0
    while cycle < MIN_CYCLES or perf_counter() < deadline:
        trail = TENANTS[cycle % 2]
        failure = failures[cycle % 2]
        merged = _fresh(out_dir / f"merged-{trail}")
        resharded = _fresh(out_dir / f"re{TARGET_WORLD}-{trail}")
        counted = counts[trail] >= WARM_CYCLES
        try:
            result, merge_s = _timed(
                rec, "recover.merge", f"merge:{cycle}",
                lambda: LLMTailor.from_checkpoints(run_dir, failure_step=failure).merge(merged),
            )
            base_step = CheckpointPaths(result.plan["base"]).step
            landed, resume_s = _timed(
                rec, "recover.resume", f"resume:{cycle}",
                lambda: trainer.resume_from(result.output),
            )
            report, reshard_s = _timed(
                rec, "recover.reshard", f"reshard:{cycle}",
                lambda: reshard_mod.reshard_checkpoint(merged, resharded, TARGET_WORLD),
            )
        except Exception as exc:  # the benchmark must count a failure, not die of it
            data.check(False, f"recover cycle {cycle} ({trail}): {exc!r}")
            cycle += 1
            continue
        found = {"merge": digest(merged), "reshard": digest(resharded)}
        first = reference.setdefault(trail, found)
        data.check(result.verify_report is not None and result.verify_report.ok
                   and found["merge"] == first["merge"],
                   f"merge of trail {trail} in cycle {cycle} differs from its first merge")
        data.check(landed == base_step, f"resume landed on {landed}, base is {base_step}")
        data.check(found["reshard"] == first["reshard"],
                   f"reshard of trail {trail} in cycle {cycle} differs from its first")
        if counted:
            data.merge_s.setdefault(trail, []).append(merge_s)
            data.resume_s.append(resume_s)
            data.reshard_s.append(reshard_s)
            data.merge_results.append({
                "cycle": cycle,
                "load_s": sum(s.load_seconds for s in result.rank_stats),
                "write_s": sum(s.write_seconds for s in result.rank_stats),
                "files_loaded": result.optimizer_files_loaded,
                "bytes_loaded": result.optimizer_bytes_loaded,
                "bytes_written": sum(s.bytes_written for s in result.rank_stats),
                "weight_bytes_read": result.weight_stats.bytes_read,
            })
            data.reshard_reports.append({
                "cycle": cycle,
                "files_loaded": report.files_loaded,
                "bytes_loaded": report.bytes_loaded,
                "bytes_written": report.bytes_written,
                "rank_s_max": max(report.rank_seconds),
            })
        counts[trail] += 1
        cycle += 1

    # A 2 -> 3 -> 2 round trip must give back the merged shards bit for bit.
    merged = CheckpointPaths(out_dir / f"merged-{TENANTS[0]}")
    back = _fresh(out_dir / "roundtrip")
    problem = "does not reproduce the merged shards"
    try:
        reshard_mod.reshard_checkpoint(out_dir / f"re{TARGET_WORLD}-{TENANTS[0]}", back, 2)
        same = all(
            merged.shard(rank).read_bytes() == CheckpointPaths(back).shard(rank).read_bytes()
            for rank in range(2)
        )
    except Exception as exc:
        same, problem = False, repr(exc)
    data.check(same, f"2 -> 3 -> 2 reshard round trip: {problem}")
    shutil.rmtree(back, ignore_errors=True)
    return reference


# ---------------------------------------------------------------------------
# phase 3: serve


def _recipe_doc(run_dir: Path, failure: int) -> dict:
    recipe = recipe_from_run(run_dir, failure_step=failure)
    return {
        "base_checkpoint": str(recipe.base_checkpoint),
        "slices": [{"slot": slot, "source": str(source)}
                   for slot, source in recipe.assignments.items() if slot.startswith("layers.")],
        "aux": {slot: str(source)
                for slot, source in recipe.assignments.items() if not slot.startswith("layers.")},
    }


def _client(w: Workload, data: RunData, lock: threading.Lock, sock: str, tenant: str,
            recipe: dict, first_ckpt: Path, merged: Path, out_dir: Path, reference: dict,
            order: random.Random, deadline: float) -> None:
    jobs = {
        "plan": lambda out: {"model": w.model, "strategy": w.strategy},
        "diff": lambda out: {"checkpoint_a": str(first_ckpt),
                             "checkpoint_b": recipe["base_checkpoint"]},
        "merge": lambda out: {"recipe_doc": recipe, "output": str(out)},
        "reshard": lambda out: {"checkpoint": str(merged), "output": str(out),
                                "target_world_size": TARGET_WORLD},
    }
    sent = 0
    rounds = 0
    with ServeClient(sock, timeout=120) as client:
        while rounds < MIN_ROUNDS or perf_counter() < deadline:
            mix = list(MIX)
            order.shuffle(mix)
            for kind in mix:
                out = out_dir / f"{kind}-{tenant}-{sent}"
                spec = JobSpec(tenant=tenant, kind=kind, params=jobs[kind](out))
                start = perf_counter()
                try:
                    job = client.submit_and_wait(spec, timeout=120)
                except Exception as exc:
                    job = {"status": "failed", "error": repr(exc)}
                latency = perf_counter() - start
                ok = job.get("status") == "done"
                if ok and kind in reference:
                    ok = digest(out) == reference[kind]
                    if not ok:
                        job["error"] = "served output differs from the one-shot output"
                shutil.rmtree(out, ignore_errors=True)
                times = {e["kind"]: e["t"] for e in job.get("timeline", {}).get("events", [])}
                with lock:
                    data.check(ok, f"served {kind} for tenant {tenant}: {job.get('error')}")
                    if ok:
                        data.serve_completed += 1
                    if rounds < WARM_ROUNDS:
                        data.warm_jobs.add(f"serve.{kind}:{job.get('id')}")
                    elif ok:
                        data.requests.append({
                            "round": f"{tenant}/{rounds}",
                            "kind": kind,
                            "latency_s": latency,
                            "queue_s": times["start"] - times["admitted"],
                            "exec_s": times["done"] - times["start"],
                        })
                sent += 1
            rounds += 1


def _serve(w: Workload, data: RunData, seconds: float, seed: int, run_dir: Path,
           rec_dir: Path, out_dir: Path, failures: tuple[int, int], reference: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    # AF_UNIX paths are limited to ~100 bytes: name the socket relative to
    # the working directory, however deep the checkout lies.
    sock = os.path.relpath(out_dir / "s.sock")
    first_ckpt = checkpoint_dir(run_dir, list_checkpoint_steps(run_dir)[0]).dir
    recipes = {t: _recipe_doc(run_dir, f) for t, f in zip(TENANTS, failures)}
    lock = threading.Lock()
    with serve_in_thread(ServeConfig(socket_path=sock)) as handle:
        start = perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(
                target=_client,
                args=(w, data, lock, sock, tenant, recipes[tenant], first_ckpt,
                      rec_dir / f"merged-{tenant}", out_dir, reference.get(tenant, {}),
                      random.Random(f"{seed}/{tenant}"), deadline),
            )
            for tenant in TENANTS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        data.serve_wall_s = perf_counter() - start
        with ServeClient(sock, timeout=30) as client:
            data.serve_stats = client.stats()
    data.check(not handle.thread.is_alive(), "the service thread did not stop")


# ---------------------------------------------------------------------------
# one run


def _setup_once(w: Workload, seed: int, work: Path) -> str:
    """What a user pays before the first step, plus the dense reference run.

    The reference trains the same model with no checkpoint inside its
    steps; the timed run's losses must equal it, because checkpointing
    must not touch the math.
    """
    trainer = Trainer(w.train_config(
        _fresh(work / "ref"), seed, checkpoint_strategy="full",
        checkpoint_interval=10 * REFERENCE_STEPS,
    ))
    phase = _TrainPhase(None, REFERENCE_STEPS)
    phase.deadline = 0.0
    trainer.callbacks.insert(0, _Front(phase))
    trainer.callbacks.append(_Back(phase))
    trainer.train()
    return loss_digest(phase.losses)


def run_workload(w: Workload, *, seed: int, seconds: float, traced: bool, work: Path,
                 import_s: float, smoke: bool = False) -> RunData:
    """Run one workload once; ``work`` is an empty scratch directory of this run."""
    data = RunData(import_s=import_s)
    wall_start, cpu_start = perf_counter(), _cpu_seconds()
    # --smoke halves the trail; both failure points still have a full merge behind them.
    shift = SMOKE_SHIFT if smoke else 0
    trail_steps = w.trail_steps - shift
    failures = (w.failures[0] - shift, w.failures[1] - shift)

    # Set-up, several times, so that its median is steady enough to gate.
    reference_losses = ""
    for _ in range(1 if smoke else SETUP_REPEATS):
        start = perf_counter()
        reference_losses = _setup_once(w, seed, work)
        data.setup_samples.append(perf_counter() - start)

    run_dir = work / "run"
    trainer = Trainer(w.train_config(run_dir, seed))
    rec = Recorder() if traced else None
    if rec is not None:
        data.span_cost_s = rec.cost_per_span()
        data.patched = install_wrappers(rec, trainer)
    try:
        phase = _TrainPhase(rec, trail_steps)
        _train(data, trainer, phase, seconds * PHASE_SHARES[0], run_dir, trail_steps)
        data.check(loss_digest(phase.losses[:REFERENCE_STEPS]) == reference_losses,
                   "losses with checkpointing differ from the dense reference run")
        reference = _recover(data, rec, trainer, seconds * PHASE_SHARES[1], run_dir,
                             work / "rec", failures)
        _serve(w, data, seconds * PHASE_SHARES[2], seed, run_dir, work / "rec",
               work / "srv", failures, reference)
    finally:
        if rec is not None:
            rec.unpatch()
            data.spans = rec.spans
    data.wall_s = perf_counter() - wall_start
    data.cpu_s = _cpu_seconds() - cpu_start
    data.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return data
