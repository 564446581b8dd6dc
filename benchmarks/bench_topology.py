"""Hierarchical topology: flat ring vs 2x4 vs 4x2 at world size 8.

A topology is the communicator's *cost model*, not a different
algorithm: the collectives' arithmetic does not know it exists and only
the byte accounting changes (intra-node vs inter-node link classes).
This scenario gates the two contracts the topology subsystem ships on:

* **bitwise identity** — the final checkpoint of a 2x4 and a 4x2 run
  must be byte-for-byte identical to the flat-ring run (same model,
  seed, and world size; only the cluster shape differs);
* **planner fidelity** — the live per-link-class byte counters must
  *equal* the same charge sequence run dry (``plan_step_traffic`` is one
  such step), and ``plan_fault_cost(topology=...)`` — a dry run of the
  same supervisor — a chaotic 2x2 run's stall seconds and goodput (``==``).

Wall time measures the accounting overhead of the hierarchical charge
path; the byte and goodput numbers come off the deterministic cost
model and are identical on every machine.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

from _bench_common import ROUNDS, WARMUP_ROUNDS, emit

from repro.core.groups import group_numels
from repro.dist import SimComm
from repro.dist.faults import FaultPlan, degraded_link, preemption, straggler
from repro.dist.topology import Topology
from repro.strategies import plan_fault_cost, plan_step_traffic
from repro.train import ChaosSupervisor, TrainConfig, Trainer
from repro.util.tables import Table

_counter = itertools.count()
_rows: dict[str, dict] = {}
_digests: dict[str, str] = {}

TOTAL_STEPS = 8
INTERVAL = 4
WORLD_SIZE = 8

# Chaos leg: a 2x2 cluster with one intra-node and one inter-node
# degraded link, a straggler window, and a preemption mid-run.
CHAOS_STEPS = 24
CHAOS_INTERVAL = 6
CHAOS_WORLD = 4


def _config(tmp_path, tag: str, topology: Topology | None) -> TrainConfig:
    return TrainConfig(
        model="tiny-untied", task="cpt", total_steps=TOTAL_STEPS,
        checkpoint_strategy="full", checkpoint_interval=INTERVAL,
        output_dir=str(tmp_path / f"{tag}-{next(_counter)}"),
        world_size=WORLD_SIZE, micro_batch_size=1, grad_accum_steps=1,
        seq_len=32, log_every=20,
        topology=None if topology is None else topology.to_dict(),
    )


def _final_checkpoint_digest(run_dir: str) -> str:
    """One hash over every byte of the newest checkpoint directory."""
    root = Path(run_dir)
    steps = sorted(int(p.name.split("-")[1]) for p in root.glob("checkpoint-*"))
    ckpt = root / f"checkpoint-{steps[-1]}"
    h = hashlib.sha256()
    for path in sorted(p for p in ckpt.rglob("*") if p.is_file()):
        # training_args.json records the config verbatim — including the
        # topology field itself — so it legitimately differs between
        # shapes.  Every payload byte (weights, optimizer shards, RNG,
        # scheduler) must be identical.
        if path.name == "training_args.json":
            continue
        h.update(path.relative_to(ckpt).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _record(name: str, mean: float, *, total: float, intra: float,
            inter: float, note: str) -> None:
    _rows[name] = {
        "wall": mean, "total": total, "intra": intra, "inter": inter,
        "note": note,
    }
    if len(_rows) == 4:
        table = Table(
            ["Scenario", "Wall (s)", "Total bytes/step", "Intra bytes/step",
             "Inter bytes/step", "Gate"],
            title=f"Hierarchical topology ({TOTAL_STEPS} steps, ws "
            f"{WORLD_SIZE}; chaos leg {CHAOS_STEPS} steps, ws {CHAOS_WORLD})",
        )
        for scenario, row in _rows.items():
            table.add_row([
                scenario, round(row["wall"], 4), round(row["total"]),
                round(row["intra"]), round(row["inter"]), row["note"],
            ])
        emit("topology", table.render())


def _run_and_measure(benchmark, tmp_path, tag: str,
                     topology: Topology | None) -> dict:
    holder = {}

    def run():
        trainer = Trainer(_config(tmp_path, tag, topology))
        holder["result"] = trainer.train()
        holder["bytes_by_op"] = dict(trainer.engine.comm.stats.bytes_by_op)
        holder["run_dir"] = trainer.config.output_dir

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP_ROUNDS)
    assert holder["result"].interrupted_at is None
    holder["digest"] = _final_checkpoint_digest(holder["run_dir"])
    return holder


def _assert_traffic_parity(bytes_by_op: dict, topology: Topology) -> None:
    """Live per-link counters == the same charges run dry, exactly."""
    dry = SimComm(WORLD_SIZE, topology)
    numels = group_numels(_model_config())
    dry.charge_step(numels)
    traffic = plan_step_traffic(
        _model_config(), world_size=WORLD_SIZE, topology=topology
    )
    assert traffic.link_bytes == {
        op: dry.class_bytes(op) for op in ("reduce_scatter", "all_gather")
    }
    for _ in range(TOTAL_STEPS - 1):
        dry.charge_step(numels)
    assert bytes_by_op == dry.stats.bytes_by_op


def _model_config():
    from repro.nn import get_config

    return get_config("tiny-untied")


def test_topology_flat(benchmark, tmp_path):
    """Baseline: the flat ring at world size 8."""
    holder = _run_and_measure(benchmark, tmp_path, "flat", None)
    _digests["flat"] = holder["digest"]
    total = sum(holder["bytes_by_op"].values()) / TOTAL_STEPS
    _record("flat ring", benchmark.stats["mean"], total=total,
            intra=0.0, inter=0.0, note="baseline")


def test_topology_2x4(benchmark, tmp_path):
    """2 nodes x 4 ranks: most traffic stays on intra-node links."""
    topology = Topology(nodes=2, ranks_per_node=4)
    holder = _run_and_measure(benchmark, tmp_path, "2x4", topology)
    assert holder["digest"] == _digests["flat"], "2x4 diverged from flat ring"
    _assert_traffic_parity(holder["bytes_by_op"], topology)
    per = {k: v / TOTAL_STEPS for k, v in holder["bytes_by_op"].items()}
    intra = sum(v for k, v in per.items() if k.endswith("/intra"))
    inter = sum(v for k, v in per.items() if k.endswith("/inter"))
    _record("topology 2x4", benchmark.stats["mean"], total=intra + inter,
            intra=intra, inter=inter, note="bitwise == flat")


def test_topology_4x2(benchmark, tmp_path):
    """4 nodes x 2 ranks: the inter-node share grows with node count."""
    topology = Topology(nodes=4, ranks_per_node=2)
    holder = _run_and_measure(benchmark, tmp_path, "4x2", topology)
    assert holder["digest"] == _digests["flat"], "4x2 diverged from flat ring"
    _assert_traffic_parity(holder["bytes_by_op"], topology)
    per = {k: v / TOTAL_STEPS for k, v in holder["bytes_by_op"].items()}
    intra = sum(v for k, v in per.items() if k.endswith("/intra"))
    inter = sum(v for k, v in per.items() if k.endswith("/inter"))
    # More nodes, same world: strictly more inter-node traffic than 2x4.
    assert inter > _rows["topology 2x4"]["inter"]
    _record("topology 4x2", benchmark.stats["mean"], total=intra + inter,
            intra=intra, inter=inter, note="bitwise == flat")


def test_topology_fault_parity(benchmark, tmp_path):
    """Chaos on a 2x2 cluster: planner stall seconds == live to 1e-6."""
    topology = Topology(nodes=2, ranks_per_node=2)
    plan = FaultPlan(events=[
        preemption(8, 2, 6),
        straggler(5, 1, 3.0, duration=4),
        degraded_link(0, 1, 0.25, step=3, duration=10),   # intra-node edge
        degraded_link(0, 2, 0.5, step=1),                 # leader-to-leader
    ])
    holder = {}

    def run():
        config = TrainConfig(
            model="tiny-untied", task="cpt", total_steps=CHAOS_STEPS,
            checkpoint_strategy="full", checkpoint_interval=CHAOS_INTERVAL,
            output_dir=str(tmp_path / f"chaos-{next(_counter)}"),
            world_size=CHAOS_WORLD, micro_batch_size=1, grad_accum_steps=1,
            seq_len=32, log_every=20, topology=topology.to_dict(),
        )
        holder["result"] = ChaosSupervisor(config, plan).run()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP_ROUNDS)
    result = holder["result"]
    assert result.interrupted_at is None
    live = result.goodput
    cost = plan_fault_cost(
        _model_config(), plan, world_size=CHAOS_WORLD,
        total_steps=CHAOS_STEPS, checkpoint_interval=CHAOS_INTERVAL,
        topology=topology,
    )
    predicted = cost.goodput_report()
    assert cost.lost_steps == result.fault_timeline.lost_steps
    assert cost.comm_seconds == result.clock["comm"]
    assert predicted.stall_seconds == live.stall_seconds
    assert cost.goodput == live.goodput
    assert cost.timeline.kinds() == result.fault_timeline.kinds()
    _record("chaos 2x2 parity", benchmark.stats["mean"],
            total=0.0, intra=0.0, inter=0.0,
            note=f"goodput {live.goodput:.4f} == planned")
