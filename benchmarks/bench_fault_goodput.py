"""Goodput under a preemption soak: live supervisor vs the planner's dry run.

A seeded spot-preemption trace (exponential interarrival + restore)
drives a 60-step ZeRO-3 soak through six elastic transitions — three
shrinks and three rejoins.  The scenario gates two properties:

* **goodput floor** — the fleet must keep at least ``GOODPUT_FLOOR``
  useful steps per simulated busy second despite the churn (the trace
  is deterministic, so the live value is a constant of the repo);
* **planner fidelity** — ``plan_fault_cost`` dry-running the same trace
  from config alone (the same supervisor over a null leg) must *equal*
  the live goodput, lost steps, reshard loads and event kinds (``==``).

Wall time measures the chaos machinery (supervisor legs, sync writes,
resharding resumes); the goodput numbers come off the deterministic
SimClock and are identical on every machine.
"""

from __future__ import annotations

import itertools

from _bench_common import ROUNDS, WARMUP_ROUNDS, emit

from repro.dist.faults import FaultPlan
from repro.strategies import plan_fault_cost
from repro.train import ChaosSupervisor, TrainConfig, Trainer
from repro.util.tables import Table

_counter = itertools.count()
_rows: dict[str, dict] = {}

TOTAL_STEPS = 60
INTERVAL = 10
WORLD_SIZE = 3
TRACE_SEED = 1234

# The seeded trace yields goodput 0.9091; the gate leaves headroom for
# honest regressions (extra lost steps, new stall charges) only.
GOODPUT_FLOOR = 0.88


def _trace() -> FaultPlan:
    return FaultPlan.sample_preemption_trace(
        seed=TRACE_SEED, world_size=WORLD_SIZE, total_steps=TOTAL_STEPS,
        mean_interarrival=15.0, mean_restore=6.0, min_world_size=2,
    )


def _config(tmp_path, tag: str) -> TrainConfig:
    return TrainConfig(
        model="tiny-untied", task="cpt", total_steps=TOTAL_STEPS,
        checkpoint_strategy="full", checkpoint_interval=INTERVAL,
        output_dir=str(tmp_path / f"{tag}-{next(_counter)}"),
        world_size=WORLD_SIZE, micro_batch_size=2, grad_accum_steps=1,
        seq_len=32, log_every=20,
    )


def _record(name: str, mean: float, goodput, *, grows: int = 0) -> None:
    _rows[name] = {
        "wall": mean,
        "goodput": goodput.goodput,
        "useful": goodput.useful_steps,
        "lost": goodput.lost_steps,
        "grows": grows,
        "recovery": goodput.recovery_seconds,
    }
    if len(_rows) == 3:
        table = Table(
            ["Scenario", "Wall (s)", "Goodput (steps/sim-s)", "Useful",
             "Lost", "Grows", "Recovery I/O (s)"],
            title=f"Preemption-soak goodput ({TOTAL_STEPS} steps, ws "
            f"{WORLD_SIZE}, interval {INTERVAL}, trace seed {TRACE_SEED})",
        )
        for scenario, row in _rows.items():
            table.add_row([
                scenario, round(row["wall"], 4), round(row["goodput"], 4),
                row["useful"], row["lost"], row["grows"],
                round(row["recovery"], 3),
            ])
        emit("fault_goodput", table.render())


def test_fault_goodput_clean(benchmark, tmp_path):
    """Baseline: the identical run with no preemption trace attached."""
    holder = {}

    def run():
        holder["result"] = Trainer(_config(tmp_path, "clean")).train()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP_ROUNDS)
    result = holder["result"]
    assert result.interrupted_at is None
    # No faults: every step is useful, the only stall is ring comm.
    supervisor = ChaosSupervisor(_config(tmp_path, "clean-gp"), FaultPlan())
    clean = supervisor.run()
    assert clean.goodput.lost_steps == 0
    _record("clean", benchmark.stats["mean"], clean.goodput)


def test_fault_goodput_soak(benchmark, tmp_path):
    """The seeded preemption soak: 3 shrinks + 3 rejoins in 60 steps."""
    plan = _trace()
    holder = {}

    def run():
        holder["result"] = ChaosSupervisor(_config(tmp_path, "soak"), plan).run()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP_ROUNDS)
    result = holder["result"]
    assert result.interrupted_at is None
    timeline = result.fault_timeline
    assert timeline.grows == 3 and timeline.recoveries == 6
    goodput = result.goodput
    assert goodput.useful_steps == TOTAL_STEPS
    # The gated SLO: churn may not push goodput below the floor.
    assert goodput.goodput >= GOODPUT_FLOOR, goodput.summary()
    holder["goodput"] = goodput
    _record("preemption soak", benchmark.stats["mean"], goodput,
            grows=timeline.grows)

    # Planner fidelity, checked against the live run just measured.
    cost = plan_fault_cost(
        _model_config(), plan, world_size=WORLD_SIZE,
        total_steps=TOTAL_STEPS, checkpoint_interval=INTERVAL,
    )
    assert cost.lost_steps == timeline.lost_steps
    assert cost.reshard_loads == timeline.reshard_loads
    assert cost.num_joins == timeline.grows
    assert cost.comm_seconds == result.clock["comm"]
    assert cost.straggler_seconds == result.clock.get("fault_straggler", 0.0)
    assert cost.goodput == goodput.goodput
    assert cost.timeline.kinds() == timeline.kinds()


def _model_config():
    from repro.nn import get_config

    return get_config("tiny-untied")


def test_fault_goodput_planner(benchmark):
    """plan_fault_cost of the same trace — a dry run: milliseconds, no model."""
    plan = _trace()
    holder = {}

    def run():
        holder["cost"] = plan_fault_cost(
            _model_config(), plan, world_size=WORLD_SIZE,
            total_steps=TOTAL_STEPS, checkpoint_interval=INTERVAL,
        )

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP_ROUNDS)
    cost = holder["cost"]
    assert cost.num_joins == 3 and cost.num_failures == 3
    assert cost.goodput >= GOODPUT_FLOOR
    _record("planner dry run", benchmark.stats["mean"], cost.goodput_report(),
            grows=cost.num_joins)
