#!/usr/bin/env python3
"""Long-horizon elasticity soak: thousands of steps of seeded preemption
churn, cross-checked against the planner's dry run.

Runs ``llmtailor``'s chaos supervisor over a
:meth:`FaultPlan.sample_preemption_trace` schedule (exponential
interarrival + restore) for ``--steps`` steps, then asserts that the
live goodput report *equals* the config-only
:func:`repro.strategies.plan_fault_cost` dry run — the same supervisor
over a null leg — with ``==``, no tolerance: lost (replayed) steps,
reshard loads, grow count, recovery sources, and goodput (useful steps
per busy sim-second).

Any disagreement means the null leg no longer charges what a live leg
charges — the repo's goodput SLO numbers can no longer be trusted — so
the script exits 1 and prints both sides.  Deterministic end to end:
one seed pins the trace, the data order, and every recovery decision.

Nightly CI runs ``--steps 2000`` on a tiny model (bounded minutes);
locally the default 400-step soak finishes in seconds.
"""

from __future__ import annotations

import argparse
import sys
import tempfile


def _soak_supervisor(config, plan):
    """A :class:`ChaosSupervisor` that also totals, in
    ``join_config_seconds``, what its join-sync saves charge for config
    and manifest files (``checkpoint_write.config``)."""
    from repro.train import ChaosSupervisor

    class Supervisor(ChaosSupervisor):
        join_config_seconds = 0.0

        def _join_checkpoint(self, trainer, step):
            charged = trainer.storage.clock.by_category
            before = charged.get("checkpoint_write.config", 0.0)
            paths = super()._join_checkpoint(trainer, step)
            self.join_config_seconds += charged.get("checkpoint_write.config", 0.0) - before
            return paths

    return Supervisor(config, plan)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=400)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--world-size", type=int, default=3)
    parser.add_argument("--interval", type=int, default=50)
    parser.add_argument("--mean-interarrival", type=float, default=None,
                        help="mean steps between preemptions "
                        "(default: steps/20)")
    parser.add_argument("--mean-restore", type=float, default=None,
                        help="mean steps until capacity returns "
                        "(default: interarrival/2)")
    parser.add_argument("--topology", default=None, metavar="NxR",
                        help="cluster shape, e.g. 2x2: soak under the "
                        "hierarchical communicator and hold the planner to "
                        "the same parity bar per link class")
    parser.add_argument("--strategy", default="full",
                        choices=("full", "parity", "filtered"),
                        help="checkpoint strategy of the soaked run and of "
                        "its dry run (selective trails recover by auto-merge)")
    parser.add_argument("-o", "--output", default=None,
                        help="run directory (default: a temp dir)")
    args = parser.parse_args(argv)

    from repro.dist.faults import FaultPlan
    from repro.strategies import plan_fault_cost
    from repro.train import TrainConfig

    topology = None
    if args.topology is not None:
        from repro.dist.topology import Topology

        topology = Topology.from_shape(args.topology)
        if args.world_size > topology.world_size:
            parser.error(
                f"--world-size {args.world_size} exceeds topology "
                f"{topology.shape} capacity {topology.world_size}"
            )

    interarrival = args.mean_interarrival or max(1.0, args.steps / 20.0)
    plan = FaultPlan.sample_preemption_trace(
        seed=args.seed, world_size=args.world_size, total_steps=args.steps,
        mean_interarrival=interarrival,
        mean_restore=args.mean_restore or max(1.0, interarrival / 2.0),
        min_world_size=max(1, args.world_size - 2),
    )
    print(f"trace: {len(plan.preemptions)} preemption(s) over {args.steps} "
          f"steps at world size {args.world_size} (seed {args.seed})")

    output = args.output or tempfile.mkdtemp(prefix="soak-faults-")
    config = TrainConfig(
        model="tiny-untied", task="cpt", total_steps=args.steps,
        checkpoint_strategy=args.strategy, checkpoint_interval=args.interval,
        output_dir=output, world_size=args.world_size,
        micro_batch_size=1, grad_accum_steps=1, seq_len=16,
        log_every=max(1, args.steps // 10),
        topology=None if topology is None else topology.to_dict(),
    )
    supervisor = _soak_supervisor(config, plan)
    result = supervisor.run()
    if result.interrupted_at is not None:
        print(f"FAIL: soak interrupted at step {result.interrupted_at}")
        return 1
    timeline = result.fault_timeline
    live = result.goodput
    print(timeline.summary().splitlines()[0])
    print("live     :", live.summary())

    cost = plan_fault_cost(
        supervisor.trainer.model_config, plan, world_size=args.world_size,
        total_steps=args.steps, checkpoint_interval=args.interval,
        strategy=args.strategy, topology=topology,
    )
    predicted = cost.goodput_report()
    print("predicted:", predicted.summary())
    # The null leg prices no config files: read the dry run's recovery I/O
    # beside the live figure less its join-sync saves' config charges.
    print(f"recovery I/O: live {live.recovery_seconds:.3f}s, live less "
          f"join-sync config files {live.recovery_seconds - supervisor.join_config_seconds:.3f}s, "
          f"dry run {predicted.recovery_seconds:.3f}s")

    failures = []
    if cost.lost_steps != timeline.lost_steps:
        failures.append(
            f"lost steps: planned {cost.lost_steps}, live {timeline.lost_steps}"
        )
    if cost.reshard_loads != timeline.reshard_loads:
        failures.append(
            f"reshard loads: planned {cost.reshard_loads}, "
            f"live {timeline.reshard_loads}"
        )
    if cost.num_joins != timeline.grows:
        failures.append(
            f"grows: planned {cost.num_joins}, live {timeline.grows}"
        )
    live_sources = [e["source"] for e in timeline.events if e["kind"] == "recovery"]
    if list(cost.recovery_sources) != live_sources:
        failures.append(
            f"recovery sources: planned {list(cost.recovery_sources)}, "
            f"live {live_sources}"
        )
    if cost.goodput != live.goodput:
        failures.append(
            f"goodput: planned {cost.goodput!r}, live {live.goodput!r}"
        )
    if failures:
        print("FAIL: live run and planner disagree:")
        for line in failures:
            print("  -", line)
        return 1
    print(f"OK: dry run equals live goodput {live.goodput:.6f} "
          f"({timeline.recoveries} recoveries, {timeline.grows} grows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
