"""``llmtailor`` command-line interface.

Mirrors the paper artifact's workflow:

* ``llmtailor train -o RUN_DIR [--faults plan.yaml]`` — run a simulated
  ZeRO-3 training experiment; with a fault plan, the chaos supervisor
  injects the scheduled failures and recovers (shrink/grow + elastic
  resume), reporting goodput; add ``--resume`` to continue a soak;
* ``llmtailor faults -o trace.yaml --seed S`` — sample a seeded
  spot-instance preemption trace to feed ``train --faults``;
* ``llmtailor merge -r recipe.yaml [-o OUT]`` — assemble a Frankenstein
  checkpoint from a YAML recipe;
* ``llmtailor auto-merge RUN_DIR --failure-step N -o OUT`` — scan a
  partial-checkpoint trail and merge automatically (workflow T2);
* ``llmtailor reshard CKPT_DIR -o OUT -w M`` — elastically re-partition
  a complete checkpoint's optimizer shards to a new world size (N→M,
  each source shard read once);
* ``llmtailor verify CKPT_DIR`` — structural verification;
* ``llmtailor describe CKPT_DIR`` — sizes and slot coverage;
* ``llmtailor groups MODEL`` — print the tailored 2L+x group layout
  (paper Fig. 3);
* ``llmtailor plan MODEL STRATEGY`` — analytic size/time plan for a
  strategy (paper Tables 3/6 methodology), plus ``--merge-checkpoints``
  for the analytic merge-cost estimate;
* ``llmtailor serve --socket PATH`` — run the multi-tenant merge
  service daemon (priority queue, per-tenant quotas, cross-request
  group cache, content-addressed dedup; see docs/serve.md);
* ``llmtailor client JOBFILE --socket PATH`` — submit a job file to a
  running service and wait for the results.

``merge``/``auto-merge`` take ``--workers`` (rank shards merged in
parallel processes) and ``--cache-mode`` (Table 7's two load regimes).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .core import LLMTailor, group_layout_table, verify_checkpoint
from .core.autorecipe import recipe_from_run
from .core.recipe import CACHE_MODES
from .io.reader import describe_checkpoint
from .nn.config import get_config, list_configs
from .strategies import build_strategy, plan_strategy
from .util.errors import ConfigError, ReproError
from .util.humanize import format_bytes, format_pct
from .util.tables import Table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``llmtailor`` argument parser (one subparser per command)."""
    parser = argparse.ArgumentParser(
        prog="llmtailor",
        description="Layer-wise checkpoint tailoring (LLMTailor reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"llmtailor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser(
        "train", help="run a training experiment (optionally under a fault plan)"
    )
    p_train.add_argument("-o", "--output-dir", required=True,
                         help="run directory (checkpoints land here)")
    p_train.add_argument("--model", default="tiny-untied",
                         help=f"model config ({', '.join(list_configs())})")
    p_train.add_argument("--task", choices=("cpt", "sft"), default="cpt")
    p_train.add_argument("--steps", type=int, default=40, help="total optimizer steps")
    p_train.add_argument("--world-size", type=int, default=2,
                         help="simulated data-parallel ranks")
    p_train.add_argument("--strategy",
                         choices=("full", "parity", "filtered", "magnitude"),
                         default="full", help="checkpoint strategy")
    p_train.add_argument("--interval", type=int, default=10,
                         help="checkpoint interval (steps)")
    p_train.add_argument("--seq-len", type=int, default=32)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--max-checkpoints", type=int, default=None,
                         help="coverage-aware retention limit")
    p_train.add_argument("--faults", default=None, metavar="PLAN_YAML",
                         help="fault-injection plan (see docs/faults.md); the "
                              "chaos supervisor shrinks on rank failures, grows "
                              "on joins/preemption restores, and resumes "
                              "elastically")
    p_train.add_argument("--resume", action="store_true",
                         help="resume from the run's latest checkpoint first; "
                              "with --faults, continue a chaos soak from its "
                              "last leg's checkpoint with the remaining "
                              "fault schedule")
    p_train.add_argument("--topology", default=None, metavar="CLUSTER_YAML",
                         help="cluster topology YAML (see docs/topology.md); "
                              "the communicator's cost model, with "
                              "per-link-class byte accounting — results are "
                              "bitwise-identical to the flat ring")

    p_merge = sub.add_parser("merge", help="merge checkpoints from a YAML recipe")
    p_merge.add_argument("-r", "--recipe", required=True, help="recipe YAML path")
    p_merge.add_argument("-o", "--output", help="output checkpoint directory")
    p_merge.add_argument("--workers", type=int, default=None,
                         help="override recipe options.workers (parallel fan-out)")
    p_merge.add_argument("--cache-mode", choices=CACHE_MODES,
                         default=None, help="override recipe options.cache_mode")

    p_auto = sub.add_parser("auto-merge", help="auto-merge a partial checkpoint trail")
    p_auto.add_argument("run_dir", help="training run directory with checkpoint-*/")
    p_auto.add_argument("--failure-step", type=int, default=None)
    p_auto.add_argument("-o", "--output", required=True)
    p_auto.add_argument("--workers", type=int, default=1)
    p_auto.add_argument(
        "--cache-mode", choices=CACHE_MODES, default="per-checkpoint"
    )

    p_reshard = sub.add_parser(
        "reshard", help="reshard a complete checkpoint to a new world size (N -> M)"
    )
    p_reshard.add_argument("checkpoint", help="source checkpoint directory")
    p_reshard.add_argument("-o", "--output", required=True,
                           help="output checkpoint directory")
    p_reshard.add_argument("-w", "--target-world-size", type=int, required=True,
                           help="number of ranks the output should have")

    p_verify = sub.add_parser("verify", help="verify a checkpoint structurally")
    p_verify.add_argument("checkpoint", help="checkpoint directory")

    p_desc = sub.add_parser("describe", help="describe a checkpoint")
    p_desc.add_argument("checkpoint", help="checkpoint directory")

    p_groups = sub.add_parser("groups", help="print the tailored parameter-group layout")
    p_groups.add_argument("model", help=f"model config ({', '.join(list_configs())})")

    p_plan = sub.add_parser("plan", help="analytic strategy overhead plan")
    p_plan.add_argument("model", nargs="?", default=None)
    p_plan.add_argument("strategy", nargs="?", default=None,
                        choices=("full", "parity", "filtered", "magnitude"))
    p_plan.add_argument("--interval", type=_count, default=100)
    p_plan.add_argument("--steps", type=_count, default=1600)
    p_plan.add_argument("--world-size", type=_count, default=8)
    p_plan.add_argument("--async-writer", action="store_true",
                        help="model an overlapped (CheckFreq-style) writer")
    p_plan.add_argument("--merge-checkpoints", type=_count, default=None, metavar="N",
                        help="also estimate merging N source checkpoints")
    p_plan.add_argument("--reshard-to", type=_count, default=None, metavar="M",
                        help="also estimate resharding a --world-size checkpoint "
                             "to M ranks")
    p_plan.add_argument("--workers", type=_count, default=1,
                        help="merge estimate: parallel workers")
    p_plan.add_argument("--cache-mode", choices=CACHE_MODES,
                        default="per-checkpoint", help="merge estimate: load policy")
    p_plan.add_argument("--faults", default=None, metavar="PLAN_YAML",
                        help="also dry-run a fault-injection plan under "
                             "STRATEGY/--interval (recovery sources, lost "
                             "steps, reshard traffic, slowdown)")
    p_plan.add_argument("--topology", default=None, metavar="CLUSTER_YAML",
                        help="cluster topology YAML: split the traffic, "
                             "reshard, and fault estimates into intra-node "
                             "and inter-node link classes (docs/topology.md)")
    p_plan.add_argument("--serve", default=None, metavar="JOB_YAML",
                        help="print the admission-control cost estimate for a "
                             "serve job file (matches the live server's "
                             "accounting exactly); model/strategy optional")

    p_faults = sub.add_parser(
        "faults",
        help="generate a seeded fault plan (spot-instance preemption trace)",
    )
    p_faults.add_argument("-o", "--output", required=True, metavar="PLAN_YAML",
                          help="where to write the plan (feed to train --faults)")
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument("--world-size", type=int, default=4,
                          help="starting (and maximum) fleet size")
    p_faults.add_argument("--steps", type=int, default=2000,
                          help="run horizon the trace is sampled over")
    p_faults.add_argument("--mean-interarrival", type=float, default=None,
                          help="mean steps between preemptions "
                               "(exponential; default steps/8)")
    p_faults.add_argument("--mean-restore", type=float, default=None,
                          help="mean steps until reclaimed capacity rejoins "
                               "(exponential; default interarrival/2)")
    p_faults.add_argument("--min-world-size", type=int, default=1,
                          help="preemptions that would shrink below this floor "
                               "are skipped")

    p_diff = sub.add_parser("diff", help="layer-wise drift between two checkpoints")
    p_diff.add_argument("checkpoint_a")
    p_diff.add_argument("checkpoint_b")
    p_diff.add_argument("--momentum", action="store_true",
                        help="also compare optimizer first moments")

    p_prune = sub.add_parser("prune", help="coverage-aware checkpoint retention")
    p_prune.add_argument("run_dir")
    p_prune.add_argument("--keep-last", type=int, required=True)
    p_prune.add_argument("--dry-run", action="store_true")

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant merge service daemon"
    )
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="unix socket path to listen on")
    p_serve.add_argument("--host", default=None,
                         help="TCP host to listen on (alternative to --socket)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 picks a free one)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="service-wide engine worker budget")
    p_serve.add_argument("--max-inflight", type=int, default=4,
                         help="per-tenant concurrent job quota")
    p_serve.add_argument("--max-queued-bytes", type=int, default=1 << 30,
                         help="per-tenant outstanding byte-footprint quota")
    p_serve.add_argument("--cache-bytes", type=int, default=256 << 20,
                         help="cross-request group cache capacity")
    p_serve.add_argument("--blob-root", default=None, metavar="DIR",
                         help="content-addressed blob store root (enables "
                              "cross-tenant dedup)")
    p_serve.add_argument("--journal", default=None, metavar="PATH",
                         help="crash-safe job journal (JSONL; unfinished jobs "
                              "replay on restart)")
    p_serve.add_argument("--max-jobs", type=int, default=None, metavar="N",
                         help="soak flag: drain and exit after N jobs complete")
    p_serve.add_argument("--keep-finished", type=int, default=1024, metavar="N",
                         help="terminal jobs retained for status/wait before "
                              "eviction (default 1024)")

    p_client = sub.add_parser(
        "client", help="submit jobs to a running merge service"
    )
    p_client.add_argument("job_file", nargs="?", default=None,
                          help="YAML/JSON job file (single job or {jobs: [...]})")
    p_client.add_argument("--socket", default=None, metavar="PATH",
                          help="unix socket the service listens on")
    p_client.add_argument("--host", default=None, help="TCP host of the service")
    p_client.add_argument("--port", type=int, default=None, help="TCP port")
    p_client.add_argument("--tenant", default=None,
                          help="override the tenant on every submitted job")
    p_client.add_argument("--ping", action="store_true", help="liveness check only")
    p_client.add_argument("--stats", action="store_true",
                          help="print service stats as JSON")
    p_client.add_argument("--shutdown", action="store_true",
                          help="ask the service to drain and stop")
    p_client.add_argument("--timeout", type=float, default=None,
                          help="per-job wait timeout in seconds")
    return parser


def _count(text: str) -> int:
    """An argparse type: an int >= 1 (a count of ranks, steps, sources or workers)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _cmd_train(args) -> int:
    from .dist.faults import FaultPlan
    from .train import ChaosSupervisor, TrainConfig, Trainer

    topology = None
    if args.topology:
        from .dist.topology import Topology

        topology = Topology.from_yaml(args.topology).to_dict()
    config = TrainConfig(
        model=args.model,
        task=args.task,
        output_dir=args.output_dir,
        seed=args.seed,
        world_size=args.world_size,
        seq_len=args.seq_len,
        total_steps=args.steps,
        checkpoint_strategy=args.strategy,
        checkpoint_interval=args.interval,
        max_checkpoints=args.max_checkpoints,
        topology=topology,
    )
    if args.faults:
        plan = FaultPlan.from_yaml(args.faults)
        # With --resume this is a soak continuation: the supervisor
        # restarts from the last leg's newest complete checkpoint with
        # the remaining fault schedule (events at or before that step
        # are treated as already applied by the previous run).
        supervisor = ChaosSupervisor(config, plan, resume=args.resume)
        result = supervisor.run()
        print(result.summary())
        if result.fault_timeline is not None:
            print(result.fault_timeline.summary())
        if result.goodput is not None:
            print(result.goodput.summary())
    else:
        trainer = Trainer(config)
        if args.resume:
            step = trainer.resume_latest()
            print(f"resumed from step {step}")
        result = trainer.train()
        print(result.summary())
    return 0 if result.interrupted_at is None else 1


def _cmd_merge(args) -> int:
    import dataclasses

    tailor = LLMTailor.from_yaml(args.recipe)
    overrides = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.cache_mode is not None:
        overrides["cache_mode"] = args.cache_mode
    if overrides:
        tailor.recipe.options = dataclasses.replace(tailor.recipe.options, **overrides)
    result = tailor.merge(output=args.output)
    print(result.summary())
    return 0


def _cmd_auto_merge(args) -> int:
    recipe = recipe_from_run(
        args.run_dir,
        failure_step=args.failure_step,
        workers=args.workers,
        cache_mode=args.cache_mode,
    )
    result = LLMTailor(recipe).merge(output=args.output)
    print(result.summary())
    return 0


def _cmd_reshard(args) -> int:
    from .dist.reshard import reshard_checkpoint

    report = reshard_checkpoint(args.checkpoint, args.output, args.target_world_size)
    print(report.summary())
    return 0


def _cmd_verify(args) -> int:
    report = verify_checkpoint(args.checkpoint)
    print(report)
    for issue in report.issues:
        print(f"  ISSUE: {issue}")
    return 0 if report.ok else 1


def _cmd_describe(args) -> int:
    info = describe_checkpoint(args.checkpoint)
    info["weight_nbytes_h"] = format_bytes(info["weight_nbytes"])
    info["shard_nbytes_h"] = format_bytes(info["shard_nbytes"])
    info["total_nbytes_h"] = format_bytes(info["total_nbytes"])
    print(json.dumps(info, indent=2, default=str))
    return 0


def _cmd_groups(args) -> int:
    config = get_config(args.model)
    table = Table(
        ["Index", "Group", "Slot", "Weight decay", "#Params"],
        title=f"Tailored parameter groups for {config.name} "
        f"(2L+x = {config.num_param_groups_tailored})",
    )
    for row in group_layout_table(config):
        table.add_row(
            [row["index"], row["group"], row["slot"], row["weight_decay"], row["num_params"]]
        )
    print(table.render())
    return 0


def _print_serve_plan(job_file) -> None:
    from .strategies import plan_serve_cost

    plan = plan_serve_cost(job_file)
    print(f"serve admission estimate for {plan.job_file} "
          f"({len(plan.entries)} job(s)):")
    for i, entry in enumerate(plan.entries):
        cost = entry["cost"]
        print(f"  [{i}] tenant={entry['tenant']} kind={entry['kind']} "
              f"priority={entry['priority']}: "
              f"{format_bytes(cost['total_bytes'])} "
              f"(read {format_bytes(cost['bytes_read'])}, "
              f"write {format_bytes(cost['bytes_written'])}), "
              f"{cost['est_seconds']:.3f}s simulated")
    for tenant, agg in sorted(plan.per_tenant().items()):
        print(f"  tenant {tenant}: {agg['jobs']} job(s), "
              f"{format_bytes(agg['total_bytes'])} charged, "
              f"{agg['est_seconds']:.3f}s simulated")
    print(f"  total                  : {format_bytes(plan.total_bytes)}, "
          f"{plan.total_seconds:.3f}s simulated")


def _cmd_plan(args) -> int:
    if args.model is None or args.strategy is None:
        if args.serve is None:
            print("error: plan needs MODEL and STRATEGY (or --serve JOB_YAML)",
                  file=sys.stderr)
            return 2
        _print_serve_plan(args.serve)
        return 0
    config = get_config(args.model)
    strategy = build_strategy(args.strategy, config, args.interval)
    topology = None
    if args.topology is not None:
        from .dist.topology import Topology

        topology = Topology.from_yaml(args.topology)
        needed = max(args.world_size, args.reshard_to or 0)
        if topology.world_size < needed:  # before anything prints
            raise ConfigError(f"topology {topology.shape} holds {topology.world_size} "
                              f"ranks; the plan needs {needed}")
    fault_plan = None
    if args.faults is not None:
        from .dist.faults import FaultPlan

        fault_plan = FaultPlan.from_yaml(args.faults)  # before anything prints
    if args.async_writer:
        from .strategies import plan_strategy_async

        plan = plan_strategy_async(
            config, strategy, total_steps=args.steps, world_size=args.world_size
        )
    else:
        plan = plan_strategy(
            config, strategy, total_steps=args.steps, world_size=args.world_size
        )
    print(f"model {config.name}, strategy {plan.strategy}, interval {args.interval}")
    print(f"  checkpoint events      : {plan.num_events}")
    print(f"  total checkpoint bytes : {format_bytes(plan.total_bytes)}")
    print(f"  checkpoint time        : {plan.checkpoint_seconds:.1f}s simulated")
    print(f"  ckpt time proportion   : {format_pct(plan.checkpoint_time_fraction)}%")
    from .strategies import plan_step_traffic

    traffic = plan_step_traffic(config, world_size=args.world_size, topology=topology)
    model_name = "ring model" if topology is None else f"topology {topology.shape}"
    print(
        f"step traffic ({model_name}, {traffic.num_groups} groups, "
        f"world size {traffic.world_size}):"
    )
    print(f"  reduce-scatter / step  : {format_bytes(traffic.reduce_scatter_bytes)}")
    print(f"  all-gather / step      : {format_bytes(traffic.all_gather_bytes)}")
    print(f"  total / step           : {format_bytes(traffic.total_bytes)}")
    if topology is not None:
        print(f"  intra-node / step      : {format_bytes(traffic.class_bytes('intra'))}")
        print(f"  inter-node / step      : {format_bytes(traffic.class_bytes('inter'))}")
    print(f"  {f'over {args.steps} steps':<23s}: {format_bytes(traffic.total_bytes * args.steps)}")
    if args.merge_checkpoints is not None:
        from .strategies import plan_merge_cost

        merge = plan_merge_cost(
            config,
            world_size=args.world_size,
            num_checkpoints=args.merge_checkpoints,
            cache_mode=args.cache_mode,
            workers=args.workers,
        )
        print(
            f"merge estimate ({merge.num_checkpoints} ckpts, {merge.cache_mode}, "
            f"workers={merge.workers}):"
        )
        print(f"  loads per rank         : {merge.loads_per_rank}")
        print(f"  bytes loaded           : {format_bytes(merge.bytes_loaded)}")
        print(f"  bytes decoded          : {format_bytes(merge.bytes_decoded)}")
        print(f"  merge time             : {merge.seconds:.1f}s simulated")
    if args.reshard_to is not None:
        from .strategies import plan_reshard_cost

        reshard = plan_reshard_cost(
            config,
            source_world_size=args.world_size,
            target_world_size=args.reshard_to,
            topology=topology,
        )
        print(
            f"reshard estimate ({reshard.source_world_size} -> "
            f"{reshard.target_world_size} ranks):"
        )
        print(f"  shard loads            : {reshard.loads}")
        print(f"  bytes loaded           : {format_bytes(reshard.bytes_loaded)}")
        print(f"  bytes written          : {format_bytes(reshard.bytes_written)}")
        print(f"  peak memory            : {format_bytes(reshard.peak_bytes)}")
        print(f"  reshard time           : {reshard.seconds:.1f}s simulated")
        if topology is not None:
            print(f"  intra-node moves       : {format_bytes(reshard.intra_bytes)} "
                  f"({reshard.intra_seconds:.3f}s)")
            print(f"  inter-node moves       : {format_bytes(reshard.inter_bytes)} "
                  f"({reshard.inter_seconds:.3f}s)")
    if fault_plan is not None:
        from .strategies import plan_fault_cost

        faults = plan_fault_cost(
            config, fault_plan, world_size=args.world_size,
            total_steps=args.steps, checkpoint_interval=args.interval,
            strategy=args.strategy, topology=topology,
        )
        print(
            f"fault-plan estimate ({faults.strategy} dry run, "
            f"{faults.num_failures} failure(s), {faults.num_joins} join(s), "
            f"world {faults.world_size} -> {faults.final_world_size}):"
        )
        sources = ", ".join(s or "init" for s in faults.recovery_sources)
        print(f"  recovery sources       : {sources or '-'}")
        print(f"  lost (replayed) steps  : {faults.lost_steps}")
        print(f"  executed steps         : {faults.executed_steps} "
              f"(of {faults.total_steps})")
        print(f"  elastic reshard loads  : {faults.reshard_loads} "
              f"({format_bytes(faults.reshard_bytes)})")
        print(f"  straggler time         : {faults.straggler_seconds:.1f}s simulated")
        print(f"  collective time        : {faults.comm_seconds:.3f}s simulated")
        print(f"  recovery read time     : {faults.recovery_read_seconds:.3f}s simulated")
        print(f"  join sync-write time   : {faults.sync_write_seconds:.3f}s simulated")
        print(f"  total fault overhead   : {faults.overhead_seconds:.1f}s simulated")
        print(f"  predicted goodput      : {faults.goodput:.4f} useful steps/sim-s")
    if args.serve is not None:
        _print_serve_plan(args.serve)
    return 0


def _cmd_faults(args) -> int:
    from .dist.faults import FaultPlan

    plan = FaultPlan.sample_preemption_trace(
        seed=args.seed,
        world_size=args.world_size,
        total_steps=args.steps,
        mean_interarrival=args.mean_interarrival,
        mean_restore=args.mean_restore,
        min_world_size=args.min_world_size,
    )
    plan.to_yaml(args.output)
    n = len(plan.preemptions)
    deferred = sum(1 for e in plan.rank_joins if e.step > args.steps)
    print(
        f"sampled preemption trace (seed {args.seed}): {n} preemption(s) over "
        f"{args.steps} steps, world {args.world_size} "
        f"(floor {args.min_world_size}); {deferred} restore(s) beyond the "
        f"horizon never fire"
    )
    print(f"wrote {args.output}")
    return 0


def _cmd_diff(args) -> int:
    from .core.diffstat import diff_checkpoints, nonuniformity_index

    drifts = diff_checkpoints(args.checkpoint_a, args.checkpoint_b,
                              include_momentum=args.momentum)
    table = Table(
        ["Slot", "Weight drift (rel L2)", "Max |dw|", "Momentum drift", "#Params"],
        title=f"Layer-wise drift: {args.checkpoint_a} -> {args.checkpoint_b}",
    )
    for d in drifts:
        table.add_row([d.slot, round(d.weight_l2, 6), round(d.weight_max, 6),
                       round(d.momentum_l2, 6), d.params])
    print(table.render())
    print(f"non-uniformity index (max/median drift): {nonuniformity_index(drifts):.2f}")
    return 0


def _cmd_prune(args) -> int:
    from .io.retention import prune_checkpoints

    removed = prune_checkpoints(args.run_dir, args.keep_last, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"{verb} {len(removed)} checkpoint(s): {removed}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import MergeService, ServeConfig, TenantQuota

    config = ServeConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        quota=TenantQuota(
            max_inflight=args.max_inflight,
            max_queued_bytes=args.max_queued_bytes,
        ),
        cache_bytes=args.cache_bytes,
        blob_root=args.blob_root,
        journal_path=args.journal,
        max_jobs=args.max_jobs,
        keep_finished=args.keep_finished,
    )
    service = MergeService(config)
    try:
        asyncio.run(service.run())
    except KeyboardInterrupt:
        pass
    stats = service.stats()
    print(f"served {stats['jobs']['completed']} job(s), "
          f"{stats['jobs']['failed']} failed, "
          f"cache hit rate {stats['cache']['hit_rate']:.2%}")
    return 0


def _cmd_client(args) -> int:
    from .serve import ServeClient, load_job_file

    client = ServeClient(args.socket, host=args.host, port=args.port)
    try:
        if args.ping:
            ok = client.ping()
            print("pong" if ok else "no response")
            return 0 if ok else 1
        if args.stats:
            print(json.dumps(client.stats(), indent=2, default=str))
            return 0
        if args.shutdown:
            response = client.shutdown()
            print("draining" if response.get("ok") else f"error: {response}")
            return 0 if response.get("ok") else 1
        if args.job_file is None:
            print("error: client needs a job file (or --ping/--stats/--shutdown)",
                  file=sys.stderr)
            return 2
        failed = 0
        for spec in load_job_file(args.job_file):
            doc = spec.to_dict()
            if args.tenant is not None:
                doc["tenant"] = args.tenant
            job = client.submit_and_wait(doc, timeout=args.timeout)
            cost = job["cost"]
            line = (f"{job['id']} [{job['tenant']}/{job['kind']}] {job['status']}"
                    f" ({format_bytes(cost['total_bytes'])} charged)")
            if job["status"] != "done":
                failed += 1
                line += f": {job.get('error')}"
            print(line)
        return 1 if failed else 0
    finally:
        client.close()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: dispatch ``argv`` to the matching subcommand handler."""
    args = build_parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "merge": _cmd_merge,
        "auto-merge": _cmd_auto_merge,
        "reshard": _cmd_reshard,
        "verify": _cmd_verify,
        "describe": _cmd_describe,
        "groups": _cmd_groups,
        "plan": _cmd_plan,
        "faults": _cmd_faults,
        "diff": _cmd_diff,
        "prune": _cmd_prune,
        "serve": _cmd_serve,
        "client": _cmd_client,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # e.g. `llmtailor describe ... | head`: not an error
        return 0
    except ReproError as err:  # a malformed --faults document; any refused plan
        if not isinstance(err, ConfigError) and args.command != "plan":
            raise
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
