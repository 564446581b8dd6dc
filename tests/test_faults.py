"""Chaos engine: fault plans, penalized comm, bitrot, elastic recovery.

The heart of this file is the chaos-resume invariant: a run that loses a
rank at step k and elastically resumes at the surviving world size must
produce bitwise-identical final weights to an uninterrupted reference
run at that world size resumed from the same checkpoint — across world
sizes and across merge strategies (complete trails vs auto-merged
partial trails).
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dist import SimComm, Topology
from repro.dist.faults import (
    FaultPlan,
    GoodputReport,
    bitrot,
    degraded_link,
    inject_bitrot,
    node_failure,
    preemption,
    rank_failure,
    rank_join,
    repair_from_replicas,
    straggler,
)
from repro.io import CheckpointPaths, checkpoint_dir, list_checkpoint_steps
from repro.strategies import plan_fault_cost
from repro.train import ChaosSupervisor, TrainConfig, Trainer, train_with_faults
from repro.util.errors import (
    CheckpointError,
    ConfigError,
    RankFailure,
    TrainingError,
)

from conftest import assert_dry_run_equals_live, dry_run_of


def chaos_config(tmp_path, **overrides) -> TrainConfig:
    base = dict(
        model="tiny-untied", task="cpt", total_steps=12,
        checkpoint_strategy="full", checkpoint_interval=4,
        output_dir=str(tmp_path / "run"), world_size=2,
        micro_batch_size=2, grad_accum_steps=1, seq_len=32, log_every=4,
    )
    base.update(overrides)
    return TrainConfig(**base)


def assert_states_equal(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


# ---------------------------------------------------------------------------
# FaultPlan: construction, validation, (de)serialization
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_yaml_round_trip(self, tmp_path):
        plan = FaultPlan(
            events=(
                rank_failure(10, 1),
                straggler(4, 0, 2.5, duration=3),
                degraded_link(0, 1, 0.25),
                bitrot(8, 0, 3),
            ),
            seed=7,
        )
        plan.to_yaml(tmp_path / "plan.yaml")
        assert FaultPlan.from_yaml(tmp_path / "plan.yaml") == plan

    def test_dict_round_trip(self):
        plan = FaultPlan(events=(rank_failure(3, 0),), seed=1)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"events": [{"kind": "meteor_strike", "step": 1}]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"events": [], "gpu_count": 8})
        with pytest.raises(ConfigError):
            FaultPlan.from_dict(
                {"events": [{"kind": "rank_failure", "step": 1, "gpu": 3}]}
            )

    @pytest.mark.parametrize("doc, names", [
        ({"events": [{"kind": "rank_failure", "step": "3", "rank": 0}]}, "events[0]: step"),
        ({"events": [{"kind": "rank_failure", "step": 1.5, "rank": 0}]}, "events[0]: step"),
        ({"events": [{"kind": "straggler", "step": 1, "rank": 0, "slowdown": "fast"}]},
         "events[0]: slowdown"),
        ({"events": [rank_failure(1, 0).to_dict(), "x"]}, "events[1] must be a mapping"),
        ({"seed": "abc", "events": []}, "seed"),
        ({"events": [{"kind": "degraded_link", "src": 0, "dst": 1,
                      "bandwidth_scale": None}]}, "events[0]: bandwidth_scale"),
        ({"events": [{"kind": "bitrot", "step": 2, "rank": True, "group": 0}]},
         "events[0]: rank"),
        ({"events": [{"kind": "straggler", "step": 1, "rank": 0,
                      "slowdown": float("inf")}]}, "events[0]: slowdown"),
    ])
    def test_mistyped_fields_rejected_typed(self, tmp_path, capsys, doc, names):
        """A hostile document fails in ``from_dict`` with a ``ConfigError``
        naming the event and field — never a ``TypeError`` / ``ValueError``
        from deep inside ``validate``, never accepted — and both CLI
        commands that read one exit 2 with that message."""
        from repro.cli import main
        from repro.util.miniyaml import dump_file

        with pytest.raises(ConfigError) as caught:
            FaultPlan.from_dict(doc)
        assert names in str(caught.value)
        dump_file(tmp_path / "plan.yaml", doc)
        for argv in (
            ["plan", "tiny-untied", "full", "--faults", str(tmp_path / "plan.yaml")],
            ["train", "-o", str(tmp_path / "run"), "--faults", str(tmp_path / "plan.yaml")],
        ):
            assert main(argv) == 2
            streams = capsys.readouterr()
            assert streams.out == "" and names in streams.err
        assert not (tmp_path / "run").exists()

    def test_validate_step_range(self):
        with pytest.raises(ConfigError):
            FaultPlan(events=(rank_failure(99, 0),)).validate(2, 10)

    def test_validate_failures_leave_a_survivor(self):
        plan = FaultPlan(events=(rank_failure(2, 0), rank_failure(4, 0)))
        with pytest.raises(ConfigError):
            plan.validate(2, 10)
        plan.validate(3, 10)  # two failures at ws 3 leave one survivor

    def test_validate_shrinking_world_rank_bounds(self):
        # Second failure names rank 2, but only ranks {0, 1} survive.
        plan = FaultPlan(events=(rank_failure(2, 2), rank_failure(4, 2)))
        with pytest.raises(ConfigError):
            plan.validate(3, 10)

    def test_validate_straggler_and_link(self):
        with pytest.raises(ConfigError):
            FaultPlan(events=(straggler(1, 0, 0.5),)).validate(2, 10)
        with pytest.raises(ConfigError):
            FaultPlan(events=(degraded_link(0, 0, 0.5),)).validate(2, 10)
        with pytest.raises(ConfigError):
            FaultPlan(events=(degraded_link(0, 1, 1.5),)).validate(2, 10)

    def test_sample_is_deterministic_and_valid(self):
        kwargs = dict(seed=42, world_size=4, total_steps=50, n_failures=2,
                      n_stragglers=2, n_degraded_links=1, n_bitrot=1)
        a = FaultPlan.sample(**kwargs)
        b = FaultPlan.sample(**kwargs)
        assert a == b
        a.validate(4, 50)
        assert a != FaultPlan.sample(**{**kwargs, "seed": 43})

    def test_slowdown_windows(self):
        plan = FaultPlan(
            events=(straggler(5, 0, 3.0, duration=2), degraded_link(0, 1, 0.5))
        )
        assert plan.compute_slowdown(4, 2) == 1.0
        assert plan.compute_slowdown(5, 2) == 3.0
        assert plan.compute_slowdown(6, 2) == 3.0
        assert plan.compute_slowdown(7, 2) == 1.0
        # Link degradation affects comm, not compute; straggler affects both.
        assert plan.comm_slowdown(1, 2) == 2.0
        assert plan.comm_slowdown(5, 2) == 3.0
        # Events referencing ranks outside a shrunk world are inert.
        assert plan.compute_slowdown(5, 0) == 1.0

    def test_grow_events_round_trip(self, tmp_path):
        plan = FaultPlan(
            events=(rank_join(4), preemption(6, 1, restore_after=3)), seed=5
        )
        plan.to_yaml(tmp_path / "plan.yaml")
        assert FaultPlan.from_yaml(tmp_path / "plan.yaml") == plan
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_world_events_expands_preemptions(self):
        plan = FaultPlan(events=(preemption(3, 1, restore_after=2),))
        kinds = [(e.kind, e.step) for e in plan.world_events()]
        assert kinds == [("rank_failure", 3), ("rank_join", 5)]
        # The death half keeps restore_after as provenance.
        assert plan.world_events()[0].restore_after == 2
        assert [e.step for e in plan.rank_failures] == [3]
        assert [e.step for e in plan.rank_joins] == [5]

    def test_validate_tracks_grown_world(self):
        # The joiner enters as rank 2; a later failure may name it.
        FaultPlan(events=(rank_join(4), rank_failure(6, 2))).validate(2, 10)
        # Without the join, rank 2 does not exist at world size 2.
        with pytest.raises(ConfigError, match="does not exist"):
            FaultPlan(events=(rank_failure(6, 2),)).validate(2, 10)
        # A shrink-then-grow sequence walks through both transitions.
        FaultPlan(events=(rank_failure(4, 1), rank_join(8))).validate(2, 10)

    def test_validate_preemption_fields(self):
        with pytest.raises(ConfigError):
            FaultPlan(events=(preemption(4, -1, restore_after=2),)).validate(2, 10)
        with pytest.raises(ConfigError):
            FaultPlan(events=(preemption(4, 0, restore_after=0),)).validate(2, 10)
        # Preempting the only rank leaves no survivors.
        with pytest.raises(ConfigError, match="survivor"):
            FaultPlan(events=(preemption(4, 0, restore_after=2),)).validate(1, 10)

    def test_preemption_restore_beyond_horizon_is_legal(self):
        # Capacity never returns inside the run: the join clamps off the
        # end of the schedule and simply never fires.
        plan = FaultPlan(events=(preemption(8, 1, restore_after=100),))
        plan.validate(2, 10)
        assert plan.world_events()[-1].step == 108

    def test_sample_preemption_trace_deterministic_and_valid(self):
        kwargs = dict(seed=11, world_size=4, total_steps=200)
        a = FaultPlan.sample_preemption_trace(**kwargs)
        b = FaultPlan.sample_preemption_trace(**kwargs)
        assert a == b
        assert a.preemptions  # the horizon is long enough to draw events
        a.validate(4, 200)  # sampler self-validates; explicit check too
        assert a != FaultPlan.sample_preemption_trace(**{**kwargs, "seed": 12})

    def test_sample_preemption_trace_respects_world_floor(self):
        plan = FaultPlan.sample_preemption_trace(
            seed=3, world_size=2, total_steps=400,
            mean_interarrival=5.0, mean_restore=50.0, min_world_size=1,
        )
        # Walk the expanded schedule: the world never dips below the floor.
        ws = 2
        for ev in plan.world_events():
            if ev.kind == "rank_join":
                ws += 1
            else:
                ws -= 1
            assert ws >= 1

    @staticmethod
    def _preemption_trace_oracle(seed, world_size, total_steps, mean_interarrival):
        """The sampler as first written: the world re-derived from the whole
        trajectory so far at every arrival (quadratic, kept as the oracle)."""
        import math

        mean_restore = max(1.0, mean_interarrival / 2.0)
        rng = np.random.default_rng(seed)
        events, t, last_step = [], 0.0, 0
        while True:
            t += float(rng.exponential(mean_interarrival))
            step = max(int(math.ceil(t)), last_step + 1)
            if step > total_steps:
                break
            last_step = step
            alive = FaultPlan(tuple(events)).world_size_at(world_size, step + 1)
            if alive <= 1:
                continue
            rank = int(rng.integers(alive))
            restore_after = max(1, int(round(float(rng.exponential(mean_restore)))))
            events.append(preemption(step, rank, restore_after))
        return FaultPlan(events=tuple(events), seed=seed)

    @pytest.mark.parametrize("mean_interarrival", [None, 1.0])
    def test_sample_preemption_trace_matches_the_whole_trajectory_oracle(
        self, mean_interarrival
    ):
        total_steps = 60
        mean = max(1.0, total_steps / 8.0) if mean_interarrival is None else mean_interarrival
        for seed in range(200):
            plan = FaultPlan.sample_preemption_trace(
                seed=seed, world_size=4, total_steps=total_steps,
                mean_interarrival=mean_interarrival,
            )
            assert plan == self._preemption_trace_oracle(seed, 4, total_steps, mean), seed

    def test_sample_preemption_trace_builds_one_trajectory_per_sample(self, monkeypatch):
        """The running world is kept incrementally: the trajectory is built
        by the final validate only, however many arrivals the trace draws."""
        calls = []
        trajectory = FaultPlan.trajectory

        def counting(self, *args, **kwargs):
            calls.append(len(self.events))
            return trajectory(self, *args, **kwargs)

        monkeypatch.setattr(FaultPlan, "trajectory", counting)
        counts = []
        for total_steps in (50, 2000):
            calls.clear()
            plan = FaultPlan.sample_preemption_trace(
                seed=0, world_size=4, total_steps=total_steps, mean_interarrival=1.0
            )
            counts.append(len(calls))
        assert len(plan.events) > 500
        assert counts == [1, 1]

    def test_trajectory_pairs_each_world_event_with_its_world(self):
        plan = FaultPlan(events=(rank_join(4), preemption(6, 2, restore_after=2)))
        entries = [(ev.kind, ev.step, ws) for ev, ws in plan.trajectory(2)]
        assert entries == [
            ("rank_join", 4, 3), ("rank_failure", 6, 2), ("rank_join", 8, 3),
        ]
        # The world executing a step: every world event before it has fired.
        assert [plan.world_size_at(2, step) for step in (4, 5, 6, 7, 8, 9)] == [
            2, 3, 3, 2, 2, 3,
        ]
        assert FaultPlan().trajectory(3) == []

    def test_trajectory_raises_the_world_refusals(self):
        with pytest.raises(ConfigError, match="survivor"):
            FaultPlan(events=(rank_failure(2, 0), rank_failure(4, 0))).trajectory(2)
        with pytest.raises(ConfigError, match="rank 2 does not exist in the world of 2"):
            FaultPlan(events=(rank_failure(2, 2), rank_failure(4, 2))).trajectory(3)
        with pytest.raises(ConfigError, match="beyond topology 1x2"):
            FaultPlan(events=(rank_join(3),)).trajectory(
                2, topology=Topology(nodes=1, ranks_per_node=2)
            )

    @pytest.mark.parametrize("make, names", [
        (lambda: straggler(1, 0, 0.5), "slowdown must be >= 1.0"),
        (lambda: degraded_link(2, 2, 0.5), "is not a ring link"),
        (lambda: degraded_link(0, 1, 0.0), "bandwidth_scale must be in (0, 1]"),
        (lambda: preemption(4, 0, restore_after=0), "restore_after must be >= 1"),
        (lambda: bitrot(3, 0, -1), "group must be >= 0"),
        (lambda: rank_failure(3, -2), "rank must be >= 0"),
        (lambda: straggler(1, 0, 2.0, duration=0), "duration must be >= 1"),
    ])
    def test_world_free_checks_refuse_at_construction(self, make, names):
        """Checks that need no world size, horizon or topology refuse the
        event itself, before any plan is validated."""
        with pytest.raises(ConfigError) as caught:
            make()
        assert names in str(caught.value)

    def test_document_names_the_event_a_construction_check_refuses(self):
        with pytest.raises(ConfigError, match=r"events\[1\]: .*slowdown is required"):
            FaultPlan.from_dict({"events": [
                rank_failure(1, 0).to_dict(), {"kind": "straggler", "step": 1, "rank": 0},
            ]})


# ---------------------------------------------------------------------------
# Fault pricing on the communicator: bytes unchanged, penalized seconds charged
# ---------------------------------------------------------------------------

def priced_comm(world_size: int, plan: FaultPlan, *, bandwidth=None, clock=None) -> SimComm:
    """A fault-priced flat-equivalent communicator; a custom bandwidth is
    spelled as the one-rank-per-node topology the flat ring is."""
    topology = None if bandwidth is None else Topology(
        nodes=world_size, ranks_per_node=1, inter_bandwidth=bandwidth
    )
    comm = SimComm(world_size, topology)
    comm.price_faults(plan, clock)
    return comm


class TestChaosComm:
    """``SimComm.price_faults`` (the retired ``ChaosComm`` wrapper's tests,
    ported to the one communicator)."""

    def test_bytes_match_plain_simcomm(self):
        plan = FaultPlan(events=(degraded_link(0, 1, 0.5),))
        plain = SimComm(4)
        chaos = priced_comm(4, plan)
        bufs = [np.arange(8, dtype=np.float32) for _ in range(4)]
        plain.all_reduce_mean(bufs)
        out_plain = plain.reduce_scatter_mean([b.copy() for b in bufs])
        chaos.all_reduce_mean(bufs)
        out_chaos = chaos.reduce_scatter_mean([b.copy() for b in bufs])
        assert plain.stats.bytes_by_op == chaos.stats.bytes_by_op
        assert plain.stats.calls_by_op == chaos.stats.calls_by_op
        assert plain.stats.seconds_by_op == {}  # empty until faults are attached
        assert set(chaos.stats.seconds_by_op) == set(chaos.stats.bytes_by_op)
        for a, b in zip(out_plain, out_chaos):
            np.testing.assert_array_equal(a, b)

    def test_seconds_scale_with_slowdown(self):
        plan = FaultPlan(events=(straggler(10, 0, 4.0, duration=1),))
        comm = priced_comm(2, plan, bandwidth=1e6)
        buf = np.ones(1000, dtype=np.float32)
        comm.set_step(1)
        comm.all_reduce_mean([buf, buf])
        clean = comm.stats.total_seconds()
        assert clean == pytest.approx(comm.stats.total_bytes() / 1e6)
        comm.set_step(10)
        comm.all_reduce_mean([buf, buf])
        assert comm.stats.total_seconds() == pytest.approx(clean * 5)  # 1x + 4x

    def test_clock_charged_under_comm_category(self):
        from repro.util.timer import SimClock

        clock = SimClock()
        comm = priced_comm(2, FaultPlan(), bandwidth=1e6, clock=clock)
        comm.broadcast(np.ones(512, dtype=np.float32))
        assert clock.by_category["comm"] == pytest.approx(comm.stats.total_seconds())

    def test_world_size_one_is_free(self):
        comm = priced_comm(1, FaultPlan(), bandwidth=1.0)
        comm.all_reduce_mean([np.ones(4, dtype=np.float32)])
        assert comm.stats.total_seconds() == 0.0

    def test_attaching_faults_keeps_the_counters(self):
        """The wrapper replaced ``comm.stats``: bytes charged before it was
        attached vanished from the run's traffic."""
        comm = SimComm(2)
        buf = np.ones(4, dtype=np.float32)
        comm.all_reduce_mean([buf, buf])
        stats, before = comm.stats, comm.stats.total_bytes()
        assert before == 16.0
        comm.price_faults(FaultPlan())
        assert comm.stats is stats and comm.stats.total_bytes() == before
        comm.all_reduce_mean([buf, buf])
        assert comm.stats.bytes_by_op == {"all_reduce": 32.0}
        assert comm.stats.calls_by_op == {"all_reduce": 2}
        assert list(comm.stats.seconds_by_op) == ["all_reduce"]  # the priced call only

    def test_flat_ring_cannot_be_priced_under_a_foreign_topology(self):
        """The cost model is the communicator's own: the flat ring prices at
        the inter-node default with every degraded link in class."""
        import inspect

        from repro.dist.topology import DEFAULT_INTER_BANDWIDTH

        assert list(inspect.signature(SimComm.price_faults).parameters) == [
            "self", "plan", "clock",
        ]
        for link in ((0, 1), (0, 2), (1, 3)):  # intra, leader, non-edge under 2x2
            comm = SimComm(4)
            comm.price_faults(FaultPlan(events=(degraded_link(*link, 0.25),)))
            comm.charge("reduce_scatter", 4096)
            assert comm.stats.seconds_by_op == {
                "reduce_scatter": 0.75 * 4096 / DEFAULT_INTER_BANDWIDTH * 4.0
            }


# ---------------------------------------------------------------------------
# The chaos-resume invariant (acceptance criterion)
# ---------------------------------------------------------------------------

class TestChaosResumeInvariant:
    """Failure at step k + elastic shrink == reference run at N-1 ranks."""

    @pytest.mark.parametrize("world_size", [2, 3, 4])
    @pytest.mark.parametrize("strategy", ["full", "parity"])
    def test_bitwise_after_rank_failure(self, tmp_path, world_size, strategy):
        # Parity without the initial full snapshot leaves only partial
        # checkpoints on disk, forcing recovery through the auto-merge
        # path; "full" recovers straight from a complete checkpoint.
        strategy_kwargs = {"initial_full": False} if strategy == "parity" else {}
        plan = FaultPlan(events=(rank_failure(10, world_size - 1),))
        cfg = chaos_config(
            tmp_path / "chaos", world_size=world_size,
            checkpoint_strategy=strategy, strategy_kwargs=strategy_kwargs,
        )
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        assert result.interrupted_at is None
        assert result.final_step == cfg.total_steps
        timeline = result.fault_timeline
        assert timeline.recoveries == 1
        recovery = [e for e in timeline.events if e["kind"] == "recovery"][0]
        assert recovery["world_size"] == world_size - 1
        if strategy == "parity":
            assert recovery["source"].startswith("merged-")
        else:
            assert recovery["source"].startswith("checkpoint-")

        # Reference: an uninterrupted run at the surviving world size,
        # resumed from the exact checkpoint the chaos run recovered from.
        chaos_root = supervisor.trainer.storage.root
        resumed_from = recovery["resumed_from"]
        source = chaos_root / recovery["source"]
        ref = Trainer(
            chaos_config(tmp_path / "ref", world_size=world_size - 1,
                         checkpoint_strategy=strategy,
                         strategy_kwargs=strategy_kwargs)
        )
        assert ref.resume_from(CheckpointPaths(source)) == resumed_from
        ref_result = ref.train()
        assert ref_result.interrupted_at is None

        assert_states_equal(
            supervisor.trainer.engine.master_state_dict(),
            ref.engine.master_state_dict(),
        )
        assert_states_equal(
            supervisor.trainer.model.state_dict(), ref.model.state_dict()
        )

    def test_final_merged_weights_bitwise(self, tmp_path):
        """The on-disk *merged* artifacts agree too, not just live state.

        The run continues long enough after the shrink that the final
        merge trail is entirely post-shrink (the merge tool requires a
        uniform shard world size across its sources).
        """
        from repro.core import LLMTailor
        from repro.io.tensorfile import TensorFile

        world_size = 3
        plan = FaultPlan(events=(rank_failure(10, 2),))
        kwargs = {"initial_full": False}
        cfg = chaos_config(
            tmp_path / "chaos", world_size=world_size, total_steps=20,
            checkpoint_strategy="parity", strategy_kwargs=kwargs,
        )
        supervisor = ChaosSupervisor(cfg, plan)
        supervisor.run()
        recovery = [
            e for e in supervisor.timeline.events if e["kind"] == "recovery"
        ][0]
        assert recovery["source"].startswith("merged-")
        ref = Trainer(
            chaos_config(tmp_path / "ref", world_size=2, total_steps=20,
                         checkpoint_strategy="parity", strategy_kwargs=kwargs)
        )
        ref.resume_from(
            CheckpointPaths(supervisor.trainer.storage.root / recovery["source"])
        )
        ref.train()

        weights = {}
        for name, trainer in (("chaos", supervisor.trainer), ("ref", ref)):
            tailor = LLMTailor.from_checkpoints(
                trainer.storage.root, failure_step=cfg.total_steps
            )
            out = trainer.storage.root / "final-merged"
            tailor.merge(output=out)
            weights[name] = TensorFile(CheckpointPaths(out).weights).read_all()
        assert_states_equal(weights["chaos"], weights["ref"])

    def test_two_failures_shrink_twice(self, tmp_path):
        plan = FaultPlan(events=(rank_failure(6, 3), rank_failure(10, 1)))
        cfg = chaos_config(tmp_path / "chaos", world_size=4)
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        assert result.interrupted_at is None
        assert result.fault_timeline.recoveries == 2
        assert supervisor.trainer.config.world_size == 2
        # Reference from the second recovery point at the final world size.
        recovery = [
            e for e in supervisor.timeline.events if e["kind"] == "recovery"
        ][-1]
        ref = Trainer(chaos_config(tmp_path / "ref", world_size=2))
        ref.resume_from(
            CheckpointPaths(
                supervisor.trainer.storage.root
                / f"checkpoint-{recovery['resumed_from']}"
            )
        )
        ref.train()
        assert_states_equal(
            supervisor.trainer.engine.master_state_dict(),
            ref.engine.master_state_dict(),
        )

    def test_tie_between_complete_and_merge_prefers_complete(self, tmp_path):
        """At equality the complete checkpoint wins — it is merge-free.

        Parity with its initial full snapshot and a failure before the
        second event: the only recovery points are the complete step-4
        checkpoint and a merge trail whose base is also 4.  The
        supervisor must take the cheaper, merge-free path.
        """
        from repro.io import RunIndex

        plan = FaultPlan(events=(rank_failure(6, 1),))
        cfg = chaos_config(tmp_path, world_size=2, checkpoint_strategy="parity")
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        # Prove this really is a tie: the merge trail anchors at 4 too.
        coverage = RunIndex(supervisor.trainer.storage.root).slot_coverage(6)
        assert max(coverage.values()) == 4
        recovery = [
            e for e in result.fault_timeline.events if e["kind"] == "recovery"
        ][0]
        assert recovery["source"].startswith("checkpoint-")
        assert recovery["resumed_from"] == 4
        assert result.fault_timeline.lost_steps == 2

    def test_supervisor_prefers_freshest_recovery_point(self, tmp_path):
        """A newer partial trail beats an older complete checkpoint.

        Parity with its initial full snapshot: complete at step 4, but
        halves at 8 merge to a base of 8 — recovery must merge and lose
        2 steps, not resume the stale full snapshot and lose 6.
        """
        plan = FaultPlan(events=(rank_failure(10, 1),))
        cfg = chaos_config(tmp_path, world_size=2, checkpoint_strategy="parity")
        result = train_with_faults(cfg, plan)
        recovery = [
            e for e in result.fault_timeline.events if e["kind"] == "recovery"
        ][0]
        assert recovery["source"].startswith("merged-")
        assert recovery["resumed_from"] == 8
        assert result.fault_timeline.lost_steps == 2

    def test_failure_before_first_checkpoint_restarts(self, tmp_path):
        plan = FaultPlan(events=(rank_failure(2, 1),))
        cfg = chaos_config(tmp_path / "chaos", world_size=2)
        result = train_with_faults(cfg, plan)
        assert result.interrupted_at is None
        timeline = result.fault_timeline
        assert timeline.lost_steps == 2
        assert timeline.reshard_loads == 0  # nothing on disk to reshard

    def test_train_result_aggregates_legs(self, tmp_path):
        plan = FaultPlan(events=(rank_failure(10, 1),))
        result = train_with_faults(chaos_config(tmp_path, world_size=2), plan)
        # 12 scheduled + 2 replayed steps of compute at 1 sim-sec each.
        assert result.clock["compute"] == pytest.approx(14.0)
        assert result.clock["checkpoint_read.optimizer"] > 0  # the resume
        assert result.checkpoints == [4, 8, 12]
        assert result.failed_rank is None


# ---------------------------------------------------------------------------
# The grow invariant (acceptance criterion): rejoin == clean run at N+1
# ---------------------------------------------------------------------------

GROW_TRAJECTORIES = {
    # name: (initial ws, plan events, final ws)
    "2-3-2": (2, (rank_join(6), rank_failure(10, 2)), 2),
    "4-3-4": (4, (rank_failure(6, 3), rank_join(10)), 4),
}


def assert_rank_shards_equal(eng_a, eng_b) -> None:
    """Per-rank optimizer shards (masters + Adam moments) are bitwise."""
    assert eng_a.world_size == eng_b.world_size
    for rank in range(eng_a.world_size):
        a, b = eng_a.rank_state_dict(rank), eng_b.rank_state_dict(rank)
        assert set(a["fp32_flat_groups"]) == set(b["fp32_flat_groups"])
        for g, flat in a["fp32_flat_groups"].items():
            np.testing.assert_array_equal(
                flat, b["fp32_flat_groups"][g], err_msg=f"rank {rank} group {g}"
            )
            np.testing.assert_array_equal(
                a["state"][g]["exp_avg"], b["state"][g]["exp_avg"]
            )
            np.testing.assert_array_equal(
                a["state"][g]["exp_avg_sq"], b["state"][g]["exp_avg_sq"]
            )


class TestGrowInvariant:
    """Grow-then-shrink chaos run == clean run at the final world size.

    The trajectory 2→3→2 grows first (a cold join through a sync
    checkpoint) and sheds the joiner later; 4→3→4 loses a rank first and
    wins it back.  Either way the chaos run's final masters, Adam
    moments, and bf16 weights must be bitwise equal to an uninterrupted
    reference resumed from the last recovery point at the final world
    size.
    """

    @pytest.mark.parametrize("trajectory", sorted(GROW_TRAJECTORIES))
    def test_grow_then_shrink_bitwise(self, tmp_path, trajectory):
        world_size, events, final_ws = GROW_TRAJECTORIES[trajectory]
        plan = FaultPlan(events=events)
        cfg = chaos_config(
            tmp_path / "chaos", world_size=world_size, total_steps=14,
        )
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        assert result.interrupted_at is None
        assert result.final_step == 14
        timeline = result.fault_timeline
        assert timeline.recoveries == 2
        assert timeline.grows == 1
        assert "rank_join" in timeline.kinds()
        assert supervisor.trainer.config.world_size == final_ws

        recovery = [e for e in timeline.events if e["kind"] == "recovery"][-1]
        ref = Trainer(
            chaos_config(
                tmp_path / "ref", world_size=final_ws, total_steps=14,
            )
        )
        source = supervisor.trainer.storage.root / recovery["source"]
        assert ref.resume_from(CheckpointPaths(source)) == recovery["resumed_from"]
        ref_result = ref.train()
        assert ref_result.interrupted_at is None

        assert_states_equal(
            supervisor.trainer.engine.master_state_dict(),
            ref.engine.master_state_dict(),
        )
        assert_states_equal(
            supervisor.trainer.model.state_dict(), ref.model.state_dict()
        )
        assert_rank_shards_equal(supervisor.trainer.engine, ref.engine)

    def test_grow_final_merged_weights_bitwise(self, tmp_path):
        """The on-disk merged artifacts agree after a grow-then-shrink."""
        from repro.core import LLMTailor
        from repro.io.tensorfile import TensorFile

        plan = FaultPlan(events=(rank_join(6), rank_failure(10, 2)))
        kwargs = {"initial_full": False}
        cfg = chaos_config(
            tmp_path / "chaos", world_size=2, total_steps=20,
            checkpoint_strategy="parity", strategy_kwargs=kwargs,
        )
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        assert result.final_step == 20
        recovery = [
            e for e in supervisor.timeline.events if e["kind"] == "recovery"
        ][-1]
        ref = Trainer(
            chaos_config(tmp_path / "ref", world_size=2, total_steps=20,
                         checkpoint_strategy="parity", strategy_kwargs=kwargs)
        )
        ref.resume_from(
            CheckpointPaths(supervisor.trainer.storage.root / recovery["source"])
        )
        ref.train()

        weights = {}
        for name, trainer in (("chaos", supervisor.trainer), ("ref", ref)):
            tailor = LLMTailor.from_checkpoints(
                trainer.storage.root, failure_step=cfg.total_steps
            )
            out = trainer.storage.root / "final-merged"
            tailor.merge(output=out)
            weights[name] = TensorFile(CheckpointPaths(out).weights).read_all()
        assert_states_equal(weights["chaos"], weights["ref"])

    def test_grow_leg_accounting(self, tmp_path):
        """A join loses no steps; it costs a sync write plus a reshard read."""
        plan = FaultPlan(events=(rank_join(6),))
        cfg = chaos_config(tmp_path, world_size=2, total_steps=12)
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        timeline = result.fault_timeline
        assert timeline.grows == 1 and timeline.recoveries == 1
        assert timeline.lost_steps == 0
        # Step 6 is off the checkpoint cadence: the join forces a sync
        # write, and the grown world reshards from the 2 source shards.
        assert "join_sync" in timeline.kinds()
        assert timeline.reshard_loads == 2
        assert timeline.reshard_bytes > 0
        assert timeline.recovery_seconds > 0
        recovery = [e for e in timeline.events if e["kind"] == "recovery"][0]
        assert recovery["grow"] is True
        assert recovery["lost_steps"] == 0
        assert recovery["world_size"] == 3

    def test_preemption_is_failure_plus_deferred_join(self, tmp_path):
        """One preemption event drives the whole shrink-then-rejoin arc."""
        plan = FaultPlan(events=(preemption(5, 1, restore_after=4),))
        cfg = chaos_config(tmp_path / "chaos", world_size=2, total_steps=14)
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        assert result.interrupted_at is None
        timeline = result.fault_timeline
        assert timeline.recoveries == 2 and timeline.grows == 1
        assert supervisor.trainer.config.world_size == 2
        kinds = timeline.kinds()
        assert kinds.index("rank_failure") < kinds.index("rank_join")

        recovery = [e for e in timeline.events if e["kind"] == "recovery"][-1]
        ref = Trainer(chaos_config(tmp_path / "ref", world_size=2, total_steps=14))
        ref.resume_from(
            CheckpointPaths(supervisor.trainer.storage.root / recovery["source"])
        )
        ref.train()
        assert_states_equal(
            supervisor.trainer.engine.master_state_dict(),
            ref.engine.master_state_dict(),
        )


# ---------------------------------------------------------------------------
# Goodput accounting: live runs, soak continuation, planner prediction
# ---------------------------------------------------------------------------

class TestGoodput:
    def test_report_arithmetic(self):
        report = GoodputReport(
            useful_steps=10, lost_steps=2, useful_seconds=10.0,
            lost_seconds=2.0, stall_seconds=0.5, recovery_seconds=9.0,
        )
        assert report.busy_seconds == pytest.approx(12.5)
        # Recovery I/O is reported but excluded from the denominator.
        assert report.goodput == pytest.approx(10 / 12.5)
        assert report.to_dict()["goodput"] == report.goodput
        assert "goodput" in report.summary()
        empty = GoodputReport(
            useful_steps=0, lost_steps=0, useful_seconds=0.0,
            lost_seconds=0.0, stall_seconds=0.0, recovery_seconds=0.0,
        )
        assert empty.goodput == 0.0

    def test_clean_run_has_unit_step_goodput(self, tmp_path):
        result = train_with_faults(chaos_config(tmp_path), FaultPlan())
        report = result.goodput
        assert report.useful_steps == 12 and report.lost_steps == 0
        assert report.lost_seconds == 0.0
        assert report.goodput == pytest.approx(
            12 / (report.useful_seconds + report.stall_seconds)
        )

    def test_chaos_run_accounts_lost_and_stall(self, tmp_path):
        plan = FaultPlan(
            events=(preemption(5, 1, restore_after=4), straggler(3, 0, 2.0, duration=2))
        )
        result = train_with_faults(
            chaos_config(tmp_path, total_steps=14), plan
        )
        report = result.goodput
        timeline = result.fault_timeline
        assert report.useful_steps == 14
        assert report.lost_steps == timeline.lost_steps > 0
        assert report.stall_seconds == pytest.approx(
            result.clock["fault_straggler"] + result.clock["comm"]
        )
        assert report.recovery_seconds == pytest.approx(timeline.recovery_seconds)
        assert 0 < report.goodput < 1.0

    def test_planner_predicts_live_goodput(self, tmp_path):
        """plan_fault_cost dry-runs the grow and lands on the same goodput
        as the live run: counts, stall seconds and goodput all ``==``."""
        plan = FaultPlan(
            events=(
                preemption(5, 1, restore_after=4),
                straggler(7, 0, 2.5, duration=3),
                degraded_link(0, 1, 0.5),
            )
        )
        cfg = chaos_config(tmp_path, world_size=3, total_steps=16)
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        cost = plan_fault_cost(
            supervisor.trainer.model_config, plan, world_size=3,
            total_steps=cfg.total_steps,
            checkpoint_interval=cfg.checkpoint_interval,
        )
        timeline = result.fault_timeline
        assert cost.lost_steps == timeline.lost_steps
        assert cost.reshard_loads == timeline.reshard_loads
        assert cost.num_joins == timeline.grows == 1
        assert cost.sync_write_seconds > 0
        assert cost.useful_steps == result.goodput.useful_steps
        assert cost.straggler_seconds == result.clock["fault_straggler"]
        assert cost.comm_seconds == result.clock["comm"]
        assert cost.goodput == result.goodput.goodput
        # The planner's own report mirrors the live layout.
        planned = cost.goodput_report()
        assert planned.useful_steps == result.goodput.useful_steps
        assert planned.lost_steps == result.goodput.lost_steps
        assert_dry_run_equals_live(cost, supervisor, result)

    def test_soak_continuation_resumes_schedule(self, tmp_path):
        """resume=True restarts a finished soak from its newest complete
        checkpoint and treats already-fired events as applied."""
        out = chaos_config(tmp_path, total_steps=12).output_dir
        plan_a = FaultPlan(events=(preemption(5, 1, restore_after=4),))
        cfg_a = chaos_config(tmp_path, total_steps=12)
        assert cfg_a.output_dir == out
        ChaosSupervisor(cfg_a, plan_a).run()

        plan_b = FaultPlan(
            events=(preemption(5, 1, restore_after=4), rank_failure(18, 0))
        )
        cfg_b = chaos_config(tmp_path, total_steps=24)
        supervisor = ChaosSupervisor(cfg_b, plan_b, resume=True)
        result = supervisor.run()
        assert result.final_step == 24
        timeline = result.fault_timeline
        assert "soak_resume" in timeline.kinds()
        assert timeline.recoveries == 1  # only the part-B failure
        # Continuation goodput counts only this invocation's steps.
        assert result.goodput.useful_steps == 12

    def test_soak_continuation_world_size_mismatch_is_loud(self, tmp_path):
        cfg_a = chaos_config(tmp_path, total_steps=12)
        ChaosSupervisor(cfg_a, FaultPlan()).run()
        # Part B claims a join already happened before step 12, implying
        # world size 3 — but checkpoint-12 was written at 2.
        plan_b = FaultPlan(events=(rank_join(6),))
        cfg_b = chaos_config(tmp_path, total_steps=24)
        with pytest.raises(TrainingError, match="soak continuation mismatch"):
            ChaosSupervisor(cfg_b, plan_b, resume=True).run()

    def test_soak_continuation_requires_checkpoint(self, tmp_path):
        cfg = chaos_config(tmp_path, total_steps=12)
        with pytest.raises(TrainingError, match="no complete checkpoint"):
            ChaosSupervisor(cfg, FaultPlan(), resume=True).run()


# ---------------------------------------------------------------------------
# Straggler / degraded-link accounting in live runs
# ---------------------------------------------------------------------------

class TestSlowdownAccounting:
    def test_straggler_charges_exact_clock_penalty(self, tmp_path):
        plan = FaultPlan(events=(straggler(5, 0, 3.0, duration=4),))
        result = train_with_faults(chaos_config(tmp_path, world_size=2), plan)
        # 4 active steps x (3.0 - 1.0) x 1 sim-sec.
        assert result.clock["fault_straggler"] == pytest.approx(8.0)
        assert result.clock["compute"] == pytest.approx(12.0)

    def test_replayed_straggler_recorded_once_but_charged_twice(self, tmp_path):
        """A straggler window inside the replayed segment re-charges the
        clock (the replayed steps really run slow again) but appears in
        the timeline as the single scheduled event it is."""
        plan = FaultPlan(
            events=(straggler(9, 0, 2.0, duration=2), rank_failure(10, 1))
        )
        result = train_with_faults(chaos_config(tmp_path, world_size=2), plan)
        entries = [
            e for e in result.fault_timeline.events if e["kind"] == "straggler"
        ]
        assert len(entries) == 1
        # Steps 9, 10 charged in leg 1, replayed 9, 10 charged again in leg 2.
        assert result.clock["fault_straggler"] == pytest.approx(4.0)

    def test_degraded_link_scales_comm_seconds(self, tmp_path):
        clean = train_with_faults(chaos_config(tmp_path / "a"), FaultPlan())
        degraded = train_with_faults(
            chaos_config(tmp_path / "b"),
            FaultPlan(events=(degraded_link(0, 1, 0.25),)),
        )
        assert clean.clock["comm"] > 0
        assert degraded.clock["comm"] == pytest.approx(clean.clock["comm"] * 4.0)

    def test_clean_plan_is_a_noop_on_training_math(self, tmp_path):
        plain = Trainer(chaos_config(tmp_path / "a")).train()
        chaos = train_with_faults(chaos_config(tmp_path / "b"), FaultPlan())
        assert chaos.final_train_loss == plain.final_train_loss
        assert chaos.final_eval_loss == plain.final_eval_loss
        assert (
            chaos.comm_traffic["bytes_by_op"] == plain.comm_traffic["bytes_by_op"]
        )


# ---------------------------------------------------------------------------
# Bitrot: per-group CRCs catch it; recovery re-reads the replica
# ---------------------------------------------------------------------------

class TestBitrot:
    @pytest.fixture
    def finished_run(self, tmp_path):
        trainer = Trainer(chaos_config(tmp_path, world_size=2))
        trainer.train()
        return trainer

    def test_injected_bitrot_fails_same_world_resume(self, finished_run):
        trainer = finished_run
        ckpt = checkpoint_dir(trainer.storage.root, 8)
        inject_bitrot(ckpt, rank=1, group=2)
        fresh = Trainer(
            TrainConfig.from_dict(trainer.config.to_dict())
        )
        with pytest.raises(CheckpointError, match="CRC"):
            fresh.resume_from(ckpt)

    def test_injected_bitrot_fails_elastic_resume(self, finished_run):
        trainer = finished_run
        ckpt = checkpoint_dir(trainer.storage.root, 8)
        inject_bitrot(ckpt, rank=0, group=1)
        shrunk = Trainer(
            TrainConfig.from_dict(dict(trainer.config.to_dict(), world_size=1))
        )
        with pytest.raises(CheckpointError, match="CRC"):
            shrunk.resume_from(ckpt)

    def test_repair_from_replicas_restores_bitwise(self, finished_run):
        trainer = finished_run
        ckpt = checkpoint_dir(trainer.storage.root, 8)
        pristine = ckpt.shard(1).read_bytes()
        shard = inject_bitrot(ckpt, rank=1, group=0)
        assert shard.read_bytes() != pristine
        repaired = repair_from_replicas(trainer.storage.root)
        assert repaired == [shard]
        assert shard.read_bytes() == pristine
        # Replica consumed: a second repair pass finds nothing.
        assert repair_from_replicas(trainer.storage.root) == []

    def test_inject_requires_existing_group(self, finished_run):
        ckpt = checkpoint_dir(finished_run.storage.root, 8)
        with pytest.raises(CheckpointError):
            inject_bitrot(ckpt, rank=0, group=999)
        with pytest.raises(CheckpointError):
            inject_bitrot(ckpt, rank=7, group=0)

    def test_end_to_end_bitrot_recovery_is_bitwise(self, tmp_path):
        """Bitrot + rank failure: detected, repaired, and still bitwise."""
        plan = FaultPlan(events=(bitrot(8, 0, 2), rank_failure(10, 1)))
        cfg = chaos_config(tmp_path / "chaos", world_size=2)
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        timeline = result.fault_timeline
        assert result.interrupted_at is None
        assert timeline.bitrot_detected == 1
        assert timeline.bitrot_repaired == 1
        assert "bitrot_recovery" in timeline.kinds()

        ref = Trainer(chaos_config(tmp_path / "ref", world_size=1))
        ref.resume_from(
            CheckpointPaths(supervisor.trainer.storage.root / "checkpoint-8")
        )
        ref.train()
        assert_states_equal(
            supervisor.trainer.engine.master_state_dict(),
            ref.engine.master_state_dict(),
        )

    def test_bitrot_group_out_of_range_is_skipped_not_fatal(self, tmp_path):
        plan = FaultPlan(events=(bitrot(4, 0, 999),))
        result = train_with_faults(chaos_config(tmp_path, world_size=2), plan)
        assert result.interrupted_at is None
        skipped = [
            e for e in result.fault_timeline.events if e["kind"] == "bitrot_skipped"
        ]
        assert skipped and skipped[0]["group"] == 999

    def test_bitrot_waits_for_a_checkpoint_carrying_its_group(self, tmp_path):
        """Partial (parity) shards: injection defers to a covering save."""
        cfg = chaos_config(
            tmp_path, world_size=2, checkpoint_strategy="parity",
            strategy_kwargs={"initial_full": False}, total_steps=16,
        )
        # Group 0 (embed/first slot region) is only in every other shard.
        plan = FaultPlan(events=(bitrot(4, 0, 0),))
        result = train_with_faults(cfg, plan)
        assert result.interrupted_at is None
        injected = [
            e for e in result.fault_timeline.events if e["kind"] == "bitrot"
        ]
        assert len(injected) == 1  # fired exactly once, on a covering save

    def test_bitrot_without_replica_fails_loudly(self, finished_run):
        trainer = finished_run
        ckpt = checkpoint_dir(trainer.storage.root, 8)
        inject_bitrot(ckpt, rank=0, group=0, keep_replica=False)
        assert repair_from_replicas(trainer.storage.root) == []
        fresh = Trainer(TrainConfig.from_dict(trainer.config.to_dict()))
        with pytest.raises(CheckpointError, match="CRC"):
            fresh.resume_from(ckpt)


# ---------------------------------------------------------------------------
# Analytic fault-cost planner vs live runs
# ---------------------------------------------------------------------------

class TestPlanFaultCost:
    def test_soak_script_prices_join_sync_config_files_apart(self, tmp_path, capsys):
        """The null leg prices no config files: the soak prints live
        recovery I/O with and without the join-sync saves' config
        charges, and only compression (live bytes below nominal) is
        left between the second figure and the dry run's."""
        path = Path(__file__).resolve().parents[1] / "scripts" / "soak_faults.py"
        spec = importlib.util.spec_from_file_location("soak_faults", path)
        soak = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(soak)
        assert soak.main(["--steps", "40", "-o", str(tmp_path / "run")]) == 0
        line = next(
            ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("recovery I/O:")
        )
        live, less_config, dry = (float(v) for v in re.findall(r"([\d.]+)s", line))
        assert less_config < dry < live

    def test_matches_live_run(self, tmp_path):
        plan = FaultPlan(
            events=(
                rank_failure(10, 2),
                straggler(5, 0, 3.0, duration=4),
                degraded_link(0, 1, 0.25),
            )
        )
        cfg = chaos_config(tmp_path, world_size=3)
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        cost = plan_fault_cost(
            supervisor.trainer.model_config, plan, world_size=3,
            total_steps=cfg.total_steps, checkpoint_interval=cfg.checkpoint_interval,
        )
        timeline = result.fault_timeline
        assert cost.lost_steps == timeline.lost_steps
        assert cost.reshard_loads == timeline.reshard_loads
        assert cost.final_world_size == supervisor.trainer.config.world_size
        assert cost.executed_steps == cfg.total_steps + timeline.lost_steps
        assert cost.straggler_seconds == result.clock["fault_straggler"]
        assert cost.comm_seconds == result.clock["comm"]
        assert_dry_run_equals_live(cost, supervisor, result)

    def test_two_failures_and_rewritten_checkpoints(self, tmp_path):
        plan = FaultPlan(events=(rank_failure(6, 3), rank_failure(10, 1)))
        cfg = chaos_config(tmp_path, world_size=4)
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        cost = plan_fault_cost(
            supervisor.trainer.model_config, plan, world_size=4,
            total_steps=cfg.total_steps, checkpoint_interval=cfg.checkpoint_interval,
        )
        timeline = result.fault_timeline
        assert cost.lost_steps == timeline.lost_steps
        assert cost.reshard_loads == timeline.reshard_loads
        assert cost.final_world_size == 2
        assert_dry_run_equals_live(cost, supervisor, result)

    @pytest.mark.parametrize("strategy, interval, fail_at", [
        ("parity", 4, 10),    # after the second partial checkpoint (step 8)
        ("filtered", 2, 9),   # boundary layers every 2, the middle every 10
    ])
    def test_selective_strategy_recovers_from_merged_trail(
        self, tmp_path, strategy, interval, fail_at
    ):
        """Dry run and live run both auto-merge the partial trail."""
        plan = FaultPlan(
            events=(rank_failure(fail_at, 2), straggler(5, 0, 3.0, duration=4))
        )
        cfg = chaos_config(
            tmp_path, world_size=3, total_steps=16,
            checkpoint_strategy=strategy, checkpoint_interval=interval,
        )
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        cost = dry_run_of(supervisor)
        assert cost.strategy == strategy
        assert [s.split("-")[0] for s in cost.recovery_sources] == ["merged"]
        assert_dry_run_equals_live(cost, supervisor, result)

    def test_failure_before_any_checkpoint_restarts_from_init(self, tmp_path):
        plan = FaultPlan(events=(rank_failure(3, 2),))
        supervisor = ChaosSupervisor(chaos_config(tmp_path, world_size=3), plan)
        result = supervisor.run()
        cost = dry_run_of(supervisor)
        recovery = [e for e in cost.timeline.events if e["kind"] == "recovery"]
        assert [e["resumed_from"] for e in recovery] == [0]
        assert cost.recovery_sources == (None,) and cost.lost_steps == 3
        assert_dry_run_equals_live(cost, supervisor, result)

    def test_dry_run_touches_no_file(self, tmp_path, monkeypatch):
        """plan_fault_cost creates nothing: run it from an empty cwd."""
        from repro.nn import get_config

        monkeypatch.chdir(tmp_path)
        for strategy in ("full", "parity"):
            cost = plan_fault_cost(
                get_config("tiny-untied"),
                FaultPlan(events=(preemption(5, 1, restore_after=4),
                                  rank_failure(14, 0), bitrot(4, 0, 0))),
                world_size=3, total_steps=16, checkpoint_interval=4,
                strategy=strategy,
            )
            assert cost.num_joins == 1 and cost.num_failures == 2
            # bitrot is not priced in a dry run: it neither fires nor repairs.
            assert "bitrot" not in cost.timeline.kinds()
        assert list(tmp_path.iterdir()) == []

    def test_failure_on_checkpoint_step_loses_nothing(self):
        from repro.nn import get_config

        cost = plan_fault_cost(
            get_config("tiny-untied"), FaultPlan(events=(rank_failure(8, 1),)),
            world_size=2, total_steps=12, checkpoint_interval=4,
        )
        assert cost.lost_steps == 0
        assert cost.reshard_loads == 2

    def test_invalid_plan_rejected(self):
        from repro.nn import get_config

        with pytest.raises(ConfigError):
            plan_fault_cost(
                get_config("tiny-untied"), FaultPlan(events=(rank_failure(8, 5),)),
                world_size=2, total_steps=12, checkpoint_interval=4,
            )


# ---------------------------------------------------------------------------
# The recovery policy as a property: random plans over the null leg only
# ---------------------------------------------------------------------------

def _null_run(plan, *, world_size, total_steps, interval, strategy, topology):
    """The supervisor over a null leg, returning the raw TrainResult."""
    from functools import partial
    from pathlib import Path

    from repro.io import RunIndex
    from repro.nn import get_config
    from repro.train.supervisor import NullLeg

    cfg = TrainConfig(
        model="tiny-untied", output_dir="<dry-run>", world_size=world_size,
        total_steps=total_steps, checkpoint_strategy=strategy,
        checkpoint_interval=interval,
        topology=None if topology is None else topology.to_dict(),
    )
    leg = partial(NullLeg, model_config=get_config("tiny-untied"),
                  disk=RunIndex(Path(cfg.output_dir), manifests={}))
    supervisor = ChaosSupervisor(cfg, plan, _leg=leg)
    return supervisor, supervisor.run()


class TestRecoveryPolicyProperties:
    @staticmethod
    def _events(draw, world_size, total_steps, topology):
        step = st.integers(1, total_steps)
        rank = st.integers(0, world_size - 1)
        kinds = [
            st.builds(rank_failure, step, rank),
            st.builds(rank_join, step),
            st.builds(preemption, step, rank, st.integers(1, total_steps)),
            st.builds(straggler, step, rank, st.sampled_from([1.5, 3.0]),
                      duration=st.integers(1, 4)),
        ]
        if topology is not None:
            from repro.dist.faults import node_failure

            kinds.append(st.builds(node_failure, step, st.integers(0, 1)))
        return tuple(draw(st.lists(st.one_of(kinds), max_size=5)))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_random_plans(self, data):
        from repro.dist.topology import Topology

        world_size = data.draw(st.integers(1, 4), label="world_size")
        total_steps = data.draw(st.integers(4, 24), label="total_steps")
        interval = data.draw(st.integers(1, 6), label="interval")
        strategy = data.draw(st.sampled_from(["full", "parity"]), label="strategy")
        topology = data.draw(
            st.sampled_from([None, Topology(nodes=2, ranks_per_node=2)]),
            label="topology",
        )
        plan = FaultPlan(events=self._events(
            data.draw, world_size, total_steps, topology))
        try:
            plan.validate(world_size, total_steps, topology=topology)
        except ConfigError:
            assume(False)

        supervisor, result = _null_run(
            plan, world_size=world_size, total_steps=total_steps,
            interval=interval, strategy=strategy, topology=topology,
        )
        timeline, report = result.fault_timeline, result.goodput

        # The run finishes, and the books balance: every executed step
        # is either useful or was replayed.
        assert result.interrupted_at is None
        assert result.final_step == report.useful_steps == total_steps
        executed = result.clock["compute"] / supervisor.config.sim_step_seconds
        assert executed == report.useful_steps + report.lost_steps
        assert supervisor.trainer.config.world_size >= 1

        synced: list[int] = []  # join-sync checkpoints written so far
        lost = 0
        for event in timeline.events:
            if event["kind"] == "join_sync":
                synced.append(event["step"])
            if event["kind"] != "recovery":
                continue
            at, resumed = event["step"], event["resumed_from"]
            assert event["world_size"] >= 1
            if event.get("grow"):
                # Growing never loses a step.
                assert resumed == at and event["lost_steps"] == 0
                continue
            assert event["lost_steps"] == at - resumed >= 0
            lost += at - resumed
            # Every checkpoint step that exists at the failure: the
            # cadence writes up to it and the join-syncs before it.
            cadence = list(range(interval, at + 1, interval))
            exists = {*cadence, *(s for s in synced if s <= at)}
            assert resumed in exists | {0}
            newest = max(exists, default=0)
            if strategy == "full":
                # Every checkpoint is complete: resume from the newest.
                assert resumed == newest
            else:
                # Never worse than the newest known-complete checkpoint
                # (the leg's first cadence write, any join-sync); a
                # merged trail anchors at the newest checkpoint of all.
                known_complete = {*cadence[:1], *(s for s in synced if s <= at)}
                assert resumed >= max(known_complete, default=0)
                if (event["source"] or "").startswith("merged-"):
                    assert resumed == newest
            assert (event["source"] is None) == (resumed == 0)
        assert lost == timeline.lost_steps == report.lost_steps


class TestLegWorldsFollowTrajectory:
    """Every leg the supervisor builds runs at the world the plan's
    trajectory names, in a dry run and live."""

    @staticmethod
    def _trajectory_worlds(plan, cfg):
        entries = plan.trajectory(cfg.world_size, topology=cfg.resolved_topology)
        return [cfg.world_size] + [
            world for ev, world in entries if ev.step <= cfg.total_steps
        ]

    @staticmethod
    def _leg_worlds(cfg, plan, leg):
        worlds: list[int] = []

        def build(config, **kwargs):
            worlds.append(config.world_size)
            return leg(config, **kwargs)

        ChaosSupervisor(cfg, plan, _leg=build).run()
        return worlds

    @staticmethod
    def _null_leg(cfg):
        from functools import partial
        from pathlib import Path

        from repro.io import RunIndex
        from repro.nn import get_config
        from repro.train.supervisor import NullLeg

        return partial(NullLeg, model_config=get_config("tiny-untied"),
                       disk=RunIndex(Path(cfg.output_dir), manifests={}))

    # Shrink, grow, then a node's two deaths at one step in separate legs.
    NODE_PLAN = FaultPlan(events=(
        preemption(3, 1, restore_after=4),
        node_failure(9, 1),
    ))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_sampled_preemption_traces_dry_run(self, seed):
        plan = FaultPlan.sample_preemption_trace(seed=seed, world_size=3, total_steps=60)
        cfg = TrainConfig(model="tiny-untied", output_dir="<dry-run>", world_size=3,
                          total_steps=60, checkpoint_interval=4)
        expected = self._trajectory_worlds(plan, cfg)
        assert len(expected) > 1
        assert self._leg_worlds(cfg, plan, self._null_leg(cfg)) == expected

    def test_node_failure_under_topology_dry_run_and_live(self, tmp_path):
        topology = Topology(nodes=2, ranks_per_node=2).to_dict()
        dry = TrainConfig(model="tiny-untied", output_dir="<dry-run>", world_size=4,
                          total_steps=12, checkpoint_interval=3, topology=topology)
        expected = self._trajectory_worlds(self.NODE_PLAN, dry)
        assert expected == [4, 3, 4, 3, 2]
        assert self._leg_worlds(dry, self.NODE_PLAN, self._null_leg(dry)) == expected
        live = chaos_config(tmp_path, world_size=4, checkpoint_interval=3,
                            topology=topology)
        assert self._leg_worlds(live, self.NODE_PLAN, Trainer) == expected


# ---------------------------------------------------------------------------
# CLI: llmtailor train --faults / plan --faults
# ---------------------------------------------------------------------------

class TestCli:
    PLAN_YAML = (
        "seed: 3\n"
        "events:\n"
        "  - kind: straggler\n"
        "    step: 3\n"
        "    rank: 0\n"
        "    slowdown: 2.0\n"
        "    duration: 2\n"
        "  - kind: rank_failure\n"
        "    step: 7\n"
        "    rank: 1\n"
    )

    def test_train_with_faults(self, tmp_path, capsys):
        from repro.cli import main

        plan_path = tmp_path / "plan.yaml"
        plan_path.write_text(self.PLAN_YAML)
        rc = main([
            "train", "-o", str(tmp_path / "run"), "--steps", "8",
            "--interval", "4", "--world-size", "2", "--seq-len", "32",
            "--faults", str(plan_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "completed at step 8" in out
        assert "rank_failure" in out and "recovery" in out
        # The run survived the shrink: checkpoints exist and latest loads.
        assert list_checkpoint_steps(tmp_path / "run") == [4, 8]

    @pytest.mark.parametrize("document", [
        "events: " + "[" * 5000 + "]" * 5000 + "\n",
        "".join(" " * i + f"k{i}:\n" for i in range(3000)),
        "".join("  " * i + "-\n" for i in range(3000)),
    ], ids=["flow-list", "block-map", "block-list"])
    def test_deeply_nested_document_exits_2(self, tmp_path, capsys, document):
        from repro.cli import main

        (tmp_path / "deep.yaml").write_text(document)
        for argv in (
            ["plan", "tiny-untied", "full", "--faults", str(tmp_path / "deep.yaml")],
            ["train", "-o", str(tmp_path / "run"), "--faults", str(tmp_path / "deep.yaml")],
        ):
            assert main(argv) == 2
            streams = capsys.readouterr()
            assert streams.out == ""
            assert streams.err.startswith("error: fault plan ")
            assert "line " in streams.err and "nested deeper than" in streams.err
        assert not (tmp_path / "run").exists()

    SOAK_PART_A = (
        "events:\n"
        "  - kind: preemption\n"
        "    step: 5\n"
        "    rank: 1\n"
        "    restore_after: 4\n"
    )
    SOAK_PART_B = SOAK_PART_A + (
        "  - kind: rank_failure\n"
        "    step: 18\n"
        "    rank: 0\n"
    )

    def test_train_resume_continues_soak(self, tmp_path, capsys):
        """--resume --faults is a supported soak continuation: part B
        extends the horizon with the same schedule prefix plus later
        events, restarting from part A's newest complete checkpoint."""
        from repro.cli import main

        (tmp_path / "a.yaml").write_text(self.SOAK_PART_A)
        (tmp_path / "b.yaml").write_text(self.SOAK_PART_B)
        base = [
            "train", "-o", str(tmp_path / "run"), "--interval", "4",
            "--world-size", "2", "--seq-len", "32",
        ]
        rc = main(base + ["--steps", "12", "--faults", str(tmp_path / "a.yaml")])
        assert rc == 0
        out_a = capsys.readouterr().out
        assert "completed at step 12" in out_a
        assert "rank_join" in out_a and "goodput" in out_a

        rc = main(
            base
            + ["--steps", "24", "--faults", str(tmp_path / "b.yaml"), "--resume"]
        )
        out_b = capsys.readouterr().out
        assert rc == 0
        assert "completed at step 24" in out_b
        assert "soak_resume" in out_b
        assert list_checkpoint_steps(tmp_path / "run")[-1] == 24

    def test_faults_subcommand_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.yaml"
        rc = main([
            "faults", "-o", str(trace), "--seed", "11",
            "--world-size", "4", "--steps", "200",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "preemption" in out
        plan = FaultPlan.from_yaml(trace)
        assert plan.preemptions
        plan.validate(4, 200)
        # Same seed, same trace.
        rc = main([
            "faults", "-o", str(tmp_path / "again.yaml"), "--seed", "11",
            "--world-size", "4", "--steps", "200",
        ])
        assert rc == 0
        assert FaultPlan.from_yaml(tmp_path / "again.yaml") == plan

    def test_train_without_faults(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "train", "-o", str(tmp_path / "run"), "--steps", "4",
            "--interval", "4", "--world-size", "1", "--seq-len", "32",
        ])
        assert rc == 0
        assert "completed at step 4" in capsys.readouterr().out

    def test_plan_faults_estimate(self, tmp_path, capsys):
        from repro.cli import main

        plan_path = tmp_path / "plan.yaml"
        plan_path.write_text(self.PLAN_YAML)
        rc = main([
            "plan", "llama3.2-1b-sim", "full", "--steps", "100",
            "--interval", "10", "--world-size", "4",
            "--faults", str(plan_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault-plan estimate" in out
        assert "lost (replayed) steps  : 7" in out  # failure at 7, interval 10
        assert "recovery sources       : init" in out

    def test_plan_faults_passes_strategy_and_interval(self, tmp_path, capsys):
        """STRATEGY reaches the dry run: a parity trail recovers by merge."""
        from repro.cli import main

        plan_path = tmp_path / "plan.yaml"
        plan_path.write_text(self.PLAN_YAML.replace("step: 7", "step: 9"))
        rc = main([
            "plan", "tiny-untied", "parity", "--steps", "16", "--interval", "4",
            "--world-size", "3", "--faults", str(plan_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault-plan estimate (parity dry run" in out
        assert "recovery sources       : merged-8" in out
        assert "lost (replayed) steps  : 1" in out


# ---------------------------------------------------------------------------
# Callback / error surface details
# ---------------------------------------------------------------------------

class TestChaosPlumbing:
    def test_rank_failure_is_a_simulated_failure(self):
        from repro.util.errors import SimulatedFailure

        err = RankFailure(7, 3)
        assert isinstance(err, SimulatedFailure)
        assert err.step == 7 and err.rank == 3

    def test_standalone_trainer_reports_failed_rank(self, tmp_path):
        plan = FaultPlan(events=(rank_failure(6, 1),))
        trainer = Trainer(chaos_config(tmp_path), fault_plan=plan)
        result = trainer.train()
        assert result.interrupted_at == 6
        assert result.failed_rank == 1
        assert result.fault_timeline.kinds() == ["rank_failure"]

    def test_rewritten_checkpoint_drops_stale_rank_shards(self, tmp_path):
        """Replaying a checkpointed step at N-1 ranks cleans rank N-1's shard."""
        plan = FaultPlan(events=(rank_failure(10, 2),))
        cfg = chaos_config(tmp_path, world_size=3)
        supervisor = ChaosSupervisor(cfg, plan)
        supervisor.run()
        root = supervisor.trainer.storage.root
        assert list_checkpoint_steps(root) == [4, 8, 12]
        # Step 12 was written by the shrunk (ws 2) leg: exactly 2 shards.
        ckpt = checkpoint_dir(root, 12)
        assert int(ckpt.read_manifest()["world_size"]) == 2
        shards = sorted(ckpt.optim_dir.glob("zero_pp_rank_*_optim_states.blob"))
        assert len(shards) == 2

    def test_faults_compose_with_retention(self, tmp_path):
        plan = FaultPlan(events=(rank_failure(10, 1),))
        cfg = chaos_config(tmp_path, world_size=2, max_checkpoints=2)
        result = train_with_faults(cfg, plan)
        assert result.interrupted_at is None
        assert result.final_step == 12
