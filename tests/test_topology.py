"""Hierarchical topology: cluster shapes, bitwise identity, cost parity.

The tentpole invariant is absolute: a hierarchical run over any
``nodes x ranks_per_node`` cluster produces **bitwise-identical**
masters, Adam moments, and bf16 weights to the flat ring at the same
world size — the hierarchy lives entirely in the cost model.  The
property battery sweeps cluster shapes over world sizes 1–8 and pins
every collective's per-link-class byte accounting to the closed-form
2D algebra (``Topology.collective_bytes`` and what ``SimComm.charge``
records); the trainer-level tests extend the identity through chaos
recovery; the validation tests close the dangling degraded-link gap.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import SimComm, Topology, reshard_checkpoint
from repro.dist.faults import (
    FaultPlan,
    degraded_link,
    node_failure,
    rank_failure,
    rank_join,
)
from repro.dist.reshard import placement_transfer_bytes
from repro.dist.topology import LINK_CLASSES
from repro.io import CheckpointPaths
from repro.nn import get_config
from repro.strategies import (
    plan_fault_cost,
    plan_reshard_cost,
    plan_step_traffic,
)
from repro.train import ChaosSupervisor, TrainConfig, Trainer
from repro.util.errors import ConfigError, DistError

from conftest import (
    assert_dry_run_equals_live,
    dry_comm_stats,
    dry_run_of,
)

REL = 1e-9


def topo_config(tmp_path, *, topology: Topology | None, **overrides) -> TrainConfig:
    base = dict(
        model="tiny-untied", task="cpt", total_steps=6,
        checkpoint_strategy="full", checkpoint_interval=3,
        output_dir=str(tmp_path), world_size=4,
        micro_batch_size=1, grad_accum_steps=1, seq_len=32, log_every=3,
        topology=None if topology is None else topology.to_dict(),
    )
    base.update(overrides)
    return TrainConfig(**base)


def assert_states_equal(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


def assert_rank_shards_equal(eng_a, eng_b) -> None:
    assert eng_a.world_size == eng_b.world_size
    for rank in range(eng_a.world_size):
        a, b = eng_a.rank_state_dict(rank), eng_b.rank_state_dict(rank)
        assert set(a["fp32_flat_groups"]) == set(b["fp32_flat_groups"])
        for g, flat in a["fp32_flat_groups"].items():
            np.testing.assert_array_equal(flat, b["fp32_flat_groups"][g])
            np.testing.assert_array_equal(
                a["state"][g]["exp_avg"], b["state"][g]["exp_avg"]
            )
            np.testing.assert_array_equal(
                a["state"][g]["exp_avg_sq"], b["state"][g]["exp_avg_sq"]
            )


def assert_trainers_bitwise(tr_a, tr_b) -> None:
    assert_states_equal(tr_a.engine.master_state_dict(), tr_b.engine.master_state_dict())
    assert_states_equal(tr_a.model.state_dict(), tr_b.model.state_dict())
    assert_rank_shards_equal(tr_a.engine, tr_b.engine)


# ---------------------------------------------------------------------------
# Topology: the shape object itself
# ---------------------------------------------------------------------------

class TestTopology:
    def test_shape_and_capacity(self):
        topo = Topology(nodes=2, ranks_per_node=4)
        assert topo.world_size == 8
        assert topo.shape == "2x4"
        assert topo.node_of(0) == 0 and topo.node_of(5) == 1
        assert topo.local_rank(5) == 1
        assert topo.node_ranks(1) == [4, 5, 6, 7]
        assert topo.node_ranks(1, world_size=6) == [4, 5]
        assert topo.leaders() == [0, 4]
        assert topo.leaders(world_size=4) == [0]

    def test_group_shape_elastic(self):
        topo = Topology(nodes=2, ranks_per_node=4)
        assert topo.group_shape(8) == (2, 4)
        assert topo.group_shape(5) == (2, 4)
        assert topo.group_shape(3) == (1, 3)  # below one node: flat
        assert topo.group_shape(1) == (1, 1)
        with pytest.raises(DistError):
            topo.group_shape(9)
        with pytest.raises(DistError):
            topo.group_shape(0)

    @pytest.mark.parametrize("bad", [
        {"nodes": 0, "ranks_per_node": 2},
        {"nodes": 2, "ranks_per_node": -1},
        {"nodes": 2.0, "ranks_per_node": 2},
        {"nodes": True, "ranks_per_node": 2},
        {"nodes": 2, "ranks_per_node": 2, "intra_bandwidth": 0.0},
        {"nodes": 2, "ranks_per_node": 2, "inter_bandwidth": float("inf")},
        {"nodes": 2, "ranks_per_node": 2, "inter_bandwidth": "fast"},
    ])
    def test_invalid_construction(self, bad):
        with pytest.raises(DistError):
            Topology(**bad)

    def test_rank_out_of_range(self):
        topo = Topology(nodes=2, ranks_per_node=2)
        with pytest.raises(DistError):
            topo.node_of(4)
        with pytest.raises(DistError):
            topo.node_of(-1)
        with pytest.raises(DistError):
            topo.node_ranks(2)

    def test_link_classes(self):
        topo = Topology(nodes=2, ranks_per_node=2)
        assert topo.link_class(0, 1) == "intra"
        assert topo.link_class(1, 2) == "inter"
        assert topo.bandwidth("intra") == topo.intra_bandwidth
        assert topo.bandwidth("inter") == topo.inter_bandwidth
        with pytest.raises(DistError):
            topo.bandwidth("warp")

    def test_has_link_is_the_2d_edge_set(self):
        topo = Topology(nodes=2, ranks_per_node=2)
        assert topo.has_link(0, 1)       # intra-node pair
        assert topo.has_link(0, 2)       # leader-to-leader
        assert not topo.has_link(1, 3)   # non-leaders on different nodes
        assert not topo.has_link(1, 2)
        assert not topo.has_link(0, 0)   # self-loop is not an edge

    def test_from_shape(self):
        topo = Topology.from_shape("3x2", inter_bandwidth=1e9)
        assert (topo.nodes, topo.ranks_per_node) == (3, 2)
        assert topo.inter_bandwidth == 1e9
        for bad in ("3", "3x", "ax2", "3x2x1", ""):
            with pytest.raises(DistError):
                Topology.from_shape(bad)

    def test_dict_round_trip_and_unknown_keys(self):
        topo = Topology(nodes=2, ranks_per_node=3, intra_bandwidth=2e11)
        assert Topology.from_dict(topo.to_dict()) == topo
        with pytest.raises(DistError):
            Topology.from_dict({"nodes": 2, "ranks_per_node": 2, "gpus": 8})
        with pytest.raises(DistError):
            Topology.from_dict({"nodes": 2})
        with pytest.raises(DistError):
            Topology.from_dict([2, 2])

    def test_yaml_round_trip(self, tmp_path):
        topo = Topology(nodes=4, ranks_per_node=2, inter_bandwidth=12.5e9)
        topo.to_yaml(tmp_path / "cluster.yaml")
        assert Topology.from_yaml(tmp_path / "cluster.yaml") == topo

    def test_describe(self):
        text = Topology(nodes=2, ranks_per_node=4).describe()
        assert "2x4" in text and "8 ranks" in text


# ---------------------------------------------------------------------------
# Property battery: every collective, every cluster shape, ws 2-8
# ---------------------------------------------------------------------------

@st.composite
def _clusters(draw):
    """(Topology, world_size) with 2 <= world_size <= min(8, capacity)."""
    nodes = draw(st.integers(min_value=1, max_value=4))
    ranks_per_node = draw(st.integers(min_value=1, max_value=4))
    if nodes * ranks_per_node < 2:
        nodes, ranks_per_node = 2, 1
    ws = draw(st.integers(min_value=2, max_value=min(8, nodes * ranks_per_node)))
    return Topology(nodes=nodes, ranks_per_node=ranks_per_node), ws


OPS = ("all_reduce", "reduce_scatter", "all_gather", "broadcast")


def _closed_form(topo: Topology, op: str, nbytes: float, ws: int) -> dict:
    """The documented 2D algebra, re-derived independently of the code."""
    occupied = math.ceil(ws / topo.ranks_per_node)
    per_group = min(ws, topo.ranks_per_node)
    f_i = (per_group - 1) / per_group
    f_n = (occupied - 1) / occupied
    if op == "all_reduce":
        return {"intra": 2 * f_i * nbytes, "inter": 2 * f_n * nbytes / per_group}
    if op in ("reduce_scatter", "all_gather"):
        return {"intra": f_i * nbytes, "inter": f_n * nbytes / per_group}
    return {"intra": f_i * nbytes, "inter": f_n * nbytes}


class TestCollectiveAlgebra:
    @settings(max_examples=120, deadline=None)
    @given(cluster=_clusters(),
           op=st.sampled_from(("all_reduce", "reduce_scatter", "all_gather",
                               "broadcast")),
           numel=st.integers(min_value=1, max_value=64))
    def test_collective_bytes_match_closed_form(self, cluster, op, numel):
        topo, ws = cluster
        nbytes = float(numel * 4)
        split = topo.collective_bytes(op, nbytes, ws)
        expected = _closed_form(topo, op, nbytes, ws)
        assert set(split) == set(LINK_CLASSES)
        for link_class in LINK_CLASSES:
            assert split[link_class] == pytest.approx(
                expected[link_class], rel=REL, abs=0.0
            )

    @settings(max_examples=60, deadline=None)
    @given(cluster=_clusters(),
           op=st.sampled_from(("all_reduce", "reduce_scatter", "all_gather",
                               "broadcast")),
           numel=st.integers(min_value=1, max_value=64))
    def test_degenerate_shapes_recover_the_flat_ring(self, cluster, op, numel):
        topo, ws = cluster
        nbytes = float(numel * 4)
        split = topo.collective_bytes(op, nbytes, ws)
        flat = (2.0 if op == "all_reduce" else 1.0) * (ws - 1) / ws * nbytes
        if topo.nodes == 1:
            assert split["inter"] == 0.0
            assert split["intra"] == pytest.approx(flat, rel=REL)
        if topo.ranks_per_node == 1:
            assert split["intra"] == 0.0
            assert split["inter"] == pytest.approx(flat, rel=REL)

    @settings(max_examples=200, deadline=None)
    @given(nodes=st.integers(min_value=1, max_value=5),
           ranks_per_node=st.integers(min_value=1, max_value=5),
           fill=st.floats(min_value=0.0, max_value=1.0),
           op=st.sampled_from(OPS),
           nbytes=st.integers(min_value=0, max_value=2**34))
    def test_charge_states_the_algebra_literally(self, nodes, ranks_per_node, fill, op, nbytes):
        """What the one communicator records, against the cost algebra
        written out: the four rows of docs/topology.md under a topology,
        ``(n-1)/n * B`` (x2 for all-reduce) on the flat ring — which is
        the one-rank-per-node topology, bit for bit."""
        topo = Topology(nodes=nodes, ranks_per_node=ranks_per_node)
        ws = 1 + round(fill * (topo.world_size - 1))  # any ws <= capacity
        hier = SimComm(ws, topo)
        hier.charge(op, nbytes)
        expected = _closed_form(topo, op, float(nbytes), ws)
        assert hier.stats.bytes_by_op == {
            f"{op}/{c}": pytest.approx(expected[c], rel=REL, abs=0.0) for c in LINK_CLASSES
        }
        assert hier.stats.calls_by_op == {f"{op}/intra": 1, f"{op}/inter": 1}

        flat = SimComm(ws)
        flat.charge(op, nbytes)
        ring = (2 if op == "all_reduce" else 1) * (ws - 1) / ws * nbytes
        assert flat.stats.bytes_by_op == {op: pytest.approx(ring, rel=REL, abs=0.0)}
        assert flat.stats.calls_by_op == {op: 1}
        per_node = SimComm(ws, Topology(nodes=ws, ranks_per_node=1))
        per_node.charge(op, nbytes)
        assert per_node.stats.bytes_by_op == {
            f"{op}/intra": 0.0, f"{op}/inter": flat.stats.bytes_by_op[op],
        }
        # The communicator precomputes bytes per payload byte; the formula
        # itself must agree with what it charges exactly.
        assert hier.class_bytes(op) == topo.collective_bytes(op, nbytes, ws)

    def test_world_size_one_is_free(self):
        topo = Topology(nodes=2, ranks_per_node=2)
        for op in ("all_reduce", "reduce_scatter", "all_gather", "broadcast"):
            assert topo.collective_bytes(op, 4096.0, 1) == {"intra": 0.0, "inter": 0.0}

    def test_unknown_op_rejected(self):
        with pytest.raises(DistError):
            Topology(nodes=2, ranks_per_node=2).collective_bytes("gossip", 1.0, 4)


class TestHierCommBitwise:
    """A communicator with a topology == one without, bitwise, per
    collective, across shapes (the retired ``HierComm`` subclass's
    battery, ported: the topology is a constructor argument now)."""

    @settings(max_examples=60, deadline=None)
    @given(cluster=_clusters(), shard=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_all_collectives_bitwise_and_accounted(self, cluster, shard, seed):
        topo, ws = cluster
        flat, hier = SimComm(ws), SimComm(ws, topo)
        rng = np.random.default_rng(seed)
        bufs = [rng.standard_normal(ws * shard).astype(np.float32)
                for _ in range(ws)]

        a = flat.all_reduce_mean([b.copy() for b in bufs])
        b = hier.all_reduce_mean([b.copy() for b in bufs])
        assert a.tobytes() == b.tobytes()

        for out_flat, out_hier in zip(
            flat.reduce_scatter_mean([b.copy() for b in bufs]),
            hier.reduce_scatter_mean([b.copy() for b in bufs]),
        ):
            assert out_flat.tobytes() == out_hier.tobytes()

        shards = [rng.standard_normal(shard).astype(np.float32) for _ in range(ws)]
        assert flat.all_gather(shards).tobytes() == hier.all_gather(shards).tobytes()

        root_buf = rng.standard_normal(shard).astype(np.float32)
        for out_flat, out_hier in zip(
            flat.broadcast(root_buf), hier.broadcast(root_buf)
        ):
            assert out_flat.tobytes() == out_hier.tobytes()

        # Per-link-class accounting: suffixed ops only, bytes equal to
        # the closed-form split of exactly what the flat comm charged.
        assert all("/" in op for op in hier.stats.bytes_by_op)
        for op, flat_bytes in flat.stats.bytes_by_op.items():
            raw = flat_bytes / ((2.0 if op == "all_reduce" else 1.0) * (ws - 1) / ws)
            split = topo.collective_bytes(op, raw, ws)
            for link_class in LINK_CLASSES:
                assert hier.stats.bytes_by_op[f"{op}/{link_class}"] == pytest.approx(
                    split[link_class], rel=REL, abs=0.0
                )
                assert (hier.stats.calls_by_op[f"{op}/{link_class}"]
                        == flat.stats.calls_by_op[op])

    def test_capacity_check(self):
        with pytest.raises(DistError):
            SimComm(5, Topology(nodes=2, ranks_per_node=2))
        with pytest.raises(DistError):
            SimComm(2, topology="2x2")

    def test_single_node_totals_match_flat(self):
        """A 1xR cluster charges the flat ring's bytes, all intra."""
        flat, hier = SimComm(4), SimComm(4, Topology(nodes=1, ranks_per_node=4))
        bufs = [np.ones(8, dtype=np.float32) for _ in range(4)]
        flat.all_reduce_mean(bufs)
        hier.all_reduce_mean(bufs)
        assert hier.stats.total_bytes() == flat.stats.total_bytes()
        assert hier.stats.bytes_by_op["all_reduce/inter"] == 0.0


# ---------------------------------------------------------------------------
# Trainer-level identity: flat == hierarchical, end to end
# ---------------------------------------------------------------------------

class TestTrainerBitwise:
    @pytest.mark.parametrize("shape", ["2x2", "4x1", "1x4"])
    def test_final_state_bitwise_equal_to_flat(self, tmp_path, shape):
        flat = Trainer(topo_config(tmp_path / "flat", topology=None))
        flat.train()
        hier = Trainer(
            topo_config(tmp_path / shape, topology=Topology.from_shape(shape))
        )
        hier.train()
        assert_trainers_bitwise(flat, hier)
        # The hierarchical run accounted every byte per link class.
        ops = hier.engine.comm.stats.bytes_by_op
        assert ops and all("/" in op for op in ops)

    def test_live_bytes_match_planner(self, tmp_path):
        """Live counters == the same charges run dry, with ``==``: the
        planner runs the communicator.  Shapes include the flat ring and
        a partially filled last node."""
        model = get_config("tiny-untied")
        for shape, ws in ((None, 3), ("2x2", 4), ("2x4", 5), ("2x4", 7)):
            topo = shape and Topology.from_shape(shape)
            trainer = Trainer(topo_config(
                tmp_path / f"{shape}-{ws}", topology=topo, world_size=ws,
                total_steps=3, checkpoint_interval=3,
            ))
            trainer.train()
            live = trainer.engine.comm.stats
            dry = dry_comm_stats(model, ws, 3, topology=topo)
            assert live.bytes_by_op == dry.bytes_by_op
            assert live.calls_by_op == dry.calls_by_op
            traffic = plan_step_traffic(model, world_size=ws, topology=topo)
            one = dry_comm_stats(model, ws, 1, topology=topo).bytes_by_op
            planned = {
                (f"{op}/{c}" if topo else op): value
                for op, split in traffic.link_bytes.items() for c, value in split.items()
            }
            assert planned == one
            assert traffic.total_bytes == sum(one.values())

    def test_config_capacity_and_round_trip(self, tmp_path):
        topo = Topology(nodes=2, ranks_per_node=2)
        with pytest.raises(ConfigError):
            topo_config(tmp_path, topology=topo, world_size=5)
        cfg = topo_config(tmp_path, topology=topo)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.resolved_topology == topo
        assert topo_config(tmp_path, topology=None).resolved_topology is None


# ---------------------------------------------------------------------------
# Chaos under a topology: grow/shrink identity, node faults, link pricing
# ---------------------------------------------------------------------------

class TestChaosUnderTopology:
    def test_grow_then_shrink_bitwise(self, tmp_path):
        """2→3→2 chaos under 2x2 == clean reference at the final world."""
        topo = Topology(nodes=2, ranks_per_node=2)
        plan = FaultPlan(events=(rank_join(6), rank_failure(10, 2)))
        cfg = topo_config(
            tmp_path / "chaos", topology=topo, world_size=2, total_steps=14,
            checkpoint_interval=4,
        )
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        assert result.interrupted_at is None
        timeline = result.fault_timeline
        assert timeline.grows == 1 and timeline.recoveries == 2

        recovery = [e for e in timeline.events if e["kind"] == "recovery"][-1]
        ref = Trainer(topo_config(
            tmp_path / "ref", topology=topo, world_size=2, total_steps=14,
            checkpoint_interval=4,
        ))
        source = supervisor.trainer.storage.root / recovery["source"]
        assert ref.resume_from(CheckpointPaths(source)) == recovery["resumed_from"]
        assert ref.train().interrupted_at is None
        assert_trainers_bitwise(supervisor.trainer, ref)

    def test_chaos_equals_flat_chaos_bitwise(self, tmp_path):
        """The same fault plan, flat vs hierarchical: identical final state."""
        plan = FaultPlan(events=(rank_failure(4, 1), rank_join(8)))
        flat = ChaosSupervisor(
            topo_config(tmp_path / "flat", topology=None, world_size=3,
                        total_steps=12, checkpoint_interval=4),
            plan,
        )
        assert flat.run().interrupted_at is None
        hier = ChaosSupervisor(
            topo_config(tmp_path / "2x2", topology=Topology(2, 2), world_size=3,
                        total_steps=12, checkpoint_interval=4),
            plan,
        )
        assert hier.run().interrupted_at is None
        assert_trainers_bitwise(flat.trainer, hier.trainer)

    def test_node_failure_expands_to_block(self):
        topo = Topology(nodes=2, ranks_per_node=2)
        plan = FaultPlan(events=(node_failure(6, 1),))
        events = plan.world_events(topo)
        assert len(events) == 2
        assert all(ev.kind == "rank_failure" for ev in events)
        # Both deaths target the node's first rank: contiguous
        # renumbering after each shrink walks the whole block out.
        assert [ev.rank for ev in events] == [2, 2]
        assert all(ev.node == 1 for ev in events)

    def test_node_failure_requires_topology(self):
        plan = FaultPlan(events=(node_failure(6, 1),))
        with pytest.raises(ConfigError, match="requires a topology"):
            plan.world_events()
        with pytest.raises(ConfigError):
            plan.validate(4, 12)

    def test_node_failure_validation(self):
        topo = Topology(nodes=2, ranks_per_node=2)
        with pytest.raises(ConfigError):  # node out of range
            FaultPlan(events=(node_failure(6, 2),)).validate(4, 12, topology=topo)
        with pytest.raises(ConfigError):  # would leave no survivors
            FaultPlan(
                events=(node_failure(4, 0), node_failure(8, 1))
            ).validate(4, 12, topology=topo)
        with pytest.raises(ConfigError):  # world exceeds cluster capacity
            FaultPlan().validate(5, 12, topology=topo)

    def test_node_failure_live_and_planned(self, tmp_path):
        topo = Topology(nodes=2, ranks_per_node=2)
        plan = FaultPlan(events=(node_failure(6, 1),))
        cfg = topo_config(tmp_path, topology=topo, world_size=4,
                          total_steps=12, checkpoint_interval=3)
        supervisor = ChaosSupervisor(cfg, plan)
        result = supervisor.run()
        assert result.interrupted_at is None
        assert supervisor.trainer.config.world_size == 2
        timeline = result.fault_timeline
        assert timeline.recoveries == 2

        cost = plan_fault_cost(
            get_config("tiny-untied"), plan, world_size=4, total_steps=12,
            checkpoint_interval=3, topology=topo,
        )
        assert cost.final_world_size == 2
        assert cost.lost_steps == timeline.lost_steps
        assert cost.topology == "2x2"
        # Same model config as the live run (its tokenizer fixes the
        # vocabulary): per-link-class seconds and goodput are equal.
        assert_dry_run_equals_live(dry_run_of(supervisor), supervisor, result)


class TestDegradedLinkValidation:
    """Satellite fix: links off the 2D edge set fail validation loudly."""

    def test_non_edge_rejected_under_topology(self):
        topo = Topology(nodes=2, ranks_per_node=2)
        plan = FaultPlan(events=(degraded_link(1, 3, 0.5, step=2),))
        with pytest.raises(ConfigError, match="not .*edge|edge"):
            plan.validate(4, 12, topology=topo)
        # Without a topology the legacy flat-ring behavior is preserved.
        plan.validate(4, 12)

    def test_out_of_range_endpoint_rejected(self):
        topo = Topology(nodes=2, ranks_per_node=2)
        plan = FaultPlan(events=(degraded_link(0, 2, 0.5, step=2),))
        with pytest.raises(ConfigError):
            plan.validate(2, 12, topology=topo)  # rank 2 never exists

    def test_post_shrink_dangling_link_rejected(self):
        topo = Topology(nodes=2, ranks_per_node=2)
        plan = FaultPlan(events=(
            rank_failure(4, 3),
            rank_failure(5, 2),
            # (0, 2) is a real leader-to-leader edge, but rank 2 is gone
            # by step 8 — under a topology that's a loud error, not a
            # silently ignored no-op fault.
            degraded_link(0, 2, 0.5, step=8),
        ))
        with pytest.raises(ConfigError, match="dangle"):
            plan.validate(4, 12, topology=topo)

    def test_link_valid_before_shrink_allowed(self):
        topo = Topology(nodes=2, ranks_per_node=2)
        plan = FaultPlan(events=(
            degraded_link(0, 1, 0.5, step=2, duration=10),
            rank_failure(4, 3),
        ))
        plan.validate(4, 12, topology=topo)

    def test_valid_edges_accepted(self):
        topo = Topology(nodes=2, ranks_per_node=2)
        FaultPlan(events=(
            degraded_link(0, 1, 0.5, step=1),   # intra-node
            degraded_link(0, 2, 0.5, step=1),   # leader-to-leader
        )).validate(4, 12, topology=topo)


class TestChaosCommPricing:
    """Per-link-class fault pricing (``ChaosComm(HierComm(...))`` of old:
    one ``SimComm`` with a topology and ``price_faults``)."""

    def test_per_link_class_seconds(self):
        """Each link class is priced at its own bandwidth."""
        topo = Topology(nodes=2, ranks_per_node=2,
                        intra_bandwidth=1e6, inter_bandwidth=1e3)
        comm = SimComm(4, topo)
        comm.price_faults(FaultPlan())
        buf = np.ones(4096, dtype=np.float32)
        comm.all_reduce_mean([buf, buf, buf, buf])
        split = topo.collective_bytes("all_reduce", buf.nbytes, 4)
        stats = comm.stats
        assert stats.seconds_by_op["all_reduce/intra"] == pytest.approx(
            split["intra"] / 1e6, rel=REL
        )
        assert stats.seconds_by_op["all_reduce/inter"] == pytest.approx(
            split["inter"] / 1e3, rel=REL
        )

    def test_degraded_link_penalizes_only_its_class(self):
        topo = Topology(nodes=2, ranks_per_node=2,
                        intra_bandwidth=1e6, inter_bandwidth=1e6)
        plan = FaultPlan(events=(degraded_link(0, 1, 0.25, step=1),))  # intra
        comm = SimComm(4, topo)
        comm.price_faults(plan)
        comm.set_step(1)
        buf = np.ones(4096, dtype=np.float32)
        comm.all_reduce_mean([buf, buf, buf, buf])
        split = topo.collective_bytes("all_reduce", buf.nbytes, 4)
        stats = comm.stats
        assert stats.seconds_by_op["all_reduce/intra"] == pytest.approx(
            split["intra"] / 1e6 * 4.0, rel=REL   # 1/0.25 slowdown
        )
        assert stats.seconds_by_op["all_reduce/inter"] == pytest.approx(
            split["inter"] / 1e6, rel=REL          # untouched
        )


# ---------------------------------------------------------------------------
# Placement-aware resharding
# ---------------------------------------------------------------------------

class TestReshardPlacement:
    @pytest.fixture(scope="class")
    def source_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("topo-reshard")
        trainer = Trainer(topo_config(root / "run", topology=None, world_size=4))
        trainer.train()
        return trainer.storage.root / "checkpoint-6"

    def test_topology_reshard_bitwise_equal_to_flat(self, source_run, tmp_path):
        topo = Topology(nodes=2, ranks_per_node=2)
        flat = reshard_checkpoint(source_run, tmp_path / "flat", 2)
        hier = reshard_checkpoint(source_run, tmp_path / "hier", 2, topology=topo)
        for rank in range(2):
            assert (CheckpointPaths(tmp_path / "flat").shard(rank).read_bytes()
                    == CheckpointPaths(tmp_path / "hier").shard(rank).read_bytes())
        assert flat.topology is None and flat.intra_bytes == 0
        assert hier.topology == "2x2"
        assert hier.intra_bytes > 0 or hier.inter_bytes > 0
        assert "2x2" in hier.summary()

    def test_report_matches_closed_form_and_planner(self, source_run, tmp_path):
        topo = Topology(nodes=2, ranks_per_node=2)
        report = reshard_checkpoint(
            source_run, tmp_path / "out", 2, topology=topo
        )
        # Independent re-derivation of the group numels from the model
        # config — the same tailored grouping the checkpoint was trained
        # under.
        from repro.core.groups import tailored_group_specs
        from repro.nn.slots import parameter_shapes

        config = get_config("tiny-untied")
        shapes = parameter_shapes(config)
        numels = [
            sum(math.prod(shapes[name]) for name in spec.param_names)
            for spec in tailored_group_specs(config, 0.01)
        ]
        intra, inter = placement_transfer_bytes(numels, 4, 2, topo)
        assert (report.intra_bytes, report.inter_bytes) == (intra, inter)

        plan = plan_reshard_cost(
            get_config("tiny-untied"), source_world_size=4,
            target_world_size=2, topology=topo,
        )
        assert (plan.intra_bytes, plan.inter_bytes) == (intra, inter)
        assert plan.intra_seconds == pytest.approx(intra / topo.intra_bandwidth)
        assert plan.inter_seconds == pytest.approx(inter / topo.inter_bandwidth)
        assert plan.topology == "2x2"

    def test_capacity_checked(self, source_run, tmp_path):
        from repro.util.errors import ReshardError

        with pytest.raises(ReshardError):
            reshard_checkpoint(
                source_run, tmp_path / "out", 2,
                topology=Topology(nodes=1, ranks_per_node=2),
            )
        with pytest.raises(ReshardError):
            placement_transfer_bytes([8], 4, 2, Topology(nodes=1, ranks_per_node=2))

    def test_intra_preferred_when_overlap_allows(self):
        """All-intra moves when source and target share every node."""
        topo = Topology(nodes=1, ranks_per_node=4)
        intra, inter = placement_transfer_bytes([64, 32], 4, 2, topo)
        assert inter == 0 and intra > 0
