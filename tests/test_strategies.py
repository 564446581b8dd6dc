"""Selective checkpoint strategies and the analytic planner."""

from __future__ import annotations

import pytest

from repro.nn import build_model, get_config, model_slots
from repro.strategies import (
    FilteredStrategy,
    FullStrategy,
    ParityStrategy,
    UpdateMagnitudeStrategy,
    build_strategy,
    checkpoint_event_nbytes,
    plan_merge_cost,
    plan_strategy,
)
from repro.util.errors import ConfigError


class TestBase:
    def test_cadence(self, untied_config):
        s = FullStrategy(untied_config, interval=10)
        fired = [step for step in range(1, 41) if s.plan_step(step) is not None]
        assert fired == [10, 20, 30, 40]

    def test_coverage_tracking(self, untied_config):
        s = ParityStrategy(untied_config, interval=5)
        saved = [s.plan_step(step) for step in range(1, 16)]
        assert set().union(*filter(None, saved)) == set(model_slots(untied_config))

    def test_registry(self, untied_config):
        s = build_strategy("filtered", untied_config, 10, head_layers=1, tail_layers=1)
        assert isinstance(s, FilteredStrategy)
        with pytest.raises(ConfigError):
            build_strategy("psychic", untied_config, 10)

    def test_interval_validated(self, untied_config):
        with pytest.raises(ConfigError):
            FullStrategy(untied_config, interval=0)

    def test_reset(self, untied_config):
        s = ParityStrategy(untied_config, interval=1)
        s.plan_step(1)
        s.reset()
        assert s.plan_step(1) == model_slots(untied_config)  # initial full again


class TestParity:
    def test_alternation_after_initial_full(self, untied_config):
        s = ParityStrategy(untied_config, interval=1)
        first = s.plan_step(1)
        second = s.plan_step(2)
        third = s.plan_step(3)
        assert first == model_slots(untied_config)
        assert set(second) == set(s.odd_set())
        assert set(third) == set(s.even_set())

    def test_odd_even_partition_the_model(self, tiny_config):
        s = ParityStrategy(tiny_config, interval=1)
        union = set(s.odd_set()) | set(s.even_set())
        assert union == set(model_slots(tiny_config))
        assert not set(s.odd_set()) & set(s.even_set())

    def test_embed_with_odd_lmhead_with_even(self, untied_config):
        s = ParityStrategy(untied_config, interval=1)
        assert "embed_tokens" in s.odd_set()
        assert "lm_head" in s.even_set()
        assert "norm" in s.even_set()

    def test_tied_model_has_no_lm_head_anywhere(self, tied_config):
        s = ParityStrategy(tied_config, interval=1)
        assert "lm_head" not in s.odd_set() + s.even_set()

    def test_without_initial_full_halves_only(self, untied_config):
        s = ParityStrategy(untied_config, interval=1, initial_full=False)
        assert set(s.plan_step(1)) == set(s.odd_set())

    def test_two_consecutive_checkpoints_cover_everything(self, untied_config):
        """The property the merge relies on (use case 1)."""
        s = ParityStrategy(untied_config, interval=1, initial_full=False)
        a = s.plan_step(1)
        b = s.plan_step(2)
        assert set(a) | set(b) == set(model_slots(untied_config))


class TestFiltered:
    def test_boundary_every_event(self):
        cfg = get_config("llama3.1-8b-sim")  # 32 layers
        s = FilteredStrategy(cfg, interval=1, initial_full=False)
        for step in range(1, 11):
            slots = s.plan_step(step)
            for b in ["layers.0", "layers.1", "layers.30", "layers.31"]:
                assert b in slots, f"boundary {b} missing at step {step}"

    def test_slow_slots_every_fifth_event(self):
        cfg = get_config("llama3.1-8b-sim")
        s = FilteredStrategy(cfg, interval=1, initial_full=False, slow_factor=5)
        sizes = [len(s.plan_step(step)) for step in range(1, 11)]
        # Events 1 and 6 (phases 0 and 5) carry the slow set.
        assert sizes[0] > sizes[1]
        assert sizes[5] > sizes[4]
        assert sizes[1] == 4  # boundary only

    def test_alternating_halves_cover_middle(self):
        cfg = get_config("llama3.1-8b-sim")
        s = FilteredStrategy(cfg, interval=1, initial_full=False, slow_factor=1)
        seen = set()
        for step in range(1, 3):
            seen.update(s.plan_step(step))
        assert seen == set(model_slots(cfg))

    def test_head_tail_bounds_validated(self, untied_config):
        with pytest.raises(ConfigError):
            FilteredStrategy(untied_config, 1, head_layers=3, tail_layers=3)  # L=4
        with pytest.raises(ConfigError):
            FilteredStrategy(untied_config, 1, slow_factor=0)

    def test_describe_fields(self, untied_config):
        d = FilteredStrategy(untied_config, 7).describe()
        assert d["strategy"] == "filtered" and d["slow_factor"] == 5


class TestMagnitude:
    def test_degrades_to_full_without_model(self, untied_config):
        s = UpdateMagnitudeStrategy(untied_config, interval=1)
        assert s.plan_step(1) == model_slots(untied_config)

    def test_first_event_saves_everything(self, untied_config):
        model = build_model(untied_config, seed=0)
        s = UpdateMagnitudeStrategy(untied_config, interval=1)
        assert set(s.plan_step(1, model=model)) == set(model_slots(untied_config))

    def test_unchanged_model_saves_little_then_staleness_forces(self, untied_config):
        model = build_model(untied_config, seed=0)
        s = UpdateMagnitudeStrategy(
            untied_config, interval=1, threshold=0.5, min_slots=1, max_staleness=3
        )
        s.plan_step(1, model=model)  # reference snapshot
        small = s.plan_step(2, model=model)
        assert len(small) <= 1  # nothing drifted; only the min_slots floor
        s.plan_step(3, model=model)
        s.plan_step(4, model=model)
        forced = s.plan_step(5, model=model)
        # Staleness floor forces everything except the slot the min_slots
        # floor kept refreshing in between.
        assert len(forced) >= len(model_slots(untied_config)) - 1

    def test_detects_drifted_slot(self, untied_config):
        model = build_model(untied_config, seed=0)
        s = UpdateMagnitudeStrategy(untied_config, interval=1, threshold=0.01, max_staleness=99)
        s.plan_step(1, model=model)
        # Drift exactly one layer's weights.
        model.model.layers[2].mlp.up_proj.weight.data += 1.0
        chosen = s.plan_step(2, model=model)
        assert "layers.2" in chosen
        assert "layers.1" not in chosen

    def test_params_validated(self, untied_config):
        with pytest.raises(ConfigError):
            UpdateMagnitudeStrategy(untied_config, 1, threshold=-1)
        with pytest.raises(ConfigError):
            UpdateMagnitudeStrategy(untied_config, 1, max_staleness=0)


class TestPlanner:
    def test_event_bytes_full_is_14_per_param(self, untied_config):
        vol = checkpoint_event_nbytes(untied_config, model_slots(untied_config))
        assert vol["total_bytes"] == vol["params"] * 14

    def test_parity_halves_total_bytes(self):
        """Paper Table 3: parity cuts total checkpoint volume ~2x."""
        cfg = get_config("llama3.1-8b")
        full = plan_strategy(cfg, FullStrategy(cfg, 100), total_steps=1600)
        parity = plan_strategy(
            cfg, ParityStrategy(cfg, 100, initial_full=False), total_steps=1600
        )
        ratio = full.total_bytes / parity.total_bytes
        assert abs(ratio - 2.0) < 0.1

    def test_filtered_gives_paper_scale_reduction(self):
        """Paper Table 6: ~4.3x size reduction for Llama-3.1-8B."""
        cfg = get_config("llama3.1-8b")
        full = plan_strategy(cfg, FullStrategy(cfg, 100), total_steps=1600)
        filt = plan_strategy(
            cfg, FilteredStrategy(cfg, 100, initial_full=False), total_steps=1600
        )
        ratio = full.total_bytes / filt.total_bytes
        assert 3.0 < ratio < 6.0

    def test_paper_total_size_llama(self):
        """Paper Tables 3/7: 16 full ckpts of ~112.47 GB -> ~1799.52 GB."""
        cfg = get_config("llama3.1-8b")
        plan = plan_strategy(cfg, FullStrategy(cfg, 100), total_steps=1600)
        assert plan.num_events == 16
        total_gb = plan.total_bytes / 1e9
        assert abs(total_gb - 1799.52) < 30

    def test_checkpoint_fraction_decreases_with_parity(self):
        cfg = get_config("qwen2.5-7b")
        full = plan_strategy(cfg, FullStrategy(cfg, 50), total_steps=850,
                             tokens_per_step_per_gpu=8192)
        parity = plan_strategy(cfg, ParityStrategy(cfg, 50, initial_full=False),
                               total_steps=850, tokens_per_step_per_gpu=8192)
        assert parity.checkpoint_time_fraction < full.checkpoint_time_fraction
        assert full.checkpoint_time_fraction > 0.1  # Qwen SFT is ckpt-heavy

    def test_events_carry_slots_and_bytes(self, untied_config):
        plan = plan_strategy(untied_config, ParityStrategy(untied_config, 2), total_steps=6)
        assert plan.num_events == 3
        for e in plan.events:
            assert e["total_bytes"] == e["weight_bytes"] + e["optim_bytes"]
            assert e["num_slots"] == len(e["slots"])


class TestMergeCostPlan:
    """The analytic merge estimator mirrors the real engine's knobs."""

    def test_interleaved_loads_per_slot(self):
        config = get_config("llama3.1-8b")
        cached = plan_merge_cost(config, num_checkpoints=2)
        interleaved = plan_merge_cost(config, num_checkpoints=2, cache_mode="none")
        assert cached.loads_per_rank == 2
        assert interleaved.loads_per_rank == config.num_model_slots
        assert interleaved.bytes_loaded > cached.bytes_loaded
        assert interleaved.seconds > cached.seconds

    def test_stream_cuts_decode_not_io(self):
        """Selective reads: reloading per slot costs I/O, never decode."""
        config = get_config("llama3.1-8b")
        cached = plan_merge_cost(config, num_checkpoints=2)
        interleaved = plan_merge_cost(config, num_checkpoints=2, cache_mode="none")
        assert interleaved.bytes_loaded > cached.bytes_loaded
        assert interleaved.bytes_decoded == cached.bytes_decoded  # one shard per rank
        assert interleaved.bytes_decoded < interleaved.bytes_loaded

    def test_workers_divide_rank_waves(self):
        config = get_config("llama3.1-8b")
        one = plan_merge_cost(config, world_size=8, num_checkpoints=2, workers=1)
        four = plan_merge_cost(config, world_size=8, num_checkpoints=2, workers=4)
        eight = plan_merge_cost(config, world_size=8, num_checkpoints=2, workers=8)
        assert one.seconds > four.seconds > eight.seconds

    def test_describe_round_trips(self):
        config = get_config("llama3.1-8b")
        plan = plan_merge_cost(config, workers=2)
        doc = plan.describe()
        assert doc["model"] == config.name
        assert doc["workers"] == 2 and "stream" not in doc
