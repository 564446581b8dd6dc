"""Trainer integration: determinism, failure injection, recovery."""

from __future__ import annotations

import inspect
from pathlib import Path

import numpy as np
import pytest

import repro.dist
from repro.cli import main
from repro.dist import ZeroStage3Engine, reshard_checkpoint
from repro.io import (
    CheckpointPaths,
    checkpoint_dir,
    list_checkpoint_steps,
    load_checkpoint,
    read_latest,
)
from repro.train import TrainConfig, Trainer
from repro.util.jsonio import read_json, write_json_atomic
from repro.util.errors import ConfigError, TrainingError


def quick_config(tmp_path, **overrides) -> TrainConfig:
    base = dict(
        model="tiny-untied", task="cpt", total_steps=12,
        checkpoint_strategy="full", checkpoint_interval=4,
        output_dir=str(tmp_path / "run"), world_size=2,
        micro_batch_size=2, grad_accum_steps=1, seq_len=32, log_every=4,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            TrainConfig(task="pretrain")
        with pytest.raises(ConfigError):
            TrainConfig(total_steps=0)
        with pytest.raises(ConfigError):
            TrainConfig(total_steps=10, failure_step=11)
        with pytest.raises(ConfigError, match="got 0"):
            TrainConfig(checkpoint_interval=0)

    def test_derived_quantities(self):
        cfg = TrainConfig(world_size=2, micro_batch_size=3, grad_accum_steps=4, seq_len=10)
        assert cfg.global_batch_size == 24
        assert cfg.tokens_per_step == 240

    def test_dict_roundtrip(self):
        cfg = TrainConfig(model="tiny-tied", betas=(0.8, 0.99))
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"model": "tiny-tied", "gpu_count": 8})


class TestTrainingLoop:
    def test_loss_decreases(self, trained_run):
        trainer, result, _ = trained_run
        history = [e["loss"] for e in trainer.state.log_history if "loss" in e]
        assert history[-1] < history[0]
        assert result.final_step == 24

    def test_checkpoints_written_on_cadence(self, trained_run):
        _, result, out = trained_run
        assert result.checkpoints == [8, 16, 24]
        assert list_checkpoint_steps(out) == [8, 16, 24]
        assert read_latest(out).step == 24

    def test_run_root_holds_only_checkpoints_and_latest(self, tmp_path, capsys):
        """The manifests are the one record of what a checkpoint holds: a
        plain run, a ``--resume`` run and a chaos run with one recovery
        leave nothing else at the run root."""
        from repro.dist.faults import FaultPlan, rank_failure

        def entries(root):
            return {"checkpoint-*" if p.is_dir() and p.name.startswith("checkpoint-")
                    else p.name for p in root.iterdir()}

        run = ["train", "-o", str(tmp_path / "run"), "--interval", "4"]
        assert main([*run, "--steps", "8"]) == 0
        assert entries(tmp_path / "run") == {"checkpoint-*", "latest"}
        assert main([*run, "--steps", "12", "--resume"]) == 0
        assert entries(tmp_path / "run") == {"checkpoint-*", "latest"}
        FaultPlan(events=(rank_failure(6, 1),)).to_yaml(tmp_path / "plan.yaml")
        assert main(["train", "-o", str(tmp_path / "chaos"), "--steps", "12",
                     "--interval", "4", "--faults", str(tmp_path / "plan.yaml")]) == 0
        assert "recovery" in capsys.readouterr().out
        assert entries(tmp_path / "chaos") == {"checkpoint-*", "latest"}

    def test_clock_accounting(self, trained_run):
        _, result, _ = trained_run
        assert result.clock["compute"] == pytest.approx(24.0)  # 1 sim-sec/step
        assert 0 < result.checkpoint_time_fraction < 0.5

    def test_eval_loss_finite(self, trained_run):
        trainer, result, _ = trained_run
        assert np.isfinite(result.final_eval_loss)

    def test_sft_task_trains(self, tmp_path):
        for world_size in (1, 2, 4):
            cfg = quick_config(tmp_path / f"ws{world_size}", task="sft", total_steps=6,
                               checkpoint_interval=3, seq_len=40, world_size=world_size)
            result = Trainer(cfg).train()
            assert result.final_step == 6
            assert np.isfinite(result.final_train_loss)


    def test_until_step_zero_runs_no_steps(self, tmp_path):
        trainer = Trainer(quick_config(tmp_path, checkpoint_interval=1))
        result = trainer.train(until_step=0)
        assert result.final_step == trainer.state.global_step == 0
        assert result.checkpoints == []
        assert list_checkpoint_steps(trainer.storage.root) == []

    def test_recent_loss_of_exactly_zero_is_reported(self, tmp_path, monkeypatch):
        trainer = Trainer(quick_config(tmp_path, total_steps=1, checkpoint_interval=10))
        monkeypatch.setattr(trainer.state, "recent_loss", lambda: 0.0)
        assert trainer.train().final_train_loss == 0.0


class TestRetiredSurface:
    """The ``mp`` process-pool backend, the engine's ``fused=False``
    layout, the tape's ``compile`` switch and the backward-tape compiler
    left with no shim — and
    checkpoints written while the ``comm_backend`` / ``compile`` config
    keys existed keep loading."""

    def test_backend_and_engine_switches_are_gone(self, tmp_path, monkeypatch):
        retired = ("Mp", "HierMp", "SharedArena", "mp_")
        assert [n for n in repro.dist.__all__ if n.startswith(retired)] == []
        engine_params = inspect.signature(ZeroStage3Engine).parameters
        assert not {"fused", "comm_backend"} & set(engine_params)
        for key, value, flag in (
            ("comm_backend", "auto", ["--comm-backend", "sim"]),
            ("compile", False, ["--compile"]),
        ):
            with pytest.raises(TypeError):
                TrainConfig(**{key: value})
            with pytest.raises(ConfigError, match=key):
                TrainConfig.from_dict({key: value})
            with pytest.raises(SystemExit) as exit_info:
                main(["train", "-o", str(tmp_path / "cli"), *flag])
            assert exit_info.value.code == 2
        monkeypatch.setenv("REPRO_COMM_BACKEND", "mp")
        assert Trainer(quick_config(tmp_path, total_steps=2)).train().final_step == 2
        assert not list(Path("/dev/shm").glob("repro-mp-*"))

    def test_one_backward(self):
        """The backward-tape compiler left with no shim: ``Tensor.backward``
        is the one backward, every VJP takes ``(node, g)`` and writes no
        ``out=`` buffer, and the engine copies every gradient into its
        staging buffer."""
        import repro.autograd
        from repro.autograd import functional, tensor

        for name in ("BackwardTape", "TapeStats"):
            assert name not in repro.autograd.__all__
            assert not hasattr(repro.autograd, name)
        with pytest.raises(ModuleNotFoundError):
            import repro.autograd.compile  # noqa: F401
        assert not hasattr(ZeroStage3Engine, "grad_donation_views")
        ops = {id(op): op for holder in (vars(tensor), vars(tensor.Tensor), vars(functional))
               for op in holder.values() if isinstance(op, tensor.Op)}
        assert len(ops) >= 30
        for op in ops.values():
            assert list(inspect.signature(op.vjp).parameters) == ["node", "g"], op
            assert not hasattr(op, "bufs")
        src = Path(repro.__file__).parent
        hooked = [p.name for p in src.rglob("*.py") if "_tape_" in p.read_text(encoding="utf-8")]
        assert hooked == []

    def test_second_elastic_path_and_verify_sources_are_gone(self):
        """One elastic-resume path (the reader feeding ``reshard_sweep``),
        one strictness (``check_payload``), one owner of the payload keys."""
        from repro.core import verify_checkpoint

        load_params = inspect.signature(ZeroStage3Engine.load_rank_state_dict).parameters
        assert list(load_params) == ["self", "rank", "state", "materialize"]
        assert not {"reshard_state_dicts", "reshard_rank_state_dict"} & set(repro.dist.__all__)
        assert not hasattr(repro.dist.reshard, "reshard_state_dicts")
        assert "sources" not in inspect.signature(verify_checkpoint).parameters
        src = Path(repro.__file__).parent
        spelled = sorted(
            str(path.relative_to(src)) for path in src.rglob("*.py")
            if "fp32_flat_groups" in path.read_text(encoding="utf-8")
        )
        # faults.py: the bitrot injector must bypass the builder's CRC stamp;
        # blobfile.py: a docstring example of a key path.
        assert spelled == ["dist/faults.py", "dist/shard.py", "io/blobfile.py"]

    def test_the_checkpoint_directory_has_one_owner(self):
        """``repro.io.layout`` alone spells ``global_step<step>/``, compares
        a manifest's ``format_version`` and sequences a directory's writes:
        the hand-ordered ``unpublish`` / ``sweep_stale_shards`` /
        ``write_manifest`` steps left ``CheckpointPaths``'s public surface."""
        src = Path(repro.__file__).parent
        text = {str(p.relative_to(src)): p.read_text(encoding="utf-8") for p in src.rglob("*.py")}

        def spelled(needle):
            return sorted(name for name, body in text.items() if needle in body)

        assert spelled('f"global_step') == spelled("MANIFEST_FORMAT_VERSION") == ["io/layout.py"]
        assert spelled('"format_version"') == ["dist/shard.py", "io/layout.py"]  # the shard payload's own
        assert text["io/layout.py"].count("!= MANIFEST_FORMAT_VERSION") == 1
        assert text["io/layout.py"].count('"format_version":') == 2  # the builder's stamp, the schema row
        for name in ("unpublish", "sweep_stale_shards", "write_manifest"):
            assert not hasattr(CheckpointPaths, name)
            assert not [f for f, body in text.items() if f".{name}(" in body]
        assert spelled("copy2") == ["core/mergekit.py", "dist/faults.py"]
        assert spelled("mkstemp") == [] and spelled('+ ".tmp"') == []

    def test_one_communicator_one_ring_formula(self):
        """``SimComm`` is the only communicator and
        ``Topology.collective_bytes`` the only ring algebra: the subclass,
        the proxy, its stats subclass, the factory and the second
        bandwidth constant left with no alias."""
        import re

        import repro.dist.comm, repro.dist.faults, repro.dist.topology  # noqa: E401

        retired = ("HierComm", "ChaosComm", "ChaosCommStats", "make_comm",
                   "DEFAULT_LINK_BANDWIDTH")
        for module in (repro.dist, repro.dist.comm, repro.dist.faults, repro.dist.topology):
            assert not set(retired) & set(module.__all__)
            assert not [name for name in retired if hasattr(module, name)]
        src = Path(repro.__file__).parent
        text = {str(p.relative_to(src)): p.read_text(encoding="utf-8") for p in src.rglob("*.py")}

        def matching(pattern):
            return sorted(name for name, body in text.items() if re.search(pattern, body))

        assert matching(r"link_bandwidth|_charge_collective|_ring_fraction") == []
        assert matching(r"(?m)^class \w*Comm\b") == ["dist/comm.py"]
        assert len(re.findall(r"(?m)^class \w*Comm\b", text["dist/comm.py"])) == 1
        # Ring-fraction arithmetic, `(x - 1) / x`, is written in one function:
        # once per link class.
        assert matching(r"- 1\) / \w") == ["dist/topology.py"]
        assert len(re.findall(r"- 1\) / \w", text["dist/topology.py"])) == 2
        assert matching(r"(?m)^\w*BANDWIDTH = ") == ["dist/topology.py"]
        for name in ("dist/faults.py", "train/supervisor.py"):
            assert 'rsplit("/"' not in text[name] and "SimpleNamespace" not in text[name]
        from repro.strategies import plan_step_traffic
        assert "if topology" not in inspect.getsource(plan_step_traffic)

    def test_one_price_per_offline_operation(self):
        """Merge, reshard and diff are priced once, by the engines' own
        schedules over one ledger: the planner's and admission's formulas,
        their size helpers and the null leg's private ledger left with no
        alias, and only the cost model itself turns bytes into seconds."""
        import re

        src = Path(repro.__file__).parent
        text = {str(p.relative_to(src)): p.read_text(encoding="utf-8") for p in src.rglob("*.py")}

        def matching(pattern):
            return sorted(name for name, body in text.items() if re.search(pattern, body))

        assert matching(r"\.read_time\(|\.write_time\(|decompress_bandwidth") == ["io/storage.py"]
        retired = (r"\b(_merge_cost|_reshard_cost|_diff_cost|_shard_sizes|_weight_nbytes"
                   r"|_LedgerStorage)\b")
        assert matching(retired) == []
        calls = {name: len(re.findall(r"(?<!def )\bload_schedule\(", body))
                 for name, body in text.items()}
        assert {name: n for name, n in calls.items() if n} == {
            "core/optimizer_merge.py": 1, "core/plan.py": 1}

    def test_one_timing_instrument(self):
        """The benchmark runner, ``llmtailor bench`` and the runner's two
        environment knobs left with no shim: ``benchmarks/`` is plain
        pytest and ``repro.bench`` is the paper's pipelines alone."""
        import repro.bench

        with pytest.raises(ModuleNotFoundError):
            import repro.bench.runner  # noqa: F401
        assert repro.bench.__all__ == [
            "PAPER_SETTINGS", "PipelineResult", "paper_scale_overhead", "run_use_case_pipeline",
        ]
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "list"])
        assert exit_info.value.code == 2
        root = Path(repro.__file__).parents[2]
        spelled = sorted(
            str(path.relative_to(root))
            for tree in ("src", "benchmarks") for path in (root / tree).rglob("*.py")
            if "REPRO_BENCH_" in path.read_text(encoding="utf-8")
        )
        assert spelled == []

    def test_checkpoint_carrying_the_retired_key_is_accepted(self, tmp_path):
        """``training_args.json`` is carried, never parsed back into a
        ``TrainConfig`` — so the extra key is inert on every read path."""
        cfg = quick_config(
            tmp_path, total_steps=8, checkpoint_strategy="parity", checkpoint_interval=4,
        )
        trainer = Trainer(cfg)
        trainer.train()
        for step in list_checkpoint_steps(trainer.storage.root):
            args_path = checkpoint_dir(trainer.storage.root, step).training_args
            write_json_atomic(
                args_path, {**read_json(args_path), "comm_backend": "auto", "compile": False}
            )

        merged = CheckpointPaths(trainer.auto_recover(8))  # merge, then resume_from
        assert trainer.state.global_step == 8
        loaded = load_checkpoint(
            merged, model=trainer.model, config=trainer.model_config, engine=trainer.engine,
        )
        assert loaded.training_args["comm_backend"] == "auto"
        assert loaded.training_args["compile"] is False
        assert main(["verify", str(merged.dir)]) == 0
        reshard_checkpoint(merged, tmp_path / "ws3", 3)
        grown = Trainer(cfg.replace(world_size=3, output_dir=str(tmp_path / "grown")))
        assert grown.resume_from(tmp_path / "ws3") == 8


class TestDeterminism:
    def test_resume_equals_uninterrupted_bitwise(self, tmp_path):
        """Train 8 straight vs train 4 + resume + 4: identical states."""
        cfg_a = quick_config(tmp_path / "a", total_steps=8, checkpoint_interval=4)
        trainer_a = Trainer(cfg_a)
        trainer_a.train()

        cfg_b = quick_config(tmp_path / "b", total_steps=8, checkpoint_interval=4)
        trainer_b = Trainer(cfg_b)
        trainer_b.train(until_step=4)
        # Fresh trainer resumes from the step-4 checkpoint.
        trainer_c = Trainer(quick_config(tmp_path / "b", total_steps=8, checkpoint_interval=4))
        trainer_c.resume_from(CheckpointPaths(trainer_c.storage.root / "checkpoint-4"))
        trainer_c.train()

        a = trainer_a.engine.master_state_dict()
        c = trainer_c.engine.master_state_dict()
        for key in a:
            np.testing.assert_array_equal(a[key], c[key], err_msg=key)

    def test_same_seed_same_run(self, tmp_path):
        r1 = Trainer(quick_config(tmp_path / "x", total_steps=5)).train()
        r2 = Trainer(quick_config(tmp_path / "y", total_steps=5)).train()
        assert r1.final_train_loss == r2.final_train_loss

    def test_different_seed_differs(self, tmp_path):
        r1 = Trainer(quick_config(tmp_path / "x", total_steps=5, seed=0)).train()
        r2 = Trainer(quick_config(tmp_path / "y", total_steps=5, seed=1)).train()
        assert r1.final_train_loss != r2.final_train_loss


class TestFailureRecovery:
    def test_failure_injection_stops_training(self, tmp_path):
        cfg = quick_config(tmp_path, total_steps=12, failure_step=9)
        result = Trainer(cfg).train()
        assert result.interrupted_at == 9
        assert result.final_step == 9

    def test_auto_recover_with_parity(self, tmp_path):
        cfg = quick_config(
            tmp_path, total_steps=16, checkpoint_strategy="parity",
            checkpoint_interval=4, failure_step=14,
        )
        trainer = Trainer(cfg)
        result = trainer.train()
        assert result.interrupted_at == 14
        merged = trainer.auto_recover(14)
        assert CheckpointPaths(merged).read_manifest()["complete"]
        assert trainer.state.global_step == 12  # last ckpt before failure
        final = trainer.train()
        assert final.final_step == 16
        assert final.interrupted_at is None

    def test_resume_latest(self, tmp_path):
        cfg = quick_config(tmp_path, total_steps=8, checkpoint_interval=4)
        trainer = Trainer(cfg)
        trainer.train()
        fresh = Trainer(cfg)
        assert fresh.resume_latest() == 8

    def test_resume_latest_without_checkpoints(self, tmp_path):
        cfg = quick_config(tmp_path, total_steps=4, checkpoint_interval=10)
        trainer = Trainer(cfg)
        with pytest.raises(TrainingError):
            trainer.resume_latest()

    def test_scheduler_state_restored(self, tmp_path):
        cfg = quick_config(tmp_path, total_steps=8, checkpoint_interval=4)
        trainer = Trainer(cfg)
        trainer.train(until_step=4)
        lr_at_4 = trainer.scheduler.get_last_lr()[0]
        fresh = Trainer(cfg)
        fresh.resume_from(CheckpointPaths(fresh.storage.root / "checkpoint-4"))
        assert fresh.scheduler.get_last_lr()[0] == lr_at_4
        assert fresh.scheduler.last_step == 4


class TestStrategyIntegration:
    @pytest.mark.parametrize("strategy", ["parity", "filtered", "magnitude"])
    def test_partial_strategies_produce_recoverable_trails(self, tmp_path, strategy):
        kwargs = {}
        if strategy == "filtered":
            kwargs = {"head_layers": 1, "tail_layers": 1, "slow_factor": 2}
        cfg = quick_config(
            tmp_path, total_steps=12, checkpoint_strategy=strategy,
            checkpoint_interval=3, strategy_kwargs=kwargs,
        )
        trainer = Trainer(cfg)
        trainer.train()
        # Every slot recoverable at the end.
        coverage = trainer.run_index().slot_coverage(12)
        from repro.nn import model_slots

        assert set(coverage) == set(model_slots(trainer.model_config))
