"""Extensions beyond the paper prototype: diffstat, async planner,
generation, and the extended CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.diffstat import diff_checkpoints, drift_ranking, nonuniformity_index
from repro.data import MedicalKB, WordTokenizer, pubmed_like_corpus
from repro.evalbench import generate, generate_text, greedy_continuations
from repro.io import Storage, save_checkpoint
from repro.nn import build_model, get_config
from repro.strategies import (
    FullStrategy,
    ParityStrategy,
    plan_strategy,
    plan_strategy_async,
)
from repro.util.errors import ConfigError, MergeError

from conftest import make_engine, train_steps


@pytest.fixture
def two_full_checkpoints(tmp_path, untied_config):
    model, engine = make_engine(untied_config)
    storage = Storage(tmp_path / "run")
    train_steps(model, engine, untied_config, 1)
    save_checkpoint(storage, step=100, model=model, config=untied_config,
                    engine=engine, trainer_state={"global_step": 100})
    train_steps(model, engine, untied_config, 4)
    save_checkpoint(storage, step=200, model=model, config=untied_config,
                    engine=engine, trainer_state={"global_step": 200})
    return storage


class TestDiffStat:
    def test_self_diff_is_zero(self, two_full_checkpoints):
        root = two_full_checkpoints.root
        drifts = diff_checkpoints(root / "checkpoint-100", root / "checkpoint-100")
        assert all(d.weight_l2 == 0.0 for d in drifts)
        assert all(d.weight_max == 0.0 for d in drifts)

    def test_training_produces_nonzero_drift(self, two_full_checkpoints):
        root = two_full_checkpoints.root
        drifts = diff_checkpoints(root / "checkpoint-100", root / "checkpoint-200")
        assert all(d.weight_l2 > 0.0 for d in drifts)
        assert len(drifts) == get_config("tiny-untied").num_model_slots

    def test_momentum_drift_available(self, two_full_checkpoints):
        root = two_full_checkpoints.root
        drifts = diff_checkpoints(
            root / "checkpoint-100", root / "checkpoint-200", include_momentum=True
        )
        assert any(d.momentum_l2 > 0.0 for d in drifts)

    def test_momentum_diff_across_world_sizes_is_refused(self, two_full_checkpoints, tmp_path):
        """Both trails used to be read at the first one's world size: an
        untyped broadcast ``ValueError`` one way, a missing file the other."""
        from repro.dist import reshard_checkpoint

        ckpt = two_full_checkpoints.root / "checkpoint-200"
        reshard_checkpoint(ckpt, tmp_path / "ws3", 3)
        for a, b in ((ckpt, tmp_path / "ws3"), (tmp_path / "ws3", ckpt)):
            with pytest.raises(MergeError, match=r"world size [23].* [23] .*llmtailor reshard"):
                diff_checkpoints(a, b, include_momentum=True)
            assert all(d.weight_l2 == 0.0 for d in diff_checkpoints(a, b))

    def test_ranking_descending(self, two_full_checkpoints):
        root = two_full_checkpoints.root
        ranked = drift_ranking(
            diff_checkpoints(root / "checkpoint-100", root / "checkpoint-200")
        )
        values = [d.weight_l2 for d in ranked]
        assert values == sorted(values, reverse=True)

    def test_nonuniformity_index_of_training(self, two_full_checkpoints):
        root = two_full_checkpoints.root
        drifts = diff_checkpoints(root / "checkpoint-100", root / "checkpoint-200")
        idx = nonuniformity_index(drifts)
        assert idx >= 1.0  # max/median by construction

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(MergeError):
            diff_checkpoints(tmp_path / "a", tmp_path / "b")

    def test_cli_diff(self, two_full_checkpoints, capsys):
        root = two_full_checkpoints.root
        rc = main(["diff", str(root / "checkpoint-100"), str(root / "checkpoint-200")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "non-uniformity index" in out and "layers.0" in out


class TestAsyncPlanner:
    def test_async_stall_below_sync_blocking(self):
        cfg = get_config("llama3.1-8b")
        sync = plan_strategy(cfg, FullStrategy(cfg, 100), total_steps=1000)
        async_plan = plan_strategy_async(cfg, FullStrategy(cfg, 100), total_steps=1000)
        assert async_plan.checkpoint_seconds < sync.checkpoint_seconds
        assert async_plan.checkpoint_time_fraction < sync.checkpoint_time_fraction

    def test_composability_multiplies_savings(self):
        """Async + parity beats either alone (the paper's §5.1 claim)."""
        cfg = get_config("qwen2.5-7b")
        full_sync = plan_strategy(cfg, FullStrategy(cfg, 50), total_steps=500,
                                  tokens_per_step_per_gpu=8192)
        parity_sync = plan_strategy(
            cfg, ParityStrategy(cfg, 50, initial_full=False), total_steps=500,
            tokens_per_step_per_gpu=8192,
        )
        parity_async = plan_strategy_async(
            cfg, ParityStrategy(cfg, 50, initial_full=False), total_steps=500,
            tokens_per_step_per_gpu=8192,
        )
        assert (
            parity_async.checkpoint_time_fraction
            < parity_sync.checkpoint_time_fraction
            < full_sync.checkpoint_time_fraction
        )

    def test_backlog_stalls_when_interval_too_short(self):
        """A slow writer + tight interval must surface flush stalls."""
        from repro.io.storage import StorageCostModel

        cfg = get_config("llama3.1-8b")
        slow = StorageCostModel(write_bandwidth=2e8)  # 200 MB/s: ~9 min/ckpt
        plan = plan_strategy_async(
            cfg, FullStrategy(cfg, 10), total_steps=100, storage=slow
        )
        stalls = [e["flush_leftover_stall"] for e in plan.events]
        assert any(s > 0 for s in stalls[1:])

    def test_event_metadata(self):
        cfg = get_config("tiny-untied")
        plan = plan_strategy_async(cfg, FullStrategy(cfg, 5), total_steps=10)
        assert plan.num_events == 2
        for e in plan.events:
            assert "write_seconds_background" in e
            assert e["seconds"] >= 0


class TestGeneration:
    @pytest.fixture(scope="class")
    def model_tok(self):
        kb = MedicalKB.build(1)
        docs = pubmed_like_corpus(kb, n_docs=30, seed=0)
        tok = WordTokenizer.train(docs, vocab_size=256)
        cfg = get_config("tiny-untied").replace(vocab_size=tok.vocab_size)
        return build_model(cfg, seed=0), tok

    def test_greedy_is_deterministic(self, model_tok):
        model, tok = model_tok
        a = generate_text(model, tok, "the recommended treatment", max_new_tokens=8)
        b = generate_text(model, tok, "the recommended treatment", max_new_tokens=8)
        assert a == b

    def test_sampling_seeded(self, model_tok):
        model, tok = model_tok
        a = generate_text(model, tok, "patients with", temperature=1.0, seed=3,
                          max_new_tokens=6)
        b = generate_text(model, tok, "patients with", temperature=1.0, seed=3,
                          max_new_tokens=6)
        c = generate_text(model, tok, "patients with", temperature=1.0, seed=4,
                          max_new_tokens=6)
        assert a == b
        assert a != c or len(a.split()) > 0  # different seed usually differs

    def test_token_budget_respected(self, model_tok):
        model, tok = model_tok
        prompt = np.asarray(tok.encode("clinical evidence"), dtype=np.int64)
        out = generate(model, prompt, max_new_tokens=5, temperature=0.0)
        assert len(out) <= len(prompt) + 5

    def test_top_k_masks_tail(self, model_tok):
        model, tok = model_tok
        prompt = np.asarray(tok.encode("the"), dtype=np.int64)
        # With top_k=1, sampling degenerates to greedy.
        greedy = generate(model, prompt, max_new_tokens=4, temperature=0.0)
        topk1 = generate(model, prompt, max_new_tokens=4, temperature=1.0, top_k=1)
        np.testing.assert_array_equal(greedy, topk1)

    def test_invalid_args_rejected(self, model_tok):
        model, tok = model_tok
        with pytest.raises(ConfigError):
            generate(model, np.array([], dtype=np.int64))
        with pytest.raises(ConfigError):
            generate(model, np.array([1]), temperature=-1)

    def test_fingerprint_equality_for_equal_models(self, model_tok):
        model, tok = model_tok
        cfg = model.config
        clone = build_model(cfg, seed=0)
        clone.load_state_dict(model.state_dict())
        prompts = ["the recommended treatment for", "patients with"]
        assert greedy_continuations(model, tok, prompts) == greedy_continuations(
            clone, tok, prompts
        )


class TestPruneCLI:
    def test_prune_dry_run(self, tmp_path, capsys):
        from repro.train import TrainConfig, Trainer

        cfg = TrainConfig(
            model="tiny-untied", task="cpt", total_steps=16,
            checkpoint_strategy="parity", checkpoint_interval=4,
            output_dir=str(tmp_path / "run"), world_size=2,
            micro_batch_size=2, grad_accum_steps=1, seq_len=32,
        )
        Trainer(cfg).train()
        rc = main(["prune", str(tmp_path / "run"), "--keep-last", "2", "--dry-run"])
        assert rc == 0
        assert "would remove" in capsys.readouterr().out
