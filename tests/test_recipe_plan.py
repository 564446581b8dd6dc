"""Merge recipes (YAML schema) and plan resolution against disk."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import (
    MergeOptions,
    MergeRecipe,
    load_recipe,
    parse_recipe,
    resolve_plan,
)
from repro.util.errors import MergeError, RecipeError


class TestParseRecipe:
    def _minimal(self):
        return {"base_checkpoint": "runs/x/checkpoint-200"}

    def test_minimal_recipe(self):
        recipe = parse_recipe(self._minimal())
        assert recipe.base_checkpoint == Path("runs/x/checkpoint-200")
        assert recipe.assignments == {}
        assert recipe.options.workers == 1

    def test_slices_with_ranges(self):
        doc = self._minimal() | {
            "slices": [
                {"slot": "layers.0-2", "source": "A"},
                {"slot": "layers.5", "source": "B"},
            ]
        }
        recipe = parse_recipe(doc)
        assert recipe.assignments == {
            "layers.0": Path("A"),
            "layers.1": Path("A"),
            "layers.2": Path("A"),
            "layers.5": Path("B"),
        }

    def test_aux_assignments(self):
        doc = self._minimal() | {"aux": {"embed_tokens": "A", "lm_head": "B"}}
        recipe = parse_recipe(doc)
        assert recipe.assignments["embed_tokens"] == Path("A")
        assert recipe.source_for("norm") == recipe.base_checkpoint

    def test_options_parsed(self):
        doc = self._minimal() | {
            "options": {"workers": 4, "cache_mode": "none", "verify": False}
        }
        recipe = parse_recipe(doc)
        assert recipe.options == MergeOptions(workers=4, cache_mode="none", verify=False)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"base_checkpoint": None},
            {"extra_key": 1},
            {"slices": "not-a-list"},
            {"slices": [{"source": "A"}]},
            {"slices": [{"slot": "layers.0", "source": "A", "bogus": 1}]},
            {"slices": [{"slot": "decoder.0", "source": "A"}]},
            {"slices": [{"slot": "layers.5-2", "source": "A"}]},
            {"slices": [{"slot": "layers.0", "source": None}]},
            {"aux": {"bias": "A"}},
            {"options": {"workers": 0}},
            {"options": {"cache_mode": "sometimes"}},
            {"options": {"turbo": True}},
        ],
    )
    def test_invalid_documents_rejected(self, mutation):
        doc = self._minimal()
        doc.update(mutation)
        if mutation.get("base_checkpoint", "x") is None:
            doc.pop("base_checkpoint")
        with pytest.raises(RecipeError):
            parse_recipe(doc)

    def test_duplicate_slot_rejected(self):
        doc = self._minimal() | {
            "slices": [
                {"slot": "layers.0-1", "source": "A"},
                {"slot": "layers.1", "source": "B"},
            ]
        }
        with pytest.raises(RecipeError, match="more than once"):
            parse_recipe(doc)

    def test_non_mapping_rejected(self):
        with pytest.raises(RecipeError):
            parse_recipe(["not", "a", "mapping"])

    def test_yaml_roundtrip(self, tmp_path):
        recipe = MergeRecipe(
            base_checkpoint=Path("runs/checkpoint-200"),
            assignments={"layers.0": Path("runs/checkpoint-100"), "embed_tokens": Path("runs/checkpoint-100")},
            options=MergeOptions(workers=2, cache_mode="none"),
        )
        path = tmp_path / "recipe.yaml"
        recipe.save(path)
        loaded = load_recipe(path)
        assert loaded.base_checkpoint == recipe.base_checkpoint
        assert loaded.assignments == recipe.assignments
        assert loaded.options.cache_mode == "none"

    def test_missing_recipe_file(self, tmp_path):
        with pytest.raises(RecipeError, match="not found"):
            load_recipe(tmp_path / "none.yaml")

    def test_distinct_sources_stable_order(self):
        recipe = parse_recipe(
            self._minimal()
            | {"slices": [{"slot": "layers.0", "source": "B"}, {"slot": "layers.1", "source": "A"}]}
        )
        assert recipe.distinct_sources() == [
            Path("runs/x/checkpoint-200"), Path("B"), Path("A")
        ]


class TestResolvePlan:
    def test_resolves_against_real_run(self, checkpoint_run, tmp_path):
        storage, *_ = checkpoint_run
        recipe = parse_recipe({"base_checkpoint": str(storage.root / "checkpoint-200")})
        # base is partial (even layers); odd slots must be reassigned.
        with pytest.raises(MergeError, match="does not contain slot"):
            resolve_plan(recipe, output=tmp_path / "out")

    def test_full_assignment_resolves(self, checkpoint_run, tmp_path):
        storage, _, _, config, _ = checkpoint_run
        odd = {f"layers.{i}": str(storage.root / "checkpoint-100")
               for i in range(config.num_hidden_layers) if i % 2 == 1}
        doc = {
            "base_checkpoint": str(storage.root / "checkpoint-200"),
            "slices": [{"slot": s, "source": p} for s, p in odd.items()],
            "aux": {"embed_tokens": str(storage.root / "checkpoint-100")},
        }
        plan = resolve_plan(parse_recipe(doc), output=tmp_path / "out")
        assert plan.world_size == 2
        assert plan.num_groups == config.num_param_groups_tailored
        assert plan.group_source(0).step == 200  # norm from base
        assert len(plan.distinct_sources()) == 2

    def test_missing_base_rejected(self, tmp_path):
        recipe = parse_recipe({"base_checkpoint": str(tmp_path / "nope")})
        with pytest.raises(MergeError, match="base checkpoint not found"):
            resolve_plan(recipe, output=tmp_path / "out")

    def test_output_equal_to_base_rejected(self, checkpoint_run):
        storage, *_ = checkpoint_run
        base = storage.root / "checkpoint-200"
        recipe = parse_recipe({"base_checkpoint": str(base)})
        with pytest.raises(MergeError, match="must differ"):
            resolve_plan(recipe, output=base)

    def test_no_output_anywhere_rejected(self, checkpoint_run):
        storage, *_ = checkpoint_run
        recipe = parse_recipe({"base_checkpoint": str(storage.root / "checkpoint-200")})
        with pytest.raises(RecipeError, match="no output"):
            resolve_plan(recipe)

    def test_unknown_slot_for_tied_model_rejected(self, tmp_path):
        from conftest import make_engine
        from repro.io import Storage, save_checkpoint
        from repro.nn import get_config

        config = get_config("tiny-tied")
        model, engine = make_engine(config)
        storage = Storage(tmp_path / "tied")
        save_checkpoint(storage, step=10, model=model, config=config, engine=engine, trainer_state={})
        doc = {
            "base_checkpoint": str(storage.root / "checkpoint-10"),
            "aux": {"lm_head": str(storage.root / "checkpoint-10")},
        }
        with pytest.raises(MergeError, match="tied"):
            resolve_plan(parse_recipe(doc), output=tmp_path / "out")

    def test_worker_spec_is_serializable(self, checkpoint_run, tmp_path):
        """Rank processes receive the ``MergePlan`` itself: it pickles."""
        import pickle

        storage, _, _, config, _ = checkpoint_run
        odd = {f"layers.{i}": str(storage.root / "checkpoint-100")
               for i in range(config.num_hidden_layers) if i % 2 == 1}
        odd["embed_tokens"] = str(storage.root / "checkpoint-100")
        doc = {
            "base_checkpoint": str(storage.root / "checkpoint-200"),
            "slices": [{"slot": s, "source": p} for s, p in odd.items() if s.startswith("layers")],
            "aux": {"embed_tokens": odd["embed_tokens"]},
        }
        plan = resolve_plan(parse_recipe(doc), output=tmp_path / "out")
        back = pickle.loads(pickle.dumps(plan))
        # ``CheckpointPaths`` has no ``__eq__``: compare the directories.
        assert (back.config, back.world_size, back.options, back.output, back.num_groups) == (
            plan.config, plan.world_size, plan.options, plan.output, plan.num_groups)
        assert back.base.dir == plan.base.dir
        assert back.config_source.dir == plan.config_source.dir
        assert {s: cp.dir for s, cp in back.slot_sources.items()} == {
            s: cp.dir for s, cp in plan.slot_sources.items()}
