"""Merge recipes: the YAML-driven interface (paper §3-4).

LLMTailor keeps MergeKit's workflow — write a short YAML recipe, run the
tool — but the recipe addresses *checkpoints* (weights + optimizer
shards + config files), not just weight files, and it must also name the
auxiliary layers (``embed_tokens``, ``norm``, ``lm_head``) explicitly
(§4.3).

Example::

    base_checkpoint: runs/exp1/checkpoint-200
    output: runs/exp1/merged-200
    slices:
      - slot: layers.0-7
        source: runs/exp1/checkpoint-100
      - slot: layers.8-15
        source: runs/exp1/checkpoint-200
    aux:
      embed_tokens: runs/exp1/checkpoint-100
      norm: runs/exp1/checkpoint-200
      lm_head: runs/exp1/checkpoint-200
    options:
      workers: 8
      cache_mode: per-checkpoint   # or "none" (reload per layer, §5.4)
      copy_configs_from: base

Slots not mentioned anywhere default to ``base_checkpoint``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..util import miniyaml
from ..util.errors import RecipeError

__all__ = ["CACHE_MODES", "MergeOptions", "MergeRecipe", "parse_recipe", "load_recipe"]

CACHE_MODES = ("per-checkpoint", "none")
_SLOT_RE = re.compile(r"^(layers\.(\d+)(-(\d+))?|embed_tokens|norm|lm_head)$")


@dataclass(frozen=True)
class MergeOptions:
    """Execution knobs for the merge engine.

    ``cache_mode`` picks the paper's Table 7 load regime (one selective
    pass per distinct source, or one per slot); ``workers`` is how many
    rank shards are merged at once, each in its own process.
    """

    workers: int = 1
    cache_mode: str = "per-checkpoint"
    copy_configs_from: str = "base"  # "base" or an explicit checkpoint path
    verify: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise RecipeError(f"options.workers must be >= 1, got {self.workers}")
        if self.cache_mode not in CACHE_MODES:
            raise RecipeError(
                f"options.cache_mode must be one of {CACHE_MODES}, got {self.cache_mode!r}"
            )


@dataclass
class MergeRecipe:
    """A validated, unresolved recipe (paths not yet checked on disk)."""

    base_checkpoint: Path
    assignments: dict[str, Path] = field(default_factory=dict)  # slot -> checkpoint dir
    output: Path | None = None
    options: MergeOptions = field(default_factory=MergeOptions)

    def source_for(self, slot: str) -> Path:
        """The checkpoint directory a layer slot is taken from (base if unassigned)."""
        return self.assignments.get(slot, self.base_checkpoint)

    def distinct_sources(self) -> list[Path]:
        """All checkpoints referenced, base first, in stable order."""
        seen: dict[Path, None] = {self.base_checkpoint: None}
        for path in self.assignments.values():
            seen.setdefault(path, None)
        return list(seen)

    def to_yaml(self) -> str:
        """Serialize the recipe to a YAML document string."""
        doc: dict[str, Any] = {"base_checkpoint": str(self.base_checkpoint)}
        if self.output is not None:
            doc["output"] = str(self.output)
        slices = []
        aux: dict[str, str] = {}
        for slot, path in self.assignments.items():
            if slot.startswith("layers."):
                slices.append({"slot": slot, "source": str(path)})
            else:
                aux[slot] = str(path)
        if slices:
            doc["slices"] = slices
        if aux:
            doc["aux"] = aux
        doc["options"] = {
            "workers": self.options.workers,
            "cache_mode": self.options.cache_mode,
            "copy_configs_from": self.options.copy_configs_from,
            "verify": self.options.verify,
        }
        return miniyaml.dumps(doc)

    def save(self, path: str | Path) -> None:
        """Write the recipe as YAML to ``path`` (round-trips :func:`load_recipe`)."""
        Path(path).write_text(self.to_yaml(), encoding="utf-8")


def _expand_slot_spec(spec: str) -> list[str]:
    """``layers.0-7`` → [``layers.0`` .. ``layers.7``]; aux names pass through."""
    spec = str(spec).strip()
    m = _SLOT_RE.match(spec)
    if not m:
        raise RecipeError(
            f"invalid slot {spec!r}; expected layers.N, layers.N-M, "
            "embed_tokens, norm, or lm_head"
        )
    if not spec.startswith("layers."):
        return [spec]
    lo = int(m.group(2))
    hi = int(m.group(4)) if m.group(4) is not None else lo
    if hi < lo:
        raise RecipeError(f"descending layer range in slot {spec!r}")
    return [f"layers.{i}" for i in range(lo, hi + 1)]


def parse_recipe(doc: Any) -> MergeRecipe:
    """Validate a parsed YAML document into a :class:`MergeRecipe`."""
    if not isinstance(doc, dict):
        raise RecipeError(f"recipe must be a mapping, got {type(doc).__name__}")
    known = {"base_checkpoint", "output", "slices", "aux", "options"}
    unknown = set(doc) - known
    if unknown:
        raise RecipeError(f"unknown recipe keys: {sorted(unknown)}")

    base = doc.get("base_checkpoint")
    if not base:
        raise RecipeError("recipe missing required key 'base_checkpoint'")

    assignments: dict[str, Path] = {}

    def assign(slot: str, source: Any, origin: str) -> None:
        if not source:
            raise RecipeError(f"{origin}: missing 'source' for slot {slot!r}")
        if slot in assignments:
            raise RecipeError(f"slot {slot!r} assigned more than once")
        assignments[slot] = Path(str(source))

    slices = doc.get("slices") or []
    if not isinstance(slices, list):
        raise RecipeError("'slices' must be a list of {slot, source} entries")
    for i, entry in enumerate(slices):
        if not isinstance(entry, dict) or "slot" not in entry:
            raise RecipeError(f"slices[{i}] must be a mapping with 'slot' and 'source'")
        extra = set(entry) - {"slot", "source"}
        if extra:
            raise RecipeError(f"slices[{i}] has unknown keys {sorted(extra)}")
        for slot in _expand_slot_spec(entry["slot"]):
            assign(slot, entry.get("source"), f"slices[{i}]")

    aux = doc.get("aux") or {}
    if not isinstance(aux, dict):
        raise RecipeError("'aux' must be a mapping of {embed_tokens|norm|lm_head: source}")
    for slot, source in aux.items():
        if slot not in ("embed_tokens", "norm", "lm_head"):
            raise RecipeError(f"aux key must be embed_tokens/norm/lm_head, got {slot!r}")
        assign(slot, source, "aux")

    opts_doc = doc.get("options") or {}
    if not isinstance(opts_doc, dict):
        raise RecipeError("'options' must be a mapping")
    extra = set(opts_doc) - {"workers", "cache_mode", "copy_configs_from", "verify"}
    if extra:
        raise RecipeError(f"unknown option keys: {sorted(extra)}")
    options = MergeOptions(
        workers=int(opts_doc.get("workers", 1)),
        cache_mode=str(opts_doc.get("cache_mode", "per-checkpoint")),
        copy_configs_from=str(opts_doc.get("copy_configs_from", "base")),
        verify=bool(opts_doc.get("verify", True)),
    )

    output = doc.get("output")
    return MergeRecipe(
        base_checkpoint=Path(str(base)),
        assignments=assignments,
        output=Path(str(output)) if output else None,
        options=options,
    )


def load_recipe(path: str | Path) -> MergeRecipe:
    """Parse a recipe YAML file."""
    try:
        doc = miniyaml.load_file(path)
    except FileNotFoundError:
        raise RecipeError(f"recipe file not found: {path}") from None
    return parse_recipe(doc)
