"""Training-run configuration.

One dataclass describes an entire experiment: model, task (CPT or SFT),
parallelism, optimization, checkpoint strategy, and failure injection.
Serialized into every checkpoint as ``training_args.json``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from ..util.errors import ConfigError

__all__ = ["TrainConfig"]

_TASKS = ("cpt", "sft")


@dataclass
class TrainConfig:
    # What to train.
    model: str = "tiny-untied"
    task: str = "cpt"
    output_dir: str = "runs/default"
    seed: int = 0

    # Parallelism (simulated data-parallel world).
    world_size: int = 2
    micro_batch_size: int = 2
    grad_accum_steps: int = 2
    # Cluster topology (repro.dist.topology.Topology.to_dict() form, or
    # None for the flat ring): the communicator's cost model — results
    # are bitwise-identical, bytes/seconds are accounted per link class —
    # and world_size may be anything up to the cluster's rank capacity.
    topology: dict[str, Any] | None = None

    # Sequences / data.
    seq_len: int = 48
    kb_seed: int = 1234
    n_corpus_docs: int = 120
    n_sft_pairs: int = 300

    # Optimization.
    lr: float = 3e-4
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    grad_clip: float = 1.0
    scheduler: str = "warmup_cosine"
    warmup_steps: int = 10
    total_steps: int = 100

    # Checkpointing.
    checkpoint_strategy: str = "full"
    checkpoint_interval: int = 20
    strategy_kwargs: dict[str, Any] = field(default_factory=dict)
    # Coverage-aware retention: keep at most this many checkpoints, never
    # deleting the last surviving copy of a slot.  None = keep everything.
    max_checkpoints: int | None = None

    # Failure injection: raise SimulatedFailure after this step completes
    # (checkpoint decisions for the step are made first).  None disables.
    failure_step: int | None = None

    # Simulated timing: seconds of compute charged per optimizer step.
    sim_step_seconds: float = 1.0

    # Logging.
    log_every: int = 10

    def __post_init__(self) -> None:
        if self.task not in _TASKS:
            raise ConfigError(f"task must be one of {_TASKS}, got {self.task!r}")
        for name in ("world_size", "micro_batch_size", "grad_accum_steps", "total_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.checkpoint_interval < 1:
            raise ConfigError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"
            )
        if self.failure_step is not None and not (0 < self.failure_step <= self.total_steps):
            raise ConfigError(
                f"failure_step {self.failure_step} outside (0, {self.total_steps}]"
            )
        if self.topology is not None:
            topo = self.resolved_topology  # validates the mapping itself
            if self.world_size > topo.world_size:
                raise ConfigError(
                    f"world_size {self.world_size} exceeds topology "
                    f"{topo.shape} capacity {topo.world_size}"
                )

    @property
    def resolved_topology(self):
        """The :class:`~repro.dist.topology.Topology`, or ``None`` when flat.

        The config stores the plain-dict form (JSON-serializable into
        ``training_args.json``); this materializes it.  Raises
        :class:`~repro.util.errors.DistError` via ``Topology.from_dict``
        on a malformed mapping.
        """
        if self.topology is None:
            return None
        from ..dist.topology import Topology

        return Topology.from_dict(self.topology)

    @property
    def global_batch_size(self) -> int:
        """Sequences per optimizer step across all ranks and accumulations."""
        return self.world_size * self.micro_batch_size * self.grad_accum_steps

    @property
    def tokens_per_step(self) -> int:
        """Tokens consumed per optimizer step (global batch × sequence length)."""
        return self.global_batch_size * self.seq_len

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (what ``training_args.json`` stores)."""
        out = dataclasses.asdict(self)
        out["betas"] = list(self.betas)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TrainConfig":
        """Rebuild a config from :meth:`to_dict` output (unknown keys rejected)."""
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown training config keys: {sorted(extra)}")
        data = dict(data)
        if "betas" in data:
            data["betas"] = tuple(data["betas"])
        return cls(**data)

    def replace(self, **kwargs) -> "TrainConfig":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)
