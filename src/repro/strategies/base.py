"""Selective checkpoint strategies: which slots to save at which step.

A strategy answers one question per training step: *"should we
checkpoint now, and if so, which layer slots?"* (``None`` = no
checkpoint, a list of slots = write a partial checkpoint with exactly
those).  What each checkpoint holds is recorded once, in its manifest;
the paper's T2 step (generating the merge recipe) reads those manifests
through :class:`~repro.io.layout.RunIndex`
(:func:`~repro.core.autorecipe.recipe_from_run`).
"""

from __future__ import annotations

import abc
from typing import Any

from ..nn.config import ModelConfig
from ..nn.module import Module
from ..util.errors import ConfigError

__all__ = ["CheckpointStrategy", "register_strategy", "build_strategy"]


class CheckpointStrategy(abc.ABC):
    """Base class; subclasses implement :meth:`slots_for_step`."""

    name: str = "base"

    def __init__(self, config: ModelConfig, interval: int) -> None:
        if interval < 1:
            raise ConfigError(f"checkpoint interval must be >= 1, got {interval}")
        self.config = config
        self.interval = interval
        self._events_fired = 0

    # -- the decision ---------------------------------------------------------

    def is_checkpoint_step(self, step: int) -> bool:
        """Default cadence: every ``interval`` optimizer steps."""
        return step > 0 and step % self.interval == 0

    @abc.abstractmethod
    def slots_for_event(self, event_index: int, step: int, *, model: Module | None = None) -> list[str]:
        """Slots to save at the ``event_index``-th checkpoint event."""

    def plan_step(self, step: int, *, model: Module | None = None) -> list[str] | None:
        """Main entry: called once per optimizer step by the trainer."""
        if not self.is_checkpoint_step(step):
            return None
        slots = self.slots_for_event(self._events_fired, step, model=model)
        self._events_fired += 1
        return slots

    # -- bookkeeping ------------------------------------------------------------

    def reset(self) -> None:
        """Clear decision state so a plan replay starts fresh."""
        self._events_fired = 0

    def describe(self) -> dict[str, Any]:
        """Serializable description of the strategy and its knobs."""
        return {"strategy": self.name, "interval": self.interval}

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(interval={self.interval})"


_STRATEGIES: dict[str, type] = {}


def register_strategy(cls: type) -> type:
    """Class decorator: register a strategy under its ``name`` attribute."""
    name = getattr(cls, "name", None)
    if not name or name == "base":
        raise ConfigError(f"strategy class {cls.__name__} must define a unique 'name'")
    if name in _STRATEGIES:
        raise ConfigError(f"strategy {name!r} already registered")
    _STRATEGIES[name] = cls
    return cls


def build_strategy(name: str, config: ModelConfig, interval: int, **kwargs) -> CheckpointStrategy:
    """Construct a registered strategy by name with its kwargs."""
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; available: {sorted(_STRATEGIES)}"
        ) from None
    return cls(config, interval, **kwargs)
