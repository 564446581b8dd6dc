"""Training loop for simulated multi-rank ZeRO-3 post-training."""

from .callbacks import (
    Callback,
    ChaosCallback,
    CheckpointCallback,
    FailureInjector,
    LoggingCallback,
)
from .config import TrainConfig
from .state import TrainerState
from .supervisor import ChaosSupervisor, train_with_faults
from .trainer import Trainer, TrainResult

__all__ = [
    "Callback",
    "ChaosCallback",
    "ChaosSupervisor",
    "CheckpointCallback",
    "FailureInjector",
    "LoggingCallback",
    "TrainConfig",
    "TrainResult",
    "Trainer",
    "TrainerState",
    "train_with_faults",
]
