"""The paper's use-case pipelines and paper-scale overhead model, shared
by the ``benchmarks/`` suite that renders Tables 1-7 and Figures 1-3."""

from .experiments import (
    PAPER_SETTINGS,
    PipelineResult,
    paper_scale_overhead,
    run_use_case_pipeline,
)

__all__ = [
    "PAPER_SETTINGS",
    "PipelineResult",
    "paper_scale_overhead",
    "run_use_case_pipeline",
]
