"""Where the layers' boundaries are: the public callables a traced run wraps.

Each entry pairs a callable with the span name its calls are recorded
under.  Span names are ``<repository module>.<phase>`` and follow ROADMAP
item 1's phase vocabulary, so that the in-program ledger can later replace
these wrappers without renaming a metric.  Module-level functions are
wrapped under every name that is bound to them (``Recorder.patch_function``);
methods are wrapped on the objects the trainer calls them on, or on the class.
"""

from __future__ import annotations

import repro.core.autorecipe as autorecipe
import repro.core.configs as configs
import repro.core.optimizer_merge as optimizer_merge
import repro.core.plan as plan
import repro.core.verify as verify
import repro.core.weights as weights
import repro.dist.reshard as reshard
import repro.io.blobfile as blobfile
import repro.io.reader as reader
import repro.io.tensorfile as tensorfile
import repro.io.writer as writer
import repro.optim.optimizer as optimizer
import repro.serve.jobs as jobs
from repro.autograd.tensor import Tensor
from repro.train import Trainer

from spans import Recorder

__all__ = ["install_wrappers"]

FUNCTIONS = (
    (optimizer.clip_grad_norm_, "optim.clip"),
    (writer.save_checkpoint, "io.writer.save"),
    (tensorfile.write_tensorfile, "io.tensorfile.write"),
    (blobfile.write_blob, "io.blobfile.write"),
    (blobfile.read_blob, "io.blobfile.read"),
    (blobfile.read_blob_selected, "io.blobfile.read_selected"),
    (reader.load_checkpoint, "io.reader.load"),
    (autorecipe.recipe_from_run, "core.autorecipe"),
    (plan.resolve_plan, "core.plan.resolve"),
    (weights.merge_weight_files, "core.weights"),
    (optimizer_merge.merge_optimizer_shards, "core.optimizer_merge"),
    (configs.copy_config_files, "core.configs.copy"),
    (configs.write_merged_manifest, "core.configs.manifest"),
    (verify.verify_checkpoint, "core.verify"),
    (reshard.reshard_checkpoint, "dist.reshard"),
)


def install_wrappers(rec: Recorder, trainer: Trainer) -> int:
    """Install every timing wrapper; returns how many names were replaced."""
    before = len(rec.patched())
    for fn, name in FUNCTIONS:
        rec.patch_function(fn, name)
    # A service worker thread learns which job it runs from the call's argument.
    rec.patch_function(
        jobs.execute_job,
        "serve.jobs.execute",
        op_of=lambda job, *a, **k: f"serve.{job.spec.kind}:{job.id}",
    )
    rec.patch_attr(Tensor, "backward", "autograd.backward")
    for attr in ("read", "read_raw", "read_all"):
        rec.patch_attr(tensorfile.TensorFile, attr, "io.tensorfile.read")
    engine = trainer.engine
    for owner, attr, name in (
        (trainer.dataset, "batch_at_step", "data.batch"),
        (trainer.model, "loss", "nn.forward"),
        (engine, "zero_grad", "dist.zero.zero_grad"),
        (engine, "step", "dist.zero.step"),
        (engine, "rank_state_dict", "dist.zero.rank_state_dict"),
        (engine, "load_rank_state_dict", "dist.zero.load_rank_state"),
        (engine.comm, "reduce_scatter_mean_into", "dist.comm.reduce_scatter"),
        (engine.comm, "all_gather_into", "dist.comm.all_gather"),
        (trainer.strategy, "plan_step", "strategies.plan_step"),
        (trainer, "write_checkpoint", "train.write_checkpoint"),
    ):
        rec.patch_attr(owner, attr, name)
    return len(rec.patched()) - before
