"""Checkpoint-merge-as-a-service: the ``llmtailor serve`` subsystem.

Everything the paper's workflow needs — merge, N→M reshard,
layer diff, and the analytic planners — exists as library calls; this
package wraps them in a long-running multi-tenant asyncio daemon:

* :mod:`~repro.serve.protocol` — the newline-delimited JSON wire format
  and validated :class:`~repro.serve.protocol.JobSpec`;
* :mod:`~repro.serve.admission` — per-tenant quotas and the
  deterministic per-job cost estimates that drive admission control;
* :mod:`~repro.serve.queue` — the priority job queue;
* :mod:`~repro.serve.jobs` — job state machine, the per-job
  :class:`~repro.serve.jobs.JobTimeline` flight recorder, and the
  executors that drive the existing engines;
* :mod:`~repro.serve.journal` — crash-safe submit/done journal for
  replay on restart;
* :mod:`~repro.serve.server` — the asyncio daemon (unix socket or TCP)
  with a worker pool sharing the merge engine's worker budget, a
  cross-request :class:`~repro.io.storage.GroupCache`, and a
  content-addressed :class:`~repro.io.storage.BlobStore` deduplicating
  identical shard groups across tenants;
* :mod:`~repro.serve.client` — a blocking client for the CLI, tests,
  and the ``bench_serve`` load generator.

Results are bitwise-identical to the one-shot CLI paths: the service
only changes *where* bytes come from (cache/blob store instead of a
tenant's file), never what is written.
"""

from .admission import AdmissionController, JobCost, TenantQuota, estimate_job_cost
from .client import ServeClient
from .jobs import Job, JobTimeline
from .protocol import JobSpec, load_job_file, parse_job
from .queue import JobQueue
from .server import MergeService, ServeConfig, serve_in_thread

__all__ = [
    "AdmissionController",
    "Job",
    "JobCost",
    "JobQueue",
    "JobSpec",
    "JobTimeline",
    "MergeService",
    "ServeClient",
    "ServeConfig",
    "TenantQuota",
    "estimate_job_cost",
    "load_job_file",
    "parse_job",
    "serve_in_thread",
]
