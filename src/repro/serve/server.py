"""The merge service daemon: asyncio front end over the engines.

One :class:`MergeService` accepts concurrent connections on a unix
socket (default) and/or a TCP port, validates and admits jobs, queues
them by priority, and runs them on a worker pool — a
``ThreadPoolExecutor`` sized by the same
:func:`~repro.core.optimizer_merge.worker_budget` policy the engines
use, so total service concurrency is bounded exactly like a one-shot
run with ``--workers``.  Inside a job the engines stay thread-based,
which keeps the cross-request :class:`~repro.io.storage.GroupCache`
(installed process-wide via
:func:`~repro.core.optimizer_merge.set_group_cache`) visible to every
worker.

Durability: every admitted job is journaled before it is queued and
marked done on completion; on restart, unfinished jobs replay with
their tenant budget force-charged (quota limits are not re-checked, so
a tenant that crashed at its inflight cap cannot wedge its own
replay).  ``SIGTERM`` triggers a graceful drain — the queue
closes, in-flight and queued jobs finish, the listeners close, and open
connections are served until their clients close them (for at most
:data:`STOP_TIMEOUT` seconds).
"""

from __future__ import annotations

import asyncio
import contextlib
import re
import signal
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..io.storage import BlobStore, GroupCache, StorageCostModel
from ..util.errors import ConfigError, ReproError
from ..util.logging import get_logger
from .admission import AdmissionController, JobCost, TenantQuota, estimate_job_cost
from .jobs import TERMINAL_STATES, Job, execute_job
from .journal import JobJournal, replay_journal
from .protocol import decode_line, encode_line, parse_job
from .queue import JobQueue

__all__ = ["MergeService", "ServeConfig", "serve_in_thread"]

log = get_logger("serve.server")

#: Seconds a graceful stop may take: the thread join, and teardown's wait
#: for open connections — so an idle client holds a draining daemon open
#: this long at most.
STOP_TIMEOUT = 60.0


@dataclass
class ServeConfig:
    """Everything one service instance needs to come up."""

    socket_path: str | None = None
    host: str | None = None
    port: int = 0
    workers: int = 2
    quota: TenantQuota = field(default_factory=TenantQuota)
    cache_bytes: int = 256 << 20
    blob_root: str | None = None
    journal_path: str | None = None
    max_jobs: int | None = None
    keep_finished: int = 1024
    storage: StorageCostModel | None = None

    def __post_init__(self) -> None:
        if self.socket_path is None and self.host is None:
            raise ConfigError("serve needs a socket path and/or a TCP host")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_jobs is not None and self.max_jobs < 1:
            raise ConfigError(f"max_jobs must be >= 1, got {self.max_jobs}")
        if self.keep_finished < 1:
            raise ConfigError(
                f"keep_finished must be >= 1, got {self.keep_finished}"
            )


class MergeService:
    """The asyncio daemon behind ``llmtailor serve``."""

    def __init__(self, config: ServeConfig) -> None:
        from ..core.optimizer_merge import worker_budget

        self.config = config
        self.queue = JobQueue()
        self.admission = AdmissionController(config.quota)
        self.blob_store = (
            BlobStore(config.blob_root) if config.blob_root is not None else None
        )
        self.cache = GroupCache(max_bytes=config.cache_bytes, store=self.blob_store)
        self.journal = (
            JobJournal(config.journal_path)
            if config.journal_path is not None
            else None
        )
        # One budget for the whole service: the pool is the only place
        # engine work runs, so clamping it clamps total concurrency.
        self.pool_size = worker_budget(config.workers, config.workers)
        self.jobs: dict[str, Job] = {}
        self.counters = {
            "submitted": 0,
            "rejected": 0,
            "completed": 0,
            "failed": 0,
            "replayed": 0,
        }
        self._job_seq = 0
        self._job_events: dict[str, asyncio.Event] = {}
        self._finished_ids: deque[str] = deque()
        self._executor: ThreadPoolExecutor | None = None
        self._servers: list[asyncio.base_events.Server] = []
        self._worker_tasks: list[asyncio.Task] = []
        self._stopped = asyncio.Event()
        self._draining = False
        # Open client connections; teardown waits for the count to reach zero.
        self._connections = 0
        self._connections_closed = asyncio.Event()
        self._connections_closed.set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._prev_cache = None
        self.endpoints: dict[str, Any] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind sockets, install the cache, replay the journal, start workers."""
        from ..core.optimizer_merge import set_group_cache

        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.pool_size, thread_name_prefix="serve-worker"
        )
        self._prev_cache = set_group_cache(self.cache)
        if self.journal is not None:
            for job_id, spec in replay_journal(self.journal.path):
                # Replay bypasses the quota *checks* deliberately —
                # these jobs were already admitted once, and re-checking
                # could wedge a tenant that crashed at its inflight
                # limit — but still charges the budget, so the release
                # in _finish stays symmetric.  A job that can no longer
                # be priced (its checkpoint or recipe source is gone)
                # fails, journaled, instead of stopping the daemon.
                try:
                    cost, error = self._estimate(spec), None
                except ReproError as exc:
                    cost, error = JobCost(kind=spec.kind), f"not replayable: {exc}"
                self.admission.force_admit(spec, cost)
                job = Job(id=job_id, spec=spec, cost=cost)
                job.timeline.record("replayed")
                self._track(job)
                match = re.fullmatch(r"job-(\d+)", job_id)
                if match:
                    self._job_seq = max(self._job_seq, int(match.group(1)))
                self.counters["replayed"] += 1
                log.info("replayed journaled job %s (%s)", job_id, spec.kind)
                if error is not None:
                    self._finish(job, "failed", error=error)
                else:
                    await self.queue.put(job)
        if self.config.socket_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket_path
            )
            self._servers.append(server)
            self.endpoints["socket"] = self.config.socket_path
        if self.config.host is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=self.config.port
            )
            self._servers.append(server)
            self.endpoints["tcp"] = server.sockets[0].getsockname()[:2]
        self._worker_tasks = [
            asyncio.ensure_future(self._worker(i)) for i in range(self.pool_size)
        ]
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            # Signal handlers only install on the main thread; the
            # in-thread test harness simply calls request_shutdown().
            self._loop.add_signal_handler(
                signal.SIGTERM, self.request_shutdown
            )
            self._loop.add_signal_handler(
                signal.SIGINT, self.request_shutdown
            )
        log.info(
            "serving on %s with %d worker(s)", self.endpoints, self.pool_size
        )

    async def run(self) -> None:
        """Start, serve until a shutdown is requested, then tear down."""
        await self.start()
        await self._stopped.wait()
        await self._teardown()

    def request_shutdown(self) -> None:
        """Schedule a graceful drain (signal handlers, other threads)."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(
            lambda: asyncio.ensure_future(self.shutdown(drain=True))
        )

    async def shutdown(self, *, drain: bool = True) -> None:
        """Close the queue and let workers drain (or cancel queued jobs)."""
        if self._draining:
            return
        self._draining = True
        if not drain:
            while self.queue.qsize():
                job = await self.queue.get()
                if job is None:
                    break
                self._finish(job, "failed", error="cancelled at shutdown")
        await self.queue.close()
        log.info("shutdown requested (drain=%s)", drain)
        self._stopped.set()

    async def _teardown(self) -> None:
        from ..core.optimizer_merge import set_group_cache

        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        # Returning with a connection open would let the loop's exit cancel
        # its handler: a request read after the drain began (a ``wait`` whose
        # job finished first) would get a closed connection, not its reply.
        # So stop accepting, then serve open connections until they close.
        for server in self._servers:
            server.close()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._connections_closed.wait(), STOP_TIMEOUT)
        for server in self._servers:
            await server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self.journal is not None:
            self.journal.close()
        set_group_cache(self._prev_cache)
        if self.config.socket_path is not None:
            Path(self.config.socket_path).unlink(missing_ok=True)
        log.info("service stopped after %d job(s)", self.counters["completed"]
                 + self.counters["failed"])

    # -- job bookkeeping -----------------------------------------------------

    def _estimate(self, spec):
        return estimate_job_cost(spec, storage=self.config.storage)

    def _track(self, job: Job) -> None:
        self.jobs[job.id] = job
        self._job_events[job.id] = asyncio.Event()

    def _finish(self, job: Job, status: str, *, error: str | None = None,
                result: dict[str, Any] | None = None) -> None:
        job.status = status
        job.error = error
        job.result = result
        job.timeline.record(status if error is None else "failed", **(
            {"error": error} if error else {}
        ))
        self.admission.finish(job.spec, job.cost)
        if self.journal is not None:
            self.journal.finished(job.id, status)
        self.counters["completed" if status == "done" else "failed"] += 1
        event = self._job_events.get(job.id)
        if event is not None:
            event.set()
        # Terminal jobs are kept for status/wait but bounded: a
        # long-running daemon must not retain every spec and timeline
        # forever.  Waiters blocked on an evicted job already hold
        # references to it and its event, so eviction cannot strand them.
        self._finished_ids.append(job.id)
        while len(self._finished_ids) > self.config.keep_finished:
            evicted = self._finished_ids.popleft()
            self.jobs.pop(evicted, None)
            self._job_events.pop(evicted, None)
        done = self.counters["completed"] + self.counters["failed"]
        if self.config.max_jobs is not None and done >= self.config.max_jobs:
            log.info("--max-jobs=%d reached, draining", self.config.max_jobs)
            asyncio.ensure_future(self.shutdown(drain=True))

    async def _worker(self, index: int) -> None:
        assert self._loop is not None and self._executor is not None
        while True:
            job = await self.queue.get()
            if job is None:
                return
            job.status = "running"
            job.timeline.record("start", worker=index)
            try:
                result = await self._loop.run_in_executor(
                    self._executor, self._execute, job
                )
            except ReproError as exc:
                self._finish(job, "failed", error=str(exc))
            except Exception as exc:  # engine bug: fail the job, not the service
                log.exception("job %s crashed", job.id)
                self._finish(job, "failed", error=f"{type(exc).__name__}: {exc}")
            else:
                self._finish(job, "done", result=result)

    def _execute(self, job: Job) -> dict[str, Any]:
        """Run ``job`` on this pool thread and count its cache lookups.

        A served job runs on one thread, so the cache's per-thread
        counters are its own lookups, whatever other workers look up
        meanwhile.
        """
        mine = self.cache.thread_lookups
        hits0, misses0 = mine.hits, mine.misses
        result = execute_job(job, blob_store=self.blob_store)
        job.timeline.cache_hits = mine.hits - hits0
        job.timeline.cache_misses = mine.misses - misses0
        return result

    # -- protocol ------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        self._connections_closed.clear()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                try:
                    response = await self._dispatch(decode_line(line))
                except ReproError as exc:
                    response = {"ok": False, "error": str(exc)}
                except Exception as exc:  # never kill the connection
                    log.exception("request failed")
                    response = {
                        "ok": False,
                        "error": f"internal error: {type(exc).__name__}: {exc}",
                    }
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
            self._connections -= 1
            if not self._connections:
                self._connections_closed.set()

    async def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "submit":
            return await self._op_submit(request)
        if op == "status":
            return self._op_status(request)
        if op == "wait":
            return await self._op_wait(request)
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "shutdown":
            asyncio.ensure_future(
                self.shutdown(drain=bool(request.get("drain", True)))
            )
            return {"ok": True, "draining": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _op_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        if self._draining or self.queue.closed:
            return {"ok": False, "error": "service is draining", "retry_after": 1.0}
        spec = parse_job(request.get("job") or {})
        assert self._loop is not None and self._executor is not None
        # Cost estimation stats files and parses manifests — off the loop.
        cost = await self._loop.run_in_executor(
            self._executor, self._estimate, spec
        )
        admission = self.admission.admit(spec, cost)
        if not admission.accepted:
            self.counters["rejected"] += 1
            return {
                "ok": False,
                "error": admission.reason,
                "retry_after": admission.retry_after,
                "cost": cost.describe(),
            }
        self._job_seq += 1
        job = Job(id=f"job-{self._job_seq:06d}", spec=spec, cost=cost)
        job.timeline.record(
            "admitted", total_bytes=cost.total_bytes, est_seconds=cost.est_seconds
        )
        self._track(job)
        if self.journal is not None:
            self.journal.submitted(job.id, spec)
        try:
            await self.queue.put(job)
        except RuntimeError:
            # Shutdown closed the queue after the drain check above
            # (the cost estimate awaited in the executor meanwhile):
            # release the admission charge, journal a terminal record
            # so the job does not silently replay on restart, and give
            # the client the normal draining response.
            self.admission.finish(spec, cost)
            if self.journal is not None:
                self.journal.finished(job.id, "failed")
            self.jobs.pop(job.id, None)
            self._job_events.pop(job.id, None)
            self.counters["rejected"] += 1
            return {"ok": False, "error": "service is draining", "retry_after": 1.0}
        self.counters["submitted"] += 1
        return {"ok": True, "id": job.id, "status": job.status,
                "cost": cost.describe()}

    def _op_status(self, request: dict[str, Any]) -> dict[str, Any]:
        job = self.jobs.get(str(request.get("id")))
        if job is None:
            return {"ok": False, "error": f"unknown job id {request.get('id')!r}"}
        return {"ok": True, "job": job.to_dict()}

    async def _op_wait(self, request: dict[str, Any]) -> dict[str, Any]:
        job_id = str(request.get("id"))
        job = self.jobs.get(job_id)
        if job is None:
            return {"ok": False, "error": f"unknown job id {job_id!r}"}
        if job.status not in TERMINAL_STATES:
            timeout = request.get("timeout")
            event = self._job_events[job_id]
            try:
                await asyncio.wait_for(
                    event.wait(), None if timeout is None else float(timeout)
                )
            except asyncio.TimeoutError:
                return {"ok": False, "error": "wait timed out", "job": job.to_dict()}
        return {"ok": True, "job": job.to_dict()}

    def stats(self) -> dict[str, Any]:
        """Service-wide counters: jobs, admission, cache, blob store."""
        out: dict[str, Any] = {
            "jobs": dict(self.counters),
            "queued": self.queue.qsize(),
            "workers": self.pool_size,
            "tenants": self.admission.stats(),
            "cache": self.cache.stats.as_dict(),
        }
        if self.blob_store is not None:
            out["blob_store"] = self.blob_store.stats()
        return out


class ServeHandle:
    """Foreground handle on a service running in a background thread."""

    def __init__(self, service: MergeService, thread: threading.Thread) -> None:
        self.service = service
        self.thread = thread

    def stop(self, timeout: float = STOP_TIMEOUT) -> None:
        """Request a graceful drain and join the server thread."""
        self.service.request_shutdown()
        self.thread.join(timeout=timeout)

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(config: ServeConfig, *, ready_timeout: float = 30.0) -> ServeHandle:
    """Run a :class:`MergeService` on a background thread (tests, bench).

    Returns once the service has bound its sockets; use the handle as a
    context manager (or call ``stop()``) to drain and join.
    """
    service = MergeService(config)
    ready = threading.Event()
    failure: list[BaseException] = []

    async def _main() -> None:
        try:
            await service.start()
        except BaseException as exc:  # surface bind errors to the caller
            failure.append(exc)
            ready.set()
            raise
        ready.set()
        await service._stopped.wait()
        await service._teardown()

    thread = threading.Thread(
        target=lambda: asyncio.run(_main()), name="llmtailor-serve", daemon=True
    )
    thread.start()
    if not ready.wait(timeout=ready_timeout):
        raise ConfigError("serve thread failed to come up in time")
    if failure:
        raise failure[0]
    return ServeHandle(service, thread)
