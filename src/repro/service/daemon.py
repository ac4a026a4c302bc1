"""Always-on async serving daemon over :class:`MaskOptService`.

Every execution path before this module is a *sweep*: the caller hands
over a batch, blocks until the batch is done, and the worker fleet dies
with the call.  :class:`MaskOptDaemon` turns the service into a
long-running process: an ``asyncio`` front door accepts
:class:`~repro.service.api.OptRequest` records continuously
(:meth:`~MaskOptDaemon.submit`), dispatches them to **persistent warm
worker pools** (:class:`~repro.service.workqueue.WorkStealingPool`, one
per engine spec, workers built once and reused across requests), and
resolves each request's future as its verified result streams back
(:meth:`~MaskOptDaemon.result` / :meth:`~MaskOptDaemon.results`).

Architecture — three threads around one event loop::

    event loop (caller's)          collector thread       verifier thread
    ---------------------          ----------------       ---------------
    submit(request, tenant)
      admission control ───ServiceBusy when tenant full
      per-tenant FIFO
      round-robin dispatch ──▶ pool task queues
                                   poll_verdicts over the
                                   shared relay of all pools:
                                   done ──verify?────────▶ scheduler.add
                                   done (no verify) ─┐      flush_ready /
                                   failed ───────────┤      idle flush
                                   failed pool ► retire     drift check
                                                     ▼          │
                              future.set_result / set_exception ◀┘
                                   (loop.call_soon_threadsafe)

* The **collector** is the daemon's pool consumer: all pools share one
  relay queue of ``(pool, message)`` pairs, and
  :func:`~repro.service.workqueue.poll_verdicts` turns that stream plus
  each pool's liveness tick into per-task verdicts — the same consumer
  policy (dedup, retry backoff, deadlines, stall kills, crash verdicts,
  revive budget, error wording) a sweep uses.  A done verdict goes to
  the verifier (or straight to assembly for ``verify=False`` requests);
  a failed one fails only its ticket.  A crashed worker is **revived**
  by its pool — the daemon keeps serving, one lost request does not
  become an outage — and a pool that fails as a whole (engine build
  failed, stream corrupted, revive budget spent) is retired.
* The **verifier** owns the service's shape-binned scheduler.  Outcomes
  join their bin as they arrive; any bin reaching ``stream_min_bin``
  masks flushes immediately, and when the daemon goes quiescent (nothing
  queued or in flight) stragglers are flushed after ``flush_idle_s`` —
  or unconditionally once a mask has waited ``flush_max_wait_s``, so a
  lone request on an idle daemon is never parked indefinitely waiting
  for bin-mates.  Drift checks run per result: a diverging engine fails
  *that* future with :class:`~repro.errors.MetrologyError` instead of
  tearing the daemon down.

Admission control is per **tenant**: each tenant name has a bounded
number of requests outstanding (queued + in flight + awaiting
verification); past ``max_pending`` the daemon raises
:class:`~repro.errors.ServiceBusy` instead of buffering without bound.
Dispatch round-robins across tenants with queued work, so one chatty
tenant cannot starve the others, and each pool accepts at most
``pool_backlog`` undone tasks — the rest wait in tenant queues where
they can still be shed.

Numerical contract: the daemon path is bit-for-bit identical to
:meth:`~repro.service.service.MaskOptService.run_suite_sharded` (and
therefore to the sequential sweep).  Work stealing moves clips between
workers, never numbers; the batched verification is batch-composition
independent, so *when* a bin flushes cannot change a measurement
(``tests/test_service_daemon.py`` pins this).

The daemon owns its service exclusively — do not drive ``run_all`` /
``map_suite`` on the same instance while the daemon is running (they
share the verification scheduler).
"""

from __future__ import annotations

import asyncio
import queue as queue_mod
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, AsyncIterator, Iterable

from repro.errors import (
    DeadlineExceeded,
    MetrologyError,
    RetriesExhausted,
    ServiceBusy,
    ServiceError,
)
from repro.litho.simulator import LithoConfig
from repro.service.api import OptRequest, OptResult
from repro.service.journal import open_journal
from repro.service.service import DEFAULT_RETRIES, MaskOptService
from repro.service.sharding import EngineSpec
from repro.service.workqueue import (
    CRASH_GRACE_S,
    DEFAULT_START_METHOD,
    Task,
    TaskVerdict,
    WorkStealingPool,
    poll_verdicts,
)

DEFAULT_MAX_PENDING = 32
DEFAULT_FLUSH_IDLE_S = 0.2
DEFAULT_FLUSH_MAX_WAIT_S = 2.0

_VERIFIER_STOP = object()


@dataclass
class _TicketState:
    """Loop-side record of one accepted, unresolved request."""

    future: asyncio.Future
    tenant: str
    fingerprint: str | None = None


class MaskOptDaemon:
    """Always-on asyncio front door over one :class:`MaskOptService`.

    Usage::

        async with MaskOptDaemon(workers=4) as daemon:
            ticket = await daemon.submit(OptRequest(clip=clip))
            result = await daemon.result(ticket)

    Construction is cheap; :meth:`start` (or ``async with``) arms the
    collector/verifier threads, and worker pools spawn lazily the first
    time an engine spec is dispatched.  :meth:`shutdown` drains in-flight
    work (by default), stops the threads, and tears every pool down.

    Thread/loop contract: ``submit`` / ``result`` / ``results`` /
    ``drain`` / ``shutdown`` are coroutines and must run on the loop
    that called :meth:`start`.  :meth:`stats` may be called from any
    thread.
    """

    def __init__(
        self,
        service: MaskOptService | None = None,
        litho_config: LithoConfig | None = None,
        *,
        workers: int = 2,
        max_pending: int = DEFAULT_MAX_PENDING,
        pool_backlog: int | None = None,
        stream_min_bin: int | None = None,
        flush_idle_s: float = DEFAULT_FLUSH_IDLE_S,
        flush_max_wait_s: float = DEFAULT_FLUSH_MAX_WAIT_S,
        start_method: str = DEFAULT_START_METHOD,
        grace_s: float = CRASH_GRACE_S,
        max_revives: int | None = None,
        retries: int = DEFAULT_RETRIES,
        deadline_s: float | None = None,
        stall_timeout_s: float | None = None,
        journal: Any = None,
        fault_plan: Any = None,
    ) -> None:
        if service is not None and litho_config is not None:
            raise ServiceError(
                "pass either a service or a litho_config, not both"
            )
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if max_pending < 1:
            raise ServiceError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if pool_backlog is None:
            pool_backlog = 2 * int(workers)
        if pool_backlog < 1:
            raise ServiceError(
                f"pool_backlog must be >= 1, got {pool_backlog}"
            )
        if stream_min_bin is None:
            stream_min_bin = max(2, int(workers))
        if stream_min_bin < 1:
            raise ServiceError(
                f"stream_min_bin must be >= 1, got {stream_min_bin}"
            )
        self.service = service or MaskOptService(litho_config=litho_config)
        self.workers = int(workers)
        self.max_pending = int(max_pending)
        self.pool_backlog = int(pool_backlog)
        self.stream_min_bin = int(stream_min_bin)
        self.flush_idle_s = float(flush_idle_s)
        self.flush_max_wait_s = float(flush_max_wait_s)
        if retries < 0:
            raise ServiceError(f"retries must be >= 0, got {retries}")
        if deadline_s is not None and not deadline_s > 0:
            raise ServiceError(
                f"deadline_s must be > 0, got {deadline_s}"
            )
        self.retries = int(retries)
        self.deadline_s = deadline_s
        # Everything else configures the warm pool of each engine spec.
        self._pool_options = dict(
            start_method=start_method, grace_s=grace_s,
            stall_timeout_s=stall_timeout_s, fault_plan=fault_plan,
            max_revives=max_revives,
        )
        self._journal, self._journal_owned = open_journal(journal)

        self._state = "new"
        self._loop: asyncio.AbstractEventLoop | None = None
        self._idle = asyncio.Event()

        # Loop-side state (touched only from the event loop).
        self._states: dict[int, _TicketState] = {}
        self._done: dict[int, asyncio.Future] = {}
        self._tenant_queues: dict[str, deque] = {}
        self._tenant_rr: deque[str] = deque()
        self._tenant_outstanding: dict[str, int] = {}
        self._queued_count = 0

        # Cross-thread state.
        self._relay: queue_mod.Queue = queue_mod.Queue()
        self._verify_inbox: queue_mod.Queue = queue_mod.Queue()
        self._stop_collector = threading.Event()
        self._collector: threading.Thread | None = None
        self._verifier: threading.Thread | None = None
        self._pools_lock = threading.Lock()
        self._pools: dict[tuple, WorkStealingPool] = {}
        self._retired: set = set()  # collector-thread-owned
        # Dispatched-but-unanswered tickets: written by the dispatcher
        # (loop), removed by the collector when the verdict arrives.
        self._routed_lock = threading.Lock()
        self._routed: dict[int, OptRequest] = {}
        self._counter_lock = threading.Lock()
        self._counters = {
            "submitted": 0, "rejected": 0, "completed": 0, "failed": 0,
            "retried": 0, "deadline_exceeded": 0, "retries_exhausted": 0,
        }

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "MaskOptDaemon":
        """Arm the daemon on the current event loop."""
        if self._state != "new":
            raise ServiceError(
                f"daemon is {self._state}; create a fresh one"
            )
        self._loop = asyncio.get_running_loop()
        self._idle.set()
        self._collector = threading.Thread(
            target=self._collect, daemon=True, name="repro-daemon-collect"
        )
        self._verifier = threading.Thread(
            target=self._verify_loop, daemon=True, name="repro-daemon-verify"
        )
        self._state = "running"
        self._collector.start()
        self._verifier.start()
        return self

    async def __aenter__(self) -> "MaskOptDaemon":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown(drain=exc_type is None)

    async def drain(self) -> None:
        """Wait until nothing is queued, in flight, or awaiting
        verification."""
        await self._idle.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the daemon.  ``drain=True`` (the default) first waits for
        every accepted request to resolve; ``drain=False`` abandons the
        backlog — unresolved futures fail with :class:`ServiceError`.
        Idempotent."""
        if self._state == "stopped":
            return
        if self._state == "new":
            self._state = "stopped"
            return
        if drain and self._state == "running":
            await self._idle.wait()
        self._state = "stopping"
        assert self._loop is not None
        self._verify_inbox.put(_VERIFIER_STOP)
        if self._verifier is not None:
            await self._loop.run_in_executor(None, self._verifier.join)
        self._stop_collector.set()
        if self._collector is not None:
            await self._loop.run_in_executor(None, self._collector.join)
        with self._pools_lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            # After a drain the pools are idle and a graceful stop is
            # instant; an abandoning shutdown must *not* wait for the
            # backlog — terminate the workers.
            await self._loop.run_in_executor(
                None, lambda p=pool: p.shutdown(graceful=drain)
            )
        leftover = ServiceError(
            "daemon shut down before this request completed"
        )
        for ticket in list(self._states):
            self._resolve(ticket, None, leftover)
        for tenant_queue in self._tenant_queues.values():
            tenant_queue.clear()
        self._queued_count = 0
        with self._routed_lock:
            self._routed.clear()
        if self._journal_owned and self._journal is not None:
            self._journal.close()
        self._idle.set()
        self._state = "stopped"

    def _require_running(self) -> None:
        if self._state != "running":
            raise ServiceError(f"daemon is {self._state}, not running")

    # -- submission (event loop) ---------------------------------------------
    async def submit(self, request: OptRequest, tenant: str = "default") -> int:
        """Accept one request; returns its ticket id immediately.

        Raises :class:`ServiceBusy` when ``tenant`` already has
        ``max_pending`` requests outstanding — admission control sheds
        load explicitly instead of buffering without bound.  The request
        must be *spawnable* (registry name or factory callable; engine
        instances and ``train_clips`` cannot cross the process boundary
        into the warm pool).
        """
        self._require_running()
        if not isinstance(request, OptRequest):
            raise ServiceError(
                f"submit() takes an OptRequest, got {type(request).__name__}"
            )
        if not isinstance(tenant, str) or not tenant:
            raise ServiceError("tenant must be a non-empty string")
        if request.train_clips:
            raise ServiceError(
                "train_clips cannot cross into the daemon's worker "
                "processes; train ahead of time and register a factory "
                "callable that builds the trained engine"
            )
        # EngineSpec validates eagerly: an engine instance is rejected
        # here with a clear error, not later inside Process.start().
        spec = EngineSpec(
            engine=request.engine,
            litho=self.service.simulator.config,
            overrides=tuple(sorted(request.engine_overrides.items())),
        )
        if self._tenant_outstanding.get(tenant, 0) >= self.max_pending:
            self._count("rejected")
            raise ServiceBusy(
                f"tenant {tenant!r} already has {self.max_pending} requests "
                "outstanding; back off and resubmit"
            )
        (ticket,) = self.service._allocate_tickets(1)
        assert self._loop is not None
        fingerprint = (
            spec.fingerprint() if self._journal is not None else None
        )
        if self._journal is not None:
            self._journal.log_admit(
                ticket, request.clip, spec.label, fingerprint
            )
        self._states[ticket] = _TicketState(
            future=self._loop.create_future(), tenant=tenant,
            fingerprint=fingerprint,
        )
        self._tenant_outstanding[tenant] = (
            self._tenant_outstanding.get(tenant, 0) + 1
        )
        if tenant not in self._tenant_queues:
            self._tenant_queues[tenant] = deque()
            self._tenant_rr.append(tenant)
        key = self._spec_key(request)
        self._tenant_queues[tenant].append((ticket, request, key, spec))
        self._queued_count += 1
        self._idle.clear()
        self._count("submitted")
        self._dispatch()
        return ticket

    @staticmethod
    def _spec_key(request: OptRequest) -> tuple:
        return (
            request.engine,
            tuple(sorted(
                (k, repr(v)) for k, v in request.engine_overrides.items()
            )),
        )

    def _dispatch(self) -> None:
        """Move queued requests into pool queues, round-robin across
        tenants, while pool backlogs allow.  Event-loop only."""
        if self._state != "running":
            return
        progressed = True
        while progressed:
            progressed = False
            for _ in range(len(self._tenant_rr)):
                tenant = self._tenant_rr[0]
                self._tenant_rr.rotate(-1)
                tenant_queue = self._tenant_queues.get(tenant)
                if not tenant_queue:
                    continue
                ticket, request, key, spec = tenant_queue[0]
                try:
                    pool = self._pool_for(key, spec)
                except ServiceError as exc:
                    tenant_queue.popleft()
                    self._queued_count -= 1
                    self._loop.call_soon(self._resolve, ticket, None, exc)
                    progressed = True
                    continue
                if pool.outstanding >= self.pool_backlog:
                    continue
                tenant_queue.popleft()
                self._queued_count -= 1
                with self._routed_lock:
                    self._routed[ticket] = request
                try:
                    pool.submit(Task(
                        task_id=ticket,
                        clip=request.clip,
                        optimize_kwargs=dict(request.optimize_kwargs),
                        capture_mask=request.verify,
                        retries=(
                            self.retries if request.retries is None
                            else request.retries
                        ),
                        deadline_s=(
                            self.deadline_s if request.deadline_s is None
                            else request.deadline_s
                        ),
                    ))
                except ServiceError as exc:
                    # The pool failed between lookup and submit (the
                    # collector raced us on a fatal) — fail the ticket
                    # rather than strand it.
                    self._unroute(ticket)
                    self._loop.call_soon(
                        self._resolve, ticket, None, ServiceError(
                            f"dispatch to engine pool {pool.spec.label!r} "
                            f"failed: {exc}"
                        )
                    )
                progressed = True

    def _pool_for(self, key: tuple, spec: EngineSpec) -> WorkStealingPool:
        """The warm pool for an engine spec, spawning it on first use.
        Event-loop only (so there is no create race); the lock covers
        readers on other threads."""
        with self._pools_lock:
            pool = self._pools.get(key)
        if pool is not None:
            return pool
        pool = WorkStealingPool(
            spec, self.workers, relay=self._relay, **self._pool_options
        )
        pool.start()
        with self._pools_lock:
            self._pools[key] = pool
        return pool

    # -- collector thread ----------------------------------------------------
    def _collect(self) -> None:
        """The daemon's pool consumer: route every per-task verdict from
        every pool (a failure fails only its ticket) and retire pools
        that failed as a whole."""
        while True:
            with self._pools_lock:
                pools = list(self._pools.values())
            verdicts = poll_verdicts(self._relay, pools)
            for verdict in verdicts:
                self._route(verdict)
            for pool in pools:
                if pool.failure is not None and pool not in self._retired:
                    self._retire(pool)
            if not verdicts and self._stop_collector.is_set():
                return

    def _route(self, verdict: TaskVerdict) -> None:
        ticket = verdict.task.task_id
        request = self._unroute(ticket)
        if request is None:
            return
        self._count("retried", verdict.task.attempt)
        error = verdict.error
        if isinstance(error, DeadlineExceeded):
            self._count("deadline_exceeded")
        elif isinstance(error, RetriesExhausted):
            self._count("retries_exhausted")
        if error is not None:
            self._resolve_soon(ticket, error=error)
        elif request.verify:
            self._verify_inbox.put((ticket, request, verdict.outcome))
        else:
            self._finish(ticket, request, verdict.outcome, {}, False)

    def _retire(self, pool: WorkStealingPool) -> None:
        """Tear down a pool that failed as a whole (its tickets already
        failed through their verdicts).  Queued requests for the spec
        respawn a pool on next dispatch (and fail the same way if the
        spec is truly broken)."""
        self._retired.add(pool)
        assert self._loop is not None
        try:
            self._loop.call_soon_threadsafe(self._drop_pool, pool)
        except RuntimeError:
            pass  # loop closed mid-shutdown
        pool.shutdown(graceful=False, timeout=1.0)

    def _drop_pool(self, pool: WorkStealingPool) -> None:
        with self._pools_lock:
            for key, candidate in list(self._pools.items()):
                if candidate is pool:
                    del self._pools[key]
        self._dispatch()

    def _unroute(self, ticket) -> OptRequest | None:
        with self._routed_lock:
            return self._routed.pop(ticket, None)

    # -- verifier thread -----------------------------------------------------
    def _verify_loop(self) -> None:
        """Dedicated verification thread: outcomes join the shape-binned
        scheduler as they arrive; full bins flush immediately, stragglers
        flush when the daemon goes quiescent or a mask has waited
        ``flush_max_wait_s``."""
        simulator = self.service.simulator
        scheduler = self.service.scheduler
        waiting: dict[int, tuple[OptRequest, Any, float]] = {}
        while True:
            try:
                item = self._verify_inbox.get(timeout=self.flush_idle_s)
            except queue_mod.Empty:
                if not waiting:
                    continue
                oldest = min(added for (_, _, added) in waiting.values())
                overdue = (
                    time.monotonic() - oldest >= self.flush_max_wait_s
                )
                if self._quiescent() or overdue:
                    measured = self._flush_guard(
                        waiting, lambda: scheduler.flush(simulator)
                    )
                    if measured:
                        self._drain_waiting(waiting, measured)
                continue
            if item is _VERIFIER_STOP:
                if waiting:
                    measured = self._flush_guard(
                        waiting, lambda: scheduler.flush(simulator)
                    )
                    if measured:
                        self._drain_waiting(waiting, measured)
                return
            ticket, request, payload = item
            search_nm = (
                float(request.epe_search_nm)
                if request.epe_search_nm is not None
                else float(payload.epe_search_nm)
            )
            added = scheduler.add_outcome(
                ticket, request.clip, payload, simulator, search_nm
            )
            if not added:
                # No recoverable final mask: resolve as "unverifiable".
                self._finish(ticket, request, payload, {}, True)
                continue
            waiting[ticket] = (request, payload, time.monotonic())
            measured = self._flush_guard(
                waiting,
                lambda: scheduler.flush_ready(
                    simulator, min_bin=self.stream_min_bin
                ),
            )
            if measured:
                self._drain_waiting(waiting, measured)

    def _flush_guard(self, waiting: dict, flush) -> dict | None:
        """Run one scheduler flush; a failure (injected fault, simulator
        error) fails every waiting ticket instead of killing the
        verifier thread — the daemon keeps serving, and the scheduler is
        purged of the doomed masks so later flushes don't inherit them."""
        try:
            return flush()
        except Exception as exc:
            self.service.scheduler.discard(tuple(waiting))
            for ticket, (request, _, _) in list(waiting.items()):
                self._resolve_soon(ticket, error=ServiceError(
                    f"verification flush failed for clip "
                    f"{request.clip.name!r}: {exc}"
                ))
            waiting.clear()
            return None

    def _quiescent(self) -> bool:
        """Nothing queued or in flight — no more masks are coming to fill
        bins, so flush what is waiting.  (A submit racing this check only
        costs a smaller batch, never a number.)"""
        with self._routed_lock:
            routed = len(self._routed)
        return routed == 0 and self._queued_count == 0

    def _drain_waiting(self, waiting: dict, measured: dict) -> None:
        for ticket, value in measured.items():
            entry = waiting.pop(ticket, None)
            if entry is None:
                continue  # foreign key (direct service use); not ours
            request, payload, _ = entry
            self._finish(ticket, request, payload, {ticket: value}, True)

    def _finish(
        self, ticket, request: OptRequest, payload, measured: dict,
        verify: bool,
    ) -> None:
        """Assemble one result (drift check included) and resolve its
        future.  A drifting engine fails *its* future with
        :class:`MetrologyError`; the daemon keeps serving."""
        try:
            result = self.service._assemble(
                [(ticket, request, payload)], measured, verify
            )[0]
        except MetrologyError as exc:
            self._resolve_soon(ticket, error=exc)
            return
        self._resolve_soon(ticket, result=result)

    # -- resolution (event loop) ---------------------------------------------
    def _resolve_soon(
        self, ticket, result: OptResult | None = None,
        error: BaseException | None = None,
    ) -> None:
        assert self._loop is not None
        try:
            self._loop.call_soon_threadsafe(
                self._resolve, ticket, result, error
            )
        except RuntimeError:
            pass  # loop closed; shutdown fails leftover tickets itself

    def _resolve(
        self, ticket, result: OptResult | None, error: BaseException | None,
    ) -> None:
        state = self._states.pop(ticket, None)
        if state is None:
            return
        self._tenant_outstanding[state.tenant] -= 1
        if (
            error is None
            and state.fingerprint is not None
            and self._journal is not None
        ):
            # Durability gate: the caller's future only reports success
            # once the verified result is fsync'd in the journal.
            try:
                self._journal.log_result(ticket, result, state.fingerprint)
            except ServiceError as exc:
                result, error = None, exc
        future = state.future
        if not future.done():
            if error is not None:
                future.set_exception(error)
                # Consume the exception so a failure the caller never
                # awaits doesn't spew "exception was never retrieved";
                # awaiting the future still raises it.
                future.exception()
            else:
                future.set_result(result)
        self._done[ticket] = future
        self._count("failed" if error is not None else "completed")
        if not self._states and self._queued_count == 0:
            self._idle.set()
        self._dispatch()

    # -- retrieval (event loop) ----------------------------------------------
    async def result(self, ticket: int) -> OptResult:
        """Await one ticket's result (raising its failure, if any)."""
        state = self._states.get(ticket)
        if state is not None:
            future = state.future
        else:
            future = self._done.get(ticket)
            if future is None:
                raise ServiceError(
                    f"unknown or already-retrieved ticket {ticket}"
                )
        try:
            return await future
        finally:
            self._done.pop(ticket, None)

    async def results(
        self, tickets: Iterable[int] | None = None
    ) -> AsyncIterator[OptResult]:
        """Yield results in **completion order** as they resolve.

        ``tickets=None`` covers everything currently outstanding or
        resolved-but-unretrieved.  A failed ticket raises its error at
        the point it would have been yielded.
        """
        if tickets is None:
            wanted = list(self._states) + list(self._done)
        else:
            wanted = list(tickets)
        by_future: dict[asyncio.Future, int] = {}
        for ticket in wanted:
            state = self._states.get(ticket)
            future = (
                state.future if state is not None
                else self._done.get(ticket)
            )
            if future is None:
                raise ServiceError(
                    f"unknown or already-retrieved ticket {ticket}"
                )
            by_future[future] = ticket
        pending = set(by_future)
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for future in done:
                self._done.pop(by_future[future], None)
                yield future.result()

    # -- introspection -------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            self._counters[name] += amount

    def stats(self) -> dict[str, Any]:
        """Serving metrics: daemon counters, per-pool worker state, and
        the underlying service's verification/spectra counters.  Safe
        from any thread (best-effort snapshot, not a barrier)."""
        with self._counter_lock:
            counters = dict(self._counters)
        with self._routed_lock:
            in_flight = len(self._routed)
        with self._pools_lock:
            pool_stats = [pool.stats() for pool in self._pools.values()]
        tenants = {
            tenant: {
                "outstanding": self._tenant_outstanding.get(tenant, 0),
                "queued": len(self._tenant_queues.get(tenant, ())),
            }
            for tenant in self._tenant_rr
        }
        out = {
            "state": self._state,
            "workers_per_pool": self.workers,
            "max_pending": self.max_pending,
            "pool_backlog": self.pool_backlog,
            "stream_min_bin": self.stream_min_bin,
            "retries": self.retries,
            "deadline_s": self.deadline_s,
            **counters,
            "queued": self._queued_count,
            "in_flight": in_flight,
            "tenants": tenants,
            "pools": pool_stats,
            "service": self.service.stats(),
        }
        if self._journal is not None:
            out["journal"] = self._journal.stats()
        return out
