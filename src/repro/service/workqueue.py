"""Shared work-stealing task queue + persistent warm worker pools.

PR 5's :class:`~repro.service.sharding.ShardedSuiteRunner` dealt clips
round-robin at start-up: worker ``w`` owned ``clips[w::N]`` for the whole
sweep.  That is perfectly balanced only when every clip costs the same;
a heterogeneous suite (mixed grid sizes, early-exiting clips) leaves one
worker grinding through the expensive tail while its siblings idle.
:class:`WorkStealingPool` replaces the static deal with one **shared
task queue**: every worker pulls its next :class:`Task` the moment it
finishes the previous one, so load balances itself no matter how skewed
the suite is.  Because the service's results are order-independent (each
``optimize(clip)`` is deterministic from the spec alone, and
verification measurements are batch-composition independent), moving a
clip from one worker to another changes *wall-clock*, never a number —
the bit-for-bit contract survives unchanged.

The pool is also **persistent**: unlike the per-sweep fleets of PR 5, a
pool outlives any one suite.  Workers build their engine once (warming
from the shared kernel-spectra store) and then block on the queue, so an
always-on daemon (:mod:`repro.service.daemon`) keeps warm workers across
requests instead of paying spawn + engine build per sweep.

Delivery semantics (PR 7)
-------------------------

The pool is **at-least-once with exactly-once results**.  A task whose
worker dies mid-run is *re-enqueued* (up to ``task.retries`` extra
attempts, with exponential backoff), not failed; because every engine is
deterministic from its :class:`~repro.service.sharding.EngineSpec`, the
retried clip produces a bit-for-bit identical outcome on whichever
worker picks it up.  Results are deduplicated by task id: once a task
has completed, failed, or missed its deadline, any late ``ok``/``error``
for the same id is dropped (``observe`` returns ``False``), so a retry
can never double-report and a deadline failure can never be followed by
a surprise success.  Per-task deadlines and a stall detector (a claim
held unchanged for longer than ``stall_timeout_s`` gets its worker
killed) convert hung workers into the same retriable fault as a crash.

Threading contract
------------------

* ``submit`` may be called from any thread (it only touches the task
  registry under a lock and the queue's feeder thread).
* Exactly **one** consumer thread drives :func:`poll_verdicts` (and so
  every pool's ``advance``) and ``shutdown`` — the sweep loop in
  :class:`~repro.service.sharding.ShardedSuiteRunner`, or the daemon's
  collector thread.  All liveness, retry, and in-flight state is owned
  by that thread.

One consumer policy
-------------------

Every pool reports ``(pool, message)`` pairs on its relay queue — its
own, or one shared by several pools (the daemon's).
:func:`poll_verdicts` reads the next pair, folds it into its pool, runs
each pool's due liveness tick, and returns **per-task verdicts**
(:class:`TaskVerdict`): done with its ``OptOutcome``, or failed with a
typed error — :class:`~repro.errors.ServiceError` (engine exception,
worker death without retry budget), :class:`~repro.errors.
RetriesExhausted`, or :class:`~repro.errors.DeadlineExceeded`.  A
pool-level failure (engine build failed, result stream corrupted,
revive budget spent) fails every task outstanding on that pool and
marks the pool failed (``pool.failure``).  A sweep raises the first
failed verdict; the daemon fails only that ticket and retires a failed
pool.

Liveness
--------

A worker whose process has an exit code but which never sent its clean
``exit`` message is *suspected* dead; because its final messages may
still be buffered in the pipe, the suspicion only becomes a verdict
after a grace window with no message from that worker.  **Any** message
from the worker resets the window (PR 5 started the window at the first
dry poll and never reset it, so a cleanly-finished worker whose large
mask payloads took longer than the grace period to drain was declared
crashed mid-sweep — the false positive this module fixes).  The grace
window also orders crash-after-result correctly: the completed payload
drains off the pipe (and dedup-registers its task as finished) before
the death verdict lands, so the verdict carries no task and triggers no
recompute.  A dead worker is revived in place until the pool has spent
``max_revives`` revivals.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import queue as queue_mod
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from repro.errors import DeadlineExceeded, RetriesExhausted, ServiceError
from repro.geometry.layout import Clip
from repro.service.faults import install_fault_plan, maybe_fault

DEFAULT_START_METHOD = "spawn"

POLL_INTERVAL_S = 0.05
CRASH_GRACE_S = 1.0
"""A dead worker's last messages may still be in the pipe; only after
this long with *no* message from that worker is it declared crashed."""

RETRY_BACKOFF_S = 0.25
"""Base delay before a crashed task's first re-dispatch; doubles per
attempt (0.25, 0.5, 1.0, ...) so a systematically-crashing clip cannot
hot-loop the pool."""


@dataclass(frozen=True)
class Task:
    """One unit of pool work: optimize ``clip`` and stream the outcome.

    ``task_id`` is the caller's correlation key (the sharded runner uses
    the clip's suite index; the daemon uses the request ticket) — it
    comes back verbatim on the ``ok``/``error`` message and is the dedup
    key for retries.  ``retries`` is the number of *extra* attempts the
    pool may make after an infrastructure fault (worker crash or stall
    kill — engine exceptions are never retried, determinism makes that
    futile); ``attempt`` counts from 0 and is bumped on each re-enqueue.
    ``deadline_s`` is a wall-clock budget from submission; once elapsed
    the task fails with a deadline event whether queued, running, or
    waiting out a backoff.
    """

    task_id: int
    clip: Clip
    optimize_kwargs: dict = field(default_factory=dict)
    capture_mask: bool = True
    attempt: int = 0
    retries: int = 0
    deadline_s: float | None = None


@dataclass(frozen=True)
class DeadWorker:
    """A worker declared crashed: exit code + whatever it was running.

    ``requeued`` says what happened to the claimed task: ``True`` — it
    had retry budget left and is back on the queue; ``False`` — it is
    failed for good (no task, or retries exhausted).
    """

    worker_id: int
    exitcode: int | None
    task: Task | None
    requeued: bool = False


@dataclass(frozen=True)
class TaskVerdict:
    """The final word on one task, from :func:`poll_verdicts`.

    Exactly one of ``outcome`` (the worker's
    :class:`~repro.service.sharding.OptOutcome`) and ``error`` (a
    :class:`~repro.errors.ServiceError`, :class:`~repro.errors.
    RetriesExhausted` or :class:`~repro.errors.DeadlineExceeded`) is
    set.  ``task`` is the registry's copy, so ``task.attempt`` counts
    the re-dispatches the task took."""

    task: Task
    outcome: Any = None
    error: ServiceError | None = None


def describe_error(exc: BaseException) -> str:
    return "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()


NO_CLAIM = -1
"""Sentinel in the shared claims array: this worker holds no task."""


def _pool_worker(
    worker_id: int, spec, task_queue, out_queue, claims,
    generation: int = 0, fault_plan=None,
) -> None:
    """Worker entry point: build the engine once, then serve the queue.

    Runs in a spawned child process.  Every message is a 4-tuple
    ``(kind, worker_id, task_id, payload)`` with kind one of ``"ready"``
    / ``"ok"`` / ``"error"`` / ``"fatal"`` / ``"exit"``.  A ``None`` on
    the task queue is the shutdown sentinel.  Task failures are streamed
    as ``error`` and the worker moves on — one bad clip must not take a
    persistent pool down with it.

    ``claims`` is the lock-free shared int64 array: slot ``worker_id``
    holds the task id this worker is running (or :data:`NO_CLAIM`).  It
    is written *directly to shared memory* before the optimize starts,
    so the parent can still name the in-flight clip when this process
    dies abruptly — an abrupt death sends no message at all, but the
    memory write is already visible.

    ``generation`` counts revivals of this slot (0 = first start), and
    ``fault_plan`` is the pool's explicit fault plan, installed before
    anything can fail; injection contexts carry the generation
    (``worker.build``) and the task attempt (everything else) so a rule
    can target "the first revival" or "attempt 0 of clip X" exactly.
    """
    from repro.service.registry import engine_epe_search_nm
    from repro.service.sharding import OptOutcome

    if fault_plan is not None:
        install_fault_plan(fault_plan)
    try:
        maybe_fault("worker.build", f"w{worker_id}g{generation}")
        if spec.seed is not None:
            np.random.seed(spec.seed)
        engine, simulator = spec.build()
        search_nm = engine_epe_search_nm(engine)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        out_queue.put(("fatal", worker_id, None, describe_error(exc)))
        return
    out_queue.put(("ready", worker_id, None, None))
    while True:
        task = task_queue.get()
        if task is None:
            claims[worker_id] = NO_CLAIM
            out_queue.put(("exit", worker_id, None, None))
            return
        claims[worker_id] = task.task_id
        context = f"{task.clip.name}@{task.attempt}"
        try:
            maybe_fault("worker.optimize", context)
            raw = engine.optimize(task.clip, **task.optimize_kwargs)
            payload = OptOutcome.from_raw(
                raw, task.clip, simulator, search_nm, worker=worker_id,
                capture_mask=task.capture_mask,
            )
            maybe_fault("worker.before_result", context)
        except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
            out_queue.put(
                ("error", worker_id, task.task_id, describe_error(exc))
            )
            claims[worker_id] = NO_CLAIM
            continue
        torn = maybe_fault("pipe.frame", context)
        if torn is not None:
            # A worker SIGKILLed mid-payload-write leaves a frame on the
            # pipe that cannot unpickle; model it exactly, then die.
            out_queue._writer.send_bytes(b"repro-torn-frame")
            os._exit(torn.exit_code)
        out_queue.put(("ok", worker_id, task.task_id, payload))
        maybe_fault("worker.after_result", context)
        claims[worker_id] = NO_CLAIM


class WorkStealingPool:
    """N persistent worker processes pulling from a shared task queue.

    The pool owns the processes, the task/result queues, and the relay
    thread that drains the multiprocessing queue onto an in-process one
    (so a worker SIGKILLed mid-payload-write — a torn pipe frame — can
    only wedge the abandonable relay thread, never the consumer; the
    consumer's polls keep reaching the liveness check and the failure
    surfaces instead of hanging).  The relay is the pool's own unless
    the caller passes one to share between pools; either way it carries
    ``(pool, message)`` pairs for :func:`poll_verdicts`.
    """

    def __init__(
        self,
        spec,
        workers: int,
        start_method: str = DEFAULT_START_METHOD,
        relay: queue_mod.Queue | None = None,
        grace_s: float = CRASH_GRACE_S,
        fault_plan=None,
        stall_timeout_s: float | None = None,
        retry_backoff_s: float = RETRY_BACKOFF_S,
        max_revives: int | None = None,
    ) -> None:
        from repro.service.sharding import EngineSpec

        if not isinstance(spec, EngineSpec):
            raise ServiceError(
                f"WorkStealingPool needs an EngineSpec, got "
                f"{type(spec).__name__}"
            )
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if stall_timeout_s is not None and stall_timeout_s <= 0:
            raise ServiceError(
                f"stall_timeout_s must be > 0, got {stall_timeout_s}"
            )
        self.spec = spec
        self.workers = int(workers)
        self.grace_s = float(grace_s)
        self.stall_timeout_s = stall_timeout_s
        self.retry_backoff_s = float(retry_backoff_s)
        # A worker that keeps dying (e.g. during bootstrap, before it can
        # even send a "fatal") would otherwise be revived forever; past
        # this many revivals the whole pool fails.
        self.max_revives = (
            3 * self.workers if max_revives is None else int(max_revives)
        )
        self._fault_plan = fault_plan
        self._ctx = mp.get_context(start_method)
        self.relay: queue_mod.Queue = relay if relay is not None \
            else queue_mod.Queue()
        # SimpleQueue, not Queue, for the worker->parent channel: its
        # put() writes synchronously to the pipe, so once a worker's put
        # returns the message is in OS buffers and survives the process
        # dying immediately afterwards.  A buffered Queue hands the
        # payload to a feeder thread that dies (payload and all) on
        # os._exit — which silently lost the result of a *completed*
        # task whenever the worker crashed on its next one.
        self._out_queue = self._ctx.SimpleQueue()
        self._task_queue = self._ctx.Queue()
        # Lock-free on purpose: a worker SIGKILLed mid-write under a
        # locked Array would leave the lock held and deadlock the
        # parent's read; a single aligned int64 store cannot tear.
        self._claims = self._ctx.Array("q", self.workers, lock=False)
        for wid in range(self.workers):
            self._claims[wid] = NO_CLAIM
        self._procs: list = [None] * self.workers
        self._generation = [0] * self.workers
        self._drainer: threading.Thread | None = None
        self._stop_draining = threading.Event()
        self._started = False
        self._closed = False
        # Task registry: submit() writes from any thread, the consumer
        # thread removes on completion.  ``_finished`` is the dedup set:
        # ids that completed, failed, or deadlined — late messages for
        # them are dropped.  ``failure`` is set once, with the registry
        # lock held, when the whole pool fails; submit() then refuses.
        self._tasks_lock = threading.Lock()
        self._tasks: dict[int, Task] = {}
        self._finished: set[int] = set()
        self._deadline_at: dict[int, float] = {}
        self.failure: ServiceError | None = None
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._revived = 0
        self._retried = 0
        self._deadline_failed = 0
        self._stalled = 0
        self._duplicates = 0
        # Consumer-thread-owned liveness / retry / progress state.
        self._ready: set[int] = set()
        self._exited: set[int] = set()
        self._dead_since: dict[int, float] = {}
        self._dead_handled: set[int] = set()
        self._per_worker_done = [0] * self.workers
        self._retry_heap: list[tuple[float, int, Task]] = []
        self._retry_seq = 0
        self._claim_seen: dict[int, tuple[int, float]] = {}
        self._last_tick = 0.0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise ServiceError("pool already started")
        self._started = True
        for wid in range(self.workers):
            self._procs[wid] = self._spawn(wid)
        self._drainer = threading.Thread(
            target=self._drain, daemon=True, name="repro-pool-drain"
        )
        self._drainer.start()

    def _spawn(self, wid: int):
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(wid, self.spec, self._task_queue, self._out_queue,
                  self._claims, self._generation[wid], self._fault_plan),
            daemon=True,
            name=f"repro-pool-{self.spec.label}-{wid}",
        )
        proc.start()
        return proc

    def _drain(self) -> None:
        """Relay thread: multiprocessing queue -> in-process queue."""
        while not self._stop_draining.is_set():
            try:
                # SimpleQueue has no timed get; poll the reader pipe so
                # the stop flag is still honoured between messages.
                if not self._out_queue._reader.poll(POLL_INTERVAL_S):
                    continue
                message = self._out_queue.get()
            except BaseException as exc:  # noqa: BLE001 - relayed
                # Closed queue on shutdown, or a misframed payload from
                # a killed writer failing to unpickle.
                if not self._stop_draining.is_set():
                    self.relay.put(
                        (self, ("corrupt", None, None, describe_error(exc)))
                    )
                return
            self.relay.put((self, message))

    # -- submission ----------------------------------------------------------
    def submit(self, task: Task) -> int:
        """Queue a task on the shared queue.  Thread-safe."""
        if not self._started or self._closed:
            raise ServiceError("pool is not running")
        with self._tasks_lock:
            if self.failure is not None:
                raise ServiceError(f"pool has failed: {self.failure}")
            if task.task_id in self._tasks:
                raise ServiceError(
                    f"task id {task.task_id} is already outstanding"
                )
            self._finished.discard(task.task_id)
            self._tasks[task.task_id] = task
            self._submitted += 1
            if task.deadline_s is not None:
                self._deadline_at[task.task_id] = (
                    time.monotonic() + task.deadline_s
                )
        self._task_queue.put(task)
        return task.task_id

    @property
    def outstanding(self) -> int:
        """Tasks submitted but not yet completed or failed."""
        with self._tasks_lock:
            return len(self._tasks)

    # -- the consumer (single consumer thread) -------------------------------
    def advance(self, message=None) -> list[TaskVerdict]:
        """Fold one relayed message (if any) into pool state and run the
        liveness tick when due; return the per-task verdicts produced.
        A failed or shut-down pool produces none."""
        if self.failure is not None or self._closed:
            return []
        verdicts = [] if message is None else self._on_message(message)
        now = time.monotonic()
        if self.failure is None and now - self._last_tick >= POLL_INTERVAL_S:
            self._last_tick = now
            verdicts.extend(self._tick(now))
        return verdicts

    def _on_message(self, message) -> list[TaskVerdict]:
        kind, wid, _, payload = message
        task = self.observe(message)
        label = self.spec.label
        if task is not None:
            if kind == "ok":
                return [TaskVerdict(task, outcome=payload)]
            # Engine exceptions are deterministic — a retry would fail
            # identically, so the task fails now.
            return [TaskVerdict(task, error=ServiceError(
                f"worker {wid} ({label}) failed optimizing clip "
                f"{task.clip.name!r}: {payload}"
            ))]
        if kind == "fatal":
            return self._fail_all(
                f"worker {wid} could not build engine {label!r}: {payload}"
            )
        if kind == "corrupt":
            return self._fail_all(
                f"engine pool {label!r} corrupted its result stream: "
                f"{payload}"
            )
        return []  # "ready" / "exit" / a stale duplicate

    def observe(self, message) -> Task | None:
        """Fold one message into liveness/progress state; returns the task
        an ``ok``/``error`` message finished, else ``None``.

        A *stale duplicate* — an ``ok``/``error`` for a task that already
        finished, failed, or deadlined (a retry's late sibling, or a
        result that outlived its deadline) — also returns ``None`` and
        must not be acted on: this is the exactly-once half of the
        at-least-once contract.

        Any message from a worker resets its crash-suspicion window —
        a finished worker slowly draining large mask payloads is alive,
        not crashed.
        """
        kind, wid, task_id, _ = message
        if wid is None:
            return None
        self._dead_since.pop(wid, None)
        if kind == "ready":
            self._ready.add(wid)
        elif kind in ("ok", "error"):
            with self._tasks_lock:
                task = self._finish(task_id)
                if task is None:
                    self._duplicates += 1
                    return None
                if kind == "ok":
                    self._completed += 1
                else:
                    self._failed += 1
            if kind == "ok" and 0 <= wid < self.workers:
                self._per_worker_done[wid] += 1
            return task
        elif kind == "exit":
            self._exited.add(wid)
        return None

    def _tick(self, now: float) -> list[TaskVerdict]:
        """Liveness tick: due retries, deadlines, stall kills, then dead
        workers — a claimed task out of retries fails, and the slot is
        revived until the revive budget is spent."""
        verdicts = self._pump(now)
        dead_workers = self.check_dead()
        # Every dead worker's failed task gets its verdict before any
        # pool failure: check_dead has already taken those tasks out of
        # the registry, so _fail_all would not see them.
        for dead in dead_workers:
            task = dead.task
            if task is not None and not dead.requeued:
                where = (
                    f"worker {dead.worker_id} ({self.spec.label}) died "
                    f"with exit code {dead.exitcode} while optimizing clip "
                    f"{task.clip.name!r}"
                )
                verdicts.append(TaskVerdict(task, error=(
                    RetriesExhausted(
                        f"{where}; retries exhausted after "
                        f"{task.attempt + 1} attempts"
                    ) if task.retries > 0 else ServiceError(where)
                )))
        for dead in dead_workers:
            if self._revived >= self.max_revives:
                verdicts.extend(self._fail_all(
                    f"engine pool {self.spec.label!r} lost its workers "
                    f"repeatedly ({self._revived} revivals; last: worker "
                    f"{dead.worker_id}, exit code {dead.exitcode})"
                ))
                break
            self._revive(dead.worker_id)
        return verdicts

    def _finish(self, task_id: int) -> Task | None:
        """Take a task out of the registry for good; later messages for
        it are duplicates.  The caller holds ``_tasks_lock``."""
        task = self._tasks.pop(task_id, None)
        self._deadline_at.pop(task_id, None)
        if task is not None:
            self._finished.add(task_id)
        return task

    def _fail_all(self, reason: str) -> list[TaskVerdict]:
        """Pool-level failure: every outstanding task fails with one
        :class:`ServiceError` and the pool accepts no more work."""
        error = ServiceError(reason)
        with self._tasks_lock:
            self.failure = error
            doomed = list(self._tasks.values())
            self._finished.update(self._tasks)
            self._failed += len(doomed)
            self._tasks.clear()
            self._deadline_at.clear()
        return [TaskVerdict(task, error=error) for task in doomed]

    def check_dead(self) -> list[DeadWorker]:
        """Workers whose processes died without a clean ``exit`` and
        whose grace window (since their *last* message) has elapsed.
        Each dead worker is reported exactly once (``_revive`` re-arms
        its slot).

        A claimed task with retry budget left is **re-enqueued** (after
        an exponential backoff) and the verdict says ``requeued=True``;
        out of budget, the task is failed for good.
        """
        now = time.monotonic()
        verdicts = []
        for wid, proc in enumerate(self._procs):
            if (
                proc is None
                or wid in self._exited
                or wid in self._dead_handled
                or proc.exitcode is None
            ):
                continue
            first_seen = self._dead_since.setdefault(wid, now)
            if now - first_seen < self.grace_s:
                continue
            self._dead_handled.add(wid)
            self._claim_seen.pop(wid, None)
            claimed = self._claims[wid]
            task = None
            requeued = False
            if claimed != NO_CLAIM:
                with self._tasks_lock:
                    task = self._tasks.get(claimed)
                    if task is not None and task.attempt < task.retries:
                        requeued = True
                        self._retried += 1
                        # One object for both registry and heap: _pump's
                        # identity check drops a heap entry whose task
                        # was superseded (deadline, later retry).
                        bumped = replace(task, attempt=task.attempt + 1)
                        self._tasks[claimed] = bumped
                    elif task is not None:
                        self._finish(claimed)
                        self._failed += 1
                if requeued:
                    delay = self.retry_backoff_s * (2 ** task.attempt)
                    self._retry_seq += 1
                    heapq.heappush(
                        self._retry_heap,
                        (now + delay, self._retry_seq, bumped),
                    )
            verdicts.append(
                DeadWorker(worker_id=wid, exitcode=proc.exitcode,
                           task=task, requeued=requeued)
            )
        return verdicts

    def _pump(self, now: float) -> list[TaskVerdict]:
        """Advance retry and deadline state.  Three scans, all cheap when
        idle:

        1. Re-dispatch retried tasks whose backoff elapsed.
        2. Fail tasks whose wall-clock deadline elapsed
           (:class:`~repro.errors.DeadlineExceeded`; late results are
           deduped).
        3. Kill workers whose claim has sat unchanged for longer than
           ``stall_timeout_s`` — the death then flows through
           :meth:`check_dead` and the retry path like any crash.
        """
        # 1. backoffs that came due
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, task = heapq.heappop(self._retry_heap)
            with self._tasks_lock:
                live = self._tasks.get(task.task_id) is task
            if live:  # else deadlined (or otherwise finished) while waiting
                self._task_queue.put(task)
        # 2. elapsed deadlines
        expired: list[Task] = []
        with self._tasks_lock:
            for task_id, due_at in list(self._deadline_at.items()):
                if now < due_at:
                    continue
                task = self._finish(task_id)
                if task is None:
                    continue
                self._deadline_failed += 1
                self._failed += 1
                expired.append(task)
        verdicts = [
            TaskVerdict(task, error=DeadlineExceeded(
                f"clip {task.clip.name!r} ({self.spec.label}) missed its "
                f"{task.deadline_s}s deadline"
            ))
            for task in expired
        ]
        # 3. stalled claims
        if self.stall_timeout_s is not None:
            for wid, proc in enumerate(self._procs):
                if proc is None or proc.exitcode is not None:
                    continue
                claimed = self._claims[wid]
                if claimed == NO_CLAIM:
                    self._claim_seen.pop(wid, None)
                    continue
                seen = self._claim_seen.get(wid)
                if seen is None or seen[0] != claimed:
                    self._claim_seen[wid] = (claimed, now)
                    continue
                if now - seen[1] < self.stall_timeout_s:
                    continue
                with self._tasks_lock:
                    live = claimed in self._tasks
                if live:
                    proc.kill()
                    self._stalled += 1
                self._claim_seen.pop(wid, None)
        return verdicts

    def _revive(self, worker_id: int) -> None:
        """Replace a dead worker's process so the pool keeps serving.

        The replacement rebuilds its engine from the same spec (warming
        from the shared spectra store, so the rebuild is cheap) and
        pulls from the same queue — queued tasks are unaffected.
        """
        self._dead_since.pop(worker_id, None)
        self._dead_handled.discard(worker_id)
        self._exited.discard(worker_id)
        self._ready.discard(worker_id)
        self._claim_seen.pop(worker_id, None)
        self._claims[worker_id] = NO_CLAIM
        self._generation[worker_id] += 1
        self._procs[worker_id] = self._spawn(worker_id)
        self._revived += 1

    # -- teardown ------------------------------------------------------------
    def shutdown(self, graceful: bool = True, timeout: float = 5.0) -> None:
        """Stop the pool.  ``graceful=True`` sends one shutdown sentinel
        per worker (FIFO after all queued tasks, so workers drain the
        queue first) and waits; either way every process is down and the
        queues are closed when this returns.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if graceful and self._started:
            for wid in range(self.workers):
                if wid not in self._exited:
                    self._task_queue.put(None)
            deadline = time.monotonic() + timeout
            for proc in self._procs:
                if proc is None:
                    continue
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
        self._stop_draining.set()
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=timeout)
        self._task_queue.close()
        self._out_queue.close()

    # -- introspection -------------------------------------------------------
    def alive_workers(self) -> int:
        return sum(
            1 for proc in self._procs
            if proc is not None and proc.exitcode is None
        )

    def stats(self) -> dict[str, Any]:
        with self._tasks_lock:
            submitted = self._submitted
            completed = self._completed
            failed = self._failed
            retried = self._retried
            deadline_failed = self._deadline_failed
            duplicates = self._duplicates
            outstanding = len(self._tasks)
        return {
            "engine": self.spec.label,
            "workers": self.workers,
            "workers_alive": self.alive_workers(),
            "workers_ready": len(self._ready),
            "workers_revived": self._revived,
            "workers_stalled": self._stalled,
            "tasks_submitted": submitted,
            "tasks_completed": completed,
            "tasks_failed": failed,
            "tasks_retried": retried,
            "tasks_deadline_failed": deadline_failed,
            "tasks_outstanding": outstanding,
            "duplicates_dropped": duplicates,
            "per_worker_completed": list(self._per_worker_done),
        }


def poll_verdicts(
    relay: queue_mod.Queue, pools: Sequence[WorkStealingPool],
) -> list[TaskVerdict]:
    """One step of the pool consumer: take the next ``(pool, message)``
    pair off ``relay`` (waiting up to one poll interval), fold it into
    its pool, run the due liveness tick of every pool in ``pools``, and
    return the per-task verdicts."""
    try:
        source, message = relay.get(timeout=POLL_INTERVAL_S)
    except queue_mod.Empty:
        source = message = None
    verdicts = [] if source is None else source.advance(message)
    for pool in pools:
        if pool is not source:
            verdicts.extend(pool.advance())
    return verdicts
