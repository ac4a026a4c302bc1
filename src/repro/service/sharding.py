"""Process-sharded suite execution over the work-stealing pool.

:class:`~repro.service.service.MaskOptService.map_suite` thread-pools
*across* engines, but one engine's sweep over a benchmark suite is still
a single-core sequential loop — the litho FFTs release the GIL under the
scipy backend, yet the surrounding python (policy forwards, geometry,
metrology) serializes.  :class:`ShardedSuiteRunner` breaks that limit by
fanning one engine's clip list out to N worker *processes* pulling from
a shared :class:`~repro.service.workqueue.WorkStealingPool` queue:

* **Spawn-safe by construction.**  Workers are started with the
  ``spawn`` method (the only start method that is safe everywhere and
  identical across platforms), so nothing inherited matters: each worker
  rebuilds its engine from a picklable :class:`EngineSpec` — litho
  config + registry name (or factory callable) + overrides + seed —
  never from a forked copy of live state.
* **Shared warmup, not shared memory.**  The spec's
  :class:`~repro.litho.simulator.LithoConfig` carries ``spectra_store=``
  (the CLI wires ``$REPRO_SPECTRA_STORE`` into it), so all workers read
  and atomically write one on-disk kernel-spectra store: the first
  worker to meet a grid shape persists its band spectra and every other
  worker's build becomes one ``.npz`` read (:mod:`repro.litho.store`).
* **Work-stealing dispatch.**  Clips sit on one shared task queue and
  each worker pulls its next clip the moment it finishes the previous
  one, so heterogeneous suites (mixed grid sizes, early-exiting clips)
  load-balance themselves instead of leaving one round-robin shard with
  the expensive tail (``dispatch="static"`` retains the PR 5 deal as
  the benchmark baseline).
* **Streaming results.**  Each finished clip is flattened into a
  picklable :class:`OptOutcome` (reported numbers + the rasterized final
  mask) and put on a queue *immediately*, so the parent can verify full
  shape bins while workers are still optimizing
  (:meth:`~repro.service.scheduler.ShapeBinScheduler.flush_ready`).
* **Numbers never change.**  Sharding reorders *work*, not computation:
  each ``optimize(clip)`` runs against a freshly built engine/simulator
  pair that is bit-for-bit deterministic from the spec, and the mask is
  rasterized on the same per-clip grid the parent would use — so *which*
  worker runs a clip is irrelevant and work stealing preserves the
  bit-for-bit pin (``tests/test_service_sharding.py``).  (This requires
  engines whose ``optimize`` is per-clip deterministic and stateless
  across calls — true of every registry engine.)
* **Crashes fail loudly.**  A worker that dies mid-suite (OOM kill,
  segfault, ``os._exit``) is detected by the pool's liveness poll and
  surfaces as a :class:`~repro.errors.ServiceError` naming the claimed
  clip; the queue can never hang and sibling workers are torn down.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import DeadlineExceeded, RetriesExhausted, ServiceError
from repro.geometry.layout import Clip
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.service.registry import (
    build_engine,
    engine_epe_search_nm,
    overrides_key,
    spec_label,
)
from repro.service.scheduler import final_mask_image
from repro.service.workqueue import (
    CRASH_GRACE_S,
    DEFAULT_START_METHOD,
    POLL_INTERVAL_S,
    RETRY_BACKOFF_S,
    DeadWorker,
    Task,
    WorkStealingPool,
)

FINGERPRINT_EXCLUDED_LITHO_FIELDS = (
    "backend", "device", "fft_workers", "spectra_store",
)
"""Deployment knobs that change *where/how fast* the numbers are
computed, never the numbers themselves (to far inside every acceptance
tolerance) — two specs differing only here produce equivalent results
and must share a fingerprint, so a journal written on a numpy host
resumes on a scipy-threaded or torch-device one and vice versa."""


@dataclass(frozen=True)
class OptOutcome:
    """Engine-agnostic, picklable outcome of one ``optimize(clip)`` call.

    This is the payload shard workers stream back over the result queue:
    the engine's reported numbers, the contour search range its own
    metrology used (so the parent can bin verification without the
    engine object), and the final mask rasterized on the clip's grid
    (``final_mask_image`` recovers it, exactly as it would from the raw
    outcome).  It quacks like the raw outcome everywhere the service
    needs one — ``epe_total``, ``pvband``, ``runtime_s``, ``steps``,
    ``early_exited``, ``mask_image``.
    """

    clip_name: str
    epe_total: float
    pvband: float
    runtime_s: float
    steps: int
    early_exited: bool
    epe_search_nm: float
    mask_image: np.ndarray | None = field(repr=False, default=None)
    epe_curve: tuple[float, ...] = ()
    worker: int = 0

    @classmethod
    def from_raw(
        cls, raw, clip: Clip, simulator: LithographySimulator,
        epe_search_nm: float, worker: int = 0, capture_mask: bool = True,
    ) -> "OptOutcome":
        """Flatten any engine's outcome object for the wire.

        ``capture_mask=False`` skips the rasterization and ships no mask
        — the right call when the parent runs with verification off and
        would only discard the (multi-MB at large grids) array.
        """
        return cls(
            clip_name=clip.name,
            epe_total=float(raw.epe_total),
            pvband=float(raw.pvband),
            runtime_s=float(raw.runtime_s),
            steps=int(raw.steps),
            early_exited=bool(raw.early_exited),
            epe_search_nm=float(epe_search_nm),
            mask_image=(
                final_mask_image(raw, simulator.grid_for(clip))
                if capture_mask else None
            ),
            epe_curve=tuple(
                float(v) for v in getattr(raw, "epe_curve", ()) or ()
            ),
            worker=worker,
        )


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker needs to rebuild its engine, picklably.

    ``engine`` is a registry name or a factory callable
    ``(simulator, overrides) -> engine`` (picklable by qualified name —
    a module-level function, not a lambda or a bound method); engine
    *instances* are rejected here, eagerly, instead of dying later
    inside ``Process.start`` with an opaque pickling error.  ``seed``,
    when set, seeds numpy's global RNG before the build+sweep, exactly
    once per worker — in each spawned worker, and on the inline
    ``workers=1`` path under a save/restore so the caller's process-wide
    RNG state is left untouched.  (Engines that draw from the global RNG
    *during* ``optimize`` still see different streams at different
    worker counts — per-clip determinism, which all registry engines
    have via config-seeded private RNGs, is what the bit-for-bit
    contract rests on.)
    """

    engine: str | Callable
    litho: LithoConfig
    overrides: tuple[tuple[str, Any], ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.engine, str) and not callable(self.engine):
            raise ServiceError(
                "EngineSpec.engine must be a registry name or a factory "
                f"callable, got a {type(self.engine).__name__} instance; "
                "engines cannot cross a process boundary — pass the spec "
                "that builds them"
            )
        if not isinstance(self.litho, LithoConfig):
            raise ServiceError(
                f"EngineSpec.litho must be a LithoConfig, got "
                f"{type(self.litho).__name__}"
            )

    @property
    def label(self) -> str:
        return spec_label(self.engine)

    def fingerprint(self) -> str:
        """Stable 16-hex-digit identity of the *numbers* this spec
        produces: engine label + overrides + litho physics + seed.

        This is the key the outcome journal stamps on every record, so
        ``resume`` can refuse to merge results computed under a different
        spec.  Deployment knobs that cannot change a result
        (:data:`FINGERPRINT_EXCLUDED_LITHO_FIELDS`) are excluded —
        moving a journal between hosts with different FFT backends or
        store paths must not orphan it.
        """
        parts = [f"engine={self.label}", f"seed={self.seed!r}"]
        parts.extend(
            f"opt.{name}={value!r}" for name, value in
            overrides_key(dict(self.overrides))
        )
        parts.extend(
            f"litho.{field_.name}={getattr(self.litho, field_.name)!r}"
            for field_ in dataclasses.fields(self.litho)
            if field_.name not in FINGERPRINT_EXCLUDED_LITHO_FIELDS
        )
        digest = hashlib.sha256("|".join(parts).encode("utf-8"))
        return digest.hexdigest()[:16]

    def build(self) -> tuple[Any, LithographySimulator]:
        """Construct the (engine, simulator) pair this spec describes
        (pure: seeding, when requested, is applied by the worker entry
        point, not here)."""
        simulator = LithographySimulator(self.litho)
        return build_engine(self.engine, simulator, dict(self.overrides)), \
            simulator


class ShardedSuiteRunner:
    """Fan one engine's clip sweep out to N worker processes.

    With the default ``dispatch="steal"`` every worker pulls its next
    clip from one shared queue the moment it frees up, so load balances
    even when clip costs are skewed; ``dispatch="static"`` retains the
    PR 5 round-robin deal (worker ``w`` takes ``clips[w::N]``) as a
    pinned-placement baseline.  :meth:`run` streams every finished clip
    through the ``on_outcome`` callback as it arrives (arrival order is
    nondeterministic) and returns the full outcome list in suite order
    (which is not) — either dispatch mode yields bit-for-bit identical
    outcomes, because *which* worker runs a clip never enters the
    computation.
    """

    def __init__(
        self,
        spec: EngineSpec,
        workers: int,
        start_method: str = DEFAULT_START_METHOD,
        dispatch: str = "steal",
        retries: int = 0,
        deadline_s: float | None = None,
        stall_timeout_s: float | None = None,
        grace_s: float = CRASH_GRACE_S,
        retry_backoff_s: float = RETRY_BACKOFF_S,
        fault_plan=None,
        max_revives: int | None = None,
    ) -> None:
        if not isinstance(spec, EngineSpec):
            raise ServiceError(
                f"ShardedSuiteRunner needs an EngineSpec, got "
                f"{type(spec).__name__}"
            )
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ServiceError(f"retries must be >= 0, got {retries}")
        if deadline_s is not None and deadline_s <= 0:
            raise ServiceError(
                f"deadline_s must be > 0, got {deadline_s}"
            )
        self.spec = spec
        self.workers = int(workers)
        self.start_method = start_method
        self.dispatch = dispatch
        self.retries = int(retries)
        self.deadline_s = deadline_s
        self.stall_timeout_s = stall_timeout_s
        self.grace_s = float(grace_s)
        self.retry_backoff_s = float(retry_backoff_s)
        self.fault_plan = fault_plan
        self.max_revives = (
            3 * self.workers if max_revives is None else int(max_revives)
        )
        self.last_pool_stats: dict[str, Any] | None = None

    # -- in-process fallback -------------------------------------------------
    def _run_inline(
        self,
        clips: list[Clip],
        optimize_kwargs: dict,
        on_outcome,
        capture_masks: bool,
    ) -> list[OptOutcome]:
        """workers=1: same spec-built engine and payloads, no processes
        (also the zero-overhead baseline the shard benchmark times).
        ``spec.seed`` is honored exactly as a single spawned worker
        would honor it, but under save/restore — reseeding numpy's
        global RNG in the caller's process as a lasting side effect
        would corrupt unrelated code."""
        saved_rng_state = None
        if self.spec.seed is not None:
            saved_rng_state = np.random.get_state()
            np.random.seed(self.spec.seed)
        try:
            engine, simulator = self.spec.build()
            search_nm = engine_epe_search_nm(engine)
            outcomes = []
            for index, clip in enumerate(clips):
                payload = OptOutcome.from_raw(
                    engine.optimize(clip, **optimize_kwargs),
                    clip, simulator, search_nm, worker=0,
                    capture_mask=capture_masks,
                )
                outcomes.append(payload)
                if on_outcome is not None:
                    on_outcome(index, payload)
            return outcomes
        finally:
            if saved_rng_state is not None:
                np.random.set_state(saved_rng_state)

    # -- the sharded path ----------------------------------------------------
    def run(
        self,
        clips: Sequence[Clip],
        optimize_kwargs: dict | None = None,
        on_outcome: Callable[[int, OptOutcome], None] | None = None,
        capture_masks: bool = True,
    ) -> list[OptOutcome]:
        """Sweep ``clips``; returns outcomes in clip order.

        ``on_outcome(index, outcome)`` fires in the parent as each clip
        finishes — this is where the service hooks streaming
        verification.  ``capture_masks=False`` tells workers not to
        rasterize/ship final masks (for verification-free sweeps the
        parent would discard them).  Raises :class:`ServiceError` if any
        worker raises or dies; sibling workers are terminated before the
        raise, so the caller never inherits a half-alive fleet.
        """
        clip_list = list(clips)
        if not clip_list:
            raise ServiceError("sharded run needs at least one clip")
        kwargs = dict(optimize_kwargs or {})
        workers = min(self.workers, len(clip_list))
        if workers == 1:
            return self._run_inline(
                clip_list, kwargs, on_outcome, capture_masks
            )

        # The pool's relay thread owns all pipe reads: a worker
        # SIGKILLed mid-payload-write (torn queue frame) can only wedge
        # that abandonable daemon thread, while this loop polls the
        # in-process relay with real timeouts and still reaches the
        # liveness check — the sweep fails with ServiceError instead of
        # hanging.
        pool = WorkStealingPool(
            self.spec, workers, start_method=self.start_method,
            dispatch=self.dispatch, grace_s=self.grace_s,
            fault_plan=self.fault_plan,
            stall_timeout_s=self.stall_timeout_s,
            retry_backoff_s=self.retry_backoff_s,
        )
        outcomes: list[OptOutcome | None] = [None] * len(clip_list)
        revives_used = 0
        try:
            pool.start()
            for index, clip in enumerate(clip_list):
                pool.submit(
                    Task(
                        task_id=index, clip=clip, optimize_kwargs=kwargs,
                        capture_mask=capture_masks,
                        retries=self.retries, deadline_s=self.deadline_s,
                    ),
                    worker=(
                        index % workers if self.dispatch == "static" else None
                    ),
                )
            pending = len(clip_list)
            while pending > 0:
                message = pool.get_message(timeout=POLL_INTERVAL_S)
                if message is None:
                    revives_used = self._handle_deaths(pool, revives_used)
                else:
                    fresh = pool.observe(message)
                    kind, wid, task_id, payload = message
                    if not fresh:
                        pass  # late sibling of a retried/deadlined task
                    elif kind == "ok":
                        outcomes[task_id] = payload
                        pending -= 1
                        if on_outcome is not None:
                            on_outcome(task_id, payload)
                    elif kind == "error":
                        # Engine exceptions are deterministic — a retry
                        # would fail identically, so surface immediately.
                        clip = clip_list[task_id]
                        raise ServiceError(
                            f"shard worker {wid} failed optimizing clip "
                            f"{clip.name!r} ({self.spec.label}): {payload}"
                        )
                    elif kind == "fatal":
                        raise ServiceError(
                            f"shard worker {wid} could not build engine "
                            f"{self.spec.label!r}: {payload}"
                        )
                    elif kind == "corrupt":
                        raise ServiceError(
                            f"shard result stream corrupted "
                            f"({self.spec.label}): {payload}"
                        )
                    # "ready" / "exit" are liveness bookkeeping, already
                    # folded in by pool.observe.
                for event in pool.pump():
                    if event.kind == "deadline":
                        raise DeadlineExceeded(
                            f"clip {event.task.clip.name!r} "
                            f"({self.spec.label}) missed its "
                            f"{event.task.deadline_s}s deadline; "
                            "sweep aborted"
                        )
        except BaseException:
            self.last_pool_stats = pool.stats()
            pool.shutdown(graceful=False)
            raise
        self.last_pool_stats = pool.stats()
        pool.shutdown(graceful=True)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def _handle_deaths(
        self, pool: WorkStealingPool, revives_used: int
    ) -> int:
        """Fold dead-worker verdicts into the sweep: revive workers whose
        task was requeued (or who died idle — e.g. crashed *after* their
        result landed), fail the sweep when a task is out of retries or
        the revive budget is spent."""
        for dead in pool.check_dead():
            if dead.task is not None and not dead.requeued:
                if dead.task.retries > 0:
                    raise RetriesExhausted(
                        f"shard worker {dead.worker_id} ({self.spec.label}) "
                        f"died with exit code {dead.exitcode} while "
                        f"optimizing clip {dead.task.clip.name!r}; retries "
                        f"exhausted after {dead.task.attempt + 1} attempts; "
                        "sweep aborted"
                    )
                raise self._death_error(dead)
            if revives_used >= self.max_revives:
                raise ServiceError(
                    f"shard pool ({self.spec.label}) lost its workers "
                    f"repeatedly ({revives_used} revivals); worker "
                    f"{dead.worker_id} died with exit code "
                    f"{dead.exitcode}; sweep aborted"
                )
            pool.revive(dead.worker_id)
            revives_used += 1
        return revives_used

    def _death_error(self, dead: DeadWorker) -> ServiceError:
        """A worker died without a clean ``exit`` message."""
        where = (
            f"while optimizing clip {dead.task.clip.name!r}"
            if dead.task is not None
            else "with no claimed clip (between tasks)"
        )
        return ServiceError(
            f"shard worker {dead.worker_id} ({self.spec.label}) died with "
            f"exit code {dead.exitcode} {where}; sweep aborted"
        )
