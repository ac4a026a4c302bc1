"""`MaskOptService`: the serving front door for mask optimization.

One service instance owns a shared :class:`LithographySimulator`
(optionally backed by a disk-persistent kernel-spectra store), an engine
cache, a submission queue, and the shape-binned verification scheduler.
Callers either queue :class:`~repro.service.api.OptRequest` records with
:meth:`MaskOptService.submit` and drain them with
:meth:`~MaskOptService.run_all`, or hand a whole benchmark suite to
:meth:`~MaskOptService.map_suite`, which sweeps each engine over the
suite in order through the same sequential loop as ``run_all`` and
funnels *all* verification through one cross-engine batched pass.

One engine's suite goes through :meth:`~MaskOptService.run_suite`
(also reachable as ``python -m repro optimize --workers N``), the one
way to reach a worker fleet.  At ``workers=1`` it is ``submit`` +
``run_all``; with more workers, or a journal, it is a blocking wrapper
over a
:class:`~repro.service.daemon.MaskOptDaemon` whose spawned workers share
one on-disk kernel-spectra store and whose verifier drains full shape
bins while workers are still optimizing.  The in-process loop and the
daemon are the only two executors.

Numerical contract: results are bit-for-bit identical to calling each
engine's ``optimize`` directly and re-measuring masks one at a time —
engines run unmodified, the scheduler's batched re-simulation is
batch-size independent by construction, and worker processes reorder
no per-engine computation (they rebuild their engines from a
deterministic spec, and the litho caches they share are
value-deterministic).
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import MetrologyError, ServiceError
from repro.geometry.layout import Clip
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.service.api import OptRequest, OptResult
from repro.service.registry import (
    build_engine,
    engine_epe_search_nm,
    overrides_key,
)
from repro.service.scheduler import ShapeBinScheduler

DEFAULT_RETRIES = 2
"""Default per-request retry budget for infrastructure faults in worker
processes (engine exceptions are never retried)."""

_VERIFY_TOLERANCE_NM = 1e-6


class MaskOptService:
    """Request/response mask optimization over one shared simulator.

    Thread-safety: *submission* is concurrent-safe — ``submit`` (ticket
    minting and queueing) may be called from any number of threads.  The
    *execution* methods (``run_all``, ``map_suite``, ``run_suite``)
    drive the one shared verification scheduler
    and must not overlap each other on the same service instance; give
    each driving thread its own service (they can share a simulator —
    its caches are value-deterministic).
    """

    def __init__(
        self,
        simulator: LithographySimulator | None = None,
        litho_config: LithoConfig | None = None,
    ) -> None:
        if simulator is not None and litho_config is not None:
            raise ServiceError(
                "pass either a simulator or a litho_config, not both"
            )
        if simulator is None:
            simulator = LithographySimulator(litho_config or LithoConfig())
        self.simulator = simulator
        self.scheduler = ShapeBinScheduler()
        self._pending: list[tuple[int, OptRequest]] = []
        self._engines: dict[tuple, Any] = {}
        self._next_id = 0
        self._lock = threading.Lock()

    def _allocate_tickets(self, count: int) -> list[int]:
        """Mint ``count`` consecutive ticket ids (thread-safe: concurrent
        submitters must never receive the same ticket, which an unlocked
        read-increment-write on ``_next_id`` allowed)."""
        with self._lock:
            first = self._next_id
            self._next_id += count
        return list(range(first, first + count))

    # -- engine management ---------------------------------------------------
    def engine_for(self, request: OptRequest):
        """Resolve a request's engine (instances pass through; registry-
        name and factory builds are cached per (spec, overrides) so a
        suite of requests shares one engine).

        The get/build/insert runs under the service lock: two threads
        resolving the same key concurrently would otherwise both build
        an engine, with one winning the cache and the other silently
        producing numbers from a duplicate — the build cost is paid
        once, holding submitters out for its duration.
        """
        if not isinstance(request.engine, str) and callable(
            getattr(request.engine, "optimize", None)
        ):
            return request.engine
        key = (request.engine, overrides_key(request.engine_overrides))
        with self._lock:
            engine = self._engines.get(key)
            if engine is None:
                engine = build_engine(
                    request.engine, self.simulator, request.engine_overrides
                )
                self._engines[key] = engine
        return engine

    # -- submission / execution ----------------------------------------------
    def submit(self, request: OptRequest) -> int:
        """Queue a request; returns its ticket id (position-stable)."""
        if not isinstance(request, OptRequest):
            raise ServiceError(
                f"submit() takes an OptRequest, got {type(request).__name__}"
            )
        (ticket,) = self._allocate_tickets(1)
        with self._lock:
            self._pending.append((ticket, request))
        return ticket

    @property
    def pending(self) -> int:
        return len(self._pending)

    def run_all(self, verify: bool = True) -> list[OptResult]:
        """Drain the queue in submission order and return all results.

        Optimizations run sequentially (:meth:`_execute`); afterwards
        every verifiable outcome joins one shape-binned batched
        re-simulation pass, and any engine whose reported EPE drifts from
        the independent re-measurement by more than
        ``_VERIFY_TOLERANCE_NM`` raises :class:`MetrologyError`.
        """
        with self._lock:
            queued = self._pending
            self._pending = []
        return self._finalize(self._execute(queued), verify)

    def _execute(
        self, queued: list[tuple[int, OptRequest]]
    ) -> list[tuple[int, OptRequest, Any, Any]]:
        """The in-process sweep: optimize each request's clip in order."""
        executed = []
        for ticket, request in queued:
            engine = self.engine_for(request)
            outcome = engine.optimize(
                request.clip, **dict(request.optimize_kwargs)
            )
            executed.append((ticket, request, engine, outcome))
        return executed

    def map_suite(
        self,
        engines: Mapping[str, Any] | Sequence[str],
        clips: Iterable[Clip],
        verify: bool = True,
        **optimize_kwargs,
    ) -> dict:
        """Run several engines over one suite, in process.

        ``engines`` maps display labels to engine specs (registry names,
        ``(name, overrides)`` pairs, or instances); a bare sequence of
        names labels each engine by its name.

        Each engine sweeps the full suite in clip order, one engine
        after another, through the same in-process loop as
        :meth:`run_all`, and all outcomes from all engines share **one**
        terminal verification pass whose scheduler bins by grid shape
        across the whole suite-cross-engine matrix.  A sweep on worker
        processes is :meth:`run_suite`, one engine at a time.

        Returns ``{label: :class:`~repro.eval.metrics.SuiteResult`}`` in
        ``engines`` order, whose rows are the :class:`OptResult` records
        without ``raw_outcome``, as a journal replays them: an outcome's
        trajectory of states holds megabytes per clip (2.6 MB on a smoke
        via clip), and a suite result outlives the sweep.
        """
        from repro.eval.metrics import SuiteResult  # avoid eval<->service cycle

        if isinstance(engines, Mapping):
            specs = dict(engines)
        else:
            specs = {name: name for name in engines}
        if not specs:
            raise ServiceError("map_suite needs at least one engine")
        clip_list = list(clips)
        if not clip_list:
            raise ServiceError("map_suite needs at least one clip")
        # Resolve engines up front, in label order — construction order
        # stays deterministic.
        resolved = {
            label: self.engine_for(self._spec_request(spec, clip_list[0]))
            for label, spec in specs.items()
        }
        tickets = iter(self._allocate_tickets(len(specs) * len(clip_list)))
        queued = [
            (next(tickets), OptRequest(
                clip=clip,
                engine=resolved[label],
                optimize_kwargs=dict(optimize_kwargs),
                verify=verify,
            ))
            for label in specs
            for clip in clip_list
        ]
        results = iter(self._finalize(self._execute(queued), verify))
        suites = {}
        for label in specs:
            suite = SuiteResult(engine=label)
            for _ in clip_list:
                suite.add(replace(next(results), raw_outcome=None))
            suites[label] = suite
        return suites

    @staticmethod
    def _spec_request(spec, clip: Clip) -> OptRequest:
        """A resolution request for one map_suite engine spec (name,
        ``(name, overrides)`` pair, or instance)."""
        if isinstance(spec, tuple):
            name, overrides = spec
            return OptRequest(
                clip=clip, engine=name, engine_overrides=dict(overrides)
            )
        return OptRequest(clip=clip, engine=spec)

    # -- one engine over one suite ---------------------------------------------
    def run_suite(
        self,
        engine: Any,
        clips: Iterable[Clip],
        workers: int = 1,
        engine_overrides: Mapping[str, Any] | None = None,
        verify: bool = True,
        journal: Any = None,
        retries: int = DEFAULT_RETRIES,
        deadline_s: float | None = None,
        stall_timeout_s: float | None = None,
        fault_plan: Any = None,
        stream_min_bin: int | None = None,
        **optimize_kwargs,
    ) -> list[OptResult]:
        """Sweep one engine over a suite; one result per clip, in clip
        order.

        With ``workers=1`` and no ``journal`` the requests are queued and
        drained by :meth:`run_all`, the in-process loop (anything already
        queued runs too, and its results come first).  Otherwise the
        sweep is a blocking wrapper over a
        :class:`~repro.service.daemon.MaskOptDaemon` with
        ``min(workers, len(clips))`` spawned workers: every clip is
        submitted at once, the workers pull clips from one shared queue,
        and the daemon's verifier drains shape bins of ``stream_min_bin``
        masks while optimization is still running.  ``engine`` must
        then be buildable in a child process (a registry name or a
        picklable factory callable, plus ``engine_overrides``), and each
        ``raw_outcome`` is the streamed
        :class:`~repro.service.sharding.OptOutcome`.  Both executors
        give bit-for-bit identical numbers.  The daemon path runs its own
        event loop, so call it from synchronous code; async callers
        drive a :class:`~repro.service.daemon.MaskOptDaemon` directly.

        The first failure, in completion order, abandons the sweep and
        is raised: an engine exception, a crash that ran out of its
        ``retries`` budget (:class:`~repro.errors.RetriesExhausted`), a
        missed ``deadline_s`` (:class:`~repro.errors.DeadlineExceeded`),
        or a drift (:class:`MetrologyError`).  ``stall_timeout_s`` kills
        a worker whose claim sits unchanged that long, turning a hang
        into a retriable crash, and ``fault_plan`` is handed to the
        workers (:mod:`repro.service.faults`).

        ``journal`` (an :class:`~repro.service.journal.OutcomeJournal`
        or a path) logs every admission and every clip's result the
        moment it is verified, fsync'd — a killed sweep keeps its
        completed clips, and :func:`~repro.service.journal.resume_suite`
        re-runs only the rest.

        ``**optimize_kwargs`` shares the signature with the named
        parameters above, so an engine ``optimize`` kwarg literally
        named like one of them cannot be passed through this method.
        """
        clip_list = list(clips)
        if not clip_list:
            raise ServiceError("run_suite needs at least one clip")
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        requests = [
            OptRequest(
                clip=clip,
                engine=engine,
                engine_overrides=dict(engine_overrides or {}),
                optimize_kwargs=dict(optimize_kwargs),
                verify=verify,
            )
            for clip in clip_list
        ]
        # A journal takes the daemon even at workers=1: its records are
        # keyed by the EngineSpec fingerprint, which the daemon computes.
        if workers == 1 and journal is None:
            for request in requests:
                self.submit(request)
            return self.run_all(verify=verify)
        import asyncio  # only the daemon path runs an event loop

        return asyncio.run(self._run_on_daemon(
            requests, workers=min(workers, len(requests)), journal=journal,
            retries=retries, deadline_s=deadline_s,
            stall_timeout_s=stall_timeout_s, fault_plan=fault_plan,
            stream_min_bin=stream_min_bin,
        ))

    async def _run_on_daemon(
        self, requests: list[OptRequest], **daemon_options,
    ) -> list[OptResult]:
        """Submit every request to a daemon built for this sweep and
        collect the results in request order; the first failure shuts
        the daemon down without draining and is raised."""
        from repro.service.daemon import MaskOptDaemon  # imports this module

        daemon = MaskOptDaemon(
            service=self, max_pending=len(requests), **daemon_options,
        )
        await daemon.start()
        try:
            tickets = [await daemon.submit(request) for request in requests]
            by_ticket = {}
            async for result in daemon.results(tickets):
                by_ticket[result.request_id] = result
        except BaseException:
            await daemon.shutdown(drain=False)
            raise
        await daemon.shutdown()
        return [by_ticket[ticket] for ticket in tickets]

    # -- shared tail: verification + result assembly --------------------------
    def _finalize(
        self, executed: list[tuple[int, OptRequest, Any, Any]], verify: bool
    ) -> list[OptResult]:
        """Queue every verifiable outcome, flush, drift-check, assemble.

        On *any* failure past the point where outcomes entered the
        shared scheduler — a flush that raises mid-way, a drift check
        that raises :class:`MetrologyError` — this run's tickets are
        taken back out (``discard``): a caller that catches the error
        and reuses the service
        must not re-simulate (or mis-attribute) this run's stale masks
        on its next verification pass.
        """
        measured: dict[int, float] = {}
        tickets = [ticket for ticket, _, _, _ in executed]
        try:
            if verify:
                for ticket, request, engine, outcome in executed:
                    if not request.verify:
                        continue
                    self.scheduler.add_outcome(
                        ticket, request.clip, outcome, self.simulator,
                        engine_epe_search_nm(engine),
                    )
                measured = self.scheduler.flush(self.simulator)
            return self._assemble(
                [(ticket, request, outcome)
                 for ticket, request, _, outcome in executed],
                measured,
                verify,
            )
        except BaseException:
            self.scheduler.discard(tickets)
            raise

    def _assemble(
        self,
        executed: list[tuple[int, OptRequest, Any]],
        measured: dict[int, float],
        verify: bool,
    ) -> list[OptResult]:
        """Drift-check every measured outcome and build the result
        records.

        An outcome whose final mask could not be recovered (nothing to
        re-simulate) is *not* silently passed off as unverified: when
        verification was requested it comes back with
        ``outcome="unverifiable"`` so callers that require certification
        can reject it explicitly.
        """
        results = []
        for ticket, request, outcome in executed:
            verified = measured.get(ticket)
            reported = float(outcome.epe_total)
            if verified is not None:
                drift = abs(verified - reported)
                if drift > _VERIFY_TOLERANCE_NM:
                    raise MetrologyError(
                        f"{request.engine_label} reported EPE "
                        f"{reported:.6f} nm on {request.clip.name} but "
                        f"batched re-simulation measured {verified:.6f} nm "
                        f"(drift {drift:.2e})"
                    )
                status = "verified"
            elif verify and request.verify:
                status = "unverifiable"
            else:
                status = "unverified"
            results.append(OptResult(
                request_id=ticket,
                clip_name=request.clip.name,
                engine=request.engine_label,
                epe_nm=reported,
                pvband_nm2=float(outcome.pvband),
                runtime_s=float(outcome.runtime_s),
                steps=int(outcome.steps),
                early_exited=bool(outcome.early_exited),
                verified_epe_nm=verified,
                outcome=status,
                raw_outcome=outcome,
            ))
        return results

    # -- introspection --------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Serving counters: verification batching + spectra-store state.

        Safe to call from any thread while a verifier thread is
        flushing — the scheduler counters come from one locked snapshot
        instead of torn attribute reads.
        """
        with self._lock:
            issued = self._next_id
            queued = len(self._pending)
            engines_cached = len(self._engines)
        verify = self.scheduler.counters()
        info: dict[str, Any] = {
            "requests_issued": issued,
            "pending": queued,
            "engines_cached": engines_cached,
            "verify_batch_calls": verify["batch_calls"],
            "verify_items": verify["items_flushed"],
            "verify_pending": verify["pending"],
        }
        store = self.simulator.spectra_store()
        if store is not None:
            info["spectra_store"] = {"root": store.root, **store.stats()}
        return info
