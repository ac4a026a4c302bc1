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

For throughput *within* one engine's suite,
:meth:`~MaskOptService.run_suite_sharded` (also reachable as
``map_suite(workers=N)`` and ``python -m repro optimize --workers N``)
partitions the clip list across N spawned worker processes that share
one on-disk kernel-spectra store and stream outcomes back as they
finish; verification overlaps optimization by draining full shape bins
early (:meth:`~repro.service.scheduler.ShapeBinScheduler.flush_ready`).

Numerical contract: results are bit-for-bit identical to calling each
engine's ``optimize`` directly and re-measuring masks one at a time —
engines run unmodified, the scheduler's batched re-simulation is
batch-size independent by construction, and process sharding reorders
no per-engine computation (shard workers rebuild their engines from a
deterministic spec, and the litho caches they share are
value-deterministic).
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import MetrologyError, ServiceError
from repro.geometry.layout import Clip
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.service.api import OptRequest, OptResult
from repro.service.journal import open_journal
from repro.service.registry import build_engine, engine_epe_search_nm
from repro.service.scheduler import ShapeBinScheduler
from repro.service.sharding import EngineSpec, ShardedSuiteRunner

DEFAULT_RETRIES = 2
"""Default per-request retry budget for infrastructure faults on the
sharded/daemon paths (engine exceptions are never retried)."""

_VERIFY_TOLERANCE_NM = 1e-6


class MaskOptService:
    """Request/response mask optimization over one shared simulator.

    Thread-safety: *submission* is concurrent-safe — ``submit`` (ticket
    minting and queueing) may be called from any number of threads.  The
    *execution* methods (``run_all``, ``map_suite``,
    ``run_suite_sharded``) drive the one shared verification scheduler
    and must not overlap each other on the same service instance; give
    each driving thread its own service (they can share a simulator —
    its caches are value-deterministic).
    """

    def __init__(
        self,
        simulator: LithographySimulator | None = None,
        litho_config: LithoConfig | None = None,
        verify_tolerance_nm: float = _VERIFY_TOLERANCE_NM,
    ) -> None:
        if simulator is not None and litho_config is not None:
            raise ServiceError(
                "pass either a simulator or a litho_config, not both"
            )
        if simulator is None:
            simulator = LithographySimulator(litho_config or LithoConfig())
        self.simulator = simulator
        self.verify_tolerance_nm = float(verify_tolerance_nm)
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
        name and factory builds are cached per (spec, overrides,
        training suite) so a suite of requests shares one engine — and
        one training run).

        The get/build/insert runs under the service lock: two threads
        resolving the same key concurrently would otherwise both build
        (and both *train*) an engine, with one winning the cache and the
        other silently producing numbers from a duplicate — the build
        cost is paid once, holding submitters out for its duration.
        """
        if not isinstance(request.engine, str) and callable(
            getattr(request.engine, "optimize", None)
        ):
            if request.train_clips:
                raise ServiceError(
                    "train_clips only applies to registry- or factory-"
                    "built engines; train the instance before submitting"
                )
            return request.engine
        key = (
            request.engine,
            tuple(sorted(
                (k, repr(v)) for k, v in request.engine_overrides.items()
            )),
            tuple(clip.name for clip in request.train_clips),
        )
        with self._lock:
            engine = self._engines.get(key)
            if engine is None:
                engine = build_engine(
                    request.engine, self.simulator, request.engine_overrides
                )
                if request.train_clips:
                    train = getattr(engine, "train", None)
                    if not callable(train):
                        raise ServiceError(
                            f"engine {request.engine!r} has no train() "
                            "method but the request carries train_clips"
                        )
                    train(list(request.train_clips))
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
        ``verify_tolerance_nm`` raises :class:`MetrologyError`.
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
        workers: int | None = None,
        stream_min_bin: int | None = None,
        retries: int = DEFAULT_RETRIES,
        deadline_s: float | None = None,
        journal: Any = None,
        **optimize_kwargs,
    ) -> dict:
        """Run several engines over one suite.

        ``engines`` maps display labels to engine specs (registry names,
        ``(name, overrides)`` pairs, or instances); a bare sequence of
        names labels each engine by its name.

        With the default ``workers=None`` each engine sweeps the full
        suite in clip order, one engine after another, through the same
        in-process loop as :meth:`run_all`, and all outcomes from all
        engines share **one** terminal verification pass whose scheduler
        bins by grid shape across the whole suite-cross-engine matrix.

        With ``workers=N > 1`` each engine's suite is *process-sharded*:
        N spawned workers split the clip list, stream outcomes back as
        they finish, and verification drains full shape bins while
        optimization is still running (:meth:`run_suite_sharded`;
        engines run one after another, each owning the whole worker
        fleet).  Sharded specs must be buildable in a child process —
        registry names or ``(name, overrides)`` pairs, not instances.
        Sharding reorders work, never numbers: results are bit-for-bit
        identical to the sequential path.

        Returns ``{label: :class:`~repro.eval.metrics.SuiteResult`}`` in
        ``engines`` order.
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

        # A journal implies the sharded (spec-buildable) path even at
        # workers=1: journal records are keyed by the EngineSpec
        # fingerprint, which engine *instances* (in-process path)
        # cannot provide.
        if (workers is not None and workers > 1) or journal is not None:
            workers = max(1, int(workers or 1))
            journal_obj, journal_owned = open_journal(journal)
            try:
                suites: dict[str, SuiteResult] = {}
                for label, spec in specs.items():
                    name, overrides = self._shardable_spec(label, spec)
                    results = self.run_suite_sharded(
                        name, clip_list, workers=workers,
                        engine_overrides=overrides, verify=verify,
                        stream_min_bin=stream_min_bin, retries=retries,
                        deadline_s=deadline_s, journal=journal_obj,
                        **optimize_kwargs,
                    )
                    suite = SuiteResult(engine=label)
                    for result in results:
                        suite.add(result.to_row())
                    suites[label] = suite
                return suites
            finally:
                if journal_owned:
                    journal_obj.close()

        # Resolve (and train) engines up front, in label order —
        # construction order stays deterministic.
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
                suite.add(next(results).to_row())
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

    @staticmethod
    def _shardable_spec(label: str, spec) -> tuple[Any, dict]:
        """Split a map_suite spec into (buildable engine, overrides) for
        the sharded path, rejecting instances (which cannot cross a
        process boundary)."""
        if isinstance(spec, tuple):
            name, overrides = spec
            return name, dict(overrides)
        if isinstance(spec, str) or callable(spec):
            return spec, {}
        raise ServiceError(
            f"engine {label!r} is an instance; process-sharded map_suite "
            "(workers>1) rebuilds engines in worker processes, so pass a "
            "registry name, a (name, overrides) pair, or a factory callable"
        )

    # -- process-sharded execution ---------------------------------------------
    def run_suite_sharded(
        self,
        engine: Any,
        clips: Iterable[Clip],
        workers: int,
        engine_overrides: Mapping[str, Any] | None = None,
        verify: bool = True,
        stream_min_bin: int | None = None,
        retries: int = DEFAULT_RETRIES,
        deadline_s: float | None = None,
        stall_timeout_s: float | None = None,
        journal: Any = None,
        fault_plan: Any = None,
        **optimize_kwargs,
    ) -> list[OptResult]:
        """Sweep one engine over a suite with N worker processes,
        verifying full shape bins while workers are still optimizing.

        ``engine`` must be buildable in a child process: a registry name
        or a picklable factory callable, plus ``engine_overrides`` — each
        worker rebuilds the engine from that spec against its own
        simulator (sharing this service's
        :class:`~repro.litho.simulator.LithoConfig`, including
        ``spectra_store=``, so all workers warm one on-disk kernel-
        spectra store).  Workers pull clips from a shared work-stealing
        queue, so skewed suites load-balance.  As
        outcomes stream back, every one joins the shape-binned scheduler
        and any bin reaching ``stream_min_bin`` masks (default
        ``max(4, 2 * workers)``) is flushed immediately — verification
        overlaps optimization instead of serializing after it; a
        terminal flush drains the remainder.  Results are bit-for-bit
        identical to the sequential sweep: sharding and work stealing
        reorder work, never numbers.  ``workers=1`` runs inline (no
        processes) through the identical code path.

        Returns one :class:`OptResult` per clip, in clip order; the
        ``raw_outcome`` of each is the streamed picklable
        :class:`~repro.service.sharding.OptOutcome`, not the engine's
        in-process outcome object.

        Delivery semantics: a worker that crashes (or is stall-killed)
        mid-clip has its task re-dispatched up to ``retries`` times with
        exponential backoff — deterministic engines make the retried
        outcome bit-for-bit identical; out of budget the sweep fails
        with :class:`~repro.errors.RetriesExhausted`.  Engine
        *exceptions* are never retried (they would fail identically) and
        surface immediately.  ``deadline_s`` bounds each clip's
        wall-clock from submission (:class:`~repro.errors.
        DeadlineExceeded`); ``stall_timeout_s`` kills a worker whose
        claim sits unchanged that long, converting hangs into retriable
        crashes.

        ``journal`` (an :class:`~repro.service.journal.OutcomeJournal`
        or a path) logs every admission up front and every clip's result
        the moment its verification lands, fsync'd — a killed sweep
        keeps its completed clips and
        :func:`~repro.service.journal.resume_suite` re-runs only the
        rest.

        Note that ``**optimize_kwargs`` shares the signature with the
        named parameters above (as with ``map_suite``): an engine whose
        ``optimize`` takes a kwarg literally named ``workers``, ``verify``,
        ``engine_overrides``, or ``stream_min_bin`` cannot receive it
        through this method — drive :class:`~repro.service.sharding.
        ShardedSuiteRunner` directly for that.
        """
        clip_list = list(clips)
        if not clip_list:
            raise ServiceError("run_suite_sharded needs at least one clip")
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if stream_min_bin is None:
            stream_min_bin = max(4, 2 * int(workers))
        elif stream_min_bin < 1:
            raise ServiceError(
                f"stream_min_bin must be >= 1, got {stream_min_bin}"
            )
        # EngineSpec validates eagerly: instances (which cannot cross a
        # process boundary) are rejected here, not at Process.start().
        spec = EngineSpec(
            engine=engine,
            litho=self.simulator.config,
            overrides=tuple(sorted((engine_overrides or {}).items())),
        )
        label = spec.label
        tickets = self._allocate_tickets(len(clip_list))
        requests = [
            OptRequest(
                clip=clip,
                engine=label,
                engine_overrides=dict(engine_overrides or {}),
                optimize_kwargs=dict(optimize_kwargs),
                verify=verify,
            )
            for clip in clip_list
        ]
        measured: dict[int, float] = {}
        journal_obj, journal_owned = open_journal(journal)
        fingerprint = spec.fingerprint() if journal_obj is not None else None
        arrived: dict[int, Any] = {}
        journaled: set[int] = set()

        def journal_ready() -> None:
            """Log every arrived clip whose result is final: verified
            (measurement landed) or exempt (verify off).  Runs the same
            single-result assembly (including the drift check) the
            terminal pass will — a journaled record is a *certified*
            record, durable the moment its verification flushes, so a
            SIGKILL later in the sweep cannot take it back."""
            if journal_obj is None:
                return
            for index, payload in arrived.items():
                ticket = tickets[index]
                if index in journaled or (verify and ticket not in measured):
                    continue
                (result,) = self._assemble(
                    [(ticket, requests[index], payload)], measured, verify,
                )
                journal_obj.log_result(ticket, result, fingerprint)
                journaled.add(index)

        def on_outcome(index: int, payload) -> None:
            arrived[index] = payload
            if verify:
                added = self.scheduler.add_outcome(
                    tickets[index], clip_list[index], payload,
                    self.simulator, payload.epe_search_nm,
                )
                if added:
                    measured.update(
                        self.scheduler.flush_ready(
                            self.simulator, min_bin=stream_min_bin
                        )
                    )
            journal_ready()

        runner = ShardedSuiteRunner(
            spec, workers, retries=retries,
            deadline_s=deadline_s, stall_timeout_s=stall_timeout_s,
            fault_plan=fault_plan,
        )
        try:
            if journal_obj is not None:
                for ticket, clip in zip(tickets, clip_list):
                    journal_obj.log_admit(ticket, clip, label, fingerprint)
            payloads = runner.run(
                clip_list, optimize_kwargs, on_outcome=on_outcome,
                capture_masks=verify,
            )
            if verify:
                measured.update(self.scheduler.flush(self.simulator))
            journal_ready()
            executed = [
                (ticket, request, payload)
                for ticket, request, payload
                in zip(tickets, requests, payloads)
            ]
            return self._assemble(executed, measured, verify)
        except BaseException:
            # The sweep died mid-stream (or its terminal flush / drift
            # check raised): take back whatever this run queued so a
            # caller that catches the error and reuses the service
            # doesn't re-simulate stale masks next pass.
            self.scheduler.discard(tickets)
            raise
        finally:
            if journal_owned:
                journal_obj.close()

    # -- shared tail: verification + result assembly --------------------------
    def _finalize(
        self, executed: list[tuple[int, OptRequest, Any, Any]], verify: bool
    ) -> list[OptResult]:
        """Queue every verifiable outcome, flush, drift-check, assemble.

        On *any* failure past the point where outcomes entered the
        shared scheduler — a flush that raises mid-way, a drift check
        that raises :class:`MetrologyError` — this run's tickets are
        taken back out (``discard``), exactly as ``run_suite_sharded``
        does: a caller that catches the error and reuses the service
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
                    search_nm = (
                        float(request.epe_search_nm)
                        if request.epe_search_nm is not None
                        else engine_epe_search_nm(engine)
                    )
                    self.scheduler.add_outcome(
                        ticket, request.clip, outcome, self.simulator,
                        search_nm,
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
                if drift > self.verify_tolerance_nm:
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
