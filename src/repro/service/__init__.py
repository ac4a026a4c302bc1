"""Serving-grade front door for mask optimization.

This package is the single public entry point from "here is a clip" to
"here are its reported-and-verified EPE / PV-band numbers".  Everything
below it — the CAMO agent, the baseline engines, the frequency-native
lithography core, the batched metrology — stays importable, but scripts,
examples, benchmarks, and the ``python -m repro`` CLI all route through
here so cross-clip batching and kernel-spectra persistence happen in one
place instead of being re-wired per caller.

Request lifecycle
-----------------

::

    caller                MaskOptService                      litho/metrology
    ------                --------------                      ---------------
    OptRequest ──submit──▶ queue (ticket id)
                               │
                 run_all() / map_suite()
                               │
                     engine_for(request) ── registry build
                               │              (cached per name/overrides)
                     engine.optimize(clip)  ── per-clip OPC loop
                               │                (engines unchanged)
                               ▼
                  ShapeBinScheduler.add_outcome
                     plans the clip's measure-point stencils,
                     bins by (grid shape, EPE search range)
                     across clips *and* engines
                               │
                            flush ──────▶ one simulate_epe_batch per bin
                               │          one measure_epe_grouped_sparse per bin
                     drift check: |reported − re-measured| ≤ 1e-6 nm
                               │          (MetrologyError on divergence)
                               ▼
    OptResult ◀── verified_epe_nm, EPE/PVB/RT/steps, outcome

Components:

* :class:`~repro.service.api.OptRequest` / :class:`~repro.service.api.
  OptResult` — typed, JSON-friendly request/response records.
* :mod:`repro.service.registry` — engines by name (``camo``, ``mbopc`` /
  ``calibre``, ``rlopc``, ``damo``), extensible via
  :func:`~repro.service.registry.register_engine`.
* :class:`~repro.service.scheduler.ShapeBinScheduler` — the cross-clip
  batching heart: at most one ``simulate_epe_batch`` (intensity only
  at the measure-point stencil pixels, no full-grid image) and one
  ``measure_epe_grouped_sparse`` per (grid-shape, search-range) bin per
  verification pass.
* :class:`~repro.service.service.MaskOptService` — queue, engine cache,
  sync ``submit``/``run_all`` (the in-process loop), ``run_suite`` for
  one engine over a suite (in process or on worker processes), and
  ``map_suite`` for several engines over one suite in process.
  Multi-core hosts get their parallelism from ``run_suite(workers=N)``
  (below).
* :class:`~repro.service.daemon.MaskOptDaemon` — the one process-
  parallel executor.  It is the always-on asyncio front door
  (``python -m repro serve``): ``await submit(request, tenant=...)``
  continuously, per-tenant bounded queues that shed load with
  :class:`~repro.errors.ServiceBusy`, streaming verification on a
  dedicated thread, crashed workers revived without dropping the
  daemon, graceful drain-and-shutdown.  ``run_suite(workers=N)``, any
  journaled sweep and CLI ``--workers N`` are blocking wrappers over
  it.  It loads on first use, so a process that never serves imports
  no asyncio.  Workers rebuild the engine from a
  picklable :class:`~repro.service.sharding.EngineSpec`, share one
  on-disk kernel-spectra store, and stream
  :class:`~repro.service.sharding.OptOutcome` payloads back as clips
  finish, so verification overlaps optimization.  Worker processes
  reorder work, never numbers — results are bit-for-bit identical to
  the in-process sweep.
* :class:`~repro.service.workqueue.WorkStealingPool` — the persistent
  warm worker fleet under the daemon: one shared task queue per engine
  spec, workers pull the next clip the moment they free up.
  :func:`~repro.service.workqueue.poll_verdicts` turns worker messages
  and liveness ticks into per-task verdicts (done, or failed with a
  typed error) under one retry/deadline/revive policy.

The shared simulator inherits everything from
:class:`~repro.litho.simulator.LithoConfig`, including
``spectra_store=`` — point it (or the ``REPRO_SPECTRA_STORE`` env
variable consumed by the CLI) at a directory and short-lived workers
skip the per-shape TCC warmup entirely (:mod:`repro.litho.store`).

Numerical contract: service results are bit-for-bit identical to the
pre-service per-script path (direct ``engine.optimize`` + one-at-a-time
re-measurement); batching only amortizes transforms, it never changes a
reported number.  Verified EPE agrees with a dense full-grid
re-simulation to <= 1e-9 nm.
"""

from repro.errors import (
    DeadlineExceeded,
    FaultInjected,
    JournalError,
    RetriesExhausted,
    ServiceBusy,
    ServiceError,
)
from repro.service.api import OptRequest, OptResult
from repro.service.faults import (
    FaultPlan,
    FaultRule,
    clear_fault_plan,
    install_fault_plan,
    maybe_fault,
)
from repro.service.journal import (
    OutcomeJournal,
    open_journal,
    resume_suite,
)
from repro.service.registry import (
    available_engines,
    build_engine,
    create_engine,
    register_engine,
)
from repro.service.scheduler import (
    ShapeBinScheduler,
    VerifyItem,
    final_mask_image,
)
from repro.service.service import (
    DEFAULT_RETRIES,
    MaskOptService,
    engine_epe_search_nm,
)
from repro.service.sharding import EngineSpec, OptOutcome
from repro.service.workqueue import Task, WorkStealingPool


def __getattr__(name: str):
    """Load the daemon, and asyncio with it, on first use (PEP 562): a
    process that never serves does not import them."""
    if name == "MaskOptDaemon":
        from repro.service.daemon import MaskOptDaemon

        return MaskOptDaemon
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "OptRequest",
    "OptResult",
    "MaskOptService",
    "MaskOptDaemon",
    "ServiceBusy",
    "ServiceError",
    "DeadlineExceeded",
    "FaultInjected",
    "JournalError",
    "RetriesExhausted",
    "DEFAULT_RETRIES",
    "FaultPlan",
    "FaultRule",
    "clear_fault_plan",
    "install_fault_plan",
    "maybe_fault",
    "OutcomeJournal",
    "open_journal",
    "resume_suite",
    "available_engines",
    "build_engine",
    "create_engine",
    "register_engine",
    "ShapeBinScheduler",
    "VerifyItem",
    "final_mask_image",
    "engine_epe_search_nm",
    "EngineSpec",
    "OptOutcome",
    "Task",
    "WorkStealingPool",
]
