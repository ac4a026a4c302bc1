"""Tests for the always-on async daemon (repro/service/daemon.py) and
the work-stealing pool's liveness fix (repro/service/workqueue.py).

The acceptance pins:

* The daemon path is **bit-for-bit identical** to the in-process sweep
  on a mixed via+metal suite — continuous submission, work stealing,
  and threaded streaming verification reorder work, never numbers.
* Admission control sheds load with :class:`ServiceBusy` (per tenant).
* A crashed worker fails only its claimed request and is revived — the
  event loop and the daemon keep serving.
* Graceful shutdown drains in-flight clips; an abandoning shutdown
  fails leftover futures loudly.

The scripted engines live at module level so ``spawn`` workers can
rebuild them by qualified name.  There is no pytest-asyncio here: every
async scenario runs under a plain ``asyncio.run``.
"""

import asyncio
import dataclasses
import os
import time

import numpy as np
import pytest

from repro.data.stdcell import stdcell_metal_clip
from repro.data.via_bench import generate_via_clip
from repro.errors import MetrologyError, ServiceBusy, ServiceError
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.service import (
    EngineSpec,
    MaskOptDaemon,
    MaskOptService,
    OptRequest,
    WorkStealingPool,
)

OVERRIDES = {"max_updates": 3, "initial_bias_nm": 3.0}


def _litho_config(**extra):
    return LithoConfig(pixel_nm=8.0, max_kernels=4, **extra)


@pytest.fixture(scope="module")
def sim():
    return LithographySimulator(_litho_config())


@pytest.fixture(scope="module")
def mixed_suite():
    """Mixed via+metal suite spanning two raster grid shapes."""
    return [
        generate_via_clip("dv1", n_vias=2, seed=41, clip_nm=1280),
        generate_via_clip("dv2", n_vias=2, seed=42, clip_nm=1280),
        generate_via_clip("dv3", n_vias=2, seed=43, clip_nm=1024),
        stdcell_metal_clip("dm1", 8, seed=6, clip_nm=1280),
    ]


@pytest.fixture(scope="module")
def inline_reference(sim, mixed_suite):
    """The pinned reference: the in-process sweep."""
    return MaskOptService(simulator=sim).run_suite(
        "mbopc", mixed_suite, engine_overrides=OVERRIDES,
    )


def assert_matches_reference(results, reference):
    """Field-by-field equality, ignoring ticket ids (the daemon mints
    its own)."""
    assert [r.clip_name for r in results] == [r.clip_name for r in reference]
    for got, ref in zip(results, reference):
        assert got.epe_nm == ref.epe_nm
        assert got.pvband_nm2 == ref.pvband_nm2
        assert got.steps == ref.steps
        assert got.early_exited == ref.early_exited
        assert got.verified_epe_nm == ref.verified_epe_nm
        assert got.outcome == ref.outcome


async def submit_suite(daemon, clips, engine="mbopc", **request_kwargs):
    return [
        await daemon.submit(OptRequest(
            clip=clip, engine=engine, **request_kwargs,
        ))
        for clip in clips
    ]


async def gather_by_ticket(daemon, tickets):
    """Collect results (completion order) and return them ticket-order."""
    by_ticket = {}
    async for result in daemon.results(tickets):
        by_ticket[result.request_id] = result
    return [by_ticket[ticket] for ticket in tickets]


# -- stub/crash engines (importable from spawned workers) ---------------------

class _StubOutcome:
    def __init__(self, shape):
        self.epe_total = 1.5
        self.pvband = 10.0
        self.runtime_s = 0.0
        self.steps = 1
        self.early_exited = False
        self.mask_image = np.zeros(shape)


class _ScriptedEngine:
    """Instant stub outcomes; misbehaves on clips named after its mode."""

    def __init__(self, simulator, mode):
        self.simulator = simulator
        self.mode = mode

    def optimize(self, clip, **kwargs):
        if clip.name == "boom":
            if self.mode == "crash":
                os._exit(23)
            raise RuntimeError("scripted engine failure")
        return _StubOutcome(self.simulator.grid_for(clip).shape)


def crashing_factory(simulator, overrides):
    return _ScriptedEngine(simulator, "crash")


def raising_factory(simulator, overrides):
    return _ScriptedEngine(simulator, "raise")


def unbuildable_factory(simulator, overrides):
    raise RuntimeError("no engine for you")


class _EnvReportingEngine:
    """Fails every clip with the worker's BLAS environment."""

    def optimize(self, clip, **kwargs):
        from repro.service.workqueue import WORKER_BLAS_ENV

        raise RuntimeError("env=" + ",".join(
            f"{name}:{os.environ.get(name, 'unset')}"
            for name in sorted(WORKER_BLAS_ENV)
        ))


def env_reporting_factory(simulator, overrides):
    return _EnvReportingEngine()


# -- the acceptance pin -------------------------------------------------------

class TestDaemonBitForBit:
    def test_daemon_matches_sharded_sweep(
        self, sim, mixed_suite, inline_reference
    ):
        """Continuous async submission through warm work-stealing pools
        with threaded streaming verification: every reported and
        verified number is bit-for-bit identical to the in-process sweep
        (and so to every sweep run on worker processes)."""
        async def main():
            daemon = MaskOptDaemon(
                service=MaskOptService(simulator=sim), workers=2,
            )
            async with daemon:
                tickets = await submit_suite(
                    daemon, mixed_suite, engine_overrides=OVERRIDES,
                )
                return await gather_by_ticket(daemon, tickets)

        results = asyncio.run(main())
        assert_matches_reference(results, inline_reference)
        assert all(r.outcome == "verified" for r in results)


class TestDaemonLifecycle:
    def test_submit_while_running(self, sim, mixed_suite):
        """New requests are accepted while earlier ones are in flight —
        the daemon never needs a batch boundary."""
        async def main():
            daemon = MaskOptDaemon(
                service=MaskOptService(simulator=sim), workers=2,
            )
            async with daemon:
                first = await submit_suite(
                    daemon, mixed_suite[:2], engine_overrides=OVERRIDES,
                )
                head = await daemon.result(first[0])
                # The daemon is mid-stream; keep submitting.
                second = await submit_suite(
                    daemon, mixed_suite[2:], engine_overrides=OVERRIDES,
                )
                rest = await gather_by_ticket(daemon, first[1:] + second)
                stats = daemon.stats()
                return [head, *rest], stats

        results, stats = asyncio.run(main())
        assert [r.clip_name for r in results] == [
            clip.name for clip in mixed_suite
        ]
        assert all(r.outcome == "verified" for r in results)
        assert stats["submitted"] == stats["completed"] == len(mixed_suite)
        assert stats["failed"] == 0
        # One warm pool served both submission waves.
        assert len(stats["pools"]) == 1
        assert stats["pools"][0]["tasks_completed"] == len(mixed_suite)

    def test_graceful_shutdown_drains_in_flight(self, sim, mixed_suite):
        """shutdown(drain=True) resolves every accepted request before
        stopping; results stay retrievable afterwards."""
        async def main():
            daemon = MaskOptDaemon(
                service=MaskOptService(simulator=sim), workers=2,
            )
            await daemon.start()
            tickets = await submit_suite(
                daemon, mixed_suite, engine_overrides=OVERRIDES,
            )
            await daemon.shutdown(drain=True)
            assert daemon.stats()["state"] == "stopped"
            return [await daemon.result(ticket) for ticket in tickets]

        results = asyncio.run(main())
        assert [r.clip_name for r in results] == [
            clip.name for clip in mixed_suite
        ]
        assert all(r.outcome == "verified" for r in results)

    def test_abandoning_shutdown_fails_leftovers(self, sim, mixed_suite):
        """shutdown(drain=False) must not leave callers hanging on
        futures that will never resolve — they fail loudly."""
        async def main():
            daemon = MaskOptDaemon(
                service=MaskOptService(simulator=sim), workers=2,
            )
            await daemon.start()
            tickets = await submit_suite(
                daemon, mixed_suite, engine_overrides=OVERRIDES,
            )
            await daemon.shutdown(drain=False)
            outcomes = []
            for ticket in tickets:
                try:
                    outcomes.append(await daemon.result(ticket))
                except ServiceError as exc:
                    outcomes.append(exc)
            return outcomes

        outcomes = asyncio.run(main())
        # Depending on timing some clips may have finished before the
        # abandon; everything else must carry the shutdown error.
        assert any(isinstance(o, ServiceError) for o in outcomes) or all(
            o.outcome == "verified" for o in outcomes
        )
        assert all(
            "shut down" in str(o) for o in outcomes
            if isinstance(o, ServiceError)
        )

    def test_lifecycle_state_errors(self, sim):
        clip = generate_via_clip("lv1", n_vias=2, seed=44, clip_nm=1024)

        async def main():
            daemon = MaskOptDaemon(
                service=MaskOptService(simulator=sim), workers=1,
            )
            with pytest.raises(ServiceError, match="not running"):
                await daemon.submit(OptRequest(clip=clip))
            await daemon.start()
            with pytest.raises(ServiceError, match="daemon is running"):
                await daemon.start()
            await daemon.shutdown()
            with pytest.raises(ServiceError, match="not running"):
                await daemon.submit(OptRequest(clip=clip))
            await daemon.shutdown()  # idempotent

        asyncio.run(main())

    def test_unknown_ticket_rejected(self, sim):
        async def main():
            daemon = MaskOptDaemon(
                service=MaskOptService(simulator=sim), workers=1,
            )
            async with daemon:
                with pytest.raises(ServiceError, match="unknown"):
                    await daemon.result(9999)

        asyncio.run(main())


class TestDaemonDispatch:
    def test_finished_tasks_refill_their_pool(self, sim):
        """A finished task frees its pool slot at once, even while its
        mask waits for bin-mates: a suite of more distinct grid shapes
        than ``pool_backlog`` must not wait out ``flush_max_wait_s``
        with a queued request and an idle pool."""
        clips = [
            generate_via_clip(f"ds{i}", n_vias=1, seed=70 + i,
                              clip_nm=1024.0 + 128.0 * i)
            for i in range(3)
        ]
        assert len({sim.grid_for(clip).shape for clip in clips}) == 3

        async def main():
            daemon = MaskOptDaemon(
                service=MaskOptService(simulator=sim), workers=2,
                pool_backlog=2, flush_max_wait_s=60.0,
            )
            async with daemon:
                tickets = await submit_suite(
                    daemon, clips, engine_overrides=OVERRIDES,
                )
                return await gather_by_ticket(daemon, tickets)

        start = time.monotonic()
        results = asyncio.run(main())
        assert time.monotonic() - start < 30.0
        assert all(r.outcome == "verified" for r in results)


class TestDaemonAdmission:
    def test_backpressure_sheds_load_per_tenant(self, sim, mixed_suite):
        """Past max_pending outstanding requests a tenant gets
        ServiceBusy — but other tenants still have headroom, and after
        the backlog drains the tenant is admitted again."""
        clips = mixed_suite[:3]

        async def main():
            daemon = MaskOptDaemon(
                service=MaskOptService(simulator=sim), workers=1,
                max_pending=2,
            )
            async with daemon:
                t1 = await daemon.submit(
                    OptRequest(clip=clips[0], engine=crashing_factory,
                               verify=False), tenant="alice",
                )
                t2 = await daemon.submit(
                    OptRequest(clip=clips[1], engine=crashing_factory,
                               verify=False), tenant="alice",
                )
                with pytest.raises(ServiceBusy, match="alice"):
                    await daemon.submit(
                        OptRequest(clip=clips[2], engine=crashing_factory,
                                   verify=False), tenant="alice",
                    )
                # A different tenant is not starved by alice's backlog.
                t3 = await daemon.submit(
                    OptRequest(clip=clips[2], engine=crashing_factory,
                               verify=False), tenant="bob",
                )
                await gather_by_ticket(daemon, [t1, t2, t3])
                # Backlog drained: alice is admitted again.
                t4 = await daemon.submit(
                    OptRequest(clip=clips[0], engine=crashing_factory,
                               verify=False), tenant="alice",
                )
                await daemon.result(t4)
                return daemon.stats()

        stats = asyncio.run(main())
        assert stats["rejected"] == 1
        assert stats["completed"] == 4
        assert stats["tenants"]["alice"]["outstanding"] == 0

    def test_spawn_unsafe_requests_rejected_eagerly(self, sim):
        clip = generate_via_clip("av1", n_vias=2, seed=45, clip_nm=1024)

        class _InstanceEngine:
            def optimize(self, c, **kwargs):
                return _StubOutcome((4, 4))

        async def main():
            daemon = MaskOptDaemon(
                service=MaskOptService(simulator=sim), workers=1,
            )
            async with daemon:
                with pytest.raises(ServiceError, match="factory"):
                    await daemon.submit(
                        OptRequest(clip=clip, engine=_InstanceEngine())
                    )
                assert daemon.stats()["submitted"] == 0

        asyncio.run(main())


class TestDaemonFailures:
    def test_worker_crash_fails_one_request_and_daemon_survives(
        self, sim, mixed_suite
    ):
        """A worker dying mid-clip fails *that* future with a
        ServiceError naming the clip; the slot is revived and the daemon
        keeps serving — including brand-new submissions afterwards."""
        boom = dataclasses.replace(mixed_suite[0], name="boom")

        async def main():
            daemon = MaskOptDaemon(
                service=MaskOptService(simulator=sim), workers=2,
                grace_s=0.3,
            )
            async with daemon:
                ok1 = await daemon.submit(OptRequest(
                    clip=mixed_suite[1], engine=crashing_factory,
                    verify=False,
                ))
                doomed = await daemon.submit(OptRequest(
                    clip=boom, engine=crashing_factory, verify=False,
                ))
                ok2 = await daemon.submit(OptRequest(
                    clip=mixed_suite[2], engine=crashing_factory,
                    verify=False,
                ))
                with pytest.raises(ServiceError, match="'boom'") as err:
                    await daemon.result(doomed)
                assert "exit code 23" in str(err.value)
                first = await daemon.result(ok1)
                second = await daemon.result(ok2)
                # The daemon survived the crash: submit again.
                ok3 = await daemon.submit(OptRequest(
                    clip=mixed_suite[3], engine=crashing_factory,
                    verify=False,
                ))
                third = await daemon.result(ok3)
                return [first, second, third], daemon.stats()

        results, stats = asyncio.run(main())
        assert [r.epe_nm for r in results] == [1.5, 1.5, 1.5]
        assert stats["state"] == "running"
        assert stats["completed"] == 3
        assert stats["failed"] == 1
        assert stats["pools"][0]["workers_revived"] >= 1
        assert stats["pools"][0]["workers_alive"] == 2

    def test_task_exception_fails_one_request_only(self, sim, mixed_suite):
        """An engine exception is a per-request failure, not an outage:
        the worker itself survives and keeps pulling tasks."""
        boom = dataclasses.replace(mixed_suite[0], name="boom")

        async def main():
            daemon = MaskOptDaemon(
                service=MaskOptService(simulator=sim), workers=1,
            )
            async with daemon:
                doomed = await daemon.submit(OptRequest(
                    clip=boom, engine=raising_factory, verify=False,
                ))
                ok = await daemon.submit(OptRequest(
                    clip=mixed_suite[1], engine=raising_factory,
                    verify=False,
                ))
                with pytest.raises(ServiceError, match="scripted engine"):
                    await daemon.result(doomed)
                result = await daemon.result(ok)
                return result, daemon.stats()

        result, stats = asyncio.run(main())
        assert result.epe_nm == 1.5
        assert stats["pools"][0]["workers_revived"] == 0

    def test_unbuildable_engine_fails_its_requests(self, sim, mixed_suite):
        """A pool whose workers cannot build their engine fails every
        request routed to it — and the daemon stays up for other
        engines."""
        async def main():
            daemon = MaskOptDaemon(
                service=MaskOptService(simulator=sim), workers=1,
            )
            async with daemon:
                doomed = await daemon.submit(OptRequest(
                    clip=mixed_suite[0], engine=unbuildable_factory,
                    verify=False,
                ))
                with pytest.raises(ServiceError, match="could not build"):
                    await daemon.result(doomed)
                ok = await daemon.submit(OptRequest(
                    clip=mixed_suite[1], engine=crashing_factory,
                    verify=False,
                ))
                result = await daemon.result(ok)
                assert daemon.stats()["state"] == "running"
                return result

        assert asyncio.run(main()).epe_nm == 1.5


# -- satellite regressions ----------------------------------------------------

class _FakeProc:
    """Stands in for a dead worker process in liveness unit tests."""

    def __init__(self, exitcode):
        self.exitcode = exitcode

    def is_alive(self):
        return self.exitcode is None


class TestPoolLiveness:
    """The PR 5 false positive: the crash-suspicion window armed on the
    first dry poll and never reset, so a slow-draining healthy worker
    was declared crashed.  Any message must reset the window."""

    def _pool(self, sim, grace_s):
        pool = WorkStealingPool(
            EngineSpec(engine="mbopc", litho=sim.config),
            workers=1, grace_s=grace_s,
        )
        pool._procs[0] = _FakeProc(exitcode=9)
        return pool

    def test_message_resets_suspicion_window(self, sim):
        pool = self._pool(sim, grace_s=0.2)
        assert pool.check_dead() == []  # suspicion armed, not elapsed
        time.sleep(0.25)
        # The worker's exitcode has been visible for longer than the
        # grace window — but a message just arrived, so it was alive
        # moments ago (its pipe is still draining).  Pre-fix code
        # declared it dead here.
        pool.observe(("ok", 0, 7, None))
        assert pool.check_dead() == []
        time.sleep(0.25)
        dead = pool.check_dead()
        assert [d.worker_id for d in dead] == [0]
        assert dead[0].exitcode == 9

    def test_dead_worker_reported_exactly_once(self, sim):
        pool = self._pool(sim, grace_s=0.0)
        assert [d.worker_id for d in pool.check_dead()] == [0]
        assert pool.check_dead() == []

    def test_clean_exit_is_never_suspected(self, sim):
        pool = self._pool(sim, grace_s=0.0)
        pool.observe(("exit", 0, None, None))
        assert pool.check_dead() == []

    def test_dead_worker_names_claimed_task(self, sim, mixed_suite):
        from repro.service import Task

        pool = self._pool(sim, grace_s=0.0)
        pool._started = True
        pool.submit(Task(task_id=5, clip=mixed_suite[0]))
        pool._claims[0] = 5
        (dead,) = pool.check_dead()
        assert dead.task.task_id == 5
        assert dead.task.clip.name == mixed_suite[0].name

    def test_deaths_at_revive_budget_edge_fail_every_task(
        self, sim, mixed_suite,
    ):
        from repro.service import Task

        pool = WorkStealingPool(
            EngineSpec(engine="mbopc", litho=sim.config),
            workers=2, grace_s=0.0, max_revives=0,
        )
        pool._procs = [_FakeProc(exitcode=9), _FakeProc(exitcode=9)]
        pool._started = True
        for task_id in (0, 1, 2):
            pool.submit(Task(task_id=task_id, clip=mixed_suite[task_id]))
        pool._claims[0] = 0
        pool._claims[1] = 1
        # Both workers die in one tick with the revive budget already
        # spent: each claimed task is out of retries and must still get
        # its own verdict, and the queued task fails with the pool.
        verdicts = pool.advance()
        assert sorted(v.task.task_id for v in verdicts) == [0, 1, 2]
        by_id = {v.task.task_id: v.error for v in verdicts}
        for task_id in (0, 1):
            assert mixed_suite[task_id].name in str(by_id[task_id])
        assert by_id[2] is pool.failure
        assert pool.outstanding == 0


class TestVerificationAbortCleanup:
    """The PR 5 state leak: run_all queued outcomes into the shared
    scheduler, and an aborted flush / drift check left them there to
    poison the next verification pass."""

    def _stub_service(self, sim, clips):
        service = MaskOptService(simulator=sim)

        class _InstanceStub:
            def optimize(self, clip, **kwargs):
                return _StubOutcome(sim.grid_for(clip).shape)

        engine = _InstanceStub()
        for clip in clips:
            service.submit(OptRequest(clip=clip, engine=engine))
        return service

    def test_aborted_run_all_discards_queued_outcomes(
        self, sim, mixed_suite, monkeypatch
    ):
        service = self._stub_service(sim, mixed_suite)

        def exploding_flush(simulator):
            raise MetrologyError("scripted flush failure")

        monkeypatch.setattr(service.scheduler, "flush", exploding_flush)
        with pytest.raises(MetrologyError, match="scripted"):
            service.run_all()
        assert service.scheduler.pending == 0

    def test_drift_abort_discards_queued_outcomes(self, sim, mixed_suite):
        """A genuine drift failure (reported != re-measured) must also
        take this run's outcomes back out of the scheduler."""
        service = self._stub_service(sim, mixed_suite)
        # The stub reports 1.5 nm for an all-zero mask; re-measurement
        # will disagree (or fail to find a contour) — either way the
        # run aborts and the scheduler must come back clean.
        with pytest.raises((MetrologyError, ServiceError)):
            service.run_all()
        assert service.scheduler.pending == 0

    def test_scheduler_counters_snapshot(self, sim, mixed_suite):
        """stats() readers racing the verifier thread get one locked
        snapshot, including the new pending gauge."""
        service = MaskOptService(simulator=sim)
        counters = service.scheduler.counters()
        assert set(counters) == {
            "batch_calls", "items_flushed", "pending", "bins",
        }
        stats = service.stats()
        assert stats["verify_pending"] == 0
        assert stats["verify_batch_calls"] == 0


class TestPoolWorkerEnvironment:
    @pytest.mark.parametrize("parent_value", [None, "12"])
    def test_workers_start_with_idle_blas_threads_asleep(
        self, sim, mixed_suite, monkeypatch, parent_value,
    ):
        """A spawned worker sees OPENBLAS_THREAD_TIMEOUT=4 when the
        parent left it unset, the parent's own value otherwise, and the
        parent's environment is left as it was."""
        import queue

        from repro.service import Task

        if parent_value is None:
            monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", parent_value)
        pool = WorkStealingPool(
            EngineSpec(engine=env_reporting_factory, litho=sim.config),
            workers=1,
        )
        pool.start()
        try:
            assert os.environ.get("OPENBLAS_THREAD_TIMEOUT") == parent_value
            pool.submit(Task(task_id=0, clip=mixed_suite[0]))
            deadline = time.monotonic() + 60.0
            while True:
                _, (kind, _, _, payload) = pool.relay.get(
                    timeout=max(deadline - time.monotonic(), 0.01)
                )
                if kind == "error":
                    break
                assert kind == "ready", payload
        except queue.Empty:
            pytest.fail("the worker never reported")
        finally:
            pool.shutdown(graceful=False)
        expected = parent_value or "4"
        assert f"env=OPENBLAS_THREAD_TIMEOUT:{expected}" in payload
