"""Tests for the deterministic fault-injection harness and the
at-least-once delivery semantics it exercises (repro/service/faults.py +
the retry/deadline/stall machinery of workqueue.py, sharding.py,
daemon.py).

The acceptance pins:

* A worker killed mid-clip is retried and the final suite is bit-for-bit
  identical to an uninterrupted run — in both dispatch modes.
* Retry exhaustion and missed deadlines are *typed* outcomes
  (``RetriesExhausted``, ``DeadlineExceeded``), distinguishable from
  engine failures.
* Every fault fires deterministically from a seeded :class:`FaultPlan` —
  no sleeps, no races, no luck.
"""

import os
import pickle

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceeded,
    FaultInjected,
    RetriesExhausted,
    ServiceError,
)
from repro.litho.simulator import LithoConfig
from repro.data.via_bench import generate_via_clip
from repro.service import (
    EngineSpec,
    FaultPlan,
    FaultRule,
    ShardedSuiteRunner,
    clear_fault_plan,
    install_fault_plan,
    maybe_fault,
)
from repro.service.faults import (
    FAULT_PLAN_ENV,
    _seeded_decision,
    corrupt_file,
)

OVERRIDES = {"max_updates": 3, "initial_bias_nm": 3.0}


def _litho_config(**extra):
    return LithoConfig(pixel_nm=8.0, max_kernels=4, **extra)


def _spec():
    return EngineSpec(
        engine="mbopc",
        litho=_litho_config(),
        overrides=tuple(sorted(OVERRIDES.items())),
    )


def _suite():
    return [
        generate_via_clip("fv1", n_vias=2, seed=41, clip_nm=1024),
        generate_via_clip("fv2", n_vias=2, seed=42, clip_nm=1024),
        generate_via_clip("fv3", n_vias=2, seed=43, clip_nm=1024),
    ]


def _runner(plan=None, **kwargs):
    """Runner with fast recovery knobs so fault tests stay quick."""
    kwargs.setdefault("grace_s", 0.3)
    kwargs.setdefault("retry_backoff_s", 0.05)
    return ShardedSuiteRunner(_spec(), 2, fault_plan=plan, **kwargs)


def assert_outcomes_identical(got, reference):
    assert [o.clip_name for o in got] == [o.clip_name for o in reference]
    for a, b in zip(got, reference):
        assert a.epe_total == b.epe_total
        assert a.pvband == b.pvband
        assert a.steps == b.steps
        assert a.early_exited == b.early_exited
        assert a.epe_search_nm == b.epe_search_nm
        assert np.array_equal(a.mask_image, b.mask_image)


@pytest.fixture(scope="module")
def reference_outcomes():
    """The pinned reference: an uninterrupted work-stealing sweep."""
    return _runner().run(_suite(), optimize_kwargs={})


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    clear_fault_plan()


# -- FaultPlan / FaultRule units ----------------------------------------------

class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(ServiceError, match="action"):
            FaultRule(point="p", action="explode")
        with pytest.raises(ServiceError, match="non-empty"):
            FaultRule(point="", action="crash")
        with pytest.raises(ServiceError, match="1-based"):
            FaultRule(point="p", action="crash", at=(0,))
        with pytest.raises(ServiceError, match="rate"):
            FaultRule(point="p", action="crash", rate=1.5)

    def test_hit_count_firing(self):
        plan = FaultPlan([FaultRule(point="p", action="corrupt", at=(2,))])
        assert plan.check("p", "x") is None
        assert plan.check("p", "x") is not None  # second hit
        assert plan.check("p", "x") is None
        assert plan.fired("p") == 1

    def test_fires_every_hit_without_at_or_rate(self):
        plan = FaultPlan([FaultRule(point="p", action="corrupt")])
        assert plan.check("p") is not None
        assert plan.check("p") is not None

    def test_match_filters_context(self):
        plan = FaultPlan(
            [FaultRule(point="p", action="corrupt", match="boom@0")]
        )
        assert plan.check("p", "other@0") is None
        assert plan.check("p", "boom@1") is None
        assert plan.check("p", "boom@0") is not None

    def test_sibling_counters_keep_advancing(self):
        plan = FaultPlan([
            FaultRule(point="p", action="corrupt", at=(1,)),
            FaultRule(point="p", action="corrupt", at=(2,)),
        ])
        first = plan.check("p")   # rule 0 fires; rule 1's counter advances
        second = plan.check("p")  # rule 1's second hit fires
        assert first is plan.rules[0]
        assert second is plan.rules[1]

    def test_seeded_rate_is_pure(self):
        a = _seeded_decision(7, "p", "ctx", 0.5)
        assert _seeded_decision(7, "p", "ctx", 0.5) == a
        decisions = {
            _seeded_decision(7, "p", f"c{i}", 0.5) for i in range(64)
        }
        assert decisions == {True, False}  # rate actually splits

    def test_rate_mode_through_plan(self):
        plan = FaultPlan(
            [FaultRule(point="p", action="corrupt", rate=1.0)], seed=3
        )
        assert plan.check("p", "anything") is not None
        zero = FaultPlan(
            [FaultRule(point="p", action="corrupt", rate=0.0)], seed=3
        )
        assert zero.check("p", "anything") is None

    def test_json_round_trip_and_env(self, monkeypatch):
        plan = FaultPlan([
            FaultRule(point="worker.optimize", action="crash",
                      match="x@0", at=(1, 3), exit_code=9),
        ], seed=11)
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.rules == plan.rules
        assert restored.seed == plan.seed
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert FaultPlan.from_env().rules == plan.rules
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert FaultPlan.from_env() is None
        with pytest.raises(ServiceError, match="bad fault plan"):
            FaultPlan.from_json("{not json")
        with pytest.raises(ServiceError, match="bad fault plan"):
            FaultPlan.from_json('"a string"')

    def test_json_accepts_bare_rule_list(self):
        """The hand-written `$REPRO_FAULT_PLAN` spelling: a plain list
        of rules, no {"seed": ..., "rules": ...} envelope."""
        plan = FaultPlan.from_json(
            '[{"point": "worker.optimize", "action": "crash",'
            ' "at": [1], "exit_code": 9}]'
        )
        assert plan.seed == 0
        assert len(plan.rules) == 1
        assert plan.rules[0].point == "worker.optimize"
        assert plan.rules[0].exit_code == 9

    def test_pickle_resets_counters(self):
        plan = FaultPlan([FaultRule(point="p", action="corrupt", at=(1,))])
        assert plan.check("p") is not None
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.check("p") is not None  # counter started fresh
        assert plan.check("p") is None       # original kept its state

    def test_maybe_fault_raise_and_corrupt(self):
        install_fault_plan(FaultPlan([
            FaultRule(point="a", action="raise", at=(1,)),
            FaultRule(point="b", action="corrupt"),
        ]))
        try:
            with pytest.raises(FaultInjected, match="injected fault at a"):
                maybe_fault("a", "ctx")
            rule = maybe_fault("b")
            assert rule is not None and rule.action == "corrupt"
            assert maybe_fault("unwired") is None
        finally:
            clear_fault_plan()
        assert maybe_fault("b") is None  # cleared

    def test_corrupt_file_flips_one_byte(self, tmp_path):
        path = tmp_path / "victim.bin"
        payload = bytes(range(200))
        path.write_bytes(payload)
        corrupt_file(str(path))
        mutated = path.read_bytes()
        assert len(mutated) == len(payload)
        assert sum(a != b for a, b in zip(mutated, payload)) == 1


# -- retry / deadline / stall semantics (real engines, real workers) ----------

@pytest.mark.parametrize("dispatch", ["steal", "static"])
def test_crash_retry_is_bit_for_bit(dispatch, reference_outcomes):
    """A worker SIGKILLed mid-clip: the task is re-dispatched and the
    suite is bit-for-bit identical to the uninterrupted run."""
    plan = FaultPlan([
        FaultRule(point="worker.before_result", action="crash",
                  match="fv1@0"),
    ])
    runner = _runner(plan, dispatch=dispatch, retries=2)
    outcomes = runner.run(_suite(), optimize_kwargs={})
    assert_outcomes_identical(outcomes, reference_outcomes)
    stats = runner.last_pool_stats
    assert stats["tasks_retried"] == 1
    assert stats["workers_revived"] >= 1


def test_crash_after_result_does_not_recompute(reference_outcomes):
    """A worker that dies *after* its result hit the pipe: the payload
    drains during the grace window, the death is an idle death, and
    nothing is retried or double-delivered."""
    plan = FaultPlan([
        FaultRule(point="worker.after_result", action="crash",
                  match="fv1@0"),
    ])
    runner = _runner(plan, retries=2)
    outcomes = runner.run(_suite(), optimize_kwargs={})
    assert_outcomes_identical(outcomes, reference_outcomes)
    stats = runner.last_pool_stats
    # The payload was already delivered, so whether or not the death is
    # even noticed before the sweep finishes, nothing recomputes and
    # nothing double-reports.
    assert stats["tasks_retried"] == 0
    assert stats["duplicates_dropped"] == 0


def test_retries_exhausted_is_typed():
    """A clip that crashes its worker on every attempt fails with
    RetriesExhausted (a ServiceError subclass) naming clip and budget."""
    plan = FaultPlan([
        FaultRule(point="worker.before_result", action="crash",
                  match="fv1@", exit_code=41),
    ])
    runner = _runner(plan, retries=1)
    with pytest.raises(RetriesExhausted, match="'fv1'") as err:
        runner.run(_suite(), optimize_kwargs={})
    assert isinstance(err.value, ServiceError)
    assert "exit code 41" in str(err.value)
    assert "2 attempts" in str(err.value)


def test_deadline_exceeded_is_typed():
    """A hung worker holding a clip past its deadline fails the sweep
    with DeadlineExceeded, not a hang and not a generic error."""
    plan = FaultPlan([
        FaultRule(point="worker.optimize", action="stall",
                  match="fv1@", stall_s=30.0),
    ])
    runner = _runner(plan, retries=2, deadline_s=0.8)
    with pytest.raises(DeadlineExceeded, match="'fv1'"):
        runner.run(_suite(), optimize_kwargs={})
    # The deadline clock starts at dispatch, so clips queued behind the
    # stalled worker may blow the same budget — at least the stalled one
    # must be counted.
    assert runner.last_pool_stats["tasks_deadline_failed"] >= 1


def test_stall_detector_converts_hang_into_retry(reference_outcomes):
    """A stalled claim past ``stall_timeout_s`` gets its worker killed;
    the kill flows through the ordinary crash-retry path and the suite
    still finishes bit-for-bit."""
    plan = FaultPlan([
        FaultRule(point="worker.optimize", action="stall",
                  match="fv1@0", stall_s=30.0),
    ])
    runner = _runner(plan, retries=2, stall_timeout_s=0.4)
    outcomes = runner.run(_suite(), optimize_kwargs={})
    assert_outcomes_identical(outcomes, reference_outcomes)
    stats = runner.last_pool_stats
    assert stats["workers_stalled"] == 1
    assert stats["tasks_retried"] == 1


def test_torn_pipe_frame_fails_sweep():
    """A worker that writes a torn frame and dies corrupts the stream;
    that is not retriable — the sweep fails loudly."""
    plan = FaultPlan([
        FaultRule(point="pipe.frame", action="corrupt", match="fv1@0"),
    ])
    runner = _runner(plan, retries=2)
    with pytest.raises(ServiceError, match="corrupt"):
        runner.run(_suite(), optimize_kwargs={})


def test_verifier_flush_fault_fails_cleanly():
    """An injected failure inside the batched verification flush raises
    FaultInjected out of the scheduler (the daemon converts this to
    per-ticket failures; the sweep path aborts the run)."""
    from repro.litho.simulator import LithographySimulator
    from repro.service import ShapeBinScheduler

    simulator = LithographySimulator(_litho_config())
    scheduler = ShapeBinScheduler()
    clip = generate_via_clip("vf1", n_vias=2, seed=44, clip_nm=1024)
    grid = simulator.grid_for(clip)
    from repro.service import VerifyItem
    scheduler.add(VerifyItem(
        key=1, clip=clip, grid=grid,
        mask=np.zeros(grid.shape), epe_search_nm=40.0,
    ))
    install_fault_plan(FaultPlan([
        FaultRule(point="verifier.flush", action="raise"),
    ]))
    try:
        with pytest.raises(FaultInjected):
            scheduler.flush(simulator)
    finally:
        clear_fault_plan()


# -- pool-retirement edges ----------------------------------------------------

def test_revive_cap_exhaustion_mid_backlog():
    """Workers that keep dying exhaust the revive cap mid-backlog: the
    pool is retired with a clear error instead of reviving forever."""
    plan = FaultPlan([
        FaultRule(point="worker.before_result", action="crash"),
    ])
    runner = _runner(plan, retries=8, max_revives=1)
    with pytest.raises(ServiceError, match="lost its workers repeatedly"):
        runner.run(_suite(), optimize_kwargs={})


def test_worker_dying_during_engine_build_on_revival(reference_outcomes):
    """The revived worker crashes *during its engine build* (generation
    1); the pool revives again and the sweep still completes bit-for-bit
    — a build crash on revival is just another transient fault.  Static
    dispatch pins the retried clip to the dying slot, so the sweep
    genuinely depends on the second revival (under stealing the healthy
    sibling would take the clip before the slot matters)."""
    plan = FaultPlan([
        FaultRule(point="worker.before_result", action="crash",
                  match="fv1@0"),
        FaultRule(point="worker.build", action="crash", match="g1"),
    ])
    runner = _runner(plan, retries=2, dispatch="static")
    outcomes = runner.run(_suite(), optimize_kwargs={})
    assert_outcomes_identical(outcomes, reference_outcomes)
    assert runner.last_pool_stats["workers_revived"] >= 2


# -- full service path (OptResults, verification, typed errors) ---------------

def test_run_suite_sharded_retry_parity_with_verification():
    """End-to-end service path: crash-retry under streaming verification
    yields OptResults identical to an unfaulted sharded sweep."""
    from repro.service import MaskOptService

    suite = _suite()
    reference = MaskOptService(
        litho_config=_litho_config()
    ).run_suite_sharded(
        "mbopc", suite, workers=2, engine_overrides=OVERRIDES,
    )
    plan = FaultPlan([
        FaultRule(point="worker.before_result", action="crash",
                  match="fv2@0"),
    ])
    results = MaskOptService(
        litho_config=_litho_config()
    ).run_suite_sharded(
        "mbopc", suite, workers=2, engine_overrides=OVERRIDES,
        fault_plan=plan,
    )
    assert [r.clip_name for r in results] == [r.clip_name for r in reference]
    for got, ref in zip(results, reference):
        assert got.epe_nm == ref.epe_nm
        assert got.pvband_nm2 == ref.pvband_nm2
        assert got.steps == ref.steps
        assert got.verified_epe_nm == ref.verified_epe_nm
        assert got.outcome == "verified"


def test_daemon_crash_retry_resolves_request():
    """Daemon path: a request whose worker crashes mid-clip is retried
    to success; the stats record the retry, not a failure."""
    import asyncio

    from repro.service import MaskOptDaemon, OptRequest

    clip = generate_via_clip("fv1", n_vias=2, seed=41, clip_nm=1024)
    plan = FaultPlan([
        FaultRule(point="worker.before_result", action="crash",
                  match="fv1@0"),
    ])

    async def run(fault_plan):
        daemon = MaskOptDaemon(
            litho_config=_litho_config(), workers=2, grace_s=0.3,
            retries=2, fault_plan=fault_plan,
        )
        async with daemon:
            ticket = await daemon.submit(OptRequest(
                clip=clip, engine="mbopc", engine_overrides=OVERRIDES,
            ))
            result = await daemon.result(ticket)
            return result, daemon.stats()

    reference, _ = asyncio.run(run(None))
    result, stats = asyncio.run(run(plan))
    assert result.epe_nm == reference.epe_nm
    assert result.pvband_nm2 == reference.pvband_nm2
    assert result.verified_epe_nm == reference.verified_epe_nm
    assert stats["completed"] == 1
    assert stats["failed"] == 0
    assert stats["retried"] >= 1


# -- chaos matrix (CI sweeps $REPRO_CHAOS_SEED over several values) -----------

def test_chaos_seeded_faults_converge(reference_outcomes):
    """Seeded-rate chaos: the fault pattern is a pure function of the
    seed, so a passing seed can never flake.  Crashes are transient
    faults — with retry budget the suite must still converge to the
    bit-for-bit reference."""
    seed = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
    plan = FaultPlan([
        FaultRule(point="worker.before_result", action="crash", rate=0.3),
        FaultRule(point="worker.optimize", action="crash", rate=0.15),
    ], seed=seed)
    runner = _runner(plan, retries=6, max_revives=40)
    outcomes = runner.run(_suite(), optimize_kwargs={})
    assert_outcomes_identical(outcomes, reference_outcomes)
