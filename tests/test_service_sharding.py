"""Tests for process-parallel suite execution and streaming verification
(repro/service/sharding.py + MaskOptService.run_suite on the daemon).

The acceptance pin: a sweep on worker processes (``workers=N``, or a
journal) over a mixed via+metal suite is bit-for-bit identical to the
in-process sweep — worker processes reorder work, never numbers.
Worker death and worker exceptions must fail the sweep loudly (naming
the clip) instead of hanging the queue.

The crashing/stub engines live at module level so ``spawn`` workers can
rebuild them by qualified name.
"""

import os
import pickle

import numpy as np
import pytest

from repro.baselines.mbopc import MBOPC, MBOPCConfig
from repro.data.stdcell import stdcell_metal_clip
from repro.data.via_bench import generate_via_clip
from repro.errors import ServiceError
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.service import (
    EngineSpec,
    MaskOptService,
    OptOutcome,
    OptRequest,
    ShapeBinScheduler,
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
        generate_via_clip("sv1", n_vias=2, seed=31, clip_nm=1280),
        generate_via_clip("sv2", n_vias=2, seed=32, clip_nm=1280),
        generate_via_clip("sv3", n_vias=2, seed=33, clip_nm=1024),
        stdcell_metal_clip("sm1", 8, seed=5, clip_nm=1280),
    ]


@pytest.fixture(scope="module")
def sequential_reference(sim, mixed_suite):
    """The pinned reference: a sequential submit/run_all sweep."""
    service = MaskOptService(simulator=sim)
    for clip in mixed_suite:
        service.submit(OptRequest(
            clip=clip, engine="mbopc", engine_overrides=OVERRIDES,
        ))
    return service.run_all()


def assert_results_identical(results, reference):
    assert [r.clip_name for r in results] == [r.clip_name for r in reference]
    for got, ref in zip(results, reference):
        assert got.engine == ref.engine
        assert got.epe_nm == ref.epe_nm
        assert got.pvband_nm2 == ref.pvband_nm2
        assert got.steps == ref.steps
        assert got.early_exited == ref.early_exited
        assert got.verified_epe_nm == ref.verified_epe_nm
        assert got.outcome == ref.outcome


# -- stub/crash engines (importable from spawned workers) ---------------------

class _StubOutcome:
    """Minimal outcome: reported numbers plus a mask image."""

    def __init__(self, shape):
        self.epe_total = 1.5
        self.pvband = 10.0
        self.runtime_s = 0.0
        self.steps = 1
        self.early_exited = False
        self.mask_image = np.zeros(shape)


class _ScriptedEngine:
    """Returns stub outcomes; misbehaves on clips named after its mode."""

    def __init__(self, simulator, mode):
        self.simulator = simulator
        self.mode = mode

    def optimize(self, clip, **kwargs):
        if clip.name == "boom":
            if self.mode == "crash":
                os._exit(17)
            raise RuntimeError("scripted engine failure")
        return _StubOutcome(self.simulator.grid_for(clip).shape)


def crashing_factory(simulator, overrides):
    return _ScriptedEngine(simulator, "crash")


def raising_factory(simulator, overrides):
    return _ScriptedEngine(simulator, "raise")


def unbuildable_factory(simulator, overrides):
    raise RuntimeError("no engine for you")


# -- the acceptance pin -------------------------------------------------------

class TestShardedBitForBit:
    def test_sharded_matches_sequential(
        self, sim, mixed_suite, sequential_reference
    ):
        """workers=2 over a mixed via+metal suite: every reported and
        verified number is bit-for-bit identical to the sequential
        sweep."""
        service = MaskOptService(simulator=sim)
        results = service.run_suite(
            "mbopc", mixed_suite, workers=2, engine_overrides=OVERRIDES,
        )
        assert_results_identical(results, sequential_reference)
        assert all(r.outcome == "verified" for r in results)
        assert service.scheduler.items_flushed == len(mixed_suite)
        # Streamed payloads replace the in-process outcome object.
        assert all(isinstance(r.raw_outcome, OptOutcome) for r in results)

    def test_workers_one_runs_inline_and_matches(
        self, sim, mixed_suite, sequential_reference
    ):
        results = MaskOptService(simulator=sim).run_suite(
            "mbopc", mixed_suite, workers=1, engine_overrides=OVERRIDES,
        )
        assert_results_identical(results, sequential_reference)
        # The in-process loop hands back the engines' own outcomes.
        assert not any(isinstance(r.raw_outcome, OptOutcome) for r in results)

    def test_journaled_sweep_matches_sequential(
        self, sim, mixed_suite, sequential_reference, tmp_path
    ):
        """Journaling observes outcomes, never changes them; every clip's
        verified result is on disk when the sweep returns."""
        from repro.service import OutcomeJournal

        path = str(tmp_path / "mixed.journal")
        results = MaskOptService(simulator=sim).run_suite(
            "mbopc", mixed_suite, workers=2, engine_overrides=OVERRIDES,
            journal=path,
        )
        assert_results_identical(results, sequential_reference)
        with OutcomeJournal(path) as journal:
            (fingerprint,) = journal.fingerprints()
            recorded = journal.results_for(fingerprint)
        assert set(recorded) == {clip.name for clip in mixed_suite}

    def test_eager_streaming_never_changes_numbers(
        self, sim, mixed_suite, sequential_reference
    ):
        """stream_min_bin=1 flushes every bin as soon as it has one mask
        — maximally different batching, identical measurements."""
        service = MaskOptService(simulator=sim)
        results = service.run_suite(
            "mbopc", mixed_suite, workers=2, engine_overrides=OVERRIDES,
            stream_min_bin=1,
        )
        assert_results_identical(results, sequential_reference)

    def test_engine_search_range_reaches_payloads(self, sim, mixed_suite):
        results = MaskOptService(simulator=sim).run_suite(
            "mbopc", mixed_suite[:2], workers=2,
            engine_overrides={**OVERRIDES, "epe_search_nm": 30.0},
        )
        assert all(
            r.raw_outcome.epe_search_nm == 30.0 for r in results
        )
        assert all(r.outcome == "verified" for r in results)


class TestShardedStoreSharing:
    def test_workers_share_one_spectra_store(self, tmp_path, mixed_suite):
        store_dir = tmp_path / "spectra"
        service = MaskOptService(
            litho_config=_litho_config(spectra_store=str(store_dir))
        )
        results = service.run_suite(
            "mbopc", mixed_suite, workers=2, engine_overrides=OVERRIDES,
        )
        assert len(results) == len(mixed_suite)
        # Two grid shapes x two defocus settings worth of entries were
        # persisted by whoever built them first (workers or the parent's
        # verification pass), and they are plain .npz files on disk.
        names = [n for n in os.listdir(store_dir) if n.endswith(".npz")]
        assert len(names) >= 2
        assert not any(n.startswith(".tmp-") for n in names)


# -- failure modes ------------------------------------------------------------

class TestShardedFailures:
    def test_worker_crash_fails_sweep_naming_clip(self, sim, mixed_suite):
        """A worker that dies mid-suite must surface as a ServiceError
        naming the in-flight clip — never hang the queue."""
        import dataclasses

        # Round-robin puts the first clip on worker 0; name it so the
        # scripted engine os._exit()s that worker mid-suite.
        boom = dataclasses.replace(mixed_suite[0], name="boom")
        suite = [boom, *mixed_suite[1:]]
        service = MaskOptService(simulator=sim)
        with pytest.raises(ServiceError, match="'boom'") as excinfo:
            service.run_suite(
                crashing_factory, suite, workers=2, verify=False,
            )
        assert "exit code 17" in str(excinfo.value)

    def test_worker_exception_fails_sweep_naming_clip(
        self, sim, mixed_suite
    ):
        import dataclasses

        boom = dataclasses.replace(mixed_suite[1], name="boom")
        suite = [mixed_suite[0], boom, *mixed_suite[2:]]
        service = MaskOptService(simulator=sim)
        with pytest.raises(ServiceError, match="'boom'") as excinfo:
            service.run_suite(
                raising_factory, suite, workers=2, verify=False,
            )
        assert "scripted engine failure" in str(excinfo.value)

    def test_aborted_sweep_leaves_scheduler_clean(self, sim, mixed_suite):
        """Outcomes streamed before a crash must not linger in the
        service's shared scheduler once the daemon behind the sweep is
        shut down — a retried or later verification pass would
        re-simulate the stale masks."""
        import dataclasses

        # A worker crashes on "boom" while the other's stub outcomes
        # (with masks) wait in the scheduler.  No retries: the crash must
        # fail the sweep before the daemon's max-wait flush measures the
        # stubs (whose fake EPE would fail first, as drift).
        boom = dataclasses.replace(mixed_suite[1], name="boom")
        suite = [mixed_suite[0], boom, *mixed_suite[2:]]
        service = MaskOptService(simulator=sim)
        with pytest.raises(ServiceError, match="'boom'"):
            service.run_suite(
                crashing_factory, suite, workers=2, verify=True,
                stream_min_bin=100, retries=0,
            )
        assert service.scheduler.pending == 0

    def test_instance_rejected_eagerly_by_run_suite(
        self, sim, mixed_suite
    ):
        engine = MBOPC(MBOPCConfig(**OVERRIDES), sim)
        service = MaskOptService(simulator=sim)
        with pytest.raises(ServiceError, match="registry name or a factory"):
            service.run_suite(engine, mixed_suite, workers=2)

    def test_engine_build_failure_is_clean(self, sim, mixed_suite):
        service = MaskOptService(simulator=sim)
        with pytest.raises(ServiceError, match="could not build"):
            service.run_suite(
                unbuildable_factory, mixed_suite, workers=2, verify=False,
            )

    def test_bad_worker_counts_rejected(self, sim, mixed_suite):
        service = MaskOptService(simulator=sim)
        with pytest.raises(ServiceError, match="workers"):
            service.run_suite("mbopc", mixed_suite, workers=0)
        with pytest.raises(ServiceError, match="at least one clip"):
            service.run_suite("mbopc", [], workers=2)
        with pytest.raises(ServiceError, match="stream_min_bin"):
            service.run_suite(
                "mbopc", mixed_suite, workers=2, stream_min_bin=0,
            )


# -- components ---------------------------------------------------------------

class TestStreamingScheduler:
    def test_flush_ready_drains_only_full_bins(self, sim, mixed_suite):
        engine = MBOPC(MBOPCConfig(**OVERRIDES), sim)
        outcomes = [engine.optimize(clip) for clip in mixed_suite]

        reference = ShapeBinScheduler()
        for ticket, (clip, outcome) in enumerate(zip(mixed_suite, outcomes)):
            reference.add_outcome(ticket, clip, outcome, sim, 40.0)
        expected = reference.flush(sim)

        streaming = ShapeBinScheduler()
        for ticket, (clip, outcome) in enumerate(zip(mixed_suite, outcomes)):
            streaming.add_outcome(ticket, clip, outcome, sim, 40.0)
        # Three clips share the 160x160 bin; one metal clip sits alone.
        early = streaming.flush_ready(sim, min_bin=3)
        assert set(early) == {0, 1, 3}
        assert streaming.pending == 1
        late = streaming.flush(sim)
        assert set(late) == {2}
        assert {**early, **late} == expected
        assert streaming.batch_calls == reference.batch_calls == 2
        assert streaming.items_flushed == len(mixed_suite)

    def test_flush_ready_validates_min_bin(self, sim):
        with pytest.raises(ValueError, match="min_bin"):
            ShapeBinScheduler().flush_ready(sim, min_bin=0)

    def test_discard_takes_back_only_named_keys(self, sim, mixed_suite):
        engine = MBOPC(MBOPCConfig(**OVERRIDES), sim)
        scheduler = ShapeBinScheduler()
        for ticket, clip in enumerate(mixed_suite):
            scheduler.add_outcome(
                ticket, clip, engine.optimize(clip), sim, 40.0
            )
        assert scheduler.discard([0, 3, 99]) == 2
        assert scheduler.pending == 2
        remaining = scheduler.flush(sim)
        assert set(remaining) == {1, 2}


class TestShardingComponents:
    def test_opt_outcome_payloads_pickle(self, sim, mixed_suite):
        engine = MBOPC(MBOPCConfig(**OVERRIDES), sim)
        clip = mixed_suite[0]
        payload = OptOutcome.from_raw(
            engine.optimize(clip), clip, sim, 40.0, worker=3
        )
        clone = pickle.loads(pickle.dumps(payload))
        assert clone.clip_name == payload.clip_name
        assert clone.epe_total == payload.epe_total
        assert clone.worker == 3
        np.testing.assert_array_equal(clone.mask_image, payload.mask_image)

    def test_engine_spec_pickles(self, sim):
        spec = EngineSpec(
            engine="mbopc", litho=sim.config,
            overrides=tuple(sorted(OVERRIDES.items())),
        )
        clone = pickle.loads(pickle.dumps(spec))
        engine, simulator = clone.build()
        assert engine.config.max_updates == OVERRIDES["max_updates"]
        assert simulator.config.pixel_nm == sim.config.pixel_nm

    def test_runner_validates_inputs(self, sim):
        spec = EngineSpec(engine="mbopc", litho=sim.config)
        with pytest.raises(ServiceError, match="workers"):
            WorkStealingPool(spec, workers=0)
        with pytest.raises(ServiceError, match="EngineSpec"):
            WorkStealingPool("mbopc", workers=2)
        with pytest.raises(ServiceError, match="at least one clip"):
            MaskOptService(simulator=sim).run_suite("mbopc", [], workers=2)

    def test_engine_spec_fingerprint_is_pinned(self):
        """Journals written by earlier releases must keep resuming: the
        fingerprint text, and so the digest, never changes."""
        spec = EngineSpec(
            "mbopc", LithoConfig(pixel_nm=8.0, max_kernels=4),
            (("initial_bias_nm", 3.0), ("max_updates", 3)),
        )
        assert spec.fingerprint() == "9a2721c3a313484e"

    def test_unverified_sweeps_ship_no_masks(self, sim, mixed_suite):
        """verify=False must not rasterize + pickle masks the parent
        would immediately discard."""
        results = MaskOptService(simulator=sim).run_suite(
            "mbopc", mixed_suite, workers=2, engine_overrides=OVERRIDES,
            verify=False,
        )
        assert all(r.raw_outcome.mask_image is None for r in results)
        assert all(r.outcome == "unverified" for r in results)

    def test_worker_clamp_to_clip_count(self, sim, mixed_suite, monkeypatch):
        """More workers than clips must not spawn idle processes (and
        2 clips / 8 workers runs with 2).  Counts the processes the pool
        spawned, not which worker took which clip: under work stealing
        one worker may legitimately run both."""
        from repro.service.workqueue import WorkStealingPool

        spawned = []
        original_spawn = WorkStealingPool._spawn

        def counting_spawn(pool, wid):
            spawned.append(wid)
            return original_spawn(pool, wid)

        monkeypatch.setattr(WorkStealingPool, "_spawn", counting_spawn)
        service = MaskOptService(simulator=sim)
        results = service.run_suite(
            "mbopc", mixed_suite[:2], workers=8,
            engine_overrides=OVERRIDES,
        )
        assert [r.clip_name for r in results] == ["sv1", "sv2"]
        assert sorted(spawned) == [0, 1]
        assert {r.raw_outcome.worker for r in results} <= {0, 1}
