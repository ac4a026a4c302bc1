"""Tests for the repro.service front door (API, registry, scheduler,
MaskOptService, CLI).

The acceptance pin: ``MaskOptService.run_all`` over a mixed via+metal
suite is bit-for-bit identical to the pre-redesign per-script path
(direct ``engine.optimize`` + one-at-a-time re-measurement), while the
verification pass issues at most one batched litho call per
(grid-shape, search-range) bin.  The sparse verifier must reproduce the
dense reference (``simulate_batch`` + ``measure_epe_grouped``) to
<= 1e-9 nm.
"""

import json

import numpy as np
import pytest

from repro.baselines.mbopc import MBOPC, MBOPCConfig
from repro.data.stdcell import stdcell_metal_clip
from repro.data.via_bench import generate_via_clip
from repro.errors import MetrologyError, ServiceError
from repro.geometry.segmentation import fragment_clip
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.service import (
    MaskOptService,
    OptRequest,
    available_engines,
    create_engine,
    final_mask_image,
    register_engine,
)


@pytest.fixture(scope="module")
def sim():
    return LithographySimulator(
        LithoConfig(pixel_nm=8.0, max_kernels=4)
    )


@pytest.fixture(scope="module")
def mixed_suite():
    """Mixed via+metal suite spanning two raster grid shapes (160x160
    and 128x128)."""
    return [
        generate_via_clip("sv1", n_vias=2, seed=31, clip_nm=1280),
        generate_via_clip("sv2", n_vias=2, seed=32, clip_nm=1280),
        generate_via_clip("sv3", n_vias=2, seed=33, clip_nm=1024),
        stdcell_metal_clip("sm1", 8, seed=5, clip_nm=1280),
    ]


def make_engine(sim):
    """A deterministic, training-free engine (fresh per call: MB-OPC is
    stateless across optimize() calls, so two instances agree
    bit-for-bit)."""
    return MBOPC(MBOPCConfig(max_updates=3, initial_bias_nm=3.0), sim)


class TestRequestValidation:
    def test_rejects_non_clip(self):
        with pytest.raises(ServiceError, match="Clip"):
            OptRequest(clip="not-a-clip")

    def test_rejects_empty_engine_name(self, mixed_suite):
        with pytest.raises(ServiceError, match="non-empty"):
            OptRequest(clip=mixed_suite[0], engine="")

    def test_rejects_engine_without_optimize(self, mixed_suite):
        with pytest.raises(ServiceError, match="optimize"):
            OptRequest(clip=mixed_suite[0], engine=object())

    def test_rejects_overrides_on_instances(self, sim, mixed_suite):
        with pytest.raises(ServiceError, match="overrides"):
            OptRequest(
                clip=mixed_suite[0],
                engine=make_engine(sim),
                engine_overrides={"max_updates": 1},
            )

    def test_engine_label(self, sim, mixed_suite):
        assert OptRequest(clip=mixed_suite[0], engine="camo").engine_label == "camo"
        instance = OptRequest(clip=mixed_suite[0], engine=make_engine(sim))
        assert instance.engine_label == "mbopc"


class TestRegistry:
    def test_all_engines_constructible(self, sim):
        for name in available_engines():
            engine = create_engine(name, sim)
            assert callable(engine.optimize)

    def test_unknown_engine(self, sim):
        with pytest.raises(ServiceError, match="unknown engine"):
            create_engine("resolve-by-vibes", sim)

    def test_pixel_ilt_is_retired(self, sim):
        """Pixel ILT is outside the paper's comparison and is gone: the
        registry neither lists nor builds it."""
        assert "ilt" not in available_engines()
        with pytest.raises(ServiceError, match="unknown engine"):
            create_engine("ilt", sim)

    def test_overrides_reach_config(self, sim):
        engine = create_engine("mbopc", sim, {"max_updates": 7})
        assert engine.config.max_updates == 7

    def test_bad_override_key(self, sim):
        with pytest.raises(ServiceError, match="bad overrides"):
            create_engine("mbopc", sim, {"no_such_knob": 1})

    def test_register_requires_overwrite(self, sim):
        def factory(simulator, overrides):
            return make_engine(simulator)

        register_engine("test-dummy", factory)
        try:
            with pytest.raises(ServiceError, match="already registered"):
                register_engine("test-dummy", factory)
            register_engine("test-dummy", factory, overwrite=True)
            assert "test-dummy" in available_engines()
        finally:
            from repro.service import registry

            registry._REGISTRY.pop("test-dummy", None)


class TestRunAllBitForBit:
    def test_matches_pre_redesign_path_and_bins_batches(
        self, sim, mixed_suite
    ):
        """The acceptance criterion, both halves.

        Reference: the pre-redesign per-script wiring — direct
        ``engine.optimize`` per clip, then an independent one-clip-at-a-
        time re-measurement (no cross-clip batching; batched results are
        batch-size independent, so the service's grouped pass must
        reproduce these values exactly).  The dense reference is pinned
        separately in ``test_sparse_default_matches_dense_verifier``.
        """
        from repro.metrology.epe import (
            measure_epe_grouped_sparse,
            measure_stencil_plan,
        )

        reference_engine = make_engine(sim)
        expected = [reference_engine.optimize(clip) for clip in mixed_suite]
        expected_epe = {}
        for clip, outcome in zip(mixed_suite, expected):
            grid = sim.grid_for(clip)
            mask = final_mask_image(outcome, grid)
            plan = measure_stencil_plan(
                grid, fragment_clip(clip), search_nm=40.0
            )
            (report,) = measure_epe_grouped_sparse(
                sim.simulate_epe_batch(mask[None], grid, plan),
                sim.config.threshold,
            )
            expected_epe[clip.name] = report.total_abs

        service = MaskOptService(simulator=sim)
        engine = make_engine(sim)
        for clip in mixed_suite:
            service.submit(OptRequest(clip=clip, engine=engine))
        results = service.run_all()

        # Bit-for-bit identical reported numbers (frozen per-iteration
        # sweep) and verified EPE equal to the independent single-mask
        # measurements.
        assert [r.clip_name for r in results] == [c.name for c in mixed_suite]
        for result, outcome in zip(results, expected):
            assert result.epe_nm == outcome.epe_total
            assert result.pvband_nm2 == outcome.pvband
            assert result.steps == outcome.steps
            assert result.early_exited == outcome.early_exited
            assert result.verified_epe_nm == expected_epe[result.clip_name]

        # At most one batched litho call per (grid-shape, search-range)
        # bin per verification pass: 2 distinct shapes -> 2 calls.
        shapes = {sim.grid_for(clip).shape for clip in mixed_suite}
        assert service.scheduler.batch_calls == len(shapes) == 2
        assert service.scheduler.items_flushed == len(mixed_suite)

    def test_sparse_default_matches_dense_verifier(self, sim, mixed_suite):
        """The sparse verifier (EPE-only lattice gather) must reproduce
        the dense reference — full-grid ``simulate_batch`` +
        ``measure_epe_grouped`` per mask — to <= 1e-9 nm, far inside the
        service's 1e-6 nm drift gate."""
        from repro.metrology.epe import measure_epe_grouped

        engine = make_engine(sim)
        service = MaskOptService(simulator=sim)
        for clip in mixed_suite:
            service.submit(OptRequest(clip=clip, engine=engine))
        results = service.run_all()

        for clip, result in zip(mixed_suite, results):
            grid = sim.grid_for(clip)
            mask = final_mask_image(engine.optimize(clip), grid)
            litho = sim.simulate_batch(mask[None], grid)[0]
            (dense,) = measure_epe_grouped(
                litho.aerial[None], [grid], [fragment_clip(clip)],
                sim.config.threshold, search_nm=40.0,
            )
            assert result.verified_epe_nm == pytest.approx(
                dense.total_abs, abs=1e-9
            )

    def test_scheduler_counter_matches_real_litho_calls(
        self, sim, mixed_suite, monkeypatch
    ):
        """`scheduler.batch_calls` (what the other tests assert on) must
        track actual batched litho invocations one-for-one: every bin
        flushes through `simulate_epe_batch`, never `simulate_batch`."""
        from repro.service.scheduler import ShapeBinScheduler

        engine = make_engine(sim)
        scheduler = ShapeBinScheduler()
        for ticket, clip in enumerate(mixed_suite):
            added = scheduler.add_outcome(
                ticket, clip, engine.optimize(clip), sim, 40.0
            )
            assert added
        assert scheduler.pending == len(mixed_suite)
        assert scheduler.bin_count == 2

        calls = {"simulate_batch": 0, "simulate_epe_batch": 0}
        original_dense = LithographySimulator.simulate_batch
        original_sparse = LithographySimulator.simulate_epe_batch

        def counting_dense(self, masks, grid):
            calls["simulate_batch"] += 1
            return original_dense(self, masks, grid)

        def counting_sparse(self, masks, grid, plans, **kwargs):
            calls["simulate_epe_batch"] += 1
            return original_sparse(self, masks, grid, plans, **kwargs)

        monkeypatch.setattr(
            LithographySimulator, "simulate_batch", counting_dense
        )
        monkeypatch.setattr(
            LithographySimulator, "simulate_epe_batch", counting_sparse
        )
        measured = scheduler.flush(sim)
        assert calls == {
            "simulate_batch": 0,
            "simulate_epe_batch": scheduler.batch_calls,
        }
        assert scheduler.batch_calls == 2
        assert set(measured) == set(range(len(mixed_suite)))
        assert scheduler.pending == 0  # queue drained

    def test_verifier_reuses_the_environment_fragmentation(
        self, sim, mixed_suite, monkeypatch
    ):
        """The engine's environment fragmented each request clip; the
        flush fragments the same clip objects and gets the remembered
        segments, with the same bits as fragmenting them afresh."""
        import repro.geometry.segmentation as segmentation_module
        from repro.service.scheduler import ShapeBinScheduler

        engine = make_engine(sim)
        outcomes = [engine.optimize(clip) for clip in mixed_suite]

        def no_fragmenting(polygon, *args, **kwargs):
            raise AssertionError("fragmented a request clip again")

        monkeypatch.setattr(
            segmentation_module, "fragment_polygon", no_fragmenting
        )
        reusing = ShapeBinScheduler()
        for ticket, (clip, outcome) in enumerate(zip(mixed_suite, outcomes)):
            assert reusing.add_outcome(ticket, clip, outcome, sim, 40.0)
        measured = reusing.flush(sim)
        monkeypatch.undo()

        segmentation_module._fragmented.clear()
        fresh = ShapeBinScheduler()
        for ticket, (clip, outcome) in enumerate(zip(mixed_suite, outcomes)):
            assert fresh.add_outcome(ticket, clip, outcome, sim, 40.0)
        assert fresh.flush(sim) == measured

    def test_outcome_of_another_clip_caught(self, sim, mixed_suite):
        """An engine answers a request with the outcome of another clip
        on the same grid, its EPE claim true for that clip: the verifier
        measures the request's own clip and refuses it."""
        other = make_engine(sim).optimize(mixed_suite[0])

        class SwappingEngine:
            simulator = sim

            def optimize(self, clip, **kwargs):
                return other

        assert sim.grid_for(mixed_suite[0]) == sim.grid_for(mixed_suite[1])
        service = MaskOptService(simulator=sim)
        service.submit(
            OptRequest(clip=mixed_suite[1], engine=SwappingEngine())
        )
        with pytest.raises(MetrologyError, match="re-simulation"):
            service.run_all()

    def test_lying_engine_caught(self, sim, mixed_suite):
        truthful = make_engine(sim).optimize(mixed_suite[0])

        class LyingEngine:
            simulator = sim

            def optimize(self, clip, **kwargs):
                class Fake:
                    epe_total = truthful.epe_total + 5.0
                    pvband = truthful.pvband
                    runtime_s = truthful.runtime_s
                    steps = truthful.steps
                    early_exited = truthful.early_exited
                    final_state = truthful.final_state

                return Fake()

        service = MaskOptService(simulator=sim)
        service.submit(OptRequest(clip=mixed_suite[0], engine=LyingEngine()))
        with pytest.raises(MetrologyError, match="re-simulation"):
            service.run_all()

    def test_verify_disabled(self, sim, mixed_suite):
        service = MaskOptService(simulator=sim)
        service.submit(OptRequest(clip=mixed_suite[0], engine=make_engine(sim)))
        (result,) = service.run_all(verify=False)
        assert result.verified_epe_nm is None
        assert service.scheduler.batch_calls == 0

    def test_registry_engine_cached_across_requests(self, sim, mixed_suite):
        service = MaskOptService(simulator=sim)
        for clip in mixed_suite[:2]:
            service.submit(OptRequest(
                clip=clip, engine="mbopc",
                engine_overrides={"max_updates": 2},
            ))
        service.run_all()
        assert service.stats()["engines_cached"] == 1


class TestStreamingFlush:
    """The queue holds geometry, and a flush holds one full-grid raster
    at a time."""

    def test_queue_holds_polygons_and_measures_as_rasters(
        self, sim, mixed_suite
    ):
        """An in-process outcome queues its final mask's polygons; the
        flush measures them bit for bit as their raster queued by hand."""
        from repro.service.scheduler import ShapeBinScheduler, VerifyItem

        engine = make_engine(sim)
        outcomes = [engine.optimize(clip) for clip in mixed_suite]
        queued, by_hand = ShapeBinScheduler(), ShapeBinScheduler()
        for ticket, (clip, outcome) in enumerate(zip(mixed_suite, outcomes)):
            queued.add_outcome(ticket, clip, outcome, sim, 40.0)
            grid = sim.grid_for(clip)
            by_hand.add(VerifyItem(
                key=ticket, clip=clip, grid=grid,
                mask=final_mask_image(outcome, grid), epe_search_nm=40.0,
            ))
        items = [item for bin_ in queued._bins.values() for item in bin_]
        assert all(isinstance(item.mask, tuple) for item in items)
        got, expected = queued.flush(sim), by_hand.flush(sim)
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            assert float(got[key]).hex() == float(value).hex()

    def test_flush_peak_is_one_raster_deep(self):
        """Eight same-shape masks flush within 3.5 full-grid rasters of
        traced memory (the mask's raster and its ``rfft2``, whose row
        pass and output are a raster each), and one mask more or less
        moves the peak by far less than a raster."""
        import tracemalloc
        from types import SimpleNamespace

        from repro.geometry import MaskState
        from repro.service.scheduler import ShapeBinScheduler

        simulator = LithographySimulator(
            LithoConfig(pixel_nm=4.0, max_kernels=4)
        )
        clips = [
            generate_via_clip(f"fp{i}", n_vias=3, seed=70 + i, clip_nm=1280)
            for i in range(8)
        ]
        outcomes = [
            SimpleNamespace(final_state=SimpleNamespace(mask=MaskState.initial(
                clip, fragment_clip(clip), bias_nm=2.0,
            )))
            for clip in clips
        ]
        grid = simulator.grid_for(clips[0])
        raster_bytes = grid.rows * grid.cols * 8

        def flush_peak(count):
            scheduler = ShapeBinScheduler()
            for ticket in range(count):
                scheduler.add_outcome(
                    ticket, clips[ticket], outcomes[ticket], simulator, 40.0
                )
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                scheduler.flush(simulator)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return (peak - start) / raster_bytes

        flush_peak(8)  # band spectra and stencil plans, cached
        one, eight = flush_peak(1), flush_peak(8)
        assert eight < 3.5
        assert eight - one < 0.5

    def test_hand_built_item_is_planned_in_add(self, sim, mixed_suite):
        """``add`` plans an item built without a plan, and the queued
        item holds the plan the clip's measure points share."""
        from repro.metrology.epe import measure_stencil_plan
        from repro.service.scheduler import ShapeBinScheduler, VerifyItem

        clip = mixed_suite[0]
        grid = sim.grid_for(clip)
        item = VerifyItem(
            key=0, clip=clip, grid=grid, mask=np.zeros(grid.shape),
            epe_search_nm=40.0,
        )
        assert item.plan is None
        scheduler = ShapeBinScheduler()
        scheduler.add(item)
        (queued,) = [member for bin_ in scheduler._bins.values()
                     for member in bin_]
        assert queued.plan is measure_stencil_plan(
            grid, fragment_clip(clip), search_nm=40.0
        )


class TestPerClipState:
    """What the service keeps of a request ends with the request."""

    def test_verified_requests_leave_no_plans(self, sim):
        """After 8 distinct metal clips are served and verified and the
        caller drops the results, no stencil plan of theirs is alive."""
        import gc
        import weakref

        from repro.metrology.contour import ContourStencilPlan

        def live_plans():
            gc.collect()
            return [
                obj for obj in gc.get_objects()
                if isinstance(obj, ContourStencilPlan)
            ]

        before = {id(plan): weakref.ref(plan) for plan in live_plans()}
        service = MaskOptService(simulator=sim)
        for index in range(8):
            service.submit(OptRequest(
                clip=stdcell_metal_clip(
                    f"rp{index}", 8, seed=60 + index, clip_nm=1280
                ),
                engine=make_engine(sim),
            ))
        results = service.run_all()
        assert [result.outcome for result in results] == ["verified"] * 8
        del results
        left = [
            plan for plan in live_plans()
            if id(plan) not in before or before[id(plan)]() is not plan
        ]
        assert left == []

    def test_same_named_clips_are_verified(self, sim):
        """One CAMO engine serves two different clips that share a name:
        each is optimized on its own environment and verifies (keyed by
        name, the second got the first's 8-segment environment and the
        drift check raised MetrologyError)."""
        from repro.core import CAMO, CamoConfig

        engine = CAMO(CamoConfig.smoke(max_updates=2), sim)
        service = MaskOptService(simulator=sim)
        for n_vias, seed in ((2, 51), (3, 52)):
            service.submit(OptRequest(
                clip=generate_via_clip(
                    "twin", n_vias=n_vias, seed=seed, clip_nm=1024
                ),
                engine=engine,
            ))
        results = service.run_all()
        assert [result.outcome for result in results] == ["verified"] * 2
        for result in results:
            assert abs(result.verified_epe_nm - result.epe_nm) <= 1e-6


class TestMapSuite:
    def test_matches_run_all_and_shares_one_verify_pass(
        self, sim, mixed_suite
    ):
        sequential = MaskOptService(simulator=sim)
        for clip in mixed_suite:
            sequential.submit(OptRequest(clip=clip, engine=make_engine(sim)))
        expected = sequential.run_all()

        pooled = MaskOptService(simulator=sim)
        suites = pooled.map_suite(
            {"MB-A": make_engine(sim), "MB-B": make_engine(sim)},
            mixed_suite,
        )
        assert list(suites) == ["MB-A", "MB-B"]
        for label in suites:
            rows = suites[label].rows
            assert [row.clip_name for row in rows] == [
                c.name for c in mixed_suite
            ]
            for row, ref in zip(rows, expected):
                assert row.epe_nm == ref.epe_nm
                assert row.pvband_nm2 == ref.pvband_nm2
                assert row.outcome == ref.outcome == "verified"
                assert row.raw_outcome is None
        # Cross-engine batching: 2 engines x 4 clips over 2 shapes still
        # flush in exactly 2 batched litho calls.
        assert pooled.scheduler.batch_calls == 2
        assert pooled.scheduler.items_flushed == 2 * len(mixed_suite)

    def test_empty_inputs_rejected(self, sim, mixed_suite):
        service = MaskOptService(simulator=sim)
        with pytest.raises(ServiceError, match="at least one engine"):
            service.map_suite({}, mixed_suite)
        with pytest.raises(ServiceError, match="at least one clip"):
            service.map_suite(["mbopc"], [])

    def test_name_overrides_pairs_accepted(self, sim, mixed_suite):
        """(name, overrides) specs work on the threaded path too, and
        match an identically-configured instance bit-for-bit."""
        expected = MaskOptService(simulator=sim).map_suite(
            {"MB": MBOPC(MBOPCConfig(max_updates=3, initial_bias_nm=3.0), sim)},
            mixed_suite[:2],
        )
        suites = MaskOptService(simulator=sim).map_suite(
            {"MB": ("mbopc", {"max_updates": 3, "initial_bias_nm": 3.0})},
            mixed_suite[:2],
        )
        for row, ref in zip(suites["MB"].rows, expected["MB"].rows):
            assert row.epe_nm == ref.epe_nm
            assert row.pvband_nm2 == ref.pvband_nm2


class TestUnverifiableOutcomes:
    class MaskFreeEngine:
        """Reports numbers but exposes neither final_state nor
        mask_image — nothing to re-simulate."""

        name = "maskfree"

        def optimize(self, clip, **kwargs):
            class Opaque:
                epe_total = 2.0
                pvband = 5.0
                runtime_s = 0.01
                steps = 1
                early_exited = False

            return Opaque()

    def test_unrecoverable_mask_is_explicit_not_silent(self, sim, mixed_suite):
        """final_mask_image -> None must surface as outcome="unverifiable",
        not crash and not masquerade as a clean unverified result."""
        service = MaskOptService(simulator=sim)
        service.submit(OptRequest(clip=mixed_suite[0], engine=self.MaskFreeEngine()))
        (result,) = service.run_all()
        assert result.outcome == "unverifiable"
        assert result.verified_epe_nm is None
        assert result.epe_nm == 2.0
        assert result.to_dict()["outcome"] == "unverifiable"

    def test_opted_out_is_unverified_not_unverifiable(self, sim, mixed_suite):
        service = MaskOptService(simulator=sim)
        service.submit(OptRequest(
            clip=mixed_suite[0], engine=self.MaskFreeEngine(), verify=False,
        ))
        (result,) = service.run_all()
        assert result.outcome == "unverified"

    def test_verified_results_say_so(self, sim, mixed_suite):
        service = MaskOptService(simulator=sim)
        service.submit(OptRequest(clip=mixed_suite[0], engine=make_engine(sim)))
        (result,) = service.run_all()
        assert result.outcome == "verified"
        assert result.verified_epe_nm is not None

    def test_bad_outcome_status_rejected(self):
        from repro.service.api import OptResult

        with pytest.raises(ServiceError, match="outcome"):
            OptResult(
                request_id=0, clip_name="c", engine="e", epe_nm=0.0,
                pvband_nm2=0.0, runtime_s=0.0, steps=0, early_exited=False,
                outcome="sideways",
            )


class TestTicketAllocation:
    def test_concurrent_submitters_never_share_a_ticket(self, sim, mixed_suite):
        """_next_id is read-modify-write; without the service lock two
        threads could mint the same ticket."""
        import threading

        service = MaskOptService(simulator=sim)
        tickets: list[int] = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def submitter():
            barrier.wait()
            mine = [
                service.submit(OptRequest(
                    clip=mixed_suite[0], engine="mbopc", verify=False,
                ))
                for _ in range(50)
            ]
            with lock:
                tickets.extend(mine)

        threads = [threading.Thread(target=submitter) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tickets) == 8 * 50
        assert len(set(tickets)) == 8 * 50
        assert service.stats()["requests_issued"] == 8 * 50


class TestServiceConstruction:
    def test_simulator_xor_config(self, sim):
        with pytest.raises(ServiceError, match="not both"):
            MaskOptService(simulator=sim, litho_config=LithoConfig())

    def test_submit_rejects_non_request(self, sim):
        service = MaskOptService(simulator=sim)
        with pytest.raises(ServiceError, match="OptRequest"):
            service.submit("clip please")

    def test_stats_shape(self, sim, mixed_suite):
        service = MaskOptService(simulator=sim)
        service.submit(OptRequest(clip=mixed_suite[0], engine=make_engine(sim)))
        service.run_all()
        stats = service.stats()
        assert stats["requests_issued"] == 1
        assert stats["pending"] == 0
        assert stats["verify_batch_calls"] == 1


class TestRunnerStillBitForBit:
    def test_run_suite_routes_through_service(self, sim, mixed_suite):
        """``run_suite`` returns the same numbers as driving the engine
        directly."""
        expected = [make_engine(sim).optimize(clip) for clip in mixed_suite]
        results = MaskOptService(simulator=sim).run_suite(
            make_engine(sim), mixed_suite
        )
        for result, outcome in zip(results, expected):
            assert result.epe_nm == outcome.epe_total
            assert result.pvband_nm2 == outcome.pvband

    def test_sharded_runner_path_matches(self, sim, mixed_suite):
        """``run_suite(workers=2)`` shards through the daemon and still
        returns the direct-engine numbers bit-for-bit."""
        overrides = {"max_updates": 3, "initial_bias_nm": 3.0}
        expected = [make_engine(sim).optimize(clip) for clip in mixed_suite]
        results = MaskOptService(simulator=sim).run_suite(
            "mbopc", mixed_suite, workers=2, engine_overrides=overrides,
        )
        for result, outcome in zip(results, expected):
            assert result.epe_nm == outcome.epe_total
            assert result.pvband_nm2 == outcome.pvband


class TestOverrideParser:
    """Direct unit tests for the CLI's key=value coercion."""

    def parse(self, text):
        from repro.__main__ import _parse_override

        return _parse_override(text)

    def test_plain_json_scalars(self):
        assert self.parse("max_updates=5") == ("max_updates", 5)
        assert self.parse("gain=0.25") == ("gain", 0.25)
        assert self.parse("early_exit=true") == ("early_exit", True)
        assert self.parse("mode=per_target") == ("mode", "per_target")

    def test_bool_capitalization_variants(self):
        for raw in ("True", "TRUE", "tRuE"):
            assert self.parse(f"flag={raw}") == ("flag", True)
        for raw in ("False", "FALSE", "falsE"):
            assert self.parse(f"flag={raw}") == ("flag", False)

    def test_none_variants(self):
        assert self.parse("knob=null") == ("knob", None)
        assert self.parse("knob=None") == ("knob", None)
        assert self.parse("knob=NONE") == ("knob", None)

    def test_scientific_notation(self):
        assert self.parse("temp=1e-3") == ("temp", 1e-3)
        assert self.parse("temp=1E6") == ("temp", 1e6)
        assert self.parse("temp=.5") == ("temp", 0.5)
        assert self.parse("temp=+2.5") == ("temp", 2.5)
        assert self.parse("count=+3") == ("count", 3)

    def test_quoted_strings_stay_strings(self):
        assert self.parse('tag="1e-3"') == ("tag", "1e-3")
        assert self.parse("tag='true'") == ("tag", "true")
        assert self.parse('name="per_target"') == ("name", "per_target")
        assert self.parse('empty=""') == ("empty", "")

    def test_values_may_contain_equals(self):
        assert self.parse("expr=a=b") == ("expr", "a=b")

    def test_whitespace_tolerated(self):
        assert self.parse(" gain = 0.5 ") == ("gain", 0.5)

    def test_rejects_malformed(self):
        import argparse as argparse_mod

        with pytest.raises(argparse_mod.ArgumentTypeError, match="key=value"):
            self.parse("no-equals-here")
        with pytest.raises(argparse_mod.ArgumentTypeError, match="empty key"):
            self.parse("=5")


class TestCLI:
    def test_optimize_tiny_json(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "result.json"
        store = tmp_path / "spectra"
        code = main([
            "optimize", "--suite", "tiny", "--engine", "mbopc",
            "--pixel-nm", "8", "--max-kernels", "4",
            "--opt", "max_updates=2",
            "--json", str(out), "--store", str(store),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "verified" in captured
        payload = json.loads(out.read_text())
        assert payload["engine"] == "mbopc"
        assert payload["engine_overrides"] == {"max_updates": 2}
        assert len(payload["results"]) == 1
        row = payload["results"][0]
        # The CLI verifies through the sparse default: agreement with the
        # engine's self-reported (dense) EPE inside the 1e-6 nm drift
        # gate, not bit-for-bit.
        assert row["verified_epe_nm"] == pytest.approx(
            row["epe_nm"], abs=1e-9
        )
        assert payload["service_stats"]["verify_batch_calls"] == 1
        assert payload["service_stats"]["spectra_store"]["writes"] >= 1

    def test_optimize_sharded_workers(self, tmp_path, capsys):
        """--workers 2 process-shards the sweep against a shared spectra
        store and reports the same schema (plus the workers count)."""
        from repro.__main__ import main

        out = tmp_path / "sharded.json"
        store = tmp_path / "spectra"
        code = main([
            "optimize", "--suite", "tiny", "--count", "2",
            "--engine", "mbopc", "--pixel-nm", "8", "--max-kernels", "4",
            "--opt", "max_updates=2", "--workers", "2",
            "--json", str(out), "--store", str(store),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "workers=2" in captured
        payload = json.loads(out.read_text())
        assert payload["workers"] == 2
        assert len(payload["results"]) == 2
        assert all(
            row["outcome"] == "verified" for row in payload["results"]
        )
        assert store.is_dir()

    def test_optimize_rejects_bad_workers(self, capsys):
        from repro.__main__ import main

        code = main([
            "optimize", "--suite", "tiny", "--engine", "mbopc",
            "--pixel-nm", "8", "--max-kernels", "4", "--workers", "0",
        ])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_bench_info(self, capsys):
        from repro.__main__ import main

        code = main([
            "bench-info", "--pixel-nm", "8", "--max-kernels", "4",
            "--window-nm", "1280",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "engines" in captured
        assert "mbopc" in captured
        assert "pupil band" in captured

    def test_unknown_engine_is_clean_error(self, capsys):
        from repro.__main__ import main

        code = main(["optimize", "--suite", "tiny", "--engine", "nope",
                     "--pixel-nm", "8", "--max-kernels", "4"])
        assert code == 2
        assert "unknown engine" in capsys.readouterr().err


class TestBuildClips:
    """``_build_clips`` — the ``--suite`` / ``--count`` / ``--names``
    contract shared by ``optimize`` and ``serve``."""

    @staticmethod
    def _clips(*argv):
        from repro.__main__ import _build_clips, build_parser

        args = build_parser().parse_args([
            "optimize", "--pixel-nm", "8", "--max-kernels", "4", *argv,
        ])
        return _build_clips(args)

    def test_tiny_default_count_is_one_clip(self):
        clips = self._clips("--suite", "tiny")
        assert [clip.name for clip in clips] == ["tiny1"]

    def test_tiny_count_generates_that_many(self):
        clips = self._clips("--suite", "tiny", "--count", "3")
        assert [clip.name for clip in clips] == ["tiny1", "tiny2", "tiny3"]

    def test_fixed_suite_count_truncates(self):
        clips = self._clips("--suite", "via", "--count", "2")
        assert [clip.name for clip in clips] == ["V1", "V2"]

    def test_names_select_from_fixed_suite(self):
        clips = self._clips("--suite", "metal", "--names", "M3,M1")
        assert [clip.name for clip in clips] == ["M1", "M3"]

    def test_names_filter_before_count_truncation(self):
        clips = self._clips(
            "--suite", "via", "--names", "V2,V5,V9", "--count", "2",
        )
        assert [clip.name for clip in clips] == ["V2", "V5"]

    def test_tiny_with_names_is_an_error(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="generated on demand"):
            self._clips("--suite", "tiny", "--names", "tiny1")

    def test_negative_count_is_an_error(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="--count must be >= 0"):
            self._clips("--suite", "via", "--count", "-1")

    def test_unknown_names_are_an_error(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="V99"):
            self._clips("--suite", "via", "--names", "V1,V99")

    def test_serve_parser_shares_the_contract(self):
        from repro.__main__ import _build_clips, build_parser

        args = build_parser().parse_args([
            "serve", "--pixel-nm", "8", "--max-kernels", "4",
            "--suite", "via", "--names", "V4",
        ])
        assert not hasattr(args, "dispatch")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--dispatch", "static"])
        assert args.workers == 2
        assert args.max_pending == 32
        assert [clip.name for clip in _build_clips(args)] == ["V4"]

    def test_tiny_with_names_fails_via_cli(self, capsys):
        from repro.__main__ import main

        code = main([
            "optimize", "--suite", "tiny", "--names", "tiny1",
            "--engine", "mbopc", "--pixel-nm", "8", "--max-kernels", "4",
        ])
        assert code == 2
        assert "generated on demand" in capsys.readouterr().err
