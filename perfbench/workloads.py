"""The benchmark's three workloads over the public ``repro`` API.

Each workload takes the run's seed and length, and the program under
test receives only clips made by the public suite generators.  Runs of
different seeds must read alike for a change to show, so the seed picks
inputs of equal difficulty:

* ``serve`` (MB-OPC, no learning) offsets the generators' ``base_seed``
  and runs every request for its full step budget, so the work per
  request does not depend on when a clip happens to converge;
* ``via_train`` and ``metal_opt`` run CAMO, whose learned policy moves
  the summed EPE by up to 20% with the training clips.  They train on
  the fixed paper-shaped training suites, and the seed picks one of
  four mirror images of every optimized clip plus their order.  Optics
  and metrology are symmetric under mirroring, so each variant poses
  the same problem on a different mask raster (the summed EPE of one
  policy moves by about 2% between variants).

The run length sets how much work is done through a fixed nominal cost
per unit of work (measured once on a 2-core host), so every count a
run makes is a function of its arguments alone and a traced and an
untraced run of one seed do identical work.

Each workload function is the set-up (simulator, kernel spectra for
every grid shape, warm-up on clips outside the timed set, set-up
training); the callable it returns is the timed region and yields one
record per clip or request.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

from repro.core.agent import CAMO
from repro.core.config import CamoConfig
from repro.data import (
    metal_test_suite,
    metal_train_suite,
    via_test_suite,
    via_train_suite,
)
from repro.geometry.polygon import Polygon
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.service import MaskOptService, OptRequest

SEED_STRIDE = 50
"""``base_seed`` offset per ``serve`` seed (every suite generates
feasibly for offsets of at least 0..40 strides)."""

SUITE_STRIDE = 1000
"""``base_seed`` offset between further suites of one seed."""

VIA_MBOPC = {"initial_bias_nm": 3.0}
METAL_MBOPC = {
    "max_updates": 15,
    "early_exit_threshold": 1.0,
    "early_exit_mode": "per_point",
}

# Nominal seconds per unit of work on the reference host.
SERVE_REQUEST_S = 0.63
METAL_CLIP_S = 4.0
VIA_EPOCH_S = 2.7
VIA_FIXED_S = 11.9
"""via_train's cost outside the imitation epochs: teacher rollouts,
the RL epoch and the verified test pass."""

VIA_TRAIN_CLIPS = 4

METAL_LARGE = (3, 4, 5, 6, 9)
"""M4-M7 and M10, the metal test clips with 100 to 120 measure points:
clips of one size keep the median latency from jumping between clips."""

Run = Callable[[], list[dict]]


def _units(seconds: float, unit_s: float, fixed_s: float = 0.0) -> int:
    return max(1, round((seconds - fixed_s) / unit_s))


def _suites(make, base: int, seed: int, count: int, pick=None) -> list:
    """``count`` clips from consecutive suites (the ``pick`` indices of
    each, default all), renamed to stay unique."""
    clips = []
    k = 0
    while len(clips) < count:
        suite = make(base_seed=base + SEED_STRIDE * seed + SUITE_STRIDE * k)
        clips += [
            dataclasses.replace(suite[i], name=f"{suite[i].name}.{k}")
            for i in (pick or range(len(suite)))
        ]
        k += 1
    return clips[:count]


def _oriented(clip, seed: int):
    """``clip`` mirrored left-right when bit 0 of ``seed`` is set and
    top-bottom when bit 1 is (both make a half turn).  MB-OPC results
    repeat exactly under these four; quarter turns change metal ones."""
    box = clip.bbox
    size = box.x1
    if (box.x0, box.y0) != (0, 0) or box.y1 != size:
        raise ValueError(f"{clip.name}: window is not a square at the origin")

    def point(x, y):
        return (size - x if seed & 1 else x, size - y if seed & 2 else y)

    def moved(polygons):
        return tuple(
            Polygon(tuple(point(*vertex) for vertex in polygon.vertices))
            for polygon in polygons
        )

    return dataclasses.replace(
        clip, targets=moved(clip.targets), srafs=moved(clip.srafs)
    )


def _variant(clips, seed: int) -> list:
    """The seed's mirror image of every clip, order rotated by
    ``seed // 4``."""
    turned = [_oriented(clip, seed) for clip in clips]
    shift = (seed // 4) % len(turned)
    return turned[shift:] + turned[:shift]


def _service() -> MaskOptService:
    return MaskOptService(
        simulator=LithographySimulator(LithoConfig(backend="numpy"))
    )


def _records(results, clips) -> list[dict]:
    return [
        {
            "request": result.clip_name,
            "class": clip.layer,
            "latency_s": result.runtime_s,
            "steps": result.steps,
            "outcome": result.outcome,
            "epe_nm": result.epe_nm,
            "verified_epe_nm": result.verified_epe_nm,
            "pvb_nm2": result.pvband_nm2,
        }
        for result, clip in zip(results, clips)
    ]


def _sweep(service: MaskOptService, engine, clips, **optimize_kwargs):
    """One sequential optimize per clip, then one batched verification
    flush over all of them -- what ``map_suite(max_workers=1)`` runs,
    submitted request by request so each result keeps its outcome."""
    for clip in clips:
        service.submit(OptRequest(
            clip=clip, engine=engine, optimize_kwargs=optimize_kwargs,
        ))
    return service.run_all()


def via_train(seed: int, seconds: float) -> Run:
    """CAMO two-phase training, then a verified pass over the via tests."""
    service = _service()
    train_suite = via_train_suite()
    train_clips = train_suite[:VIA_TRAIN_CLIPS]
    _warm_up(service, [(train_suite[-1], "mbopc", VIA_MBOPC)])
    # The five 6-via test clips V9-V13, each run for its full step
    # budget: clips of one size keep the median latency off the jump
    # between size classes, and early exit would make a clip's latency
    # jump tenfold when a mirror image converges at another step.
    test_clips = _variant(via_test_suite()[8:], seed)
    config = CamoConfig(
        encode_size=32,
        imitation_epochs=_units(seconds, VIA_EPOCH_S, VIA_FIXED_S),
        rl_epochs=1,
        policy_temperature=2.5,
    )

    def run():
        camo = CAMO(config, service.simulator)
        camo.train(train_clips)
        results = _sweep(service, camo, test_clips, early_exit=False)
        return _records(results, test_clips)

    return run


def metal_opt(seed: int, seconds: float) -> Run:
    """CAMO inference over the metal tests as one verified sweep; the
    policy is trained briefly in set-up."""
    service = _service()
    train_suite = metal_train_suite()
    camo = CAMO(
        CamoConfig.repro_metal(
            encode_size=24,
            embed_dim=128,
            imitation_epochs=1,
            rl_epochs=0,
            policy_temperature=2.5,
        ),
        service.simulator,
    )
    camo.train(train_suite[:1])
    _warm_up(service, [(train_suite[1], camo, {})])
    count = _units(seconds, METAL_CLIP_S)
    clips = _variant(
        _suites(metal_test_suite, 4500, 0, count, METAL_LARGE), seed
    )

    def run():
        results = _sweep(service, camo, clips, early_exit=False)
        return _records(results, clips)

    return run


def serve(seed: int, seconds: float) -> Run:
    """Closed loop, one client: MB-OPC requests alternating via and
    metal clips, each submitted alone and verified in a bin of one."""
    service = _service()
    _warm_up(service, [
        (via_train_suite(base_seed=1300 + SEED_STRIDE * seed)[0],
         "mbopc", VIA_MBOPC),
        (metal_train_suite(base_seed=8200 + SEED_STRIDE * seed)[0],
         "mbopc", METAL_MBOPC),
    ])
    pairs = max(1, round(_units(seconds, SERVE_REQUEST_S) / 2))
    vias = _suites(via_test_suite, 2600, seed, pairs)
    metals = _suites(metal_test_suite, 4500, seed, pairs)
    requests = [
        OptRequest(
            clip=clip, engine="mbopc", engine_overrides=overrides,
            optimize_kwargs={"early_exit": False},
        )
        for via, metal in zip(vias, metals)
        for clip, overrides in ((via, VIA_MBOPC), (metal, METAL_MBOPC))
    ]

    def run():
        records = []
        for request in requests:
            start = time.perf_counter()
            try:
                service.submit(request)
                (result,) = service.run_all()
            except Exception as exc:  # counted as failed, run goes on
                records.append({
                    "request": request.clip.name,
                    "class": request.clip.layer,
                    "latency_s": time.perf_counter() - start,
                    "outcome": f"raised {type(exc).__name__}: {exc}",
                    "steps": 0, "epe_nm": None, "verified_epe_nm": None,
                    "pvb_nm2": None,
                })
                continue
            latency = time.perf_counter() - start
            (record,) = _records([result], [request.clip])
            record["latency_s"] = latency
            records.append(record)
        return records

    return run


def _warm_up(service: MaskOptService, jobs) -> None:
    """Fill per-grid-shape caches with one-step verified requests on
    clips that are not in the timed set."""
    for clip, engine, overrides in jobs:
        service.submit(OptRequest(
            clip=clip, engine=engine, engine_overrides=overrides,
            optimize_kwargs={"max_updates": 1},
        ))
    service.run_all()


WORKLOADS: dict[str, Callable[[int, float], Run]] = {
    "via_train": via_train,
    "metal_opt": metal_opt,
    "serve": serve,
}
