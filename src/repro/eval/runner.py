"""Run an OPC engine over a benchmark suite, collecting table rows.

This module is a thin adapter over
:class:`repro.service.MaskOptService`: ``run_engine_on_suite`` is one
:meth:`~repro.service.MaskOptService.run_suite` call (the in-process
``run_all`` loop, or the daemon's worker processes at ``workers > 1``),
so the suite sweep and its verification ride the same blessed path as
the CLI and the examples.

With a ``verify_simulator`` the service additionally re-measures every
engine's final mask and checks that the EPE matches what the engine
reported.  :class:`~repro.service.scheduler.ShapeBinScheduler` bins the
rasterized masks by grid shape and search range, and flushes each bin
through one sparse
:meth:`~repro.litho.simulator.LithographySimulator.simulate_epe_batch`
call (intensity only at the measure-point stencil pixels) and one
:func:`~repro.metrology.epe.measure_epe_grouped_sparse` call, so a whole
suite becomes a handful of batched calls.  Because batched results are
bit-for-bit independent of the batch size, any divergence means an
engine mis-reported its own result — a cheap end-to-end invariant over
the whole stack.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.eval.metrics import SuiteResult
from repro.geometry.layout import Clip
from repro.litho.simulator import LithographySimulator
from repro.service.scheduler import (
    ShapeBinScheduler,
    VerifyItem,
    final_mask_image,
)

__all__ = [
    "OPCEngine",
    "final_mask_image",
    "batch_verify_epe",
    "run_engine_on_suite",
]


class OPCEngine(Protocol):
    """Anything with an ``optimize(clip) -> result`` method where the result
    exposes ``epe_total``, ``pvband``, ``runtime_s``, ``steps`` and
    ``early_exited`` (CAMO, MBOPC, RLOPC, DamoLikeOPC, PixelILT)."""

    def optimize(self, clip: Clip, **kwargs): ...


def batch_verify_epe(
    simulator: LithographySimulator,
    clips: list[Clip],
    outcomes: list,
    epe_search_nm: float = 40.0,
) -> dict[str, float]:
    """Re-measure every outcome's EPE through the batched engines.

    A :class:`~repro.service.scheduler.ShapeBinScheduler` groups the
    rasterized final masks by grid shape and search range; each bin is
    one sparse ``simulate_epe_batch`` call followed by one
    :func:`~repro.metrology.epe.measure_epe_grouped_sparse` call (the
    clips share a shape but not geometry, so each carries its own grid
    and measure points).  Returns ``{clip_name: epe_nm}`` for every
    outcome whose final mask could be recovered.
    """
    scheduler = ShapeBinScheduler()
    for clip, outcome in zip(clips, outcomes):
        grid = simulator.grid_for(clip)
        image = final_mask_image(outcome, grid)
        if image is None:
            continue
        scheduler.add(VerifyItem(
            key=clip.name, clip=clip, grid=grid, mask=np.asarray(image),
            epe_search_nm=epe_search_nm,
        ))
    return scheduler.flush(simulator)


def run_engine_on_suite(
    engine: OPCEngine,
    clips: list[Clip],
    engine_name: str,
    verify_simulator: LithographySimulator | None = None,
    workers: int = 1,
    engine_overrides: dict | None = None,
    **optimize_kwargs,
) -> SuiteResult:
    """Optimize every clip and collect (EPE, PVB, RT) rows.

    ``verify_simulator`` enables the batched re-simulation cross-check
    described in the module docstring.  The sweep routes through
    :class:`~repro.service.MaskOptService` — numbers are bit-for-bit
    identical to calling ``engine.optimize`` per clip directly.

    ``workers > 1`` runs the sweep on worker processes
    (:meth:`~repro.service.MaskOptService.run_suite`): ``engine`` must
    then be a registry name or picklable factory (rebuilt with
    ``engine_overrides`` in each worker), not an instance, and a
    ``verify_simulator`` is required so the workers rebuild their
    engines from a concrete litho config.  Their rows are bit-for-bit
    identical to the sequential sweep.
    """
    from repro.errors import ServiceError
    from repro.service import MaskOptService

    if workers > 1 and verify_simulator is None:
        raise ServiceError(
            "workers>1 needs a verify_simulator: worker processes "
            "rebuild their engines from its LithoConfig"
        )
    service = MaskOptService(
        simulator=verify_simulator
        if verify_simulator is not None
        else getattr(engine, "simulator", None),
    )
    result = SuiteResult(engine=engine_name)
    for opt_result in service.run_suite(
        engine, clips, workers=workers, engine_overrides=engine_overrides,
        verify=verify_simulator is not None, **optimize_kwargs,
    ):
        result.add(opt_result.to_row())
    return result
