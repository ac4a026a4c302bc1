"""Shape-binned cross-clip batching for the verification metrology.

Every optimized mask the service wants to re-measure is queued as a
:class:`VerifyItem`; :class:`ShapeBinScheduler` groups the queue by
``(raster grid shape, contour search range)`` and flushes each bin
through **one** :meth:`~repro.litho.simulator.LithographySimulator.
simulate_epe_batch` call followed by **one**
:func:`~repro.metrology.epe.measure_epe_grouped_sparse` call.  Bins
cross request, clip, and engine boundaries — a mixed via+metal suite
from four engines collapses into a handful of batched litho calls — and
because batched results are bit-for-bit independent of the batch size,
the measurements are identical to re-measuring each mask alone.

The queue holds geometry, not rasters: an in-process outcome's item
keeps its final mask's polygons (:func:`final_mask`), and only a shard
payload's mask arrives as the raster its worker made.  A flush hands
its bin to ``simulate_epe_batch`` as a sequence, which rasterizes,
transforms and images one mask at a time and keeps only its band-limited
subgrid intensity, so a flush holds at most one full-grid raster (and
its spectrum) at a time.

Each item is planned when it is queued: :meth:`ShapeBinScheduler.add`
builds the stencil plan of the clip's measure points, and the item
holds it until it is measured.  The plan cache
(:func:`~repro.metrology.contour.plan_contour_stencils`) keeps no plan
alive on its own, so a verified request's plans go with it.

Verification is EPE-only, so the flush evaluates intensity solely at the
pixels under each clip's measure-point stencils: no ``printed_image``
and no full-grid inverse FFT is ever built.  The measured EPE agrees
with the dense ``simulate_batch`` + ``measure_epe_grouped`` pipeline
(kept as the test reference) to <= 1e-9 nm, far inside the service's
1e-6 nm drift gate, and ran 3.8-5.5x faster than it at bin sizes 1-16
(2-core host).

Verification can also *stream*: :meth:`ShapeBinScheduler.flush_ready`
drains only the bins that have already accumulated ``min_bin`` masks.
Its one caller is the always-on daemon's verifier thread
(:mod:`repro.service.daemon`), which verifies full bins while workers
are still optimizing and leaves stragglers for the terminal
:meth:`~ShapeBinScheduler.flush`.

The scheduler is thread-safe: the always-on daemon
(:mod:`repro.service.daemon`) adds outcomes and flushes from a dedicated
verifier thread while other threads read the counters for ``stats()``.
Queue mutations and counter updates happen under an internal lock; the
expensive litho/metrology calls run *outside* it, so a concurrent
``add`` never blocks behind a flush in progress.  A bin is popped from
the queue atomically before it is measured — two threads flushing
concurrently split the bins between them rather than measuring anything
twice.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Hashable

import numpy as np

from repro.geometry.layout import Clip
from repro.geometry.polygon import Polygon
from repro.geometry.raster import Grid, rasterize
from repro.geometry.segmentation import fragment_clip
from repro.litho.simulator import LithographySimulator
from repro.metrology.contour import ContourStencilPlan
from repro.metrology.epe import (  # noqa: F401
    measure_epe_grouped,  # perfbench's layer tracer hooks it here
    measure_epe_grouped_sparse,
    measure_stencil_plan,
)
from repro.service.faults import maybe_fault


def final_mask(outcome) -> "tuple[Polygon, ...] | np.ndarray | None":
    """Final mask of an optimization outcome, if recoverable.

    Edge-based engines carry a ``final_state``, whose mask is returned
    as its polygons; a shard payload (or a pixel engine) carries a
    rasterized ``mask_image``, returned as float64.
    """
    state = getattr(outcome, "final_state", None)
    if state is not None:
        return tuple(state.mask.mask_polygons())
    image = getattr(outcome, "mask_image", None)
    if image is not None:
        return np.asarray(image, dtype=np.float64)
    return None


def final_mask_image(outcome, grid: Grid) -> np.ndarray | None:
    """:func:`final_mask`, rasterized on ``grid``."""
    mask = final_mask(outcome)
    if mask is None or isinstance(mask, np.ndarray):
        return mask
    return rasterize(mask, grid)


@dataclass(frozen=True)
class VerifyItem:
    """One final mask queued for batched re-measurement: its polygons,
    or an ``(H, W)`` raster on ``grid``.

    ``plan`` is the stencil plan of the clip's measure points (``None``
    for a clip without any); :meth:`ShapeBinScheduler.add` fills it in,
    so a queued item holds its plan until it is measured.
    """

    key: Hashable
    clip: Clip
    grid: Grid
    mask: "tuple[Polygon, ...] | np.ndarray"
    epe_search_nm: float
    plan: ContourStencilPlan | None = None


@dataclass
class ShapeBinScheduler:
    """Queue of verification work, flushed one batched call per bin."""

    _bins: dict[tuple, list[VerifyItem]] = field(default_factory=dict)
    batch_calls: int = 0
    items_flushed: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, item: VerifyItem) -> None:
        """Plan ``item``'s measure points and queue it.

        The plan is built here, outside the lock, so a planning error
        reaches the caller that queued the mask and not a later flush.
        While the engine's outcome is alive its environment's plan of
        the same points is a cache hit.
        """
        maybe_fault("verifier.add", item.clip.name)
        search_nm = float(item.epe_search_nm)
        item = replace(item, plan=measure_stencil_plan(
            item.grid, fragment_clip(item.clip), search_nm=search_nm
        ))
        with self._lock:
            self._bins.setdefault((item.grid.shape, search_nm), []).append(
                item
            )

    def add_outcome(
        self,
        key: Hashable,
        clip: Clip,
        outcome,
        simulator: LithographySimulator,
        epe_search_nm: float,
    ) -> bool:
        """Queue an optimization outcome; ``False`` if its final mask is
        not recoverable (nothing to verify)."""
        mask = final_mask(outcome)
        if mask is None:
            return False
        self.add(VerifyItem(
            key=key, clip=clip, grid=simulator.grid_for(clip), mask=mask,
            epe_search_nm=epe_search_nm,
        ))
        return True

    @property
    def pending(self) -> int:
        with self._lock:
            return sum(len(members) for members in self._bins.values())

    @property
    def bin_count(self) -> int:
        with self._lock:
            return len(self._bins)

    def counters(self) -> dict[str, int]:
        """Consistent snapshot of the flush counters (for ``stats()``
        readers racing the verifier thread)."""
        with self._lock:
            return {
                "batch_calls": self.batch_calls,
                "items_flushed": self.items_flushed,
                "pending": sum(len(m) for m in self._bins.values()),
                "bins": len(self._bins),
            }

    def flush(self, simulator: LithographySimulator) -> dict[Hashable, float]:
        """Re-measure every queued mask: one ``simulate_epe_batch`` plus
        one ``measure_epe_grouped_sparse`` per (shape, search-range) bin.

        Returns ``{item.key: epe_nm}`` and empties the queue.  Bins keep
        insertion order, so repeated flushes of the same queue issue the
        same calls in the same order.
        """
        with self._lock:
            keys = list(self._bins)
        return self._flush_keys(simulator, keys)

    def flush_ready(
        self, simulator: LithographySimulator, min_bin: int = 1
    ) -> dict[Hashable, float]:
        """Flush only the bins holding at least ``min_bin`` masks.

        This is the streaming half of verification: while pool workers
        are still optimizing, the daemon's verifier drains any shape bin
        that has already filled up instead of waiting for the whole
        suite — see :class:`repro.service.daemon.MaskOptDaemon`.
        Bins below the threshold stay queued for a later ``flush_ready``
        or the terminal :meth:`flush`.  Because batched measurements are
        bit-for-bit independent of the batch composition, *when* a mask
        is flushed never changes its measured value.
        """
        if min_bin < 1:
            raise ValueError(f"min_bin must be >= 1, got {min_bin}")
        with self._lock:
            ready = [
                key for key, members in self._bins.items()
                if len(members) >= min_bin
            ]
        return self._flush_keys(simulator, ready)

    def discard(self, keys) -> int:
        """Drop queued items whose ``key`` is in ``keys`` without
        measuring them (pruning emptied bins); returns the number
        removed.  Used by aborted sweeps to take back their outcomes so
        a caller that catches the error and reuses the service doesn't
        inherit stale masks in its next verification pass.
        """
        wanted = set(keys)
        removed = 0
        with self._lock:
            for bin_key in list(self._bins):
                members = self._bins[bin_key]
                kept = [item for item in members if item.key not in wanted]
                removed += len(members) - len(kept)
                if kept:
                    self._bins[bin_key] = kept
                else:
                    del self._bins[bin_key]
        return removed

    def _flush_keys(
        self, simulator: LithographySimulator, keys: list[tuple]
    ) -> dict[Hashable, float]:
        """Flush the named bins (one batched litho + metrology call each,
        in queue insertion order) and drop them from the queue.

        Each bin is popped atomically before it is measured, and the
        litho/metrology calls run outside the lock — concurrent adds
        never wait on a flush, and a bin that another thread already
        took is simply skipped.
        """
        measured: dict[Hashable, float] = {}
        threshold = simulator.config.threshold
        for key in keys:
            maybe_fault("verifier.flush", str(key))
            with self._lock:
                members = self._bins.pop(key, None)
            if not members:
                continue
            # The plans made when the items were queued drive the sparse
            # gather; clips without measure points planned to None and
            # come back as empty reports.
            sparse = simulator.simulate_epe_batch(
                [item.mask for item in members], members[0].grid,
                [item.plan for item in members],
            )
            reports = measure_epe_grouped_sparse(sparse, threshold)
            for item, report in zip(members, reports):
                measured[item.key] = report.total_abs
            with self._lock:
                self.batch_calls += 1
                self.items_flushed += len(members)
        return measured
