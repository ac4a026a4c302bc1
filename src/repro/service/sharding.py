"""Picklable engine specs and outcomes: what crosses a process boundary.

Process-parallel execution (:meth:`~repro.service.service.MaskOptService.
run_suite` with ``workers > 1`` or a journal, and
:class:`~repro.service.daemon.MaskOptDaemon`) runs engines in
spawned worker processes of a :class:`~repro.service.workqueue.
WorkStealingPool`.  Two records make that possible:

* :class:`EngineSpec` — everything a worker needs to rebuild an engine:
  litho config + registry name (or factory callable) + overrides.
  Workers are started with the ``spawn`` method, so nothing inherited
  matters; each rebuilds its engine from the spec, never from a forked
  copy of live state.  The spec's
  :class:`~repro.litho.simulator.LithoConfig` carries ``spectra_store=``
  (the CLI wires ``$REPRO_SPECTRA_STORE`` into it), so all workers share
  one on-disk kernel-spectra store (:mod:`repro.litho.store`).  Its
  :meth:`~EngineSpec.fingerprint` keys every journal record.
* :class:`OptOutcome` — an engine's outcome flattened for the wire:
  reported numbers plus the final mask rasterized on the clip's grid, so
  the parent can verify it without the engine object.

Numbers never change across processes: each ``optimize(clip)`` runs
against an engine/simulator pair that is bit-for-bit deterministic from
the spec, and the mask is rasterized on the same per-clip grid the
parent would use — so *which* worker runs a clip is irrelevant
(``tests/test_service_sharding.py`` pins this).  That requires engines
whose ``optimize`` is per-clip deterministic and stateless across calls,
which every registry engine is.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import ServiceError
from repro.geometry.layout import Clip
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.service.registry import build_engine, overrides_key, spec_label
from repro.service.scheduler import final_mask_image

FINGERPRINT_EXCLUDED_LITHO_FIELDS = ("spectra_store",)
"""Deployment knobs that change no number: the spectra store changes no
bit, so a journal moves between store paths.  ``LithoConfig``'s
``backend`` is an init-only check, not a field, so it never enters a
fingerprint either."""


@dataclass(frozen=True)
class OptOutcome:
    """Engine-agnostic, picklable outcome of one ``optimize(clip)`` call.

    This is the payload shard workers stream back over the result queue:
    the engine's reported numbers, the contour search range its own
    metrology used (so the parent can bin verification without the
    engine object), and the final mask rasterized on the clip's grid
    (``final_mask_image`` recovers it, exactly as it would from the raw
    outcome).  It quacks like the raw outcome everywhere the service
    needs one — ``epe_total``, ``pvband``, ``runtime_s``, ``steps``,
    ``early_exited``, ``mask_image``.
    """

    clip_name: str
    epe_total: float
    pvband: float
    runtime_s: float
    steps: int
    early_exited: bool
    epe_search_nm: float
    mask_image: np.ndarray | None = field(repr=False, default=None)
    epe_curve: tuple[float, ...] = ()
    worker: int = 0

    @classmethod
    def from_raw(
        cls, raw, clip: Clip, simulator: LithographySimulator,
        epe_search_nm: float, worker: int = 0, capture_mask: bool = True,
    ) -> "OptOutcome":
        """Flatten any engine's outcome object for the wire.

        ``capture_mask=False`` skips the rasterization and ships no mask
        — the right call when the parent runs with verification off and
        would only discard the (multi-MB at large grids) array.
        """
        return cls(
            clip_name=clip.name,
            epe_total=float(raw.epe_total),
            pvband=float(raw.pvband),
            runtime_s=float(raw.runtime_s),
            steps=int(raw.steps),
            early_exited=bool(raw.early_exited),
            epe_search_nm=float(epe_search_nm),
            mask_image=(
                final_mask_image(raw, simulator.grid_for(clip))
                if capture_mask else None
            ),
            epe_curve=tuple(
                float(v) for v in getattr(raw, "epe_curve", ()) or ()
            ),
            worker=worker,
        )


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker needs to rebuild its engine, picklably.

    ``engine`` is a registry name or a factory callable
    ``(simulator, overrides) -> engine`` (picklable by qualified name —
    a module-level function, not a lambda or a bound method); engine
    *instances* are rejected here, eagerly, instead of dying later
    inside ``Process.start`` with an opaque pickling error.
    """

    engine: str | Callable
    litho: LithoConfig
    overrides: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.engine, str) and not callable(self.engine):
            raise ServiceError(
                "EngineSpec.engine must be a registry name or a factory "
                f"callable, got a {type(self.engine).__name__} instance; "
                "engines cannot cross a process boundary — pass the spec "
                "that builds them"
            )
        if not isinstance(self.litho, LithoConfig):
            raise ServiceError(
                f"EngineSpec.litho must be a LithoConfig, got "
                f"{type(self.litho).__name__}"
            )

    @property
    def label(self) -> str:
        return spec_label(self.engine)

    def fingerprint(self) -> str:
        """Stable 16-hex-digit identity of the *numbers* this spec
        produces: engine label + overrides + litho physics.

        This is the key the outcome journal stamps on every record, so
        ``resume`` can refuse to merge results computed under a different
        spec.  Deployment knobs (:data:`FINGERPRINT_EXCLUDED_LITHO_FIELDS`)
        are excluded — moving a journal between store paths must not
        orphan it.
        """
        # "seed=None" is kept verbatim so journals written before specs
        # lost their seed field still resume.
        parts = [f"engine={self.label}", "seed=None"]
        parts.extend(
            f"opt.{name}={value!r}" for name, value in
            overrides_key(dict(self.overrides))
        )
        parts.extend(
            f"litho.{field_.name}={getattr(self.litho, field_.name)!r}"
            for field_ in dataclasses.fields(self.litho)
            if field_.name not in FINGERPRINT_EXCLUDED_LITHO_FIELDS
        )
        digest = hashlib.sha256("|".join(parts).encode("utf-8"))
        return digest.hexdigest()[:16]

    def build(self) -> tuple[Any, LithographySimulator]:
        """Construct the (engine, simulator) pair this spec describes."""
        simulator = LithographySimulator(self.litho)
        return build_engine(self.engine, simulator, dict(self.overrides)), \
            simulator
