"""Engine registry: every OPC engine behind one constructor-by-name.

The service (and the ``python -m repro`` CLI) refer to engines by short
names; each name maps to a factory ``(simulator, overrides) -> engine``
building the engine's config dataclass from the override mapping, so a
request can carry plain ``{"max_updates": 5}``-style dictionaries
instead of importing config classes.  Every built engine has an
``optimize(clip, **kwargs)`` method whose result exposes ``epe_total``,
``pvband``, ``runtime_s``, ``steps`` and ``early_exited``.

Out of the box: ``camo`` (the paper's agent), ``mbopc`` (the
Calibre-like model-based baseline, alias ``calibre``), ``rlopc``,
``damo`` and ``ilt``.  Third-party engines join via
:func:`register_engine`.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import ServiceError
from repro.litho.simulator import LithographySimulator

EngineFactory = Callable[[LithographySimulator, dict], Any]

DEFAULT_EPE_SEARCH_NM = 40.0
"""Contour-search fallback for engines without the config knob."""


def engine_epe_search_nm(engine) -> float:
    """The contour-search range an engine's own metrology used.

    Engines without the config knob fall back to the shared default,
    mirroring what their environments do internally.  Lives here (not in
    the service module) so pool workers resolve the exact same range
    the in-process verification path does — a drifting duplicate would
    silently break the workers-vs-in-process bit-for-bit pin.
    """
    return float(
        getattr(getattr(engine, "config", None), "epe_search_nm",
                DEFAULT_EPE_SEARCH_NM)
    )


def _camo(simulator: LithographySimulator, overrides: dict):
    from repro.core.agent import CAMO
    from repro.core.config import CamoConfig

    return CAMO(CamoConfig(**overrides), simulator)


def _mbopc(simulator: LithographySimulator, overrides: dict):
    from repro.baselines.mbopc import MBOPC, MBOPCConfig

    return MBOPC(MBOPCConfig(**overrides), simulator)


def _rlopc(simulator: LithographySimulator, overrides: dict):
    from repro.baselines.rlopc import RLOPC, RLOPCConfig

    return RLOPC(RLOPCConfig(**overrides), simulator)


def _damo(simulator: LithographySimulator, overrides: dict):
    from repro.baselines.damo import DamoConfig, DamoLikeOPC

    return DamoLikeOPC(DamoConfig(**overrides), simulator)


def _ilt(simulator: LithographySimulator, overrides: dict):
    from repro.baselines.ilt import ILTConfig, PixelILT

    return PixelILT(ILTConfig(**overrides), simulator)


_REGISTRY: dict[str, EngineFactory] = {
    "camo": _camo,
    "mbopc": _mbopc,
    "calibre": _mbopc,
    "rlopc": _rlopc,
    "damo": _damo,
    "ilt": _ilt,
}


def available_engines() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def register_engine(
    name: str, factory: EngineFactory, overwrite: bool = False
) -> None:
    """Add (or replace, with ``overwrite=True``) an engine factory."""
    if not name or not isinstance(name, str):
        raise ServiceError(f"engine name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not overwrite:
        raise ServiceError(
            f"engine {name!r} is already registered; pass overwrite=True "
            "to replace it"
        )
    if not callable(factory):
        raise ServiceError(f"engine factory for {name!r} is not callable")
    _REGISTRY[name] = factory


def create_engine(
    name: str,
    simulator: LithographySimulator,
    overrides: Mapping[str, Any] | None = None,
):
    """Build a registered engine against ``simulator``.

    ``overrides`` are keyword arguments for the engine's config
    dataclass; unknown fields surface as the config's own ``TypeError``
    / ``ConfigError`` so typos fail loudly at request time, not inside a
    batch.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ServiceError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(available_engines())}"
        )
    try:
        return factory(simulator, dict(overrides or {}))
    except TypeError as exc:
        raise ServiceError(
            f"bad overrides for engine {name!r}: {exc}"
        ) from exc


def build_engine(
    spec: str | EngineFactory,
    simulator: LithographySimulator,
    overrides: Mapping[str, Any] | None = None,
):
    """Build an engine from a *buildable spec*: a registry name or a
    factory callable with the :data:`EngineFactory` signature.

    This is the constructor pool workers run — the spec (unlike an
    engine instance) is picklable, so it can cross a process boundary
    and be rebuilt against the worker's own simulator.  Registrations
    made with :func:`register_engine` are per-process and do *not*
    travel to spawned workers; pass the factory itself instead.
    """
    if isinstance(spec, str):
        return create_engine(spec, simulator, overrides)
    if callable(spec):
        return spec(simulator, dict(overrides or {}))
    raise ServiceError(
        "engine spec must be a registry name or a factory callable, got "
        f"{type(spec).__name__}"
    )


def spec_label(spec: str | EngineFactory) -> str:
    """Display label for a buildable engine spec."""
    if isinstance(spec, str):
        return spec
    return getattr(spec, "__name__", type(spec).__name__)


def overrides_key(
    overrides: Mapping[str, Any] | None,
) -> tuple[tuple[str, str], ...]:
    """Canonical hashable key for an override mapping: sorted
    ``(name, repr(value))`` pairs.

    One definition for every identity built on overrides — the
    service's engine cache key, the daemon's pool cache key, and the
    journal's engine fingerprint
    (:meth:`~repro.service.sharding.EngineSpec.fingerprint`) all must
    agree,
    or "same spec" would mean different things to different layers.
    """
    return tuple(
        sorted((str(k), repr(v)) for k, v in dict(overrides or {}).items())
    )
