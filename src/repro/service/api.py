"""Typed request/response records of the mask-optimization service.

:class:`OptRequest` is the unit of work a caller hands to
:class:`~repro.service.service.MaskOptService`; :class:`OptResult` is
what comes back.  Both are plain dataclasses so they serialize trivially
(``OptResult.to_dict`` feeds the CLI's ``--json`` output) and carry no
behaviour beyond validation — scheduling, engine construction, and
metrology live in the service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ServiceError
from repro.geometry.layout import Clip


@dataclass(frozen=True)
class OptRequest:
    """One clip to optimize.

    Attributes:
        clip: The layout window to correct.
        engine: A registry name (``"camo"``, ``"mbopc"`` /
            ``"calibre"``, ``"rlopc"``, ``"damo"`` — see
            :mod:`repro.service.registry`), a factory callable
            ``(simulator, overrides) -> engine`` (the picklable spec
            worker processes of the daemon need), or an
            already-constructed engine instance (anything with
            ``optimize(clip, **kwargs)``).
        engine_overrides: Config-field overrides applied when the engine
            is built from a registry name or factory (rejected for
            instances, which arrive fully configured).
        optimize_kwargs: Extra keyword arguments forwarded to
            ``engine.optimize`` (e.g. ``max_updates=``).
        verify: Whether this request participates in the shape-binned
            batched re-simulation cross-check after optimization.  The
            re-measurement uses the contour search range of the engine's
            own config (``epe_search_nm``, else the shared 40 nm
            default), so a correctly-reporting engine is never flagged
            as drifting.
        retries: Extra attempts the daemon may make after an
            infrastructure fault (worker crash, stall kill) on this
            request; ``None`` uses the daemon's default.  Engine
            exceptions are never retried — deterministic engines fail
            identically on every attempt.
        deadline_s: Wall-clock budget from dispatch; once elapsed the
            request fails with :class:`~repro.errors.DeadlineExceeded`
            and any late result is discarded.  ``None`` (default) means
            no deadline.
    """

    clip: Clip
    engine: Any = "mbopc"
    engine_overrides: Mapping[str, Any] = field(default_factory=dict)
    optimize_kwargs: Mapping[str, Any] = field(default_factory=dict)
    verify: bool = True
    retries: int | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.clip, Clip):
            raise ServiceError(
                f"OptRequest.clip must be a Clip, got {type(self.clip).__name__}"
            )
        if isinstance(self.engine, str) and not self.engine:
            raise ServiceError("OptRequest.engine name must be non-empty")
        if not isinstance(self.engine, str):
            is_instance = callable(getattr(self.engine, "optimize", None))
            if not is_instance and not callable(self.engine):
                raise ServiceError(
                    "OptRequest.engine must be a registry name, a factory "
                    "callable, or an object with an optimize(clip) method"
                )
            if is_instance and self.engine_overrides:
                raise ServiceError(
                    "engine_overrides only apply to registry- or factory-"
                    "built engines; configure the instance directly instead"
                )
        if self.retries is not None and (
            not isinstance(self.retries, int) or self.retries < 0
        ):
            raise ServiceError(
                f"retries must be a non-negative integer, got "
                f"{self.retries!r}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ServiceError(
                f"deadline_s must be positive, got {self.deadline_s!r}"
            )

    @property
    def engine_label(self) -> str:
        """Human-readable engine identifier for results and logs."""
        if isinstance(self.engine, str):
            return self.engine
        if callable(getattr(self.engine, "optimize", None)):
            return getattr(self.engine, "name", type(self.engine).__name__)
        return getattr(self.engine, "__name__", type(self.engine).__name__)


VERIFICATION_OUTCOMES = ("verified", "unverified", "unverifiable")
"""The three terminal verification states of a request (see
:attr:`OptResult.outcome`)."""


@dataclass(frozen=True)
class OptResult:
    """The service's answer for one :class:`OptRequest`.

    ``epe_nm`` / ``pvband_nm2`` are the numbers the engine itself
    reported; ``verified_epe_nm`` is the shape-binned batched
    re-simulation's independent measurement (``None`` when verification
    was skipped) — the service raises
    :class:`~repro.errors.MetrologyError` before returning if the two
    drift apart, so a populated field certifies agreement.

    ``outcome`` states how verification ended: ``"verified"`` (the
    re-measurement ran and agreed), ``"unverified"`` (the caller opted
    out), or ``"unverifiable"`` (verification was requested but the
    engine's final mask could not be recovered — neither a
    ``final_state`` nor a ``mask_image`` on its outcome — so no
    independent number exists; callers who require certification must
    treat this as a failure, the service won't silently drop it).
    """

    request_id: int
    clip_name: str
    engine: str
    epe_nm: float
    pvband_nm2: float
    runtime_s: float
    steps: int
    early_exited: bool
    verified_epe_nm: float | None = None
    outcome: str = "unverified"
    raw_outcome: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.outcome not in VERIFICATION_OUTCOMES:
            raise ServiceError(
                f"OptResult.outcome must be one of {VERIFICATION_OUTCOMES}, "
                f"got {self.outcome!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (drops the in-memory outcome object)."""
        return {
            "request_id": self.request_id,
            "clip": self.clip_name,
            "engine": self.engine,
            "epe_nm": self.epe_nm,
            "pvband_nm2": self.pvband_nm2,
            "runtime_s": self.runtime_s,
            "steps": self.steps,
            "early_exited": self.early_exited,
            "verified_epe_nm": self.verified_epe_nm,
            "outcome": self.outcome,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OptResult":
        """Rebuild a result from its :meth:`to_dict` form — the journal
        replay path.  ``raw_outcome`` does not survive the round trip
        (it was never serialized); everything the drift check certified
        does."""
        try:
            return cls(
                request_id=int(data["request_id"]),
                clip_name=str(data["clip"]),
                engine=str(data["engine"]),
                epe_nm=float(data["epe_nm"]),
                pvband_nm2=float(data["pvband_nm2"]),
                runtime_s=float(data["runtime_s"]),
                steps=int(data["steps"]),
                early_exited=bool(data["early_exited"]),
                verified_epe_nm=(
                    None if data.get("verified_epe_nm") is None
                    else float(data["verified_epe_nm"])
                ),
                outcome=str(data.get("outcome", "unverified")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"bad OptResult record: {exc}"
            ) from exc
