"""Exception hierarchy for the CAMO reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch package-specific failures without masking programming
errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GeometryError(ReproError):
    """Invalid geometric input (degenerate rects, non-rectilinear polygons...)."""


class RasterError(ReproError):
    """Rasterization failure (empty grids, out-of-window geometry...)."""


class SegmentationError(ReproError):
    """Boundary fragmentation failure (segments too short, bad spacing...)."""


class LithoError(ReproError):
    """Lithography model failure (bad kernels, non-converged TCC...)."""


class MetrologyError(ReproError):
    """EPE / PV-band measurement failure (no contour crossing found...)."""


class SquishError(ReproError):
    """Squish-pattern encoding failure (window too small, overflow...)."""


class GraphError(ReproError):
    """Segment-graph construction failure."""


class NNError(ReproError):
    """Neural-network framework failure (shape mismatch, detached grads...)."""


class RLError(ReproError):
    """Reinforcement-learning loop failure."""


class DataError(ReproError):
    """Benchmark-suite generation or (de)serialization failure."""


class ConfigError(ReproError):
    """Invalid configuration value."""


class ServiceError(ReproError):
    """Mask-optimization service failure (bad request, unknown engine...)."""


class ServiceBusy(ServiceError):
    """Admission control rejected a request: the tenant's queue is at its
    bounded depth.  Callers should back off and resubmit — the daemon
    sheds load explicitly instead of buffering without bound."""


class RetriesExhausted(ServiceError):
    """A request's task kept hitting infrastructure faults (worker
    crashes, stall kills) until its retry budget ran out.  Distinct from
    a generic :class:`ServiceError` so callers can tell "the
    infrastructure gave up after N attempts" from "the request itself
    was bad"."""


class DeadlineExceeded(ServiceError):
    """A request's per-request deadline elapsed before its task
    completed (queued, running, or retrying).  The task's eventual
    late result, if any, is discarded — deduplicated by ticket — so a
    deadline failure can never be followed by a surprise success."""


class FaultInjected(ServiceError):
    """Raised by a :class:`repro.service.faults.FaultPlan` ``raise``
    action at a named injection point — only ever seen in fault-
    injection tests and chaos runs, never in production paths."""


class JournalError(ServiceError):
    """Outcome-journal failure: not a journal file, an engine
    fingerprint that doesn't match the requested spec, or an append to
    a closed journal.  (A *corrupt tail* is not an error — it is
    truncated on open, by design.)"""
