"""EPE and PV-band metrology.

Sign convention (used consistently across the project, matching the
modulator discussion in the paper): **positive EPE means the printed
contour lies outside the target edge** (intensity overflow — the segment
should move inward), negative EPE means the contour is inside (lack of
intensity — move outward).

Every EPE measurement samples the aerial through one
:class:`~repro.metrology.contour.ContourStencilPlan` per geometry: the
litho engine evaluates intensity at the plan's pixels only
(:func:`~repro.metrology.epe.measure_epe_grouped_sparse`), or a dense
``(..., H, W)`` aerial is gathered at them
(:func:`contour_offset_along_normal`, :func:`measure_epe` and the
``*_batch`` / grouped forms).  Either way all profiles resolve in one
vectorized pass, so one batched lithography call is followed by one
batched metrology call.  :func:`contour_offset_reference` is the
independent scalar reference.
"""

from repro.metrology.contour import (
    contour_offset_along_normal,
    contour_offset_reference,
)
from repro.metrology.epe import (
    EPEReport,
    measure_epe,
    measure_epe_batch,
    measure_epe_grouped,
    segment_epe,
    segment_epe_batch,
)
from repro.metrology.pvband import pvband_area, pvband_area_batch, pvband_image

__all__ = [
    "contour_offset_along_normal",
    "contour_offset_reference",
    "EPEReport",
    "measure_epe",
    "measure_epe_batch",
    "measure_epe_grouped",
    "segment_epe",
    "segment_epe_batch",
    "pvband_area",
    "pvband_area_batch",
    "pvband_image",
]
