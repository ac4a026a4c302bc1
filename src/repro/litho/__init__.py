"""Partially-coherent lithography simulation substrate.

The paper evaluates masks with a Calibre-compatible simulator from an
industry partner.  We reproduce the same physics class used by the academic
baselines (ICCAD-2013 contest style): Hopkins imaging decomposed into a sum
of coherent systems (SOCS).  The transmission cross coefficient (TCC) is
built *frequency-natively* — directly on each simulation grid's DFT
frequency lattice — and eigendecomposed into exactly band-limited kernel
spectra.  Those per-grid band spectra are the only kernel representation
(persisted by :class:`KernelSpectraStore`), and one pupil-band subgrid
engine convolves them on every grid; where the band covers the grid the
subgrid is the grid itself.  A constant-threshold resist model with
dose/defocus process corners yields printed contours and the PV band.
"""

from repro.litho.source import SourceSpec, source_weights
from repro.litho.pupil import pupil_function
from repro.litho.tcc import build_tcc, build_tcc_grid, socs_spectra
from repro.litho.kernels import (
    GridBandSpectra,
    OpticalKernelSet,
    build_kernel_set,
    next_fast_len,
)
from repro.litho.resist import printed_image
from repro.litho.process import ProcessCorner, nominal_corner, standard_corners
from repro.litho.simulator import LithographySimulator, LithoConfig, LithoResult
from repro.litho.store import KernelSpectraStore, open_store, optics_fingerprint

__all__ = [
    "next_fast_len",
    "SourceSpec",
    "source_weights",
    "pupil_function",
    "build_tcc",
    "build_tcc_grid",
    "socs_spectra",
    "GridBandSpectra",
    "OpticalKernelSet",
    "build_kernel_set",
    "printed_image",
    "ProcessCorner",
    "nominal_corner",
    "standard_corners",
    "LithographySimulator",
    "LithoConfig",
    "LithoResult",
    "KernelSpectraStore",
    "open_store",
    "optics_fingerprint",
]
