"""Projection pupil with paraxial defocus.

The pupil is an ideal low-pass disk of radius ``NA / wavelength``.  Defocus
is modelled with the standard paraxial quadratic phase
``exp(-i * pi * wavelength * z * |f|^2)``, which is accurate to a fraction
of a wave for the small (tens of nm) defocus excursions the process corners
use.
"""

from __future__ import annotations

import numpy as np

from repro.constants import NUMERICAL_APERTURE, WAVELENGTH_NM
from repro.errors import LithoError


def pupil_support(
    freqs: np.ndarray,
    wavelength_nm: float = WAVELENGTH_NM,
    numerical_aperture: float = NUMERICAL_APERTURE,
) -> np.ndarray:
    """``(n,)`` bool: which ``(n, 2)`` frequency samples (cycles/nm) lie
    inside the pupil disk ``|f| <= NA / wavelength``."""
    if wavelength_nm <= 0 or numerical_aperture <= 0:
        raise LithoError("wavelength and NA must be positive")
    cutoff = numerical_aperture / wavelength_nm
    return freqs[:, 0] ** 2 + freqs[:, 1] ** 2 <= cutoff * cutoff


def pupil_function(
    freqs: np.ndarray,
    defocus_nm: float = 0.0,
    wavelength_nm: float = WAVELENGTH_NM,
    numerical_aperture: float = NUMERICAL_APERTURE,
) -> np.ndarray:
    """Complex pupil transmission at the given frequency samples.

    Args:
        freqs: ``(n, 2)`` spatial-frequency samples (cycles/nm).
        defocus_nm: Focal-plane offset ``z``; 0 for nominal focus.
        wavelength_nm: Exposure wavelength.
        numerical_aperture: Projection-lens NA.

    Returns:
        ``(n,)`` complex array: 0 outside the pupil disk, unit-magnitude
        (defocus phase only) inside.
    """
    inside = pupil_support(freqs, wavelength_nm, numerical_aperture)
    f_sq = freqs[:, 0] ** 2 + freqs[:, 1] ** 2
    phase = np.exp(-1j * np.pi * wavelength_nm * defocus_nm * f_sq)
    return np.where(inside, phase, 0.0 + 0.0j)
