"""Physical constants and project-wide defaults.

All lengths are in nanometres unless a name says otherwise.  The optical
settings follow the ICCAD-2013 mask-optimization contest conventions
(193 nm ArF immersion lithography), which is the regime the CAMO paper's
benchmarks and academic baselines target.
"""

from __future__ import annotations

from typing import Any

# --- Optics (193i, ICCAD-13 style) -----------------------------------------
WAVELENGTH_NM: float = 193.0
"""ArF excimer laser wavelength."""

NUMERICAL_APERTURE: float = 1.35
"""Immersion-lithography numerical aperture."""

PARTIAL_COHERENCE_SIGMA: float = 0.7
"""Partial-coherence factor of the circular illumination source."""

ANNULAR_SIGMA_IN: float = 0.5
ANNULAR_SIGMA_OUT: float = 0.8
"""Inner / outer sigma of the annular source option."""

RESIST_THRESHOLD: float = 0.225
"""Constant-threshold resist model cut level (ICCAD-13 value)."""

DEFOCUS_NM: float = 25.0
"""Defocus excursion used for the off-nominal process corners."""

DOSE_VARIATION: float = 0.02
"""Relative dose excursion (+/- 2%) for process corners."""

# --- Geometry / OPC ---------------------------------------------------------
PIXEL_NM: float = 4.0
"""Default rasterization pitch: one pixel is 4 nm x 4 nm."""

VIA_SIZE_NM: int = 70
"""Via pattern edge length (paper: 70 nm x 70 nm)."""

VIA_CLIP_NM: int = 2000
"""Via-layer clip edge length (paper: 2 um x 2 um)."""

METAL_CLIP_NM: int = 1500
"""Metal-layer clip edge length (paper: 1500 nm x 1500 nm)."""

MEASURE_SPACING_NM: int = 60
"""Measure-point spacing on metal primary-direction edges (paper value)."""

GRAPH_EDGE_THRESHOLD_NM: float = 250.0
"""Control points closer than this are connected in the segment graph."""

FEATURE_WINDOW_NM: float = 500.0
"""Squish-encoding neighbourhood window edge length around a control point."""

MOVE_SET_NM: tuple[int, ...] = (-2, -1, 0, 1, 2)
"""The five segment movements {m1..m5}; negative = inward, positive = outward."""

MAX_SEGMENT_OFFSET_NM: int = 24
"""Clamp on accumulated per-segment offset so polygons cannot self-invert."""

VIA_INITIAL_BIAS_NM: int = 3
"""Initial mask bias: every via edge starts 3 nm outward (paper setup)."""

# --- RL hyper-parameters (paper Section 4.1) --------------------------------
REWARD_EPSILON: float = 0.1
"""The small constant in the EPE term of the reward (Eq. 3)."""

REWARD_BETA: float = 1.0
"""Relative weight of the PV-band term in the reward (Eq. 3)."""

LEARNING_RATE: float = 3e-4
"""SGD learning rate used by the paper."""

MODULATOR_K: float = 0.02
MODULATOR_N: int = 4
MODULATOR_B: float = 1.0
"""Projection function f(x) = k x^n + b; paper uses 0.02 x^4 + 1."""

# --- Early exit / iteration limits (paper Sections 4.2, 4.3) ----------------
VIA_MAX_UPDATES: int = 10
VIA_EARLY_EXIT_EPE_PER_VIA: float = 4.0
METAL_MAX_UPDATES: int = 15
METAL_EARLY_EXIT_EPE_PER_POINT: float = 1.0

EPISODE_RULES: dict[str, dict[str, Any]] = {
    "via": {
        "max_updates": VIA_MAX_UPDATES,
        "early_exit_threshold": VIA_EARLY_EXIT_EPE_PER_VIA,
        "early_exit_mode": "per_target",
        "initial_bias_nm": VIA_INITIAL_BIAS_NM,
    },
    "metal": {
        "max_updates": METAL_MAX_UPDATES,
        "early_exit_threshold": METAL_EARLY_EXIT_EPE_PER_POINT,
        "early_exit_mode": "per_point",
        "initial_bias_nm": 0.0,
    },
}
"""Each layer's optimization episode, keyed by ``Clip.layer``: the update
budget, the early exit (mean |EPE| per via, or per measure point on
metal) and the initial mask bias.  The keys are the fields every engine
config (CAMO, RL-OPC, MB-OPC) shares, so a layer's engines are built
with ``Config(**EPISODE_RULES[layer], ...)``."""
