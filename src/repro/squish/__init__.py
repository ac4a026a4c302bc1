"""Squish-pattern layout encoding (Fig. 3 of the paper).

A squish pattern compresses a layout window into a small topology matrix
``M`` plus geometry vectors ``delta_x`` / ``delta_y`` holding the grid
spacings in nanometres.  The *adaptive* squish pattern re-grids ``(M, dx,
dy)`` to a fixed tensor shape so a neural network can consume windows of
arbitrary complexity.  CAMO stacks two such tensors: one for the current
mask, one with extra scanlines at the target-pattern edges to highlight
edge movements — six channels in total.
"""

from repro.squish.scanlines import scanline_positions
from repro.squish.squish import SquishPattern, encode_squish
from repro.squish.adaptive import adaptive_squish_tensor
from repro.squish.features import NodeFeatureEncoder, PackedFeatures

__all__ = [
    "scanline_positions",
    "SquishPattern",
    "encode_squish",
    "adaptive_squish_tensor",
    "NodeFeatureEncoder",
    "PackedFeatures",
]
