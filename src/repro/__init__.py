"""repro — a full reproduction of CAMO (DAC 2024).

CAMO: Correlation-Aware Mask Optimization with Modulated Reinforcement
Learning.  This package bundles the paper's contribution (the CAMO agent in
:mod:`repro.core`) together with every substrate it depends on: rectilinear
geometry and edge-based mask editing, a Hopkins/SOCS lithography simulator,
EPE / PV-band metrology, squish-pattern feature encoding, a numpy autograd
neural-network framework, policy-gradient RL, baseline OPC engines, and the
via / metal benchmark suites with the experiment harness that regenerates
every table and figure of the paper.

The public entry point is the :mod:`repro.service` front door — typed
``OptRequest`` / ``OptResult`` records, an engine registry, and a
``MaskOptService`` whose verification pass batches litho work across
clips and engines — also exposed on the command line as
``python -m repro`` (``optimize``, ``table``, ``bench-info``).

Quickstart::

    from repro import quick_opc
    result = quick_opc()            # optimize a tiny via clip with CAMO
    print(result.summary())

or, equivalently, from a shell::

    python -m repro optimize --suite tiny
"""

import repro._malloc  # noqa: F401  (fixes glibc's malloc thresholds)
from repro.version import __version__

__all__ = ["__version__", "quick_opc"]


def quick_opc():
    """Run CAMO end-to-end on a tiny generated via clip (lazy import)."""
    from repro.eval.quick import quick_opc as _quick_opc

    return _quick_opc()
