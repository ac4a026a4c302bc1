"""Fixed glibc malloc thresholds for the numpy temporaries of the hot path.

Every policy forward allocates and frees a few multi-MB numpy arrays
(the im2col columns and padded inputs of each convolution), and every
litho call a few more.  Out of the box glibc adapts its mmap threshold
to the largest block freed so far and trims the top of the heap once
twice that much lies free there.  Whether a forward's temporaries are
then served from memory the process already holds or mapped and
page-faulted afresh depends on the allocation history: on the metal
CAMO sweep one process took ~200k minor faults per pass (0.15 s of
system time, a quarter of the pass) where another took none, and
unrelated changes in allocation order switched between the two.

Importing :mod:`repro` therefore fixes both thresholds at the largest
values glibc adapts to on its own (a 32 MiB mmap threshold, twice that
for trimming).  Temporaries up to 32 MiB are reused from the heap, every
pass of the sweep takes the same fault-free path, and peak RSS is
unchanged: memory already freed stays mapped instead of being returned
and faulted in again.  On other C libraries this module does nothing.
"""

from __future__ import annotations

import ctypes
import platform
import sys

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024
"""glibc's ceiling for its adaptive mmap threshold on 64-bit hosts."""


def fix_thresholds() -> bool:
    """Set the thresholds; True when glibc accepted both."""
    if not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return bool(
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
        and mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_BYTES)
    )


fix_thresholds()
