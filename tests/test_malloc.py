"""Importing repro fixes glibc's malloc thresholds, so multi-MB numpy
temporaries freed by one pass are reused by the next without page faults."""

import platform
import resource
import sys

import numpy as np
import pytest

import repro  # noqa: F401
from repro import _malloc

glibc_only = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="mallopt thresholds are glibc-specific",
)


@glibc_only
def test_repeated_temporaries_take_no_page_faults():
    # Three live 10 MB arrays per pass: with glibc's adaptive thresholds
    # the 30 MB they free exceeds the trim threshold (twice the 10 MB
    # mmap threshold), the heap top is returned, and every pass faults
    # ~7500 pages back in.
    def one_pass():
        arrays = [np.ones(10 * 2**20 // 8) for _ in range(3)]
        del arrays

    for _ in range(2):
        one_pass()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(4):
        one_pass()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 500


@glibc_only
def test_glibc_accepts_the_thresholds():
    assert _malloc.fix_thresholds()
