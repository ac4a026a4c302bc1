"""Golden-image regression suite for the lithography engine.

Committed ``.npz`` references (see ``tests/golden/generate.py``) pin the
aerial and printed images of two canonical benchmark clips.  Any litho
refactor — batching, caching, transform changes — that shifts an
intensity by more than 1e-9 fails here, and both the single-mask spatial
reference and the unified band-limited batched engine are held to the
same references.
"""

import os

import numpy as np
import pytest

from repro.litho.simulator import LithoConfig, LithographySimulator

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_CASES = ("via_v1", "metal_m1")
MAX_ABS_ERROR = 1e-9


@pytest.fixture(scope="module")
def simulator():
    # Must match tests/golden/generate.py: GOLDEN_CONFIG.
    return LithographySimulator(
        LithoConfig(pixel_nm=8.0, max_kernels=8, backend="numpy")
    )


def load_golden(case: str):
    path = os.path.join(GOLDEN_DIR, f"{case}.npz")
    assert os.path.exists(path), (
        f"missing golden file {path}; run "
        "`PYTHONPATH=src python tests/golden/generate.py`"
    )
    return np.load(path)


def grid_for(simulator, mask: np.ndarray):
    from repro.geometry.raster import Grid

    rows, cols = mask.shape
    return Grid(0.0, 0.0, simulator.config.pixel_nm, rows, cols)


def assert_aerials_match(result, data):
    assert np.abs(result.aerial - data["aerial"]).max() < MAX_ABS_ERROR
    assert (
        np.abs(result.aerial_defocus - data["aerial_defocus"]).max()
        < MAX_ABS_ERROR
    )


@pytest.mark.parametrize("case", GOLDEN_CASES)
class TestGoldenImages:
    def test_single_mask_path(self, simulator, case):
        data = load_golden(case)
        mask = data["mask"]
        result = simulator.simulate_mask(mask, grid_for(simulator, mask))
        assert_aerials_match(result, data)
        for corner in ("nominal", "inner", "outer"):
            assert np.array_equal(
                result.printed[corner], data[f"printed_{corner}"]
            )

    def test_batched_path(self, simulator, case):
        """The unified band engine answers to the same golden references."""
        data = load_golden(case)
        mask = data["mask"]
        result = simulator.simulate_batch(
            mask[None], grid_for(simulator, mask)
        )[0]
        assert_aerials_match(result, data)
        for corner in ("nominal", "inner", "outer"):
            assert np.array_equal(
                result.printed[corner], data[f"printed_{corner}"]
            )

    def test_printed_images_nontrivial(self, simulator, case):
        """Guard against a silently-empty golden: every corner must print
        at least one pixel and stay binary."""
        data = load_golden(case)
        for corner in ("nominal", "inner", "outer"):
            printed = data[f"printed_{corner}"]
            assert printed.sum() > 0
            assert set(np.unique(printed)) <= {0, 1}
