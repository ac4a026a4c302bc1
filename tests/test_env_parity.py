"""The OPC environment's sparse metrology against the dense reference.

``OPCEnvironment`` never builds a dense nominal aerial: EPE and segment
EPE come from the nominal intensity lifted at its stencil pixels, and
only the defocus corner is resampled densely (for the PV band).  Here
every evaluated state is re-simulated through the single-mask spatial
reference (``simulate_mask``) and measured with the dense metrology
(``measure_epe`` / ``segment_epe`` / the PV-band image):

* EPE and segment EPE within 1e-9 nm of the reference;
* PV-band pixel counts identical.

Clips V1, V9 (via) and M1, M4 (metal) at paper pixel pitch, at the start
state and after three seeded random move sets, under every installed
array backend.
"""

import numpy as np
import pytest

from repro.backend import scipy_fft_available, torch_available
from repro.data.metal_bench import metal_test_suite
from repro.data.via_bench import via_test_suite
from repro.geometry import rasterize
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.metrology.epe import measure_epe, segment_epe
from repro.metrology.pvband import pvband_image
from repro.rl.env import OPCEnvironment

EPE_TOLERANCE_NM = 1e-9

BACKENDS = (
    ["numpy"]
    + (["scipy"] if scipy_fft_available() else [])
    + (["torch"] if torch_available() else [])
)


@pytest.fixture(scope="module", params=BACKENDS)
def sim(request):
    return LithographySimulator(LithoConfig(
        backend=request.param,
        fft_workers=2 if request.param == "scipy" else 1,
    ))


def _clip(name):
    suite = via_test_suite() if name.startswith("V") else metal_test_suite()
    return next(clip for clip in suite if clip.name == name)


def _trajectory(env, seed, moves=3):
    """The start state, then ``moves`` seeded random move sets."""
    rng = np.random.default_rng(seed)
    states = [env.reset()]
    for _ in range(moves):
        actions = rng.integers(0, env.n_actions, size=env.n_segments)
        states.append(env.step(states[-1], actions)[0])
    return states


@pytest.mark.parametrize("name", ["V1", "V9", "M1", "M4"])
def test_env_metrology_matches_dense_reference(sim, name):
    env = OPCEnvironment(_clip(name), sim, initial_bias_nm=3.0)
    threshold = sim.config.threshold
    for state in _trajectory(env, seed=sum(map(ord, name))):
        mask = rasterize(state.mask.mask_polygons(), env.grid)
        reference = sim.simulate_mask(mask, env.grid)
        epe = measure_epe(
            reference.aerial, env.grid, env.segments, threshold,
            search_nm=env.epe_search_nm,
        )
        seg = segment_epe(
            reference.aerial, env.grid, env.segments, threshold,
            search_nm=env.epe_search_nm,
        )
        assert state.epe.count == epe.count > 0
        assert np.abs(state.epe.values - epe.values).max() < EPE_TOLERANCE_NM
        assert state.seg_epe.shape == seg.shape == (env.n_segments,)
        assert np.abs(state.seg_epe - seg).max() < EPE_TOLERANCE_NM
        pixels = pvband_image(state.litho.inner, state.litho.outer).sum()
        assert pixels == pvband_image(reference.inner, reference.outer).sum()
        assert state.pvband == pixels * env.grid.pixel_nm ** 2
