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

The defocus corner is imaged only when a PV band is read.  The laziness
pins count its dense resamples through a whole MB-OPC and greedy CAMO
run (one, for the final state), and hold PV bands read row by row, in
reverse order, to the eager whole-batch pipeline bit for bit.
"""

import numpy as np
import pytest

from repro.backend import scipy_fft_available, torch_available
from repro.baselines.mbopc import MBOPC, MBOPCConfig
from repro.core.agent import CAMO
from repro.core.config import CamoConfig
from repro.data.metal_bench import metal_test_suite
from repro.data.via_bench import via_test_suite
from repro.geometry import rasterize
from repro.litho.kernels import OpticalKernelSet
from repro.litho.polygon_band import polygon_band_subgrid
from repro.litho.resist import printed_image
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.metrology.epe import measure_epe, segment_epe
from repro.metrology.pvband import pvband_area_batch, pvband_image
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
        states.append(env.step(states[-1], actions))
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


@pytest.fixture
def defocus_resamples(sim, monkeypatch):
    """A list that grows by one per dense resample of the defocus corner."""
    defocus_set = sim.kernel_set(sim.corners()[1].defocus_nm)
    resample = OpticalKernelSet.resample_intensity
    calls = []

    def counting(self, intensity_sub, shape):
        if self is defocus_set:
            calls.append(len(intensity_sub))
        return resample(self, intensity_sub, shape)

    monkeypatch.setattr(OpticalKernelSet, "resample_intensity", counting)
    return calls


ENGINES = {
    "mbopc": lambda sim: MBOPC(
        MBOPCConfig(max_updates=3, initial_bias_nm=3.0), sim
    ),
    "camo": lambda sim: CAMO(
        CamoConfig.smoke(max_updates=3, initial_bias_nm=3.0), sim
    ),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", ["V1", "M1"])
def test_optimize_images_the_defocus_corner_only_for_the_final_state(
    sim, defocus_resamples, engine, name
):
    result = ENGINES[engine](sim).optimize(_clip(name), early_exit=False)
    assert result.steps == 3
    assert defocus_resamples == []
    pvband = result.pvband
    assert defocus_resamples == [1]
    assert result.pvband == pvband and defocus_resamples == [1]


def _eager_pvbands(sim, env, states):
    """PV bands of ``states`` by the eager whole-batch pipeline: image
    the defocus corner of every mask, resample the stack, threshold."""
    _, inner, outer = sim.corners()
    kernel_set = sim.kernel_set(inner.defocus_nm)
    band = kernel_set.band_spectra(env.grid.shape)
    mask_band = kernel_set.fft.to_device(polygon_band_subgrid(
        [tuple(state.mask.mask_polygons()) for state in states],
        env.grid, band,
    ))
    aerials = kernel_set.resample_intensity(
        kernel_set.image_band(mask_band, band), env.grid.shape
    )
    threshold = sim.config.threshold
    return aerials, pvband_area_batch(
        printed_image(aerials, threshold, inner.dose),
        printed_image(aerials, threshold, outer.dose),
        env.grid.pixel_nm,
    )


@pytest.mark.parametrize("name", ["V1", "M1"])
def test_lazy_pv_band_read_in_reverse_is_the_eager_batch(sim, name):
    env = OPCEnvironment(_clip(name), sim, initial_bias_nm=3.0)
    start = env.reset()
    rng = np.random.default_rng(sum(map(ord, name)))
    actions = rng.integers(0, env.n_actions, size=(3, env.n_segments))
    scored = [state for state, _ in env.score_moves(start, actions)]
    stepped = env.step_batch([start] * 3, actions)
    for states in (scored, stepped):
        aerials, pvbands = _eager_pvbands(sim, env, states)
        for index in reversed(range(len(states))):
            assert states[index].pvband == pvbands[index]
            assert np.array_equal(
                states[index].litho.aerial_defocus, aerials[index]
            )
