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
state and after three seeded random move sets.

The defocus corner is imaged only when a PV band is read.  The laziness
pins count its dense resamples through a whole MB-OPC and greedy CAMO
run (one, for the final state), and hold PV bands read row by row, in
reverse order, to the eager whole-batch pipeline bit for bit.

A hold is free.  The no-op transition pins check that a move leaving
every offset unchanged (all holds, or a push against ``max_offset``)
returns the input state object, that ``step_batch`` evaluates only its
moved rows, that MB-OPC simulates one mask per moving step and still
reports what a re-evaluation of its final mask gives, and that greedy
CAMO runs the policy once per distinct state.
"""

import numpy as np
import pytest

from repro.baselines.mbopc import MBOPC, MBOPCConfig
from repro.constants import MOVE_SET_NM
from repro.core.agent import CAMO
from repro.core.config import CamoConfig
from repro.core.policy import CamoPolicy
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
HOLD = MOVE_SET_NM.index(0)

@pytest.fixture(scope="module", params=["numpy"])
def sim(request):
    return LithographySimulator(LithoConfig(backend=request.param))


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
    mask_band = polygon_band_subgrid(
        [tuple(state.mask.mask_polygons()) for state in states],
        env.grid, band,
    )
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


def _assert_same_evaluation(state, reference):
    assert np.array_equal(state.mask.offsets, reference.mask.offsets)
    assert np.array_equal(state.epe.values, reference.epe.values)
    assert np.array_equal(state.seg_epe, reference.seg_epe)
    assert state.pvband == reference.pvband


@pytest.mark.parametrize("name", ["V1", "M1"])
def test_all_hold_step_returns_the_state_itself(sim, name):
    env = OPCEnvironment(_clip(name), sim, initial_bias_nm=3.0)
    start = env.reset()
    hold = np.full(env.n_segments, HOLD)
    assert env.step(start, hold) is start
    assert env.step_batch([start, start], np.stack([hold, hold])) == [
        start, start,
    ]
    [(nxt, reward)] = env.score_moves(start, hold[None])
    assert nxt is start and reward == 0.0


@pytest.mark.parametrize("name", ["V1", "M1"])
def test_push_against_max_offset_is_a_no_op(sim, name):
    env = OPCEnvironment(_clip(name), sim, initial_bias_nm=3.0)
    start = env.reset()
    push = np.zeros(env.n_segments)
    push[0] = 4 * env.max_offset_nm
    clamped = env.evaluate(start.mask.moved(push))
    assert clamped.mask.offsets[0] == env.max_offset_nm
    actions = np.full(env.n_segments, HOLD)
    actions[0] = MOVE_SET_NM.index(2)
    assert env.step(clamped, actions) is clamped
    actions[0] = MOVE_SET_NM.index(-2)
    moved = env.step(clamped, actions)
    assert moved is not clamped
    assert moved.mask.offsets[0] == env.max_offset_nm - 2


@pytest.mark.parametrize("name", ["V1", "M1"])
def test_mixed_step_batch_evaluates_only_the_moved_rows(
    sim, name, monkeypatch
):
    env = OPCEnvironment(_clip(name), sim, initial_bias_nm=3.0)
    start = env.reset()
    other = env.step(start, np.full(env.n_segments, MOVE_SET_NM.index(1)))
    rng = np.random.default_rng(sum(map(ord, name)))
    hold = np.full(env.n_segments, HOLD)
    actions = np.stack([
        hold,
        rng.integers(0, env.n_actions, size=env.n_segments),
        hold,
        rng.integers(0, env.n_actions, size=env.n_segments),
    ])
    states = [start, start, other, other]
    expected = [env.step(state, row) for state, row in zip(states, actions)]
    batches = _count_simulated_masks(monkeypatch)
    stepped = env.step_batch(states, actions)
    assert batches == [2]
    assert stepped[0] is start and stepped[2] is other
    for index in (1, 3):
        assert stepped[index] is not states[index]
        _assert_same_evaluation(stepped[index], expected[index])


def _count_simulated_masks(monkeypatch):
    """A list that grows by each ``simulate_batch`` call's mask count."""
    simulate = LithographySimulator.simulate_batch
    calls = []

    def counting(self, masks, *args, **kwargs):
        calls.append(len(masks))
        return simulate(self, masks, *args, **kwargs)

    monkeypatch.setattr(LithographySimulator, "simulate_batch", counting)
    return calls


def _record_steps(monkeypatch):
    """A list that grows by ``(state, next_state)`` per ``env.step``."""
    step = OPCEnvironment.step
    transitions = []

    def recording(self, state, actions):
        nxt = step(self, state, actions)
        transitions.append((state, nxt))
        return nxt

    monkeypatch.setattr(OPCEnvironment, "step", recording)
    return transitions


@pytest.mark.parametrize("name", ["V1", "M1"])
def test_mbopc_simulates_one_mask_per_moving_step(sim, name, monkeypatch):
    simulated = _count_simulated_masks(monkeypatch)
    transitions = _record_steps(monkeypatch)
    result = MBOPC(
        MBOPCConfig(max_updates=10, initial_bias_nm=3.0), sim
    ).optimize(_clip(name), early_exit=False)
    assert result.steps == len(transitions) == 10
    moving = 0
    for state, nxt in transitions:
        if np.array_equal(state.mask.offsets, nxt.mask.offsets):
            assert nxt is state
        else:
            moving += 1
    assert 0 < moving < 10
    assert sum(simulated) == 1 + moving
    env = OPCEnvironment(_clip(name), sim, initial_bias_nm=3.0)
    final = result.final_state
    _assert_same_evaluation(final, env.evaluate(final.mask.moved(
        np.zeros(env.n_segments)
    )))


@pytest.mark.parametrize("name", ["V1", "M1"])
def test_greedy_camo_runs_the_policy_once_per_distinct_state(
    sim, name, monkeypatch
):
    transitions = _record_steps(monkeypatch)
    forward = CamoPolicy.forward
    forwards = []

    def counting(self, features, *args):
        forwards.append(features.shape[0])
        return forward(self, features, *args)

    monkeypatch.setattr(CamoPolicy, "forward", counting)
    camo = CAMO(CamoConfig.smoke(max_updates=10, initial_bias_nm=3.0), sim)
    result = camo.optimize(_clip(name), early_exit=False)
    assert len(transitions) == result.steps == 10
    distinct = 1 + sum(nxt is not state for state, nxt in transitions)
    assert distinct < 1 + result.steps
    assert forwards == [1] * distinct
    # Every decision still equals a fresh policy run on its state.
    ctx = camo.context(_clip(name))
    for step, ((state, _), taken) in enumerate(
        zip(transitions, result.trajectory.steps)
    ):
        logits = camo._population_logits(ctx, [state]).numpy()
        assert np.array_equal(
            taken.actions,
            camo._population_distributions(
                logits, state.seg_epe[None], step
            )[0].argmax(axis=1),
        )
