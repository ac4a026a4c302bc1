"""End-to-end integration tests across the full stack.

Everything here uses the coarse 8 nm / 1280 nm-window profile so the whole
file stays CI-fast while still exercising clip generation -> fragmentation
-> graph -> features -> policy -> environment -> litho -> metrology ->
mask reconstruction in one loop.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines import MBOPC
from repro.baselines.mbopc import MBOPCConfig
from repro.core import CAMO, CamoConfig
from repro.data.via_bench import generate_via_clip
from repro.data.stdcell import stdcell_metal_clip
from repro.litho import LithoConfig, LithographySimulator


@pytest.fixture(scope="module")
def simulator():
    return LithographySimulator(
        LithoConfig(pixel_nm=8.0, max_kernels=6)
    )


class TestViaEndToEnd:
    def test_untrained_camo_beats_initial_mask(self, simulator):
        clip = generate_via_clip("i1", n_vias=3, seed=77, clip_nm=1280)
        config = dataclasses.replace(
            CamoConfig.smoke(max_updates=8, policy_temperature=1e6),
            imitation_epochs=0,
            rl_epochs=0,
        )
        agent = CAMO(config, simulator)
        outcome = agent.optimize(clip, early_exit=False)
        assert outcome.epe_total < 0.5 * outcome.epe_curve[0]

    def test_trained_camo_full_loop(self, simulator):
        train = [generate_via_clip("i2", n_vias=2, seed=13, clip_nm=1280)]
        test = generate_via_clip("i3", n_vias=2, seed=14, clip_nm=1280)
        config = CamoConfig.smoke(
            imitation_epochs=3, rl_epochs=1, max_updates=6, policy_temperature=2.5
        )
        agent = CAMO(config, simulator)
        history = agent.train(train)
        assert history["imitation_logp"][-1] > history["imitation_logp"][0]
        outcome = agent.optimize(test, early_exit=False)
        assert outcome.epe_total < outcome.epe_curve[0]

    def test_camo_and_mbopc_agree_on_direction(self, simulator):
        """Both engines grow an underprinting via mask outward."""
        clip = generate_via_clip("i4", n_vias=2, seed=15, clip_nm=1280)
        config = dataclasses.replace(
            CamoConfig.smoke(max_updates=2, policy_temperature=1e6),
            imitation_epochs=0,
            rl_epochs=0,
        )
        camo_state = CAMO(config, simulator).optimize(clip, early_exit=False)
        mb_state = MBOPC(
            MBOPCConfig(initial_bias_nm=3.0, max_updates=2), simulator
        ).optimize(clip, early_exit=False)
        assert np.mean(camo_state.final_state.mask.offsets) > 3.0
        assert np.mean(mb_state.final_state.mask.offsets) > 3.0


class TestMetalEndToEnd:
    def test_metal_pipeline(self, simulator):
        clip = stdcell_metal_clip("im", 24, seed=5, clip_nm=1280)
        config = dataclasses.replace(
            CamoConfig.repro_metal(
                encode_size=16,
                embed_dim=32,
                rnn_hidden=16,
                rnn_layers=1,
                sage_layers=1,
                max_updates=5,
                policy_temperature=1e6,
            ),
            imitation_epochs=0,
            rl_epochs=0,
        )
        agent = CAMO(config, simulator)
        outcome = agent.optimize(clip, early_exit=False)
        assert outcome.epe_total < outcome.epe_curve[0]
        # The mask stayed geometrically valid throughout.
        polys = outcome.final_state.mask.mask_polygons()
        assert all(p.area > 0 for p in polys)

    def test_mbopc_metal(self, simulator):
        clip = stdcell_metal_clip("im2", 24, seed=6, clip_nm=1280)
        engine = MBOPC(
            MBOPCConfig(
                max_updates=8, early_exit_threshold=1.0, early_exit_mode="per_point"
            ),
            simulator,
        )
        outcome = engine.optimize(clip)
        assert outcome.epe_total < outcome.epe_curve[0]


class TestRewardConsistency:
    def test_trajectory_rewards_match_epe_curve(self, simulator):
        """Positive step rewards coincide with EPE decreases (when the PVB
        term is small)."""
        clip = generate_via_clip("i5", n_vias=2, seed=16, clip_nm=1280)
        config = dataclasses.replace(
            CamoConfig.smoke(max_updates=4, policy_temperature=1e6),
            imitation_epochs=0,
            rl_epochs=0,
            reward_beta=0.0,
        )
        agent = CAMO(config, simulator)
        outcome = agent.optimize(clip, early_exit=False)
        curve = outcome.epe_curve
        for step, record in enumerate(outcome.trajectory.steps):
            decreased = curve[step + 1] < curve[step]
            assert (record.reward > 0) == decreased
