"""Tests for the baseline OPC engines (MB-OPC, RL-OPC, DAMO-like)."""

import numpy as np
import pytest

from repro.baselines import MBOPC, RLOPC, DamoLikeOPC
from repro.baselines.damo import DamoConfig
from repro.baselines.mbopc import MBOPCConfig
from repro.baselines.rlopc import RLOPCConfig
from repro.data.via_bench import generate_via_clip
from repro.errors import ConfigError
from repro.litho import LithoConfig, LithographySimulator


@pytest.fixture(scope="module")
def simulator():
    return LithographySimulator(
        LithoConfig(pixel_nm=8.0, max_kernels=6)
    )


@pytest.fixture(scope="module")
def clip():
    return generate_via_clip("base", n_vias=2, seed=31, clip_nm=1280)


class TestMBOPC:
    def test_converges(self, simulator, clip):
        engine = MBOPC(MBOPCConfig(initial_bias_nm=3.0), simulator)
        outcome = engine.optimize(clip)
        assert outcome.epe_total < outcome.epe_curve[0]

    def test_gain_decay_schedule(self, simulator, clip):
        engine = MBOPC(
            MBOPCConfig(initial_bias_nm=3.0, gain=0.5, gain_decay=0.5), simulator
        )
        late_actions = engine._decide(np.full(8, -10.0), step=10)
        early_actions = engine._decide(np.full(8, -10.0), step=0)
        assert np.all(late_actions <= early_actions)

    def test_deadband(self, simulator):
        engine = MBOPC(MBOPCConfig(deadband_nm=1.5), simulator)
        actions = engine._decide(np.array([0.5, -1.0, 3.0, -4.0]), step=0)
        assert actions[0] == 2 and actions[1] == 2  # inside deadband: hold
        assert actions[2] < 2 and actions[3] > 2

    def test_early_exit(self, simulator, clip):
        engine = MBOPC(
            MBOPCConfig(initial_bias_nm=3.0, early_exit_threshold=1e9), simulator
        )
        outcome = engine.optimize(clip)
        assert outcome.early_exited and outcome.steps == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MBOPCConfig(gain=0)
        with pytest.raises(ConfigError):
            MBOPCConfig(gain_decay=-1)
        with pytest.raises(ConfigError):
            MBOPCConfig(early_exit_mode="sometimes")


class TestRLOPC:
    def test_train_and_optimize(self, simulator, clip):
        config = RLOPCConfig(
            encode_size=16, imitation_epochs=2, rl_epochs=1,
            max_updates=3, initial_bias_nm=3.0,
        )
        engine = RLOPC(config, simulator)
        history = engine.train([clip])
        assert len(history["imitation_logp"]) == 2
        outcome = engine.optimize(clip, early_exit=False)
        assert outcome.steps == 3
        assert outcome.trajectory.length == 3

    def test_metal_profile(self):
        config = RLOPCConfig.metal()
        assert config.max_updates == 15
        assert config.early_exit_mode == "per_point"

    def test_config_validation(self):
        """Unknown values fail loudly instead of silently selecting
        per-point exit or reward-weighted imitation."""
        with pytest.raises(ConfigError):
            RLOPCConfig(early_exit_mode="per_pt")
        with pytest.raises(ConfigError):
            RLOPCConfig(imitation_weighting="soft")
        with pytest.raises(ConfigError):
            RLOPCConfig(encode_size=20)  # not divisible by 8
        with pytest.raises(ConfigError):
            RLOPCConfig.metal(early_exit_mode="never")
        assert RLOPCConfig(imitation_weighting="reward").imitation_weighting == "reward"

    def test_env_cached(self, simulator, clip):
        engine = RLOPC(RLOPCConfig(encode_size=16), simulator)
        assert engine._env(clip) is engine._env(clip)


class TestDamoLike:
    def test_one_shot_profile(self, simulator, clip):
        config = DamoConfig(
            encode_size=16, epochs=3, teacher_updates=3, initial_bias_nm=3.0
        )
        engine = DamoLikeOPC(config, simulator)
        losses = engine.train([clip])
        assert len(losses) == 3
        assert losses[-1] <= losses[0]  # regression loss decreases
        outcome = engine.optimize(clip)
        assert outcome.steps == 1  # single inference, no iteration
        assert outcome.runtime_s > 0

    def test_offsets_bounded(self, simulator, clip):
        config = DamoConfig(encode_size=16, epochs=1, max_offset_nm=6.0)
        engine = DamoLikeOPC(config, simulator)
        engine.train([clip])
        outcome = engine.optimize(clip)
        moved = outcome.final_state.mask.offsets
        assert np.all(np.abs(moved) <= config.max_offset_nm + 1)

