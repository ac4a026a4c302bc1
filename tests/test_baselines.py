"""Tests for the baseline OPC engines (MB-OPC, RL-OPC, DAMO-like)."""

import numpy as np
import pytest

from repro.baselines import MBOPC, RLOPC, DamoLikeOPC
from repro.baselines.damo import DamoConfig
from repro.baselines.mbopc import MBOPCConfig
from repro.baselines.rlopc import RLOPCConfig
from repro.constants import EPISODE_RULES
from repro.core.agent import IMITATION_BIAS_OFFSETS_NM, IMITATION_STEPS
from repro.data.via_bench import generate_via_clip
from repro.errors import ConfigError
from repro.litho import LithoConfig, LithographySimulator
from repro.rl.imitation import greedy_teacher_actions


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

    def test_teacher_is_first_iteration(self, simulator):
        """The imitation teacher is MB-OPC's decision at step 0 under the
        default config, on rounding ties and at the deadband edges too."""
        engine = MBOPC(MBOPCConfig(), simulator)
        rng = np.random.default_rng(3)
        edges = [1.2, np.nextafter(1.2, 0.0), np.nextafter(1.2, 2.0)]
        ties = [1.0, 3.0, 5.0, 7.0, 9.0]  # -0.5 * epe lands on k + 0.5
        special = np.array(edges + ties)
        seg_epe = np.concatenate(
            [special, -special, [0.0], rng.uniform(-12.0, 12.0, 200)]
        )
        state = type("State", (), {"seg_epe": seg_epe})()
        assert np.array_equal(
            greedy_teacher_actions(state), engine._decide(seg_epe, 0)
        )

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
        config = RLOPCConfig(**EPISODE_RULES["metal"])
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
        assert RLOPCConfig(imitation_weighting="reward").imitation_weighting == "reward"

    def test_env_cached(self, simulator, clip):
        """RL-OPC keeps one context (environment, graph, order) per clip,
        like CAMO."""
        engine = RLOPC(RLOPCConfig(encode_size=16), simulator)
        assert engine.context(clip) is engine.context(clip)

    def test_runs_through_camo_loops(self):
        """RL-OPC trains and infers through CAMO's code, not its own."""
        assert "train" not in vars(RLOPC)
        assert "optimize" not in vars(RLOPC)

    def test_imitation_corpus_matches_camo(self, simulator, clip):
        """The teacher data is CAMO's: one rollout of IMITATION_STEPS from
        each of CAMO's bias offsets around the configured start."""
        config = RLOPCConfig(
            encode_size=16, imitation_epochs=1, rl_epochs=0,
            initial_bias_nm=3.0,
        )
        engine = RLOPC(config, simulator)
        engine.train([clip])
        ctx = engine.context(clip)
        samples = engine._teacher_corpus(ctx)
        assert len(samples) == len(IMITATION_BIAS_OFFSETS_NM) * IMITATION_STEPS
        for index, offset in enumerate(IMITATION_BIAS_OFFSETS_NM):
            start = ctx.env.reset(bias_nm=config.initial_bias_nm + offset)
            features = samples[index * IMITATION_STEPS][0].dense()[None]
            assert np.array_equal(
                features, engine.encoder.encode_all(start.mask)[None]
            )


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

