"""Tests for the RL substrate: reward, trajectory, env, REINFORCE, imitation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RLError
from repro.data.via_bench import generate_via_clip
from repro.litho import LithoConfig, LithographySimulator
from repro.nn.layers import Linear
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor
from repro.rl import (
    OPCEnvironment,
    collect_teacher_actions_population,
    compute_reward,
    discounted_returns,
    greedy_teacher_actions,
    population_gradient_step,
    select_log_probs_population,
)
from repro.rl.trajectory import Trajectory, TrajectoryStep


class TestReward:
    def test_improvement_positive(self):
        assert compute_reward(100, 50, 1000, 900) > 0

    def test_regression_negative(self):
        assert compute_reward(50, 100, 1000, 1100) < 0

    def test_paper_formula(self):
        r = compute_reward(100, 80, 1000, 950, epsilon=0.1, beta=1.0)
        assert r == pytest.approx((100 - 80) / 100.1 + (1000 - 950) / 1000)

    def test_beta_weighting(self):
        low = compute_reward(100, 100, 1000, 900, beta=0.5)
        high = compute_reward(100, 100, 1000, 900, beta=2.0)
        assert high == pytest.approx(4 * low)

    def test_zero_pvband_drops_term(self):
        r = compute_reward(100, 50, 0, 100)
        assert r == pytest.approx(50 / 100.1)

    def test_validation(self):
        with pytest.raises(RLError):
            compute_reward(1, 1, 1, 1, epsilon=0)
        with pytest.raises(RLError):
            compute_reward(-1, 1, 1, 1)


class TestTrajectory:
    def make(self):
        traj = Trajectory(epe_initial=100.0)
        for k, (r, e) in enumerate([(1.0, 80.0), (0.5, 60.0), (-0.2, 65.0)]):
            traj.append(
                TrajectoryStep(
                    actions=np.zeros(4, dtype=int),
                    reward=r,
                    epe_after=e,
                    pvband_after=1000.0 + k,
                )
            )
        return traj

    def test_epe_curve(self):
        assert self.make().epe_curve == [100.0, 80.0, 60.0, 65.0]

    def test_total_reward(self):
        assert self.make().total_reward == pytest.approx(1.3)

    def test_returns_discounting(self):
        returns = self.make().returns(gamma=0.5)
        assert returns[2] == pytest.approx(-0.2)
        assert returns[1] == pytest.approx(0.5 + 0.5 * -0.2)
        assert returns[0] == pytest.approx(1.0 + 0.5 * returns[1])

    def test_discounted_returns_validation(self):
        with pytest.raises(RLError):
            discounted_returns([1.0], gamma=1.5)

    @given(
        rewards=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_property_gamma1_is_suffix_sum(self, rewards):
        returns = discounted_returns(rewards, gamma=1.0)
        assert returns[0] == pytest.approx(sum(rewards))


@pytest.fixture(scope="module")
def env():
    simulator = LithographySimulator(
        LithoConfig(pixel_nm=8.0, max_kernels=6)
    )
    clip = generate_via_clip("rl", n_vias=2, seed=21, clip_nm=1280)
    return OPCEnvironment(clip, simulator, initial_bias_nm=3.0)


def teacher_step_loop(env, steps, start):
    """The reference rollout: the greedy teacher alone through env.step."""
    samples = []
    state = start
    for _ in range(steps):
        actions = greedy_teacher_actions(state)
        next_state, reward = env.step(state, actions)
        samples.append((state, actions, reward))
        state = next_state
    return samples


class TestEnvironment:
    def test_reset_state(self, env):
        state = env.reset()
        assert state.epe.count == 8  # 2 vias x 4 measure points
        assert len(state.seg_epe) == env.n_segments == 8
        assert state.total_epe > 0  # initial mask underprints

    def test_reset_with_bias_override(self, env):
        lean = env.reset(bias_nm=0.0)
        fat = env.reset(bias_nm=10.0)
        assert fat.total_epe != lean.total_epe

    def test_step_moves_and_rewards(self, env):
        state = env.reset()
        outward = np.full(env.n_segments, 4)  # all +2 nm
        next_state, reward = env.step(state, outward)
        assert np.all(next_state.mask.offsets == state.mask.offsets + 2)
        assert reward > 0  # growing an underprinting via helps

    def test_noop_step_zero_reward(self, env):
        state = env.reset()
        hold = np.full(env.n_segments, 2)  # all 0 nm
        _, reward = env.step(state, hold)
        assert reward == pytest.approx(0.0, abs=1e-9)

    def test_action_validation(self, env):
        state = env.reset()
        with pytest.raises(RLError):
            env.step(state, np.zeros(3, dtype=int))
        with pytest.raises(RLError):
            env.step(state, np.full(env.n_segments, 9))


class TestStepBatch:
    def test_matches_sequential_steps(self, env):
        """step_batch on P distinct states is bit-for-bit equal to P
        sequential step calls — the population-training invariant."""
        base = env.reset()
        rng = np.random.default_rng(3)
        states = [base, env.evaluate(base.mask.moved(np.full(env.n_segments, 2.0)))]
        actions = rng.integers(0, env.n_actions, size=(2, env.n_segments))
        batched = env.step_batch(states, actions)
        for state, row, (next_state, reward) in zip(states, actions, batched):
            ref_state, ref_reward = env.step(state, row)
            assert reward == ref_reward
            assert np.array_equal(next_state.seg_epe, ref_state.seg_epe)
            assert np.array_equal(next_state.epe.values, ref_state.epe.values)
            assert next_state.pvband == ref_state.pvband

    def test_shape_validation(self, env):
        state = env.reset()
        with pytest.raises(RLError):
            env.step_batch([state], np.zeros((2, env.n_segments), dtype=int))
        with pytest.raises(RLError):
            env.step_batch([], np.zeros((0, env.n_segments), dtype=int))


class TestPopulationReinforce:
    def test_select_log_probs_population_matches_scalar(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 4, 5))
        actions = rng.integers(0, 5, size=(3, 4))
        joint = select_log_probs_population(Tensor(logits), actions)
        assert joint.shape == (3,)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        picked = np.take_along_axis(logp, actions[..., None], axis=-1)[..., 0]
        assert np.allclose(joint.numpy(), picked.sum(axis=1), rtol=0, atol=1e-12)

    def test_population_shape_validation(self):
        with pytest.raises(RLError):
            select_log_probs_population(
                Tensor(np.zeros((2, 3, 5))), np.zeros((3, 3), dtype=int)
            )
        layer = Linear(3, 5, rng=np.random.default_rng(0))
        optimizer = SGD(layer.parameters(), lr=0.1)
        with pytest.raises(RLError):
            population_gradient_step(
                optimizer, Tensor(np.zeros((2, 2))), np.zeros(2)
            )

    def test_population_step_moves_toward_advantage(self):
        """Positive-advantage trajectories gain probability, negative lose."""
        rng = np.random.default_rng(1)
        layer = Linear(3, 5, rng=rng)
        optimizer = SGD(layer.parameters(), lr=0.1)
        x = Tensor(np.ones((2, 1, 3)))
        actions = np.array([[4], [2]])

        def joint():
            return select_log_probs_population(layer(x), actions).numpy()

        before = joint()
        population_gradient_step(
            optimizer,
            select_log_probs_population(layer(x), actions),
            np.array([1.0, -1.0]),
        )
        after = joint()
        assert after[0] > before[0]
        assert after[1] < before[1]


class TestLockstepImitation:
    def test_matches_sequential_collection(self, env):
        starts = [env.reset(bias_nm=0.0), env.reset(bias_nm=5.0)]
        lockstep = collect_teacher_actions_population(
            env, steps=3, initial_states=starts
        )
        assert len(lockstep) == 2
        for start, trajectory in zip(starts, lockstep):
            reference = teacher_step_loop(env, 3, start)
            assert len(trajectory) == len(reference)
            for (s_a, a_a, r_a), (s_b, a_b, r_b) in zip(trajectory, reference):
                assert np.array_equal(a_a, a_b)
                assert r_a == r_b
                assert np.array_equal(s_a.seg_epe, s_b.seg_epe)

    def test_default_start_is_reset(self, env):
        trajectories = collect_teacher_actions_population(env, steps=2)
        assert len(trajectories) == 1
        reference = teacher_step_loop(env, 2, env.reset())
        for (s_a, a_a, r_a), (s_b, a_b, r_b) in zip(trajectories[0], reference):
            assert np.array_equal(a_a, a_b) and r_a == r_b

    def test_validation(self, env):
        with pytest.raises(RLError):
            collect_teacher_actions_population(env, steps=0)
        with pytest.raises(RLError):
            collect_teacher_actions_population(env, steps=1, initial_states=[])


class TestReinforce:
    """A single trajectory is a population of one."""

    def test_select_log_probs_matches_manual(self):
        logits = Tensor(np.log(np.array([[[0.7, 0.3], [0.2, 0.8]]])))
        log_prob = select_log_probs_population(logits, np.array([[0, 1]]))
        assert log_prob.shape == (1,)
        assert log_prob.numpy()[0] == pytest.approx(np.log(0.7) + np.log(0.8))

    def test_shape_validation(self):
        with pytest.raises(RLError):
            select_log_probs_population(
                Tensor(np.zeros((1, 2, 5))), np.array([[0, 1, 2]])
            )
        with pytest.raises(RLError):  # one state without its population axis
            select_log_probs_population(
                Tensor(np.zeros((2, 5))), np.array([0, 1])
            )

    def joint(self, layer, x, actions) -> float:
        return select_log_probs_population(layer(x), actions).numpy()[0]

    def test_positive_reward_increases_action_probability(self):
        layer = Linear(3, 5, rng=np.random.default_rng(0))
        optimizer = SGD(layer.parameters(), lr=0.1)
        x = Tensor(np.ones((1, 1, 3)))
        actions = np.array([[4]])
        before = self.joint(layer, x, actions)
        population_gradient_step(
            optimizer, select_log_probs_population(layer(x), actions),
            np.array([1.0]),
        )
        assert self.joint(layer, x, actions) > before

    def test_negative_reward_decreases_action_probability(self):
        layer = Linear(3, 5, rng=np.random.default_rng(0))
        optimizer = SGD(layer.parameters(), lr=0.1)
        x = Tensor(np.ones((1, 1, 3)))
        actions = np.array([[4]])
        before = self.joint(layer, x, actions)
        population_gradient_step(
            optimizer, select_log_probs_population(layer(x), actions),
            np.array([-1.0]),
        )
        assert self.joint(layer, x, actions) < before


class TestImitation:
    def test_teacher_sign_convention(self, env):
        state = env.reset()
        actions = greedy_teacher_actions(state)
        # Initial vias underprint (negative EPE) -> teacher moves outward.
        assert np.all(actions >= 2)
        assert np.any(actions > 2)

    def test_teacher_deadband_holds(self, env):
        state = env.reset()
        fake = type(state)(
            mask=state.mask,
            litho=state.litho,
            epe=state.epe,
            seg_epe=np.full(env.n_segments, 0.5),
            pvband=state.pvband,
        )
        assert np.all(greedy_teacher_actions(fake) == 2)

    def test_collect_trajectory(self, env):
        samples = collect_teacher_actions_population(env, steps=3)[0]
        assert len(samples) == 3
        for state, actions, reward in samples:
            assert actions.shape == (env.n_segments,)
        # Teacher improves the mask overall.
        assert samples[0][0].total_epe >= samples[-1][0].total_epe

    def test_collect_validation(self, env):
        with pytest.raises(RLError):
            collect_teacher_actions_population(env, steps=0)
        with pytest.raises(RLError):
            greedy_teacher_actions(env.reset(), gain=-1)
