"""Tests for the CAMO policy network, config and agent loop."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.rlopc import RLOPC, RLOPCConfig
from repro.core import CAMO, CamoConfig, CamoPolicy
from repro.data.metal_bench import metal_test_suite
from repro.data.via_bench import generate_via_clip, via_test_suite
from repro.errors import ConfigError, NNError
from repro.geometry import MaskState, fragment_clip
from repro.graphs import build_segment_graph, snake_order
from repro.litho import LithoConfig, LithographySimulator
from repro.nn import functional as F
from repro.nn.layers import GlobalAvgPool2d
from repro.nn.module import Sequential
from repro.nn.sage import mean_adjacency
from repro.nn.tensor import Tensor, no_grad
from repro.rl import sample_actions
from repro.squish import NodeFeatureEncoder


@pytest.fixture(scope="module")
def simulator():
    return LithographySimulator(
        LithoConfig(pixel_nm=8.0, max_kernels=6)
    )


@pytest.fixture(scope="module")
def clip():
    return generate_via_clip("agent", n_vias=2, seed=5, clip_nm=1280)


class TestConfig:
    def test_defaults_valid(self):
        config = CamoConfig()
        assert config.rnn_layers == 3

    def test_profiles(self):
        assert CamoConfig.paper_via().encode_size == 128
        assert CamoConfig.paper_metal().encode_size == 64
        assert CamoConfig.repro_metal().early_exit_mode == "per_point"
        assert CamoConfig.smoke().encode_size == 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            CamoConfig(encode_size=20)  # not divisible by 8
        with pytest.raises(ConfigError):
            CamoConfig(early_exit_mode="never")
        with pytest.raises(ConfigError):
            CamoConfig(sage_layers=0)
        with pytest.raises(ConfigError):
            CamoConfig(optimizer="lbfgs")
        with pytest.raises(ConfigError):
            CamoConfig(imitation_weighting="soft")


class TestPolicy:
    def build(self, **overrides):
        config = CamoConfig.smoke(**overrides)
        clip = generate_via_clip("p", n_vias=2, seed=5, clip_nm=1280)
        segments = fragment_clip(clip)
        state = MaskState.initial(clip, segments, bias_nm=3.0)
        encoder = NodeFeatureEncoder(
            window_nm=config.window_nm, out_size=config.encode_size,
        )
        graph = build_segment_graph(segments)
        # A single state is a population of one: (1, n, c, s, s).
        return (
            CamoPolicy(config),
            encoder.encode_all(state)[None],
            mean_adjacency(graph),
            snake_order(graph),
        )

    def test_output_shape_and_order(self):
        policy, features, adjacency, order = self.build()
        logits = policy(features, adjacency, order)
        assert logits.shape == (1, features.shape[1], 5)

    def test_probabilities_normalized(self):
        policy, features, adjacency, order = self.build()
        logits = policy(features, adjacency, order)
        probs = F.softmax(logits, axis=-1).numpy()
        assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_order_is_validated(self):
        policy, features, adjacency, _ = self.build()
        with pytest.raises(NNError):
            policy(features, adjacency, [0, 0, 1, 2, 3, 4, 5, 6])

    def test_rnn_couples_nodes(self):
        """With the RNN, perturbing an earlier node changes later logits."""
        policy, features, adjacency, order = self.build(use_gnn=False)
        base = policy(features, adjacency, order).numpy()[0]
        bumped = features.copy()
        bumped[0, order[0]] += 0.5
        after = policy(bumped, adjacency, order).numpy()[0]
        assert not np.allclose(base[order[-1]], after[order[-1]])

    def test_no_rnn_keeps_nodes_independent(self):
        policy, features, adjacency, order = self.build(
            use_gnn=False, use_rnn=False
        )
        base = policy(features, adjacency, order).numpy()[0]
        bumped = features.copy()
        bumped[0, order[0]] += 0.5
        after = policy(bumped, adjacency, order).numpy()[0]
        assert np.allclose(base[order[-1]], after[order[-1]])

    def test_ablation_flags_change_param_count(self):
        full, *_ = self.build()
        no_gnn, *_ = self.build(use_gnn=False)
        assert full.parameter_count() > no_gnn.parameter_count()

    @pytest.mark.parametrize("name, config", [
        ("M5", CamoConfig.repro_metal(encode_size=24, embed_dim=128)),
        ("V10", CamoConfig(encode_size=32)),
    ])
    def test_conv_stack_is_per_node_invariant(self, name, config):
        """The encoder's conv stack, up to and including its global
        average pool, gives any subset of nodes the same bits as the
        full batch: a per-node cache of it would be exact.  The tail
        ``Linear`` does not (its GEMM rounds by batch size), so it is the
        small-batch layer."""
        suite = via_test_suite() if name.startswith("V") else metal_test_suite()
        clip = next(c for c in suite if c.name == name)
        mask = MaskState.initial(clip, fragment_clip(clip))
        features = NodeFeatureEncoder(
            window_nm=config.window_nm, out_size=config.encode_size,
        ).encode_all(mask)
        layers = CamoPolicy(config).encoder.layers
        gap = next(
            index for index, layer in enumerate(layers)
            if isinstance(layer, GlobalAvgPool2d)
        )
        conv_stack = Sequential(*layers[: gap + 1])
        n = features.shape[0]
        with no_grad():
            full = conv_stack(Tensor(features)).numpy()
            for rows in ([0], [0, 1], list(range(0, n, 3)), list(range(7))):
                part = conv_stack(Tensor(features[rows])).numpy()
                assert np.array_equal(part, full[rows])


class TestAgent:
    def test_optimize_improves_untrained(self, simulator, clip):
        """Even an untrained CAMO (uniform policy) must improve the mask —
        the modulator alone drives coarse convergence."""
        config = CamoConfig.smoke(max_updates=6, policy_temperature=1e6)
        config = dataclasses.replace(config, imitation_epochs=0, rl_epochs=0)
        agent = CAMO(config, simulator)
        outcome = agent.optimize(clip, early_exit=False)
        assert outcome.epe_total < outcome.epe_curve[0]
        assert outcome.steps == 6
        assert outcome.runtime_s > 0

    def test_training_histories(self, simulator, clip):
        config = CamoConfig.smoke(imitation_epochs=2, rl_epochs=1, max_updates=2)
        agent = CAMO(config, simulator)
        history = agent.train([clip])
        assert len(history["imitation_logp"]) == 2
        assert len(history["rl_reward"]) == 1
        # Behaviour cloning must improve the teacher-action likelihood.
        assert history["imitation_logp"][-1] >= history["imitation_logp"][0]

    def test_second_train_starts_fresh(self, simulator, clip):
        """A train() call holds no optimizer state over from the last one:
        training twice gives the bits of a fresh engine that loads the
        first call's weights and trains once."""
        config = CamoConfig.smoke(imitation_epochs=2, rl_epochs=0)
        agent = CAMO(config, simulator)
        agent.train([clip])
        first = agent.policy.state_dict()
        agent.train([clip])
        fresh = CAMO(config, simulator)
        fresh.policy.load_state_dict(first)
        fresh.train([clip])
        expected = fresh.policy.state_dict()
        for name, value in agent.policy.state_dict().items():
            assert np.array_equal(
                value.view(np.int64), expected[name].view(np.int64)
            ), name

    def test_teacher_corpus_is_packed(self, simulator, clip):
        """One via clip's corpus keeps under 1/10 of the bytes of its
        samples' float64 features, and each sample unpacks to the encode
        of its teacher state."""
        import tracemalloc

        agent = CAMO(CamoConfig.smoke(encode_size=32), simulator)
        ctx = agent.context(clip)
        agent._teacher_corpus(ctx)  # band spectra, plans and env caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            corpus = agent._teacher_corpus(ctx)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        dense = [sample[0].dense() for sample in corpus]
        assert held < sum(features.nbytes for features in dense) / 10
        start = ctx.env.reset(bias_nm=agent.config.initial_bias_nm)
        assert np.array_equal(
            dense[0].view(np.int64),
            agent.encoder.encode_all(start.mask).view(np.int64),
        )

    def test_early_exit(self, simulator, clip):
        config = CamoConfig.smoke(max_updates=10, policy_temperature=1e6)
        config = dataclasses.replace(
            config, imitation_epochs=0, rl_epochs=0, early_exit_threshold=1e9
        )
        agent = CAMO(config, simulator)
        outcome = agent.optimize(clip)
        assert outcome.early_exited
        assert outcome.steps == 0  # threshold so loose it exits immediately

    def test_context_cached(self, simulator, clip):
        agent = CAMO(CamoConfig.smoke(), simulator)
        assert agent.context(clip) is agent.context(clip)

    def test_same_named_clips_optimize_their_own_segments(self, simulator):
        """Contexts are keyed by the clip object: a 3-via clip named like
        an earlier 2-via clip gets its own 12-segment environment, not
        the first clip's 8 segments."""
        first = generate_via_clip("twin", n_vias=2, seed=51, clip_nm=1024)
        second = generate_via_clip("twin", n_vias=3, seed=52, clip_nm=1024)
        agent = CAMO(CamoConfig.smoke(max_updates=2), simulator)
        for clip in (first, second):
            mask = agent.optimize(clip).final_state.mask
            assert mask.clip is clip
            assert mask.segments == fragment_clip(clip)
        assert len(fragment_clip(first)) == 8
        assert len(fragment_clip(second)) == 12

    def test_engine_keeps_nothing_of_dropped_clips(self):
        """Optimizing 8 metal clips that the caller then drops leaves
        under 1 MB of traced memory behind (contexts keyed by clip name
        kept 10.3 MB: every clip's env, plans and lift)."""
        import gc
        import tracemalloc

        simulator = LithographySimulator(
            LithoConfig(pixel_nm=4.0, max_kernels=4)
        )
        agent = CAMO(CamoConfig.smoke(max_updates=1), simulator)
        agent.optimize(metal_test_suite()[-1])  # kernels and band spectra
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            clips = metal_test_suite()[:8]
            results = [agent.optimize(clip) for clip in clips]
            del clips, results
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert kept < 1e6

    def test_save_load_roundtrip(self, simulator, clip, tmp_path):
        config = CamoConfig.smoke()
        agent = CAMO(config, simulator)
        path = str(tmp_path / "policy.npz")
        agent.save(path)
        clone = CAMO(config, simulator)
        clone.load(path)
        ctx = agent.context(clip)
        state = ctx.env.reset()
        feats = agent.encoder.encode_all(state.mask)[None]
        a = agent.policy(feats, ctx.adjacency, ctx.order).numpy()
        b = clone.policy(feats, ctx.adjacency, ctx.order).numpy()
        assert np.allclose(a, b)

    def test_train_requires_clips(self, simulator):
        from repro.errors import RLError

        agent = CAMO(CamoConfig.smoke(), simulator)
        with pytest.raises(RLError):
            agent.train([])

    def test_modulator_gain_decay(self, simulator, clip):
        agent = CAMO(CamoConfig.smoke(), simulator)
        assert agent._gain(0) == 1.0
        assert agent._gain(5) < 1.0

    def test_sample_actions_clips_rounding_overflow(self, simulator, clip):
        """cumsum of a distribution can end below 1.0 by a few ulps; a
        draw landing above it must clip to the last action instead of
        indexing past MOVE_SET_NM — in the shared sampler and in RL-OPC
        training, which samples through it."""
        short = np.full((3, 5), 0.2) - 1e-12  # cumulative[-1] < 1.0

        class AlwaysOne:
            def random(self, shape):
                return np.ones(shape)

        actions = sample_actions(short, AlwaysOne())
        assert np.all(actions == 4)

        class AboveEveryRow:
            """Draws above any row's cumulative sum, rounded up or down."""

            def random(self, shape):
                return np.full(shape, 1.0 + 1e-9)

        rlopc = RLOPC(
            RLOPCConfig(
                encode_size=16, embed_dim=16, imitation_epochs=0,
                rl_epochs=1, max_updates=2,
            ),
            simulator,
        )
        rlopc.rng = AboveEveryRow()
        history = rlopc.train([clip])  # an action index of 5 would raise
        assert len(history["rl_reward"]) == 1

    def test_sample_actions_follows_distribution(self, simulator):
        one_hot = np.zeros((4, 5))
        one_hot[np.arange(4), [0, 2, 3, 4]] = 1.0
        rng = np.random.default_rng(0)
        assert np.array_equal(
            sample_actions(one_hot, rng), np.array([0, 2, 3, 4])
        )
        # A (P, n, 5) stack samples row by row, one action per segment.
        assert np.array_equal(
            sample_actions(np.stack([one_hot, one_hot[::-1]]), rng),
            np.array([[0, 2, 3, 4], [4, 3, 2, 0]]),
        )


class TestPopulationTraining:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CamoConfig(rl_population=0)

    def test_forward_population_matches_single(self, simulator, clip):
        """Each population row must equal the forward of that state alone
        as a population of one (batched graph, no row mixing), and
        ``forward_population`` is ``forward`` under another name."""
        from repro.nn.tensor import no_grad

        agent = CAMO(CamoConfig.smoke(), simulator)
        ctx = agent.context(clip)
        state_a = ctx.env.reset()
        state_b = ctx.env.evaluate(
            state_a.mask.moved(np.full(ctx.env.n_segments, 2.0))
        )
        feats = np.stack(
            [agent.encoder.encode_all(s.mask) for s in (state_a, state_b)]
        )
        with no_grad():
            pop = agent.policy(feats, ctx.adjacency, ctx.order).numpy()
            alias = agent.policy.forward_population(
                feats, ctx.adjacency, ctx.order
            ).numpy()
            singles = [
                agent.policy(f[None], ctx.adjacency, ctx.order).numpy()[0]
                for f in feats
            ]
        assert pop.shape == (2, ctx.env.n_segments, 5)
        assert np.array_equal(alias, pop)
        for row, single in zip(pop, singles):
            assert np.allclose(row, single, atol=1e-12)

    def test_forward_population_validates_shape(self, simulator, clip):
        agent = CAMO(CamoConfig.smoke(), simulator)
        ctx = agent.context(clip)
        with pytest.raises(NNError):
            agent.policy.forward_population(
                np.zeros((2, 3)), ctx.adjacency, ctx.order
            )

    def test_population_training_runs(self, simulator, clip):
        config = CamoConfig.smoke(
            rl_population=3,
            imitation_epochs=1,
            rl_epochs=2,
            max_updates=2,
        )
        agent = CAMO(config, simulator)
        history = agent.train([clip])
        assert len(history["rl_reward"]) == 2
        assert all(np.isfinite(r) for r in history["rl_reward"])

    def test_population_bias_jitter_offsets(self, simulator, clip):
        """Jittered population starts: ``reset_population`` evaluates P
        initial biases in one batched call, and every start matches the
        equivalent ``reset()``."""
        config = CamoConfig.smoke()
        ctx = CAMO(config, simulator).context(clip)
        biases = [config.initial_bias_nm + offset for offset in (0.0, 2.0, 0.0)]
        starts = ctx.env.reset_population(biases)
        for bias, start in zip(biases, starts):
            reference = ctx.env.reset(bias_nm=bias)
            assert np.array_equal(start.seg_epe, reference.seg_epe)
            assert start.total_epe == reference.total_epe
        # Distinct biases must produce distinct start states.
        assert starts[0].total_epe != starts[1].total_epe
