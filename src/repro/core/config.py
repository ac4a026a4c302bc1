"""CAMO configuration.

One dataclass holds every hyper-parameter of the paper plus the scale
knobs that keep a numpy implementation tractable.  The paper-fidelity
values are noted next to each field; ``CamoConfig.paper_via()`` /
``paper_metal()`` build them, while the default constructor is the
reduced-but-faithful "repro" profile used by tests and benches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.constants import (
    FEATURE_WINDOW_NM,
    GRAPH_EDGE_THRESHOLD_NM,
    LEARNING_RATE,
    METAL_EARLY_EXIT_EPE_PER_POINT,
    METAL_MAX_UPDATES,
    MODULATOR_B,
    MODULATOR_K,
    MODULATOR_N,
    REWARD_BETA,
    REWARD_EPSILON,
    VIA_EARLY_EXIT_EPE_PER_VIA,
    VIA_INITIAL_BIAS_NM,
    VIA_MAX_UPDATES,
)
from repro.errors import ConfigError


@dataclass(frozen=True)
class CamoConfig:
    """All CAMO knobs.  Defaults are the fast "repro" profile."""

    # -- feature encoding ----------------------------------------------------
    window_nm: float = FEATURE_WINDOW_NM       # paper: 500
    encode_size: int = 32                      # paper: 128 (via) / 64 (metal)

    # -- graph -----------------------------------------------------------------
    graph_threshold_nm: float = GRAPH_EDGE_THRESHOLD_NM  # paper: 250
    ordering: str = "snake"

    # -- policy network --------------------------------------------------------
    embed_dim: int = 256                       # paper: RNN input size 256
    sage_layers: int = 2
    rnn_hidden: int = 64                       # paper: hidden state 64
    rnn_layers: int = 3                        # paper: 3 recurrent layers
    n_actions: int = 5
    use_gnn: bool = True
    use_rnn: bool = True

    # -- modulator ----------------------------------------------------------------
    use_modulator: bool = True
    policy_temperature: float = 1.0
    """Softens the policy inside the Eq. 6 product at decision time
    (``softmax(logits / T)``).  T > 1 limits how far a confidently-wrong
    policy can override the modulator on unseen layouts."""
    modulator_k: float = MODULATOR_K           # paper: 0.02
    modulator_n: int = MODULATOR_N             # paper: 4
    modulator_b: float = MODULATOR_B           # paper: 1
    modulator_mode: str = "matched"            # paper: "polynomial"
    modulator_sigma: float = 0.75
    modulator_gain_decay: float = 0.12
    """Per-iteration damping of the modulator's effective EPE (the classic
    decaying-feedback schedule; 0 disables)."""
    modulator_epe_scale: float = 0.5           # 1 / MEEF of our simulator

    # -- training -------------------------------------------------------------
    learning_rate: float = 1e-3
    optimizer: str = "adam"                    # repro profile; paper: "sgd"
    momentum: float = 0.9                      # sgd only; compensates the
                                               # reduced epoch budget
    reward_epsilon: float = REWARD_EPSILON     # paper: 0.1
    reward_beta: float = REWARD_BETA           # paper: 1
    imitation_epochs: int = 40                 # paper: 500
    imitation_steps: int = 5                   # paper: five-step trajectories
    imitation_weighting: str = "unit"          # "unit" (behaviour cloning) or
                                               # "reward" (Eq. 7 literal)
    imitation_bias_offsets: tuple[float, ...] = (0.0, 5.0, -4.0)
    """Extra initial-bias offsets for teacher rollouts: covers under- and
    over-sized starting masks so the policy sees both EPE signs."""
    rl_epochs: int = 3
    rl_population: int = 1
    """Number of phase-2 trajectories advanced in lockstep per clip.
    Every step samples P action vectors from one batched policy forward,
    evaluates them through one batched litho + metrology call, and folds
    the per-trajectory EMA-baseline advantages into one accumulated
    policy-gradient step.  ``1`` (the default) is a population of one;
    ``benchmarks/bench_train_throughput.py`` times P=1 against P=8."""
    max_grad_norm: float = 10.0
    seed: int = 2024

    # -- optimization loop ------------------------------------------------------
    max_updates: int = VIA_MAX_UPDATES         # paper: 10 (via) / 15 (metal)
    early_exit_threshold: float = VIA_EARLY_EXIT_EPE_PER_VIA
    early_exit_mode: str = "per_target"        # "per_target" | "per_point"
    initial_bias_nm: float = VIA_INITIAL_BIAS_NM
    epe_search_nm: float = 40.0

    def __post_init__(self) -> None:
        if self.encode_size % 8:
            raise ConfigError("encode_size must be divisible by 8 (CNN strides)")
        if self.early_exit_mode not in ("per_target", "per_point"):
            raise ConfigError(f"unknown early_exit_mode {self.early_exit_mode!r}")
        if self.imitation_weighting not in ("unit", "reward"):
            raise ConfigError(
                f"unknown imitation_weighting {self.imitation_weighting!r}"
            )
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.rl_population < 1:
            raise ConfigError(
                f"rl_population must be >= 1, got {self.rl_population}"
            )
        if self.sage_layers < 1:
            raise ConfigError("need at least one GraphSAGE layer")
        if self.n_actions != 5:
            raise ConfigError("the movement set is fixed at 5 actions")

    # -- profiles ----------------------------------------------------------------
    @classmethod
    def repro_metal(cls, **overrides) -> "CamoConfig":
        """Fast profile for metal layers."""
        base = cls(
            max_updates=METAL_MAX_UPDATES,
            early_exit_threshold=METAL_EARLY_EXIT_EPE_PER_POINT,
            early_exit_mode="per_point",
            initial_bias_nm=0.0,
        )
        return replace(base, **overrides)

    @classmethod
    def paper_via(cls, **overrides) -> "CamoConfig":
        """Full paper-scale settings for via layers (slow on CPU)."""
        base = cls(
            encode_size=128,
            imitation_epochs=500,
            rl_epochs=50,
            optimizer="sgd",
            learning_rate=LEARNING_RATE,
        )
        return replace(base, **overrides)

    @classmethod
    def paper_metal(cls, **overrides) -> "CamoConfig":
        """Full paper-scale settings for metal layers (slow on CPU)."""
        base = cls(
            encode_size=64,
            imitation_epochs=500,
            rl_epochs=50,
            optimizer="sgd",
            learning_rate=LEARNING_RATE,
            max_updates=METAL_MAX_UPDATES,
            early_exit_threshold=METAL_EARLY_EXIT_EPE_PER_POINT,
            early_exit_mode="per_point",
            initial_bias_nm=0.0,
        )
        return replace(base, **overrides)

    @classmethod
    def smoke(cls, **overrides) -> "CamoConfig":
        """Minimal settings for CI-speed tests."""
        base = cls(
            encode_size=16,
            embed_dim=32,
            rnn_hidden=16,
            rnn_layers=1,
            sage_layers=1,
            imitation_epochs=2,
            rl_epochs=1,
            max_updates=3,
        )
        return replace(base, **overrides)
