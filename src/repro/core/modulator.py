"""The OPC-inspired modulator (paper Section 3.2, Fig. 4).

Given a segment's signed EPE, the modulator produces a preference vector
over the five movements ``[m1..m5] = [-2, -1, 0, +1, +2]`` nm:

1. sample five points evenly across ``[0, EPE]``, ordered descending
   (``x1 > x2 > ... > x5``);
2. project through ``f(x) = k x^n + b`` (even ``n``; paper: 0.02 x^4 + 1);
3. softmax-normalize into the preference vector ``p_hat``.

Because ``f`` is even-powered, a large *positive* EPE (contour outside the
target — overflow) concentrates preference on ``m1`` (inward), a large
*negative* EPE on ``m5`` (outward), and a small EPE leaves the preference
nearly uniform — exactly the properties the paper postulates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import MODULATOR_B, MODULATOR_K, MODULATOR_N
from repro.errors import ConfigError


@dataclass(frozen=True)
class Modulator:
    """Projection-function modulator ``f(x) = k x^n + b``.

    ``epe_scale`` converts raw EPE (nm) into expected-movement units before
    projection: with a mask-error-enhancement factor of ``M`` (printed-edge
    nm per mask-edge nm), the movement that cancels an error of ``E`` nm is
    ``E / M``, so the preference should peak there.  The paper's simulator
    is calibrated such that this factor is ~1; ours has MEEF around 2.5-3,
    hence the default scale below.
    """

    k: float = MODULATOR_K
    n: int = MODULATOR_N
    b: float = MODULATOR_B
    epe_scale: float = 1.0
    mode: str = "polynomial"
    sigma: float = 0.75
    """``mode="polynomial"`` is the paper's construction (five samples of
    ``f`` across [0, EPE], softmax-normalized).  ``mode="matched"`` is this
    reproduction's calibrated variant: the preference for movement ``m_i``
    is a Gaussian in ``(scaled EPE + m_i)`` — it peaks at the movement that
    cancels the predicted printed-edge error, i.e. proportional feedback
    control in preference form.  The polynomial mode needs a strong policy
    for fine control (the paper trains one for 500 epochs); matched mode
    keeps the engine convergent at reduced training budgets."""

    def __post_init__(self) -> None:
        if self.k <= 0 or self.b <= 0:
            raise ConfigError(f"k and b must be positive, got k={self.k}, b={self.b}")
        if self.n <= 0 or self.n % 2:
            raise ConfigError(f"n must be a positive even integer, got {self.n}")
        if self.epe_scale <= 0:
            raise ConfigError(f"epe_scale must be positive, got {self.epe_scale}")
        if self.mode not in ("polynomial", "matched"):
            raise ConfigError(f"unknown modulator mode {self.mode!r}")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")

    def projection(self, x: np.ndarray) -> np.ndarray:
        """``f(x) = k x^n + b`` elementwise."""
        return self.k * np.asarray(x, dtype=np.float64) ** self.n + self.b

    def preference(self, epe_nm: float) -> np.ndarray:
        """Preference vector ``p_hat`` (length 5) for one segment's EPE."""
        return self.preference_batch(np.asarray([epe_nm]))[0]

    def preference_batch(
        self, epe_nm: np.ndarray, gain: float = 1.0
    ) -> np.ndarray:
        """Vectorized preferences: ``(n_segments, 5)`` rows sum to one.

        ``gain`` damps the effective EPE (standard decaying-feedback OPC
        iteration schedules pass ``1 / (1 + decay * step)``).
        """
        epe = np.asarray(epe_nm, dtype=np.float64) * self.epe_scale * gain
        if self.mode == "matched":
            return self._matched_preferences(epe)
        # Five evenly spaced samples across [0, EPE], descending:
        # EPE > 0 -> [EPE, 3EPE/4, EPE/2, EPE/4, 0]
        # EPE < 0 -> [0, EPE/4, ..., EPE]  (0 > EPE/4 > ... > EPE)
        fractions_pos = np.linspace(1.0, 0.0, 5)
        fractions_neg = np.linspace(0.0, 1.0, 5)
        fractions = np.where(epe[:, None] >= 0, fractions_pos, fractions_neg)
        samples = epe[:, None] * fractions
        projected = self.projection(samples)
        shifted = projected - projected.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def _matched_preferences(self, scaled_epe: np.ndarray) -> np.ndarray:
        """Gaussian preference around the error-cancelling movement.

        ``scaled_epe`` is the printed-edge error expressed in mask-movement
        units (raw EPE times 1/MEEF); movement ``m`` leaves a residual of
        ``scaled_epe + m``, and the preference decays with that residual.
        Clipping keeps huge errors mapped onto the extreme movements.
        """
        clipped = np.clip(scaled_epe, -3.0, 3.0)
        moves = np.arange(-2.0, 3.0)
        residual = clipped[:, None] + moves[None, :]
        logits = -((residual / self.sigma) ** 2)
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)

    def log_preference_batch(
        self, epe_nm: np.ndarray, gain: float = 1.0
    ) -> np.ndarray:
        """``ln p_hat`` per segment — the additive logit offset equivalent
        of Eq. 6's elementwise product, used to train the policy *against
        the modulated distribution* (residual learning).  Preferences are
        floored so fully-suppressed movements stay finite in logit space."""
        return np.log(np.maximum(self.preference_batch(epe_nm, gain=gain), 1e-12))

    def modulate(
        self,
        probabilities: np.ndarray,
        epe_nm: np.ndarray,
        gain: float = 1.0,
    ) -> np.ndarray:
        """Eq. 6 inner product: ``p_hat (.) pi`` renormalized per segment.

        ``probabilities`` is ``(n, 5)`` policy output; returns the modulated
        distribution used for sampling / argmax decisions.
        """
        probs = np.asarray(probabilities, dtype=np.float64)
        prefs = self.preference_batch(np.asarray(epe_nm), gain=gain)
        if probs.shape != prefs.shape:
            raise ConfigError(
                f"probability shape {probs.shape} != preference shape {prefs.shape}"
            )
        mixed = probs * prefs
        total = mixed.sum(axis=1, keepdims=True)
        # A segment with an all-zero row (degenerate policy) falls back to
        # the preference alone.
        fallback = total[:, 0] <= 0
        if fallback.any():
            mixed[fallback] = prefs[fallback]
            total = mixed.sum(axis=1, keepdims=True)
        return mixed / total
