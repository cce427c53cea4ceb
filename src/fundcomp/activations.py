"""Pointwise nonlinear activations: rectification, ReLU, adaptive reciprocal."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ZeroSignal

# |x| may exceed 1 by float rounding when normalized by an estimated sup-norm;
# overshoot up to this much is clamped, anything larger is a domain error.
OVERSHOOT_TOL = 1e-9

# Smallest epsilon an ActivationSpec takes.  h_eps <= 1/eps, so an rFFT of an
# activated signal has |X|^2 <= (n/eps)^2, and the largest sum any output
# holds, analyze's band-ratio denominator over the whole STFT, is at most
# frames * fft_length * window / eps^2 (Parseval per frame).  With each of
# those three below 2^53 this stays below the largest double (1.8e308) for
# eps >= 6.4e-131; this is the smallest power of ten above that.
EPSILON_MIN = 1e-130

ABS = "abs"
RELU = "relu"
ADAPTIVE_RECIPROCAL = "heps"

_KINDS = (ABS, RELU, ADAPTIVE_RECIPROCAL)


@dataclass(frozen=True)
class ActivationSpec:
    kind: str
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == ADAPTIVE_RECIPROCAL:
            if self.epsilon is None or not EPSILON_MIN <= self.epsilon < 1.0:
                raise ValueError(
                    f"heps requires epsilon in [{EPSILON_MIN:g}, 1)")
        elif self.epsilon is not None:
            raise ValueError(f"{self.kind} takes no epsilon")

    @classmethod
    def abs(cls) -> "ActivationSpec":
        return cls(ABS)

    @classmethod
    def relu(cls) -> "ActivationSpec":
        return cls(RELU)

    @classmethod
    def adaptive(cls, epsilon: float) -> "ActivationSpec":
        return cls(ADAPTIVE_RECIPROCAL, epsilon)

    @property
    def label(self) -> str:
        if self.kind == ADAPTIVE_RECIPROCAL:
            return f"heps_{self.epsilon:g}"
        return self.kind


def _h_eps_kernel(ax, epsilon):
    """1 / ((1 - |x|) + eps |x|) for ax = |x| in [0, 1]; no domain checks.

    The denominator is exactly eps at |x| = 1, so h never exceeds 1/eps, where
    1 - (1 - eps)|x| cancels. |x| is taken back as 1 - u from u = 1 - |x|
    (exact for |x| >= 1/2), so the denominator depends on |x| through u alone
    and h is nondecreasing in |x| also in floating point.
    """
    u = 1.0 - ax
    return 1.0 / (u + epsilon * (1.0 - u))


def h_eps(x, epsilon: float):
    """Adaptive reciprocal activation 1 / (1 - (1 - eps)|x|) on [-1, 1]."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    ax = np.abs(np.asarray(x, dtype=np.float64))
    if np.any(ax > 1.0 + OVERSHOOT_TOL):
        worst = float(np.max(ax))
        raise DomainError(f"|x| = {worst} exceeds 1 beyond tolerance")
    out = _h_eps_kernel(np.minimum(ax, 1.0), epsilon)
    return float(out) if np.ndim(x) == 0 else out


def apply(spec: ActivationSpec, x: np.ndarray) -> np.ndarray:
    """Apply an activation pointwise to the samples x (one signal per row).

    The adaptive reciprocal normalizes each row by its own max |x|.
    """
    if spec.kind == ABS:
        return np.abs(x)
    if spec.kind == RELU:
        return np.maximum(x, 0.0)
    norm = np.max(np.abs(x), axis=-1, keepdims=True)
    if np.any(norm <= 0.0):
        raise ZeroSignal("adaptive reciprocal needs a nonzero normalization")
    return h_eps(x / norm, spec.epsilon)
