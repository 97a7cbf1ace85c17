"""Synthetic two-class corpora with known exact laws.

Each class is a family of sinusoids of one angular frequency, and a
sinusoid obeys the 3-term identity y_k = 2 cos(w) y_{k-1} - y_{k-2}, so
the fitted law can be checked against an analytic reference (the
tests' `exact_law`) and noiseless residuals are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import Corpus, Label, Role

# sinusoid phases are drawn from [0, PHASE_SPAN); an arc shorter than pi
# keeps the residual clusters linearly separable (a full circle of
# phases surrounds the reference class's near-zero residuals)
PHASE_SPAN = 0.6 * np.pi


@dataclass
class SynthSpec:
    """`beats` sinusoids of angular frequency `omega_a` (class A) and as
    many of `omega_b` (class B), each `window_len` samples with Gaussian
    noise of standard deviation `noise`."""

    omega_a: float = 0.3
    omega_b: float = 0.9
    beats: int = 200
    window_len: int = 30
    noise: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("omega_a", "omega_b"):
            omega = getattr(self, name)
            if not 0.0 < omega < np.pi:
                raise ValueError(f"{name} must be in (0, pi), got {omega}")
        if self.beats < 4:
            raise ValueError(f"beats must be at least 4, got {self.beats}")
        if self.window_len < 4:
            raise ValueError(f"window_len must be at least 4, got {self.window_len}")
        if not np.isfinite(self.noise) or self.noise < 0:
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")


def generate(spec: SynthSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Seeded corpus generation, 40/30/30 across train/validation/test.
    Class A is labeled Normal (the reference class), class B Ectopic.
    Each beat draws its phase, its amplitude and then its noise, class A's
    beats first, into row (class, beat) of one sample array."""
    rng = np.random.default_rng(spec.seed)
    n, k = spec.beats, np.arange(spec.window_len)
    samples = np.empty((2, n, spec.window_len))
    for rows, omega in zip(samples, (spec.omega_a, spec.omega_b)):
        for row in rows:
            phase = rng.uniform(0.0, PHASE_SPAN)
            amp = rng.uniform(0.5, 1.5)
            row[:] = amp * np.cos(omega * k + phase)
            if spec.noise > 0:
                row += spec.noise * rng.standard_normal(spec.window_len)

    n_train, n_val = round(0.4 * n), round(0.3 * n)
    cuts = (0, n_train, n_train + n_val, n)
    return tuple(
        Corpus.from_arrays(samples[:, a:b].reshape(-1, spec.window_len),
                           np.repeat([Label.NORMAL.value, Label.ECTOPIC.value], b - a),
                           np.zeros(2 * (b - a), dtype=bool), role)
        for a, b, role in zip(cuts, cuts[1:], (Role.TRAIN, Role.VALIDATION, Role.TEST))
    )
