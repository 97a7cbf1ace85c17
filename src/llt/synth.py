"""Synthetic two-class corpora with known exact laws.

Each class is a family of sinusoids of one angular frequency, and a
sinusoid obeys the 3-term identity y_k = 2 cos(w) y_{k-1} - y_{k-2}, so
the fitted law can be checked against an analytic reference (the
tests' `exact_law`) and noiseless residuals are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import Beat, Corpus, Label, Role

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
    Class A is labeled Normal (the reference class), class B Ectopic."""
    rng = np.random.default_rng(spec.seed)
    k = np.arange(spec.window_len)
    beats_by_class = {}
    for label, omega in ((Label.NORMAL, spec.omega_a), (Label.ECTOPIC, spec.omega_b)):
        beats = []
        for _ in range(spec.beats):
            phase = rng.uniform(0.0, PHASE_SPAN)
            amp = rng.uniform(0.5, 1.5)
            y = amp * np.cos(omega * k + phase)
            if spec.noise > 0:
                y = y + spec.noise * rng.standard_normal(spec.window_len)
            beats.append(Beat(samples=y, label=label, source_id="synth"))
        beats_by_class[label] = beats

    n = spec.beats
    n_train = round(0.4 * n)
    n_val = round(0.3 * n)
    parts = {Role.TRAIN: [], Role.VALIDATION: [], Role.TEST: []}
    for label in (Label.NORMAL, Label.ECTOPIC):
        beats = beats_by_class[label]
        parts[Role.TRAIN] += beats[:n_train]
        parts[Role.VALIDATION] += beats[n_train : n_train + n_val]
        parts[Role.TEST] += beats[n_train + n_val :]
    return tuple(
        Corpus(beats=parts[r], window_len=spec.window_len, role=r)
        for r in (Role.TRAIN, Role.VALIDATION, Role.TEST)
    )

