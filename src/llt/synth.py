"""Synthetic two-class corpora with known exact laws.

Each class follows a low-order linear recurrence (a sinusoid obeys the
3-term identity y_k = 2 cos(w) y_{k-1} - y_{k-2}; an AR class obeys its
own coefficients), so the fitted law can be checked against an analytic
reference and noiseless residuals are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .types import Beat, Corpus, Label, LinearLaw, Role


@dataclass
class RecurrenceSpec:
    kind: str  # "sinusoid" or "ar"
    omega: float = 0.0
    ar_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "sinusoid":
            if not 0.0 < self.omega < np.pi:
                raise ValueError(f"omega must be in (0, pi), got {self.omega}")
        elif self.kind == "ar":
            if not self.ar_coeffs:
                raise ValueError("AR spec needs coefficients")
        else:
            raise ValueError(f"unknown recurrence kind {self.kind!r}")

    @property
    def order(self) -> int:
        return 2 if self.kind == "sinusoid" else len(self.ar_coeffs)


# sinusoid phases are drawn from [0, PHASE_SPAN); an arc shorter than pi
# keeps the residual clusters linearly separable (a full circle of
# phases surrounds the reference class's near-zero residuals)
PHASE_SPAN = 0.6 * np.pi


@dataclass
class SynthSpec:
    class_a: RecurrenceSpec = field(
        default_factory=lambda: RecurrenceSpec("sinusoid", omega=0.3))
    class_b: RecurrenceSpec = field(
        default_factory=lambda: RecurrenceSpec("sinusoid", omega=0.9))
    beats_per_class: int = 200
    window_len: int = 30
    noise_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.beats_per_class < 4:
            raise ValueError(f"beats_per_class must be at least 4, got {self.beats_per_class}")
        if self.window_len < 4:
            raise ValueError(f"window_len must be at least 4, got {self.window_len}")
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ValueError("noise_sigma must be finite and >= 0")


def _one_beat(spec: RecurrenceSpec, length: int, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "sinusoid":
        phase = rng.uniform(0.0, PHASE_SPAN)
        amp = rng.uniform(0.5, 1.5)
        return amp * np.cos(spec.omega * np.arange(length) + phase)
    order = spec.order
    y = np.empty(length)
    y[:order] = rng.standard_normal(order)
    for k in range(order, length):
        y[k] = sum(a * y[k - 1 - i] for i, a in enumerate(spec.ar_coeffs))
    return y


def generate(spec: SynthSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Seeded corpus generation, 40/30/30 across train/validation/test.
    Class A is labeled Normal (the reference class), class B Ectopic."""
    rng = np.random.default_rng(spec.seed)
    beats_by_class = {}
    for label, cls in ((Label.NORMAL, spec.class_a), (Label.ECTOPIC, spec.class_b)):
        beats = []
        for _ in range(spec.beats_per_class):
            y = _one_beat(cls, spec.window_len, rng)
            if spec.noise_sigma > 0:
                y = y + spec.noise_sigma * rng.standard_normal(spec.window_len)
            beats.append(Beat(samples=y, label=label, source_id="synth"))
        beats_by_class[label] = beats

    n = spec.beats_per_class
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


def exact_law(spec: RecurrenceSpec, width: int, class_tag: str = "Normal") -> LinearLaw:
    """Analytic law of a recurrence class, zero-padded to the requested
    width at the older-lag end (rows are newest-first)."""
    if spec.order + 1 > width:
        raise ValueError(
            f"recurrence order {spec.order} needs width >= {spec.order + 1}"
        )
    if spec.kind == "sinusoid":
        coeffs = np.array([1.0, -2.0 * np.cos(spec.omega), 1.0])
    else:
        coeffs = np.concatenate(([1.0], -np.asarray(spec.ar_coeffs, dtype=float)))
    w = np.zeros(width)
    w[: len(coeffs)] = coeffs
    w = w / np.linalg.norm(w)
    if w[np.flatnonzero(w)[0]] < 0:
        w = -w
    return LinearLaw(w=w, lam=0.0, class_tag=class_tag)
