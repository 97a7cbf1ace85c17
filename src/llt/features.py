"""Law-residual feature generation.

Applying a class law to a beat's embedding yields the residual sequence
xi; small residuals mean the beat resembles the law's defining class.
Features are either stacked across all class laws or, in the binary
reference-class mode used for the ECG task, taken from the normal-class
law alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .embedding import embed_series
from .types import Beat, LinearLaw


class FeatureMode(str, Enum):
    MULTI_CLASS = "multi"
    BINARY_REFERENCE = "binary"


@dataclass
class FeatureVector:
    xi: np.ndarray
    layout: list[tuple[str, int]]
    mode: FeatureMode

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        total = sum(n for _, n in self.layout)
        if total != len(self.xi):
            raise ValueError(f"layout sums to {total} but xi has {len(self.xi)}")


@dataclass
class LawSet:
    """One law per class, all with the same width."""

    laws: dict[str, LinearLaw]

    def __post_init__(self):
        if not self.laws:
            raise ValueError("empty law set")
        widths = {law.width for law in self.laws.values()}
        if len(widths) != 1:
            raise ValueError(f"laws have mixed widths {sorted(widths)}")

    @property
    def width(self) -> int:
        return next(iter(self.laws.values())).width

    def ordered_tags(self) -> list[str]:
        # lexicographic class order keeps segment layout stable
        return sorted(self.laws)


def transform(beat: Beat, law: LinearLaw) -> np.ndarray:
    """Residual sequence xi of length len(beat) - width + 1."""
    if len(beat.samples) < law.width:
        raise ValueError(
            f"beat length {len(beat.samples)} shorter than law width {law.width}"
        )
    return embed_series(beat.samples, law.width) @ law.w


def stack_features(beat: Beat, laws: LawSet) -> FeatureVector:
    """Concatenate per-law residuals in fixed (lexicographic) class order."""
    segments = []
    layout = []
    for tag in laws.ordered_tags():
        xi = transform(beat, laws.laws[tag])
        segments.append(xi)
        layout.append((tag, len(xi)))
    return FeatureVector(
        xi=np.concatenate(segments), layout=layout, mode=FeatureMode.MULTI_CLASS
    )


def binary_features(beat: Beat, reference_law: LinearLaw) -> FeatureVector:
    """Single-segment features from the reference-class law (the binary
    simplification used for normal-vs-ectopic)."""
    xi = transform(beat, reference_law)
    return FeatureVector(
        xi=xi,
        layout=[(reference_law.class_tag, len(xi))],
        mode=FeatureMode.BINARY_REFERENCE,
    )


def downsample_features(fv: FeatureVector, factor: int) -> FeatureVector:
    """Keep every factor-th element within each segment independently."""
    if factor < 1:
        raise ValueError(f"downsample factor must be >= 1, got {factor}")
    if factor == 1:
        return fv
    pieces = []
    layout = []
    start = 0
    for tag, n in fv.layout:
        if factor > n:
            raise ValueError(f"factor {factor} larger than segment {tag} ({n})")
        seg = fv.xi[start : start + n : factor]
        pieces.append(seg)
        layout.append((tag, len(seg)))
        start += n
    return FeatureVector(xi=np.concatenate(pieces), layout=layout, mode=fv.mode)


def feature_matrix(beats: list[Beat], law: LinearLaw) -> np.ndarray:
    """Binary-mode features for a batch of non-artifact beats."""
    return np.array([transform(b, law) for b in beats])
