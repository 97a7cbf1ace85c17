"""Shared domain types for raw signals, beats, corpora and linear laws."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class ConvergenceError(RuntimeError):
    """A solver stopped before its optimality conditions held; the
    message states the remaining gap or residual."""


class Label(str, Enum):
    NORMAL = "N"
    ECTOPIC = "E"
    UNLABELED = "?"

    @classmethod
    def from_token(cls, token: str) -> "Label":
        try:
            return cls(token)
        except ValueError:
            raise ValueError(f"unknown label token {token!r}") from None


# Label -> token; a dict lookup is cheaper than the Enum `value` property
_TOKEN = {label: label.value for label in Label}


class Role(str, Enum):
    TRAIN = "train"
    VALIDATION = "validation"
    TEST = "test"


@dataclass
class Signal:
    """One raw ECG record sampled at ``fs`` Hz."""

    values: np.ndarray
    fs: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("signal must be 1-D")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("signal contains non-finite values")
        if self.fs <= 0:
            raise ValueError(f"sampling rate must be positive, got {self.fs}")


@dataclass
class Beat:
    """Fixed-length window centered on a detected peak.

    ``artifact`` marks beats where peak detection or standardization
    failed; their samples are placeholders and must not be embedded.
    """

    samples: np.ndarray
    label: Label = Label.UNLABELED
    artifact: bool = False
    source_id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or len(self.samples) < 2:
            raise ValueError("beat needs a 1-D sample vector of length >= 2")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("beat contains non-finite samples")


@dataclass
class Corpus:
    """Beats of one window length, stacked once into arrays.

    ``samples`` is the read-only (N, window_len) sample array, row i
    being ``beats[i].samples``; ``labels`` holds each beat's label token,
    ``artifact`` its artifact flag and ``clean`` its negation. The arrays
    are built at construction, so ``beats`` must not be changed
    afterwards.
    """

    beats: list[Beat]
    window_len: int
    role: Role = Role.TRAIN
    samples: np.ndarray = field(init=False, repr=False, compare=False)
    labels: np.ndarray = field(init=False, repr=False, compare=False)
    artifact: np.ndarray = field(init=False, repr=False, compare=False)
    clean: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for i, b in enumerate(self.beats):
            if len(b.samples) != self.window_len:
                raise ValueError(
                    f"beat {i}: length {len(b.samples)} != corpus length {self.window_len}"
                )
        # the rows have equal lengths, so np.array stacks them as np.stack
        # would, at half the cost; the reshape covers a corpus of no beats
        self.samples = np.array([b.samples for b in self.beats], dtype=float).reshape(
            len(self.beats), self.window_len)
        self.samples.flags.writeable = False
        self.labels = np.array([_TOKEN[b.label] for b in self.beats], dtype=str)
        self.artifact = np.array([b.artifact for b in self.beats], dtype=bool)
        self.clean = ~self.artifact

    def __len__(self) -> int:
        return len(self.beats)

    def with_label(self, label: Label) -> list[Beat]:
        return [b for b in self.beats if b.label == label]

    def non_artifact(self) -> list[Beat]:
        return [b for b in self.beats if not b.artifact]

    def rows(self, label: Label | None = None) -> np.ndarray:
        """(n, window_len) samples of the non-artifact beats, of `label`
        only if one is given, in corpus order."""
        if label is None:
            return self.samples[self.clean]
        return self.samples[self.clean & (self.labels == label.value)]

    def row_labels(self) -> list[str]:
        """Label tokens of the rows of `rows()`, in the same order."""
        return self.labels[self.clean].tolist()


@dataclass
class LinearLaw:
    """Unit-norm coefficient vector whose sliding dot product with a
    class's embedded windows is (near) zero.

    ``lam`` is the smallest eigenvalue of the fitted correlation matrix,
    which equals the training variance of the residuals.
    """

    w: np.ndarray
    lam: float
    class_tag: str
    train_row_count: int = 0

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 1:
            raise ValueError("law coefficients must be a vector")
        norm = float(np.linalg.norm(self.w))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"coefficients not unit norm (norm={norm:.6g})")
        if self.lam < -1e-12:
            raise ValueError("negative eigenvalue on a PSD correlation matrix")

    @property
    def width(self) -> int:
        return len(self.w)
