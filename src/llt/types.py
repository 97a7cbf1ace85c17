"""Shared domain types for raw signals, beats, corpora and linear laws."""

from __future__ import annotations

from dataclasses import dataclass
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


# Label -> token and back; a dict lookup is cheaper than the Enum
# `value` property and than `Label(token)`
_TOKEN = {label: label.value for label in Label}
_LABEL = {token: label for label, token in _TOKEN.items()}


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
        if not np.isfinite(self.values).all():
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
        # the array method: np.all's dispatch costs more than the test
        # itself, once per beat of a loaded corpus
        if not np.isfinite(self.samples).all():
            raise ValueError("beat contains non-finite samples")


class Corpus:
    """Beats of one window length, held as arrays.

    ``samples`` is the read-only (N, window_len) sample array, one beat
    per row; ``labels`` holds each row's label token, ``artifact`` its
    artifact flag and ``clean`` the flag's negation. `from_arrays` builds
    a corpus from these arrays. ``Corpus(beats, window_len, role)``
    stacks a list of beats once into them, and ``beats`` gives a Beat
    view of each row when it is read; neither is stored.
    """

    __slots__ = ("samples", "labels", "artifact", "clean", "role")

    def __init__(self, beats: list[Beat], window_len: int, role: Role = Role.TRAIN):
        for i, b in enumerate(beats):
            if len(b.samples) != window_len:
                raise ValueError(
                    f"beat {i}: length {len(b.samples)} != corpus length {window_len}"
                )
        # the rows have equal lengths, so np.array stacks them as np.stack
        # would, at half the cost; the reshape covers a corpus of no beats
        self._hold(np.array([b.samples for b in beats], dtype=float).reshape(
                       len(beats), window_len),
                   np.array([_TOKEN[b.label] for b in beats], dtype=str),
                   np.array([b.artifact for b in beats], dtype=bool), role)

    @classmethod
    def from_arrays(cls, samples: np.ndarray, labels: np.ndarray, artifact: np.ndarray,
                    role: Role = Role.TRAIN) -> "Corpus":
        """A corpus of the (N, L) `samples`, their N label tokens and N
        artifact flags, checked by the caller; it keeps a read-only view
        of `samples`, and `labels` and `artifact` as given."""
        corpus = cls.__new__(cls)
        corpus._hold(samples, labels, artifact, role)
        return corpus

    def _hold(self, samples, labels, artifact, role) -> None:
        if samples.ndim != 2 or not labels.shape == artifact.shape == (len(samples),):
            raise ValueError(f"corpus arrays of shapes {samples.shape}, {labels.shape} "
                             f"and {artifact.shape} do not match")
        self.samples = samples.view()
        self.samples.flags.writeable = False
        self.labels = labels
        self.artifact = artifact
        self.clean = ~artifact
        self.role = role

    @property
    def window_len(self) -> int:
        return self.samples.shape[1]

    @property
    def beats(self) -> list[Beat]:
        """A Beat of each row, built on each read; its samples are a
        read-only view of the row."""
        return [Beat(samples=row, label=_LABEL[token], artifact=flag)
                for row, token, flag in zip(self.samples, self.labels.tolist(),
                                            self.artifact.tolist())]

    def __len__(self) -> int:
        return len(self.samples)

    def with_label(self, label: Label) -> list[Beat]:
        return [b for b in self.beats if b.label == label]

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
