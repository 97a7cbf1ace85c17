"""Time-delay embedding of beats into overlapping lagged windows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .types import Beat


@dataclass
class EmbeddedMatrix:
    """Rows of lagged windows, newest sample first in each row.

    Beats are stacked in input order, each contributing ``L - width + 1``
    consecutive rows, so row ``m * (L - width + 1) + j`` is the window of
    beat ``m`` ending at sample ``j + width - 1``.
    """

    data: np.ndarray
    width: int

    @property
    def rows(self) -> int:
        return self.data.shape[0]


def _check_width(width: int, n: int) -> None:
    if width < 2:
        raise ValueError(f"embedding width must be >= 2, got {width}")
    if width > n:
        raise ValueError(f"embedding width {width} exceeds series length {n}")


def embed_series(values: np.ndarray, width: int) -> np.ndarray:
    """Embed a 1-D series into an (n-width+1, width) matrix.

    Row j holds [v[j+width-1], v[j+width-2], ..., v[j]]: the window
    ending at index j+width-1, newest first.
    """
    values = np.asarray(values, dtype=float)
    _check_width(width, len(values))
    return np.ascontiguousarray(sliding_window_view(values, width)[:, ::-1])


def _stack_beats(beats: list[Beat]) -> np.ndarray:
    """(N, L) sample array of equal-length beats, in input order."""
    lengths = {len(b.samples) for b in beats}
    if len(lengths) != 1:
        raise ValueError(f"beats have mixed lengths {sorted(lengths)}")
    return np.stack([b.samples for b in beats])


def embed_class(beats: np.ndarray | list[Beat], width: int) -> EmbeddedMatrix:
    """Stack per-beat embeddings into one block matrix, in input order.

    `beats` is an (N, L) sample array, one beat per row, or a list of
    beats, which is stacked first."""
    if len(beats) == 0:
        raise ValueError("cannot fit law on empty class")
    samples = beats if isinstance(beats, np.ndarray) else _stack_beats(beats)
    if samples.ndim != 2:
        raise ValueError(f"beat samples must be an (N, L) array, got shape {samples.shape}")
    _check_width(width, samples.shape[1])
    windows = sliding_window_view(samples, width, axis=1)[:, :, ::-1]
    data = np.ascontiguousarray(windows.reshape(-1, width))
    return EmbeddedMatrix(data=data, width=width)
