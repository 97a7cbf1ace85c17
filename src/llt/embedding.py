"""Time-delay embedding of beats into overlapping lagged windows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .types import Beat, Corpus


@dataclass
class EmbeddedMatrix:
    """Rows of lagged windows, newest sample first in each row.

    Beats are stacked in input order, each contributing ``L - width + 1``
    consecutive rows, so row ``m * (L - width + 1) + j`` is the window of
    beat ``m`` ending at sample ``j + width - 1``.
    """

    data: np.ndarray

    @property
    def rows(self) -> int:
        return self.data.shape[0]


def embed_class(beats: np.ndarray | list[Beat], width: int) -> EmbeddedMatrix:
    """Stack per-beat embeddings into one block matrix, in input order.

    `beats` is an (N, L) sample array, one beat per row, or a list of
    beats, which is stacked first as a Corpus of the first beat's length.
    The windows are one read-only strided view, stepping back one sample
    per lag; the copy is C-contiguous even where the reshape is a view."""
    if len(beats) == 0:
        raise ValueError("no beat to embed")
    samples = (beats if isinstance(beats, np.ndarray)
               else Corpus(beats, window_len=len(beats[0].samples)).samples)
    if samples.ndim != 2:
        raise ValueError(f"beat samples must be an (N, L) array, got shape {samples.shape}")
    check_width(width, samples.shape[1])
    (n, length), (s0, s1) = samples.shape, samples.strides
    windows = as_strided(samples[:, width - 1:], (n, length - width + 1, width),
                         (s0, s1, -s1), writeable=False)
    return EmbeddedMatrix(data=np.ascontiguousarray(windows.reshape(-1, width)))


def check_width(width: int, length: int) -> None:
    """Raise ValueError unless 2 <= width <= length, a series' length."""
    if width < 2:
        raise ValueError(f"embedding width must be >= 2, got {width}")
    if width > length:
        raise ValueError(f"embedding width {width} exceeds series length {length}")
