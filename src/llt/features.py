"""Law-residual feature matrix.

A beat's features are the residuals xi of one class law over the beat's
time-delay embedding: each embedded window dotted with the law's
coefficients. Small residuals mean the beat obeys the class dynamics.
Features from several laws are the column-wise concatenation of one
matrix per law.
"""

from __future__ import annotations

import numpy as np

from .embedding import embed_class
from .types import Beat, LinearLaw


def feature_matrix(beats: np.ndarray | list[Beat], law: LinearLaw) -> np.ndarray:
    """(N, L - width + 1) residuals of `law` on N beats of length L,
    given as an (N, L) sample array or a list of beats.

    One (N, K, width) @ (width,) product: each beat's residuals are the
    bits of `embed_series(beat.samples, width) @ law.w`, which a flat
    (N*K, width) product does not reproduce at widths of 8 and more."""
    windows = embed_class(beats, law.width).data
    return windows.reshape(len(beats), -1, law.width) @ law.w
