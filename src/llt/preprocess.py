"""Raw ECG signal conditioning: zero-phase band-pass filtering, peak
detection, and one standardized peak-centered window per record.

Each record holds one beat, cut by preprocess_record. A record whose
beat cannot be produced cleanly (zero or several peaks, window overrun,
constant window) yields one beat with artifact=True; downstream
classification labels it ectopic by rule instead of running the model.
`bandpass` returns the filtered samples as a plain array, checked
finite once, and `detect_peaks` reads samples and a rate: every
rate-dependent setting (the filter designs, the refractory gap between
peaks) follows the record's own sampling rate ``fs``.

The band-pass is scipy's sosfiltfilt, bit for bit, with the parts that
depend only on the filter design (the sections, sosfilt_zi in the
kernel's state shape, the pad length, and the kernel bound to the
sections) made once per design instead of once per record. Its passes
call scipy's compiled kernel ``scipy.signal._sosfilt._sosfilt``, the
routine under the public sosfilt and sosfiltfilt, so a record skips
sosfilt's per-call checks, axis moves and copies, which cost several
times the filtering itself; what is left per filter is its odd
extension written into one buffer, a state product per pass and one
reversed copy. The entry point is private; it is safe because
``TestBandpass::test_equals_fresh_sosfiltfilt`` compares bandpass with
the public sosfiltfilt bit for bit over lengths 25-4,000 at five rates,
so a scipy that moves or changes it fails there.

Peak candidates come from one vectorised local-maximum mask, read
against one max of the samples. The window is centred with its sum over
its length, which is np.mean's own arithmetic, and scaled by the max of
its absolute values. ``test_record_equals_public_chain`` compares
preprocess_record, bit for bit, with the same chain built from the
public sosfiltfilt, np.flatnonzero, np.mean and np.max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .types import Beat, Label, Signal

FILTER_ORDER = 4


@dataclass
class PreprocessConfig:
    """Settings of the preprocessing chain, and the only declaration of
    them: `llt preprocess` makes each field a flag (``--refractory-ms``
    for ``refractory_ms``) and a config-file key. Cutoffs are in Hz and
    the refractory gap in milliseconds, so one config serves records of
    any sampling rate; ``window_len`` is in samples. Every value is
    checked at construction, and an error names its field."""

    lowpass: float = 20.0
    highpass: float = 0.5
    window_len: int = 30
    refractory_ms: float = 200.0
    peak_threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.highpass < self.lowpass:
            raise ValueError(f"need 0 < highpass < lowpass, got highpass={self.highpass} "
                             f"and lowpass={self.lowpass}")
        if self.window_len < 2:
            raise ValueError(f"window_len must be at least 2, got {self.window_len}")
        if not (math.isfinite(self.refractory_ms) and self.refractory_ms > 0):
            raise ValueError(f"refractory_ms must be finite and positive, "
                             f"got {self.refractory_ms}")
        if not 0.0 < self.peak_threshold < 1.0:
            raise ValueError(f"peak_threshold must be in (0, 1), got {self.peak_threshold}")


class _Design(NamedTuple):
    """One FILTER_ORDER Butterworth design, the constants that
    scipy.signal.sosfiltfilt would derive from it on every call, and
    scipy's compiled sosfilt kernel bound to its sections."""

    sos: np.ndarray   # second-order sections, a read-only view of the array run reads
    zi: np.ndarray    # sosfilt_zi(sos) in the kernel's (1, n_sections, 2) shape, read-only
    pad: int          # sosfiltfilt's default odd-extension length
    run: Callable[[np.ndarray, np.ndarray], None]  # run(x, zi) filters (1, n) x in place


@lru_cache(maxsize=64)
def _butter_sos(cutoff: float, btype: str, fs: float) -> _Design:
    """The design for (cutoff, btype, fs), made once per key: the
    sections, their steady-state initial conditions, the pad length
    3 * (2*n_sections + 1 - min(#zero b2, #zero a2)) and the kernel
    ``scipy.signal._sosfilt._sosfilt`` with the sections bound. The
    kernel rejects read-only sections but only reads them, so it gets
    the writable array and every other caller a read-only view of it."""
    from scipy.signal import butter, sosfilt_zi
    from scipy.signal._sosfilt import _sosfilt

    sections = butter(FILTER_ORDER, cutoff, btype, fs=fs, output="sos")
    zi = sosfilt_zi(sections)[None]
    ntaps = 2 * len(sections) + 1 - min((sections[:, 2] == 0).sum(),
                                        (sections[:, 5] == 0).sum())
    sos = sections.view()
    sos.setflags(write=False)
    zi.setflags(write=False)
    return _Design(sos=sos, zi=zi, pad=3 * int(ntaps), run=partial(_sosfilt, sections))


def _filtfilt(design: _Design, x: np.ndarray) -> np.ndarray:
    """scipy.signal.sosfiltfilt(design.sos, x) for a 1-D x, bit for bit.
    These are its own steps (odd extension, a forward pass from
    zi * ext[0], a backward one from zi * y[-1], reverse and trim) with
    the same arithmetic in the same order, run by the compiled kernel
    that sosfilt itself calls. The kernel filters a C-contiguous (1, n)
    array and its state in place, so the extension is written into one
    new buffer, the backward pass gets a reversed copy, and each pass a
    fresh state. The private entry point is pinned by
    TestBandpass::test_equals_fresh_sosfiltfilt."""
    n = design.pad
    y = np.empty((1, len(x) + 2 * n))
    ext = y[0]
    np.subtract(2 * x[0], x[n:0:-1], ext[:n])
    ext[n:-n] = x
    np.subtract(2 * x[-1], x[-2:-(n + 2):-1], ext[-n:])
    design.run(y, design.zi * ext[0])
    y = y[:, ::-1].copy()
    design.run(y, design.zi * y[0, 0])
    return y[0, -n - 1 : n - 1 : -1]  # reversed back, without the pads


def bandpass(sig: Signal, cfg: PreprocessConfig) -> np.ndarray:
    """The record's samples through a Butterworth high-pass then
    low-pass, each run forward-backward for zero phase so the QRS center
    is not shifted. Each design, its sosfilt_zi and its pad length are
    cached per (cutoff, type, rate), so a record costs two kernel passes
    per filter. scipy.signal is imported in the helpers, not at module
    load: it costs about a second and only raw-record preprocessing
    needs it. The output is checked: a finite record can overflow."""
    nyq = sig.fs / 2.0
    if cfg.lowpass >= nyq:
        raise ValueError(f"lowpass cutoff {cfg.lowpass} Hz >= Nyquist {nyq} Hz")
    if len(sig.values) <= 6 * FILTER_ORDER:
        raise ValueError(f"signal too short to filter ({len(sig.values)} samples)")
    hp = _butter_sos(cfg.highpass, "highpass", sig.fs)
    lp = _butter_sos(cfg.lowpass, "lowpass", sig.fs)
    y = _filtfilt(lp, _filtfilt(hp, sig.values))
    if not np.isfinite(y).all():
        raise ValueError("band-pass output is not finite: the record overflows the filter")
    return y


def detect_peaks(v: np.ndarray, fs: float, cfg: PreprocessConfig) -> list[int]:
    """Local maxima of the samples `v` above peak_threshold * their max,
    at least refractory_ms apart at the rate `fs` (rounded to whole
    samples, at least one). Conflicts keep the taller peak."""
    gap = max(1, round(cfg.refractory_ms / 1000.0 * fs))
    if len(v) < 3 or (top := v.max()) <= 0:
        return []
    m = v[1:-1]
    mask = (m >= v[:-2]) & (m > v[2:]) & (m > cfg.peak_threshold * top)
    cand = [i + 1 for i in mask.nonzero()[0].tolist()]  # indices into v
    # accept in descending amplitude (index breaks ties) under the gap rule
    accepted: list[int] = []
    for i in sorted(cand, key=lambda i: (-v[i], i)):
        if all(abs(i - j) >= gap for j in accepted):
            accepted.append(i)
    return sorted(accepted)


def preprocess_record(sig: Signal, cfg: PreprocessConfig,
                      label: Label = Label.UNLABELED, source_id: str = "") -> list[Beat]:
    """Full chain: bandpass, peak detection, then the window of
    window_len samples with the peak at index window_len // 2, minus its
    mean and divided by its max absolute value, so it lies in [-1, 1]
    whatever its polarity. The record holds one beat, so it yields
    exactly one: an artifact beat when the record has zero or several
    peaks, or when the window overruns it or is constant."""
    filtered = bandpass(sig, cfg)
    peaks = detect_peaks(filtered, sig.fs, cfg)
    n = cfg.window_len
    start = peaks[0] - n // 2 if len(peaks) == 1 else -1  # -1: no single peak
    window = filtered[start : start + n] if start >= 0 else filtered[:0]
    # detect_peaks puts the peak strictly above its right neighbour, so
    # only a window of 2, which ends at the peak, can be constant
    if len(window) < n or (n == 2 and window[0] == window[1]):
        return [Beat(samples=np.zeros(n), label=label, artifact=True, source_id=source_id)]
    centered = window - window.sum() / n  # np.mean's own arithmetic
    centered /= np.abs(centered).max()
    return [Beat(samples=centered, label=label, source_id=source_id)]
