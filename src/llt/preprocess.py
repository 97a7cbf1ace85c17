"""Raw ECG signal conditioning: zero-phase band-pass filtering,
standardization, peak detection and peak-centered windowing.

Beats that cannot be produced cleanly (window overrun, degenerate
window, zero or multiple peaks under a single-beat expectation) are
emitted with artifact=True; downstream classification labels them
ectopic by rule instead of running the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .types import Beat, Label, Signal

FILTER_ORDER = 4


@dataclass
class PreprocessConfig:
    lowpass_hz: float = 20.0
    highpass_hz: float = 0.5
    window_len: int = 30
    refractory_samples: int = 72  # 0.2 s at 360 Hz
    peak_threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.highpass_hz < self.lowpass_hz:
            raise ValueError("need 0 < highpass_hz < lowpass_hz")
        if self.window_len < 2 or self.refractory_samples < 1:
            raise ValueError("window_len and refractory_samples must be positive")
        if not 0.0 < self.peak_threshold < 1.0:
            raise ValueError("peak_threshold must be in (0, 1)")


@lru_cache(maxsize=64)
def _butter_sos(cutoff: float, btype: str, fs: float) -> np.ndarray:
    """Second-order sections of the FILTER_ORDER Butterworth design, made
    once per (cutoff, btype, fs). Read-only, because every caller shares
    the cached array."""
    from scipy.signal import butter

    sos = butter(FILTER_ORDER, cutoff, btype, fs=fs, output="sos")
    sos.setflags(write=False)
    return sos


def bandpass(sig: Signal, cfg: PreprocessConfig) -> Signal:
    """Butterworth high-pass then low-pass, each run forward-backward
    for zero phase so the QRS center is not shifted. scipy.signal is
    imported here, not at module load: it costs about a second and only
    raw-record preprocessing needs it."""
    nyq = sig.fs / 2.0
    if cfg.lowpass_hz >= nyq:
        raise ValueError(f"lowpass cutoff {cfg.lowpass_hz} Hz >= Nyquist {nyq} Hz")
    if len(sig.values) <= 6 * FILTER_ORDER:
        raise ValueError(f"signal too short to filter ({len(sig.values)} samples)")
    from scipy.signal import sosfiltfilt

    sos_hp = _butter_sos(cfg.highpass_hz, "highpass", sig.fs)
    sos_lp = _butter_sos(cfg.lowpass_hz, "lowpass", sig.fs)
    # sosfiltfilt takes only writable sections, hence the copies
    out = sosfiltfilt(sos_lp.copy(), sosfiltfilt(sos_hp.copy(), sig.values))
    return Signal(values=out, fs=sig.fs)


def standardize(window: np.ndarray) -> np.ndarray:
    """Subtract the mean, then divide by the max absolute value so the
    result lies in [-1, 1] regardless of polarity."""
    window = np.asarray(window, dtype=float)
    if window.max() == window.min():
        raise ValueError("degenerate window")
    centered = window - window.mean()
    return centered / np.max(np.abs(centered))


def detect_peaks(sig: Signal, cfg: PreprocessConfig) -> list[int]:
    """Local maxima above peak_threshold * global max, at least
    refractory_samples apart. Conflicts keep the taller peak."""
    v = sig.values
    if len(v) < 3 or v.max() <= 0:
        return []
    thr = cfg.peak_threshold * v.max()
    cand = [i for i in range(1, len(v) - 1)
            if v[i] >= v[i - 1] and v[i] > v[i + 1] and v[i] > thr]
    # accept in descending amplitude (index breaks ties) under the gap rule
    accepted: list[int] = []
    for i in sorted(cand, key=lambda i: (-v[i], i)):
        if all(abs(i - j) >= cfg.refractory_samples for j in accepted):
            accepted.append(i)
    return sorted(accepted)


def _artifact_beat(window_len: int, label: Label, source_id: str) -> Beat:
    return Beat(samples=np.zeros(window_len), label=label,
                artifact=True, source_id=source_id)


def extract_beat(sig: Signal, peak: int, window_len: int,
                 label: Label = Label.UNLABELED, source_id: str = "") -> Beat:
    """Standardized window with the peak at index window_len // 2;
    out-of-bounds windows or degenerate content give an artifact beat."""
    start = peak - window_len // 2
    if start < 0 or start + window_len > len(sig.values):
        return _artifact_beat(window_len, label, source_id)
    try:
        samples = standardize(sig.values[start : start + window_len])
    except ValueError:
        return _artifact_beat(window_len, label, source_id)
    return Beat(samples=samples, label=label, artifact=False, source_id=source_id)


def preprocess_record(sig: Signal, cfg: PreprocessConfig,
                      label: Label = Label.UNLABELED, source_id: str = "",
                      expect_single_beat: bool = True) -> list[Beat]:
    """Full chain: bandpass, peak detection, windowing.

    Under the single-beat expectation a record with zero or several
    peaks yields one artifact beat, never zero beats.
    """
    filtered = bandpass(sig, cfg)
    peaks = detect_peaks(filtered, cfg)
    if expect_single_beat:
        if len(peaks) != 1:
            return [_artifact_beat(cfg.window_len, label, source_id)]
        return [extract_beat(filtered, peaks[0], cfg.window_len, label, source_id)]
    return [extract_beat(filtered, p, cfg.window_len, label, source_id) for p in peaks]
