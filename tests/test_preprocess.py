import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from llt import preprocess
from llt.preprocess import (
    FILTER_ORDER,
    PreprocessConfig,
    Signal,
    _butter_sos,
    bandpass,
    detect_peaks,
    preprocess_record,
)
from llt.types import Label

from conftest import record_chain, record_chain_cut

FS = 360.0


def cfg(**kw):
    return PreprocessConfig(**kw)


def triangular_pulse(center, length, half_width=10, fs=FS):
    v = np.zeros(length)
    for i in range(-half_width, half_width + 1):
        v[center + i] = 1.0 - abs(i) / (half_width + 1)
    return Signal(values=v, fs=fs)


def filter_gain(freq_hz, config, fs=FS, n=8192):
    """Oracle: passband gain measured from the FFT of the cascade's
    impulse response (filtfilt applied to a unit impulse)."""
    impulse = np.zeros(n)
    impulse[n // 2] = 1.0
    out = bandpass(Signal(values=impulse, fs=fs), config)
    spectrum = np.abs(np.fft.rfft(out))
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    return spectrum[np.argmin(np.abs(freqs - freq_hz))]


def lock_in_amplitude(freq_hz, config, fs=FS, n=4000, trim=500):
    """Steady-state sinusoid amplitude by quadrature demodulation over the
    interior of a filtered sine (the edges carry filtfilt transients)."""
    t = np.arange(n) / fs
    out = bandpass(Signal(values=np.sin(2 * np.pi * freq_hz * t), fs=fs), config)
    mid, tm = out[trim:-trim], t[trim:-trim]
    a = 2.0 * np.mean(mid * np.sin(2 * np.pi * freq_hz * tm))
    b = 2.0 * np.mean(mid * np.cos(2 * np.pi * freq_hz * tm))
    return float(np.hypot(a, b))


class TestBandpass:
    def test_constant_killed(self):
        sig = Signal(values=np.ones(2000), fs=FS)
        out = bandpass(sig, cfg())
        assert np.max(np.abs(out[200:-200])) < 1e-3

    def test_passband_amplitude_preserved(self):
        gain = filter_gain(5.0, cfg())
        amp = lock_in_amplitude(5.0, cfg())
        assert amp == pytest.approx(gain, rel=0.01)
        assert 0.95 < amp < 1.05

    def test_stopband_attenuated(self):
        gain = filter_gain(60.0, cfg())
        amp = lock_in_amplitude(60.0, cfg())
        assert amp < 0.10
        assert amp == pytest.approx(gain, rel=0.01)

    def test_cutoff_above_nyquist(self):
        sig = Signal(values=np.ones(2000), fs=30.0)
        with pytest.raises(ValueError, match="Nyquist"):
            bandpass(sig, cfg(lowpass=20.0))

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            bandpass(Signal(values=np.ones(6 * FILTER_ORDER), fs=FS), cfg())

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        y = rng.standard_normal(1000)
        a, b = 1.7, -0.3
        mix = bandpass(Signal(values=a * x + b * y, fs=FS), cfg())
        sep = (a * bandpass(Signal(values=x, fs=FS), cfg())
               + b * bandpass(Signal(values=y, fs=FS), cfg()))
        assert np.max(np.abs(mix - sep)) < 1e-9 * np.max(np.abs(mix))

    @pytest.mark.parametrize("fs, low, high", [
        (360.0, 20.0, 0.5), (250.0, 20.0, 0.5), (360.0, 40.0, 1.0), (360.0, 20.0, 0.5)])
    def test_cached_design_equals_fresh_design(self, fs, low, high):
        # the designs are cached per (cutoff, type, rate); each case,
        # including a repeat of the first, must filter as a fresh design
        x = np.random.default_rng(1).standard_normal(1000)
        fresh = sp_signal.sosfiltfilt(
            sp_signal.butter(FILTER_ORDER, low, "lowpass", fs=fs, output="sos"),
            sp_signal.sosfiltfilt(
                sp_signal.butter(FILTER_ORDER, high, "highpass", fs=fs, output="sos"), x))
        out = bandpass(Signal(values=x, fs=fs), cfg(lowpass=low, highpass=high))
        assert np.array_equal(out, fresh)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(6 * FILTER_ORDER + 1, 4000),
           fs=st.sampled_from([125.0, 250.0, 360.0, 500.0, 1000.0]),
           cutoffs=st.sampled_from([(20.0, 0.5), (40.0, 1.0), (5.0, 3.0),
                                    (60.0, 0.05), (0.45, 0.2)]),
           kind=st.sampled_from(["noise", "constant", "impulse"]),
           seed=st.integers(0, 2 ** 16))
    @example(n=25, fs=360.0, cutoffs=(20.0, 0.5), kind="noise", seed=0)
    @example(n=25, fs=125.0, cutoffs=(60.0, 0.05), kind="impulse", seed=0)
    @example(n=4000, fs=1000.0, cutoffs=(40.0, 1.0), kind="constant", seed=0)
    def test_equals_fresh_sosfiltfilt(self, n, fs, cutoffs, kind, seed):
        # the cached zi, pad length and hand-run passes must give
        # sosfiltfilt's bits with a freshly made design
        low, high = cutoffs
        rng = np.random.default_rng(seed)
        x = {"noise": lambda: rng.standard_normal(n) * rng.uniform(0.1, 100.0),
             "constant": lambda: np.full(n, rng.uniform(-5.0, 5.0)),
             "impulse": lambda: np.eye(1, n, int(rng.integers(n)))[0]}[kind]()
        fresh = sp_signal.sosfiltfilt(
            sp_signal.butter(FILTER_ORDER, low, "lowpass", fs=fs, output="sos"),
            sp_signal.sosfiltfilt(
                sp_signal.butter(FILTER_ORDER, high, "highpass", fs=fs, output="sos"), x))
        out = bandpass(Signal(values=x, fs=fs), cfg(lowpass=low, highpass=high))
        assert np.array_equal(out, fresh)

    def test_filtering_in_place_leaves_input_and_design_untouched(self):
        # the kernel filters its arrays in place: the caller's record and
        # the cached, shared design (the sections the kernel reads, and
        # the state in the kernel's (1, n_sections, 2) shape) must come
        # out as they went in, and each call must return its own array
        c = cfg()
        x = np.random.default_rng(2).standard_normal(390)
        before = x.copy()
        sig = Signal(values=x, fs=FS)
        first = bandpass(sig, c)
        second = bandpass(sig, c)
        assert np.array_equal(sig.values, before)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, sig.values)
        for cutoff, btype in ((c.highpass, "highpass"), (c.lowpass, "lowpass")):
            design = _butter_sos(cutoff, btype, FS)
            sos = sp_signal.butter(FILTER_ORDER, cutoff, btype, fs=FS, output="sos")
            assert np.array_equal(design.sos, sos)
            assert np.array_equal(design.zi, sp_signal.sosfilt_zi(sos)[None])

    def test_finite_record_that_overflows_the_filter(self):
        # the record is finite; the filtered samples are not, and the
        # error says so, not that the record was
        v = np.zeros(200)
        v[100] = 1e308
        with pytest.raises(ValueError, match="^band-pass output is not finite: the record "
                                             "overflows the filter$"):
            bandpass(Signal(values=v, fs=FS), cfg())

    def test_zero_phase(self):
        # a symmetric pulse stays centered after filtering
        sig = triangular_pulse(1000, 2000)
        out = bandpass(sig, cfg())
        assert abs(int(np.argmax(out)) - 1000) <= 1


def cut(values, window_len, monkeypatch, **kw):
    """The one beat of preprocess_record on a record that `bandpass`,
    patched to pass it through, leaves as `values`."""
    monkeypatch.setattr(preprocess, "bandpass", lambda sig, config: sig.values)
    sig = Signal(values=np.asarray(values, dtype=float), fs=FS)
    (beat,) = preprocess_record(sig, cfg(window_len=window_len), **kw)
    return beat


class TestStandardize:
    """preprocess_record's window minus its mean, divided by its max
    absolute value; anything else is one artifact placeholder."""

    def test_example(self, monkeypatch):
        beat = cut([0.0, 2.0, 4.0, 2.0, 0.0], 3, monkeypatch)
        assert not beat.artifact
        assert np.allclose(beat.samples, [-0.5, 1.0, -0.5])

    def test_already_standard(self, monkeypatch):
        assert cut([-1.0, 1.0, 0.0], 2, monkeypatch).samples.tolist() == [-1.0, 1.0]

    def test_degenerate(self, monkeypatch):
        # every cause of an artifact gives the same placeholder, which
        # keeps the record's label and source
        causes = [(np.zeros(50), 30),                                 # no peak
                  (triangular_pulse(20, 200).values
                   + triangular_pulse(150, 200).values, 30),          # two peaks
                  (triangular_pulse(14, 100).values, 30),             # left overrun
                  (triangular_pulse(86, 100).values, 30),             # right overrun
                  ([0.0, 5.0, 5.0, 0.0], 2)]                          # constant window
        for values, window_len in causes:
            beat = cut(values, window_len, monkeypatch, label=Label.NORMAL, source_id="7")
            assert beat.artifact
            assert beat.samples.tolist() == [0.0] * window_len
            assert (beat.label, beat.source_id) == (Label.NORMAL, "7")

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(6 * FILTER_ORDER + 1, 720),
           fs=st.sampled_from([125.0, 250.0, 360.0]),
           window_len=st.integers(2, 61),
           width=st.floats(0.5, 8.0),
           noise=st.floats(0.0, 0.3),
           seed=st.integers(0, 2 ** 16))
    @example(n=360, fs=360.0, window_len=30, width=3.0, noise=0.05, seed=0)
    def test_invariants(self, n, fs, window_len, width, noise, seed):
        # a noisy bump anywhere in a random record, through the whole chain
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        v = (np.exp(-0.5 * ((t - rng.uniform(0, n)) / width) ** 2)
             + noise * rng.standard_normal(n))
        sig, c = Signal(values=v, fs=fs), cfg(window_len=window_len)
        (beat,) = preprocess_record(sig, c)
        assert len(beat.samples) == window_len
        if beat.artifact:
            assert not beat.samples.any()
            return
        filtered = bandpass(sig, c)
        start = detect_peaks(filtered, fs, c)[0] - window_len // 2
        window = filtered[start : start + window_len]
        # the mean's rounding error, relative to max |window|, grows by
        # the ratio of max |window| to the window's range
        assert abs(beat.samples.mean()) <= 1e-12 * max(1.0, np.max(np.abs(window))
                                                       / np.ptp(window))
        assert np.max(np.abs(beat.samples)) == 1.0


def brute_force_peaks(values, threshold_frac, refractory):
    """Independent re-implementation of the peak rule: local maxima over
    the threshold, greedily accepted tallest-first under the gap rule."""
    if len(values) < 3 or values.max() <= 0:
        return []
    thr = threshold_frac * values.max()
    cand = [i for i in range(1, len(values) - 1)
            if values[i] >= values[i - 1] and values[i] > values[i + 1]
            and values[i] > thr]
    out = []
    for i in sorted(cand, key=lambda i: (-values[i], i)):
        if all(abs(i - j) >= refractory for j in out):
            out.append(i)
    return sorted(out)


class TestDetectPeaks:
    def test_single_pulse(self):
        sig = triangular_pulse(100, 500)
        assert detect_peaks(sig.values, FS, cfg()) == [100]

    def test_two_pulses_against_oracle(self):
        v = np.zeros(600)
        for c in (100, 400):
            for i in range(-10, 11):
                v[c + i] = 1.0 - abs(i) / 11
        peaks = detect_peaks(v, FS, cfg())
        assert peaks == [100, 400]
        assert peaks == brute_force_peaks(v, 0.5, 72)

    def test_flat_signal(self):
        assert detect_peaks(np.zeros(500), FS, cfg()) == []

    def test_random_signals_match_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.standard_normal(400)
            assert detect_peaks(v, FS, cfg()) == brute_force_peaks(v, 0.5, 72)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), max_size=300),
           threshold=st.sampled_from([0.1, 0.5, 0.75, 0.9]),
           refractory=st.integers(1, 80))
    @example(values=[0.0, 2.0, 2.0, 0.0, 2.0, 1.0, 2.0, 2.0, 2.0],
             threshold=0.5, refractory=1)
    def test_quantised_signals_match_oracle(self, values, threshold, refractory):
        # few levels make plateaus and equal heights common: a plateau's
        # candidate is its last sample (>= on the left, > on the right);
        # at 1000 Hz the gap in ms is the gap in samples
        v = np.array(values)
        c = cfg(peak_threshold=threshold, refractory_ms=float(refractory))
        assert detect_peaks(v, 1000.0, c) == brute_force_peaks(
            v, threshold, refractory)

    def test_refractory_gap(self):
        rng = np.random.default_rng(3)
        v = np.abs(rng.standard_normal(1000))
        peaks = detect_peaks(v, FS, cfg())
        assert all(b - a >= 72 for a, b in zip(peaks, peaks[1:]))
        assert peaks == sorted(peaks)


class TestExtractBeat:
    """The window that preprocess_record cuts around its one peak."""

    def test_centering(self, monkeypatch):
        for window_len in (2, 3, 30, 31):
            beat = cut(triangular_pulse(100, 500).values, window_len, monkeypatch)
            assert not beat.artifact
            assert len(beat.samples) == window_len
            assert int(np.argmax(beat.samples)) == window_len // 2
            assert beat.samples[window_len // 2] == pytest.approx(1.0, rel=1e-12)
        monkeypatch.undo()  # the whole chain: the filtered peak is centred too
        for window_len in (2, 3, 30, 31):
            (beat,) = preprocess_record(triangular_pulse(1000, 2000), cfg(window_len=window_len))
            assert not beat.artifact
            assert int(np.argmax(beat.samples)) == window_len // 2

    def test_left_overrun(self, monkeypatch):
        # the window of 30 starts 15 samples before the peak
        assert not cut(triangular_pulse(15, 100).values, 30, monkeypatch).artifact
        assert cut(triangular_pulse(14, 100).values, 30, monkeypatch).artifact

    def test_right_overrun(self, monkeypatch):
        # and ends 14 samples after it
        assert not cut(triangular_pulse(85, 100).values, 30, monkeypatch).artifact
        assert cut(triangular_pulse(86, 100).values, 30, monkeypatch).artifact

    def test_degenerate_window(self, monkeypatch):
        # only a window of 2 can be constant: from 3 on it holds the peak
        # and its right neighbour, which detect_peaks makes strictly lower
        plateau = [0.0, 5.0, 5.0, 0.0]  # its peak is the plateau's last sample
        assert cut(plateau, 2, monkeypatch).artifact
        assert np.allclose(cut(plateau, 3, monkeypatch).samples, [0.5, 0.5, -1.0])
        assert cut([0.0, 4.0, 5.0, 0.0], 2, monkeypatch).samples.tolist() == [-1.0, 1.0]


class TestPreprocessRecord:
    def test_clean_single_beat(self):
        t = np.arange(2000) / FS
        v = np.zeros(2000)
        for i in range(-8, 9):
            v[1000 + i] = 1.0 - abs(i) / 9
        beats = preprocess_record(Signal(values=v, fs=FS), cfg(),
                                  label=Label.NORMAL)
        assert len(beats) == 1
        b = beats[0]
        assert not b.artifact
        assert len(b.samples) == 30
        assert abs(b.samples.mean()) < 1e-12
        assert abs(np.max(np.abs(b.samples)) - 1.0) < 1e-12

    def test_no_peak_gives_artifact(self):
        beats = preprocess_record(Signal(values=np.zeros(500), fs=FS), cfg())
        assert len(beats) == 1
        assert beats[0].artifact

    def test_two_peaks_give_artifact(self):
        v = np.zeros(1000)
        for c in (300, 700):
            for i in range(-8, 9):
                v[c + i] = 1.0 - abs(i) / 9
        beats = preprocess_record(Signal(values=v, fs=FS), cfg())
        assert len(beats) == 1
        assert beats[0].artifact

    @pytest.mark.parametrize("fs", [250.0, 360.0])
    def test_refractory_gap_follows_record_rate(self, fs):
        # two equal 40 ms pulses 240 ms apart, beyond the 200 ms gap at
        # any rate: 60 samples at 250 Hz (gap 50), 86 at 360 Hz (gap 72)
        t = np.arange(round(2.0 * fs)) / fs
        v = sum(np.clip(1.0 - np.abs(t - c) / 0.02, 0.0, None) for c in (0.88, 1.12))
        sig = Signal(values=v, fs=fs)
        assert len(detect_peaks(bandpass(sig, cfg()), fs, cfg())) == 2
        beats = preprocess_record(sig, cfg())
        assert len(beats) == 1
        assert beats[0].artifact


class TestRecordChain:
    """preprocess_record against `record_chain`, the chain built from
    scipy's public sosfiltfilt, np.flatnonzero, np.mean and np.max, bit
    for bit: samples, label, artifact flag and source."""

    @staticmethod
    def assert_same(beat, want):
        assert beat.samples.tobytes() == want.samples.tobytes()
        assert ((beat.label, beat.artifact, beat.source_id)
                == (want.label, want.artifact, want.source_id))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(6 * FILTER_ORDER + 1, 4000),
           fs=st.integers(125, 1000).map(float),
           window_len=st.integers(2, 61),
           kind=st.sampled_from(["pulse", "two", "overrun", "constant"]),
           sign=st.sampled_from([1.0, -1.0]),
           noise=st.floats(0.0, 0.3),
           seed=st.integers(0, 2 ** 16))
    @example(n=360, fs=360.0, window_len=30, kind="pulse", sign=1.0, noise=0.02, seed=0)
    @example(n=360, fs=360.0, window_len=30, kind="pulse", sign=-1.0, noise=0.0, seed=0)
    @example(n=720, fs=360.0, window_len=30, kind="two", sign=1.0, noise=0.02, seed=0)
    @example(n=360, fs=360.0, window_len=61, kind="overrun", sign=1.0, noise=0.0, seed=0)
    @example(n=25, fs=125.0, window_len=2, kind="constant", sign=1.0, noise=0.0, seed=0)
    def test_record_equals_public_chain(self, n, fs, window_len, kind, sign, noise, seed):
        # a bump of 2-24 ms anywhere, two bumps 250-750 ms apart, a bump
        # within half a window of an end, or a constant record
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        width = rng.uniform(0.002, 0.024) * fs

        def bump(centre):
            return np.exp(-0.5 * ((t - centre) / width) ** 2)

        if kind == "constant":
            v = np.full(n, rng.uniform(-5.0, 5.0))
        else:
            if kind == "pulse":
                v = bump(rng.uniform(0, n))
            elif kind == "two":
                centre = rng.uniform(0, n)
                v = bump(centre) + bump(centre + rng.choice([-1, 1]) * rng.uniform(0.25, 0.75) * fs)
            else:
                edge = rng.uniform(0, window_len / 2)
                v = bump(edge if rng.random() < 0.5 else n - 1 - edge)
            v = sign * 10.0 ** rng.uniform(-3, 3) * v + noise * rng.standard_normal(n)
        sig, c = Signal(values=v, fs=fs), cfg(window_len=window_len)
        (beat,) = preprocess_record(sig, c, label=Label.ECTOPIC, source_id="r")
        self.assert_same(beat, record_chain(sig, c, label=Label.ECTOPIC, source_id="r"))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), min_size=1,
                           max_size=80),
           window_len=st.integers(2, 8),
           threshold=st.sampled_from([0.1, 0.5, 0.9]),
           refractory=st.integers(1, 20))
    @example(values=[0.0, 2.0, 2.0, 0.0], window_len=2, threshold=0.5, refractory=1)
    @example(values=[0.0, 2.0, 2.0, 0.0], window_len=3, threshold=0.5, refractory=1)
    def test_cut_equals_public_chain_on_plateaus(self, values, window_len, threshold,
                                                 refractory):
        # bandpass passes the samples through: few levels make plateaus,
        # equal heights and constant windows common; at 1000 Hz the gap
        # in ms is the gap in samples
        c = cfg(window_len=window_len, peak_threshold=threshold,
                refractory_ms=float(refractory))
        sig = Signal(values=np.array(values), fs=1000.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(preprocess, "bandpass", lambda sig, config: sig.values)
            (beat,) = preprocess_record(sig, c, label=Label.NORMAL, source_id="q")
        self.assert_same(beat, record_chain_cut(sig.values, 1000.0, c, label=Label.NORMAL,
                                                source_id="q"))


def test_config_validation():
    with pytest.raises(ValueError):
        PreprocessConfig(highpass=30.0, lowpass=20.0)
    with pytest.raises(ValueError):
        PreprocessConfig(peak_threshold=1.5)
    for ms in (math.inf, math.nan, 0.0, -5.0):
        with pytest.raises(ValueError, match="refractory_ms must be finite and positive"):
            PreprocessConfig(refractory_ms=ms)
