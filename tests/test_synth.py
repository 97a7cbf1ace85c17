import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llt.embedding import embed_class
from llt.features import feature_matrix
from llt.linear_law import correlation, fit_law, law_variance
from llt.synth import SynthSpec, generate
from llt.types import Beat, Label, Role

from conftest import exact_law, synth_parts


class TestRecurrenceSpec:
    def test_sinusoid_bounds(self):
        # a sinusoid's three-tap law needs omega strictly inside (0, pi)
        for name in ("omega_a", "omega_b"):
            for omega in (0.0, np.pi, np.nan):
                with pytest.raises(ValueError, match=rf"^{name} must be in \(0, pi\), got "):
                    SynthSpec(**{name: omega})


class TestGenerate:
    def test_split_sizes_and_roles(self):
        train, val, test = generate(SynthSpec(beats=100))
        assert (len(train), len(val), len(test)) == (80, 60, 60)
        assert train.role is Role.TRAIN
        assert val.role is Role.VALIDATION
        assert test.role is Role.TEST
        for corpus in (train, val, test):
            n = sum(b.label is Label.NORMAL for b in corpus.beats)
            assert n == len(corpus) // 2

    def test_seed_determinism(self):
        a = generate(SynthSpec(seed=5))[0]
        b = generate(SynthSpec(seed=5))[0]
        assert all(np.array_equal(x.samples, y.samples)
                   for x, y in zip(a.beats, b.beats))
        c = generate(SynthSpec(seed=6))[0]
        assert not np.array_equal(a.beats[0].samples, c.beats[0].samples)

    def test_noiseless_sinusoid_satisfies_recurrence(self):
        for spec in (SynthSpec(noise=0.0, beats=10),
                     SynthSpec(omega_a=1.1, omega_b=0.2, noise=0.0, beats=10)):
            train, _, _ = generate(spec)
            for label, omega in ((Label.NORMAL, spec.omega_a),
                                 (Label.ECTOPIC, spec.omega_b)):
                for beat in train.with_label(label):
                    y = beat.samples
                    resid = y[2:] - 2.0 * np.cos(omega) * y[1:-1] + y[:-2]
                    assert np.max(np.abs(resid)) < 1e-12


    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), beats=st.integers(4, 60),
           window_len=st.integers(4, 40),
           noise=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
    @example(seed=2, beats=4, window_len=30, noise=0.01)
    @example(seed=0, beats=5, window_len=4, noise=0.0)
    def test_equals_per_beat_loop(self, seed, beats, window_len, noise):
        # the same draws in the same order as one Beat per beat, bit for bit
        spec = SynthSpec(seed=seed, beats=beats, window_len=window_len, noise=noise)
        parts = synth_parts(spec)
        for corpus, role in zip(generate(spec), (Role.TRAIN, Role.VALIDATION, Role.TEST)):
            beats = parts[role]
            assert corpus.role is role
            assert corpus.samples.shape == (len(beats), window_len)
            assert corpus.samples.tobytes() == b"".join(b.samples.tobytes() for b in beats)
            assert corpus.labels.tolist() == [b.label.value for b in beats]
            assert corpus.artifact.tolist() == [b.artifact for b in beats]

    def test_builds_no_beat(self, monkeypatch):
        def refuse(self):
            raise AssertionError("generate built a Beat")

        monkeypatch.setattr(Beat, "__post_init__", refuse)
        train, val, test = generate(SynthSpec(beats=10))
        assert (len(train), len(val), len(test)) == (8, 6, 6)


class TestExactLaw:
    def test_sinusoid_coefficients(self):
        law = exact_law(0.3, 3)
        ref = np.array([1.0, -2.0 * np.cos(0.3), 1.0])
        ref = ref / np.linalg.norm(ref)
        assert np.allclose(law.w, ref, atol=1e-15)

    def test_zero_padding_at_old_end(self):
        law = exact_law(0.3, 6)
        assert np.all(law.w[3:] == 0.0)
        assert law.w[0] > 0

    def test_width_too_small(self):
        with pytest.raises(ValueError, match="needs width >= 3, got 2"):
            exact_law(0.3, 2)

    def test_fitted_matches_exact(self):
        train, _, _ = generate(SynthSpec(noise=0.0, beats=20))
        beats = train.with_label(Label.NORMAL)
        fitted = fit_law(beats, 3, "Normal")
        ref = exact_law(0.3, 3)
        assert abs(np.dot(fitted.w, ref.w)) > 1 - 1e-12

    def test_noise_bounds_lambda(self):
        sigma = 0.01
        train, _, _ = generate(SynthSpec(noise=sigma))
        beats = train.with_label(Label.NORMAL)
        law = fit_law(beats, 12, "Normal")
        # residual variance cannot exceed the injected noise power by much
        assert law.lam < 4.0 * sigma**2
        assert law.lam > 0.0

    @pytest.mark.parametrize("noise", [0.01, 0.05, 0.2])
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_noisy_width3_law_matches_theory(self, seed, noise):
        """At width 3 a sinusoid in white noise of variance s^2 has one
        null direction, the exact law w*, and lambda = s^2 (Pisarenko).
        With K residual windows, each residual r = w*.noise is N(0, s^2)
        and correlates with its neighbours at lags |k| <= 2 by
        rho_k = sum_i w*_i w*_(i+k). So mean(r^2) / s^2 has standard error
        sqrt(2 sum rho_k^2 / K), and the fit moves lambda by O(1/K) more.
        The law moves from w* by h = C w* - s^2 w* to first order: by
        u_j.h / (lambda_j - mu) along each other eigenvector u_j of C,
        mu = w*.C w*, and u_j.h has standard error at most
        s sqrt(lambda_j sum |rho_k| / K). Both bounds are 5 such errors."""
        z = 5.0
        train, _, _ = generate(SynthSpec(seed=seed, noise=noise))
        rows = train.rows(Label.NORMAL)
        law = fit_law(rows, 3, "Normal")
        ref = exact_law(SynthSpec.omega_a, 3).w
        Y = embed_class(rows, 3)
        C = correlation(Y)
        evals = np.linalg.eigvalsh(C)
        rho = np.correlate(ref, ref, "full")
        assert abs(law.lam / noise**2 - 1) <= z * np.sqrt(2 * np.sum(rho**2) / Y.rows)
        others = evals[1:]
        drift = np.sum(others / (others - ref @ C @ ref) ** 2)
        sin_bound = z * noise * np.sqrt(np.sum(np.abs(rho)) / Y.rows * drift)
        assert np.sqrt(max(0.0, 1.0 - (law.w @ ref) ** 2)) <= sin_bound


def test_cross_law_variance_ratio():
    train, _, _ = generate(SynthSpec())
    normal = train.with_label(Label.NORMAL)
    ectopic = train.with_label(Label.ECTOPIC)
    law = fit_law(normal, 12, "Normal")
    ratio = law_variance(ectopic, law) / law_variance(normal, law)
    assert ratio >= 10.0


def test_feature_separation_on_test_split():
    train, _, test = generate(SynthSpec())
    law = fit_law(train.with_label(Label.NORMAL), 12, "Normal")
    Xn = feature_matrix(test.with_label(Label.NORMAL), law)
    Xe = feature_matrix(test.with_label(Label.ECTOPIC), law)
    assert np.mean(Xe**2) > 10.0 * np.mean(Xn**2)


def test_spec_validation():
    # each error names the field, which is also `llt synth`'s flag
    with pytest.raises(ValueError, match="^beats must be at least 4, got 2$"):
        SynthSpec(beats=2)
    with pytest.raises(ValueError, match="^window_len must be at least 4, got 3$"):
        SynthSpec(window_len=3)
    for noise in (-1.0, np.inf):
        with pytest.raises(ValueError, match=f"^noise must be finite and >= 0, got {noise}$"):
            SynthSpec(noise=noise)
