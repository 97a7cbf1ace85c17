import numpy as np
import pytest

from llt.features import feature_matrix
from llt.linear_law import fit_law, law_variance
from llt.synth import SynthSpec, exact_law, generate
from llt.types import Label, Role


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
