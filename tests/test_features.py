import numpy as np
import pytest

from llt.features import (
    FeatureMode,
    LawSet,
    binary_features,
    downsample_features,
    feature_matrix,
    stack_features,
    transform,
)
from llt.linear_law import fit_law, law_variance
from llt.synth import RecurrenceSpec, exact_law
from llt.types import Beat, Label, LinearLaw

from conftest import random_beats, sinusoid_beats


def make_law(width, seed=0):
    return fit_law(random_beats(8, 20, seed=seed), width, "Normal")


def test_transform_zero_beat():
    law = make_law(4)
    xi = transform(Beat(samples=np.zeros(20)), law)
    assert np.array_equal(xi, np.zeros(17))


def test_differencing_law_kills_constants():
    w = np.array([1.0, -1.0]) / np.sqrt(2.0)
    law = LinearLaw(w=w, lam=0.0, class_tag="Normal")
    xi = transform(Beat(samples=np.ones(4)), law)
    assert np.allclose(xi, 0.0, atol=1e-15)


def test_sinusoid_law_residuals_tiny():
    law = exact_law(RecurrenceSpec("sinusoid", omega=0.3), 3)
    beat = sinusoid_beats(0.3, 1, seed=42)[0]
    assert np.max(np.abs(transform(beat, law))) < 1e-9


def test_transform_too_short():
    law = make_law(6)
    with pytest.raises(ValueError, match="shorter"):
        transform(Beat(samples=np.zeros(4)), law)


def test_transform_linearity():
    law = make_law(5, seed=3)
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal(20), rng.standard_normal(20)
    a, b = 2.5, -0.75
    lhs = transform(Beat(samples=a * x + b * y), law)
    rhs = a * transform(Beat(samples=x), law) + b * transform(Beat(samples=y), law)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestStack:
    def test_two_class_length(self):
        beats_a = sinusoid_beats(0.3, 8, noise=0.01, seed=1)
        beats_b = sinusoid_beats(0.9, 8, noise=0.01, seed=2)
        laws = LawSet(laws={
            "Normal": fit_law(beats_a, 12, "Normal"),
            "Ectopic": fit_law(beats_b, 12, "Ectopic"),
        })
        fv = stack_features(beats_a[0], laws)
        assert len(fv.xi) == 2 * 19
        assert fv.layout == [("Ectopic", 19), ("Normal", 19)]  # lexicographic
        assert fv.mode is FeatureMode.MULTI_CLASS

    def test_single_law_equals_transform(self):
        law = make_law(4, seed=5)
        beat = random_beats(1, 20, seed=6)[0]
        fv = stack_features(beat, LawSet(laws={"Normal": law}))
        assert np.array_equal(fv.xi, transform(beat, law))

    def test_own_class_segment_smaller(self):
        beats_a = sinusoid_beats(0.3, 30, noise=0.01, seed=7)
        beats_b = sinusoid_beats(0.9, 30, noise=0.01, seed=8)
        laws = LawSet(laws={
            "A": fit_law(beats_a[:20], 6, "A"),
            "B": fit_law(beats_b[:20], 6, "B"),
        })
        # aggregate over held-out class-A beats: own-law residuals smaller
        own, other = [], []
        for beat in beats_a[20:]:
            fv = stack_features(beat, laws)
            own.append(np.mean(np.abs(fv.xi[:25])))      # segment A
            other.append(np.mean(np.abs(fv.xi[25:])))    # segment B
        assert np.mean(own) < np.mean(other)

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError, match="mixed widths"):
            LawSet(laws={"A": make_law(4), "B": make_law(5)})


class TestBinary:
    def test_feature_count(self):
        law = fit_law(sinusoid_beats(0.3, 8, noise=0.01, seed=9, length=30), 12, "Normal")
        fv = binary_features(sinusoid_beats(0.3, 1, seed=10, length=30)[0], law)
        assert len(fv.xi) == 19
        assert fv.mode is FeatureMode.BINARY_REFERENCE
        assert fv.layout == [("Normal", 19)]

    def test_class_separation(self):
        ref = sinusoid_beats(0.3, 40, noise=0.01, seed=11)
        other = sinusoid_beats(0.9, 40, noise=0.01, seed=12)
        law = fit_law(ref[:20], 12, "Normal")
        m_ref = np.mean([np.mean(np.abs(binary_features(b, law).xi))
                         for b in ref[20:]])
        m_other = np.mean([np.mean(np.abs(binary_features(b, law).xi))
                           for b in other])
        assert m_other >= 2.0 * m_ref


class TestDownsample:
    def test_identity(self):
        law = make_law(4)
        fv = binary_features(random_beats(1, 20, seed=13)[0], law)
        assert downsample_features(fv, 1) is fv

    def test_factor_two(self):
        law = fit_law(sinusoid_beats(0.3, 8, noise=0.01, seed=14, length=30), 12, "Normal")
        fv = binary_features(sinusoid_beats(0.3, 1, seed=15, length=30)[0], law)
        ds = downsample_features(fv, 2)
        assert len(ds.xi) == 10
        assert np.array_equal(ds.xi, fv.xi[::2])
        assert sum(n for _, n in ds.layout) == len(ds.xi)

    def test_factor_too_large(self):
        law = make_law(4)
        fv = binary_features(random_beats(1, 20, seed=16)[0], law)
        with pytest.raises(ValueError, match="larger than segment"):
            downsample_features(fv, 100)


def test_training_aggregate_matches_lambda():
    beats = random_beats(12, 25, seed=17)
    law = fit_law(beats, 7, "Normal")
    agg = np.mean(np.concatenate(
        [binary_features(b, law).xi ** 2 for b in beats]))
    assert agg == pytest.approx(law.lam, rel=1e-10)
    assert agg == pytest.approx(law_variance(beats, law), rel=1e-12)


def test_feature_matrix_shape():
    beats = random_beats(5, 20, seed=18)
    law = make_law(6, seed=19)
    X = feature_matrix(beats, law)
    assert X.shape == (5, 15)

