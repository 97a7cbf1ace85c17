import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llt.cli import main
from llt.dataset_io import load_features, save_corpus, save_law
from llt.features import feature_matrix
from llt.linear_law import fit_law, law_variance
from llt.types import Beat, Corpus, LinearLaw

from conftest import embed_series, exact_law, random_beats, sinusoid_beats


def make_law(width, seed=0):
    return fit_law(random_beats(8, 20, seed=seed), width, "Normal")


def test_transform_zero_beat():
    law = make_law(4)
    X = feature_matrix([Beat(samples=np.zeros(20))], law)
    assert np.array_equal(X, np.zeros((1, 17)))


def test_differencing_law_kills_constants():
    w = np.array([1.0, -1.0]) / np.sqrt(2.0)
    law = LinearLaw(w=w, lam=0.0, class_tag="Normal")
    X = feature_matrix([Beat(samples=np.ones(4))], law)
    assert np.allclose(X, 0.0, atol=1e-15)


def test_sinusoid_law_residuals_tiny():
    law = exact_law(0.3, 3)
    beats = sinusoid_beats(0.3, 3, seed=42)
    assert np.max(np.abs(feature_matrix(beats, law))) < 1e-9


def test_transform_too_short():
    law = make_law(6)
    with pytest.raises(ValueError, match="exceeds series length"):
        feature_matrix([Beat(samples=np.zeros(4))], law)


def test_transform_linearity():
    law = make_law(5, seed=3)
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal(20), rng.standard_normal(20)
    a, b = 2.5, -0.75
    lhs, fx, fy = feature_matrix(
        [Beat(samples=a * x + b * y), Beat(samples=x), Beat(samples=y)], law)
    assert np.max(np.abs(lhs - (a * fx + b * fy))) < 1e-12


def test_feature_matrix_shape():
    beats = random_beats(5, 20, seed=18)
    law = make_law(6, seed=19)
    X = feature_matrix(beats, law)
    assert X.shape == (5, 15)


@settings(max_examples=150, deadline=None)
@example(3, 30, 12, 0)
@example(2, 30, 28, 1)
@example(1, 9, 9, 2)  # width == L: one residual per beat
@given(
    st.integers(1, 8),
    st.integers(8, 40),
    st.integers(2, 40),
    st.integers(0, 2**32 - 1),
)
def test_feature_matrix_equals_per_beat_product(n_beats, length, width, seed):
    width = min(width, length)
    rng = np.random.default_rng(seed)
    beats = [Beat(samples=rng.standard_normal(length)) for _ in range(n_beats)]
    w = rng.standard_normal(width)
    law = LinearLaw(w=w / np.linalg.norm(w), lam=0.0, class_tag="Normal")
    expected = np.stack([embed_series(b.samples, width) @ law.w for b in beats])
    assert np.array_equal(feature_matrix(beats, law), expected)


def test_training_aggregate_matches_lambda():
    beats = random_beats(12, 25, seed=17)
    law = fit_law(beats, 7, "Normal")
    agg = np.mean(feature_matrix(beats, law) ** 2)
    assert agg == pytest.approx(law.lam, rel=1e-10)
    assert agg == pytest.approx(law_variance(beats, law), rel=1e-12)


class TestStack:
    """Features from several laws are the columns of one matrix per law."""

    def test_two_class_length(self):
        beats_a = sinusoid_beats(0.3, 8, noise=0.01, seed=1)
        beats_b = sinusoid_beats(0.9, 8, noise=0.01, seed=2)
        laws = [fit_law(beats_a, 12, "Normal"), fit_law(beats_b, 12, "Ectopic")]
        X = np.hstack([feature_matrix(beats_a, law) for law in laws])
        assert X.shape == (8, 2 * 19)
        assert np.array_equal(X[:, 19:], feature_matrix(beats_a, laws[1]))

    def test_own_class_segment_smaller(self):
        beats_a = sinusoid_beats(0.3, 30, noise=0.01, seed=7)
        beats_b = sinusoid_beats(0.9, 30, noise=0.01, seed=8)
        laws = [fit_law(beats_a[:20], 6, "A"), fit_law(beats_b[:20], 6, "B")]
        # held-out class-A beats: own-law residuals smaller on aggregate
        X = np.hstack([feature_matrix(beats_a[20:], law) for law in laws])
        assert np.mean(np.abs(X[:, :25])) < np.mean(np.abs(X[:, 25:]))


class TestBinary:
    def test_feature_count(self):
        law = fit_law(sinusoid_beats(0.3, 8, noise=0.01, seed=9, length=30), 12, "Normal")
        X = feature_matrix(sinusoid_beats(0.3, 1, seed=10, length=30), law)
        assert X.shape == (1, 19)

    def test_class_separation(self):
        ref = sinusoid_beats(0.3, 40, noise=0.01, seed=11)
        other = sinusoid_beats(0.9, 40, noise=0.01, seed=12)
        law = fit_law(ref[:20], 12, "Normal")
        m_ref = np.mean(np.abs(feature_matrix(ref[20:], law)))
        m_other = np.mean(np.abs(feature_matrix(other, law)))
        assert m_other >= 2.0 * m_ref


class TestDownsample:
    """`llt transform --downsample k` keeps every k-th residual column."""

    @pytest.fixture()
    def files(self, tmp_path):
        beats = sinusoid_beats(0.3, 6, noise=0.01, seed=14, length=30)
        law = fit_law(beats, 12, "Normal")
        save_corpus(Corpus(beats=beats, window_len=30), tmp_path / "beats.csv")
        save_law(law, tmp_path / "n.law")
        return tmp_path, feature_matrix(beats, law)

    def transform(self, tmp_path, k):
        return main(["transform", "--law", str(tmp_path / "n.law"),
                     "--in", str(tmp_path / "beats.csv"),
                     "--out", str(tmp_path / "f.csv"), "--downsample", str(k)])

    def test_identity(self, files):
        tmp_path, X = files
        assert self.transform(tmp_path, 1) == 0
        Xf, labels, layout = load_features(tmp_path / "f.csv")
        assert np.array_equal(Xf, X)
        assert layout == [("Normal", 19)] and labels == ["N"] * 6

    def test_factor_two(self, files):
        tmp_path, X = files
        assert self.transform(tmp_path, 2) == 0
        Xf, _, layout = load_features(tmp_path / "f.csv")
        assert np.array_equal(Xf, X[:, ::2])
        assert layout == [("Normal", 10)]

    def test_factor_too_large(self, files, capsys):
        tmp_path, _ = files
        for k in (0, 20):
            assert self.transform(tmp_path, k) == 1
            assert f"--downsample must be in 1..19, got {k}" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()
