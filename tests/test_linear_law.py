import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llt import linear_law
from llt.embedding import EmbeddedMatrix, embed_class
from llt.linear_law import (
    ConvergenceError,
    DegenerateLawError,
    correlation,
    fit_law,
    jacobi_eigensystem,
    law_variance,
    scan_law_length,
)
from llt.types import Beat, Corpus, Label, Role

from conftest import (correlation_oracle, embed_class_oracle, random_beats, scan_oracle,
                      sinusoid_beats)


def naive_correlation(Y):
    """Independent O(K * l^2) double-loop oracle for C = Y^T Y / K."""
    K, l = Y.shape
    C = np.zeros((l, l))
    for i in range(l):
        for j in range(l):
            s = 0.0
            for k in range(K):
                s += Y[k, i] * Y[k, j]
            C[i, j] = s / K
    return C


def inverse_power_smallest(C, iters=100):
    """Shifted inverse power iteration oracle for the smallest eigenpair,
    independent of the LAPACK solver. A fixed negative shift locks onto
    the smallest eigenvalue; Rayleigh-quotient shift updates then sharpen
    the estimate even when the bottom of the spectrum is clustered."""
    n = C.shape[0]
    eye = np.eye(n)
    shift = -1e-8 * max(np.trace(C), 1.0)
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(iters):
        v = np.linalg.solve(C - shift * eye, v)
        v = v / np.linalg.norm(v)
    for _ in range(10):
        lam = float(v @ C @ v)
        try:
            v_new = np.linalg.solve(C - (lam - 1e-14 * max(np.trace(C), 1.0)) * eye, v)
        except np.linalg.LinAlgError:
            break
        v = v_new / np.linalg.norm(v_new)
    lam = float(v @ C @ v)
    return lam, v


class TestCorrelation:
    def test_identity_rows(self):
        em = embed_class([Beat(samples=np.array([1.0, 0.0, 0.0])),
                          Beat(samples=np.array([0.0, 0.0, 1.0]))], 2)
        # rows: [0,1],[0,0] and [0,0],[1,0] -> Y^T Y = I with K=4
        C = correlation(em)
        assert np.allclose(C, np.eye(2) / 4)

    def test_rank_one(self):
        class FakeEm:
            data = np.array([[1.0, 1.0], [1.0, 1.0]])
            rows = 2
            width = 2
        C = correlation(FakeEm())
        assert np.allclose(C, np.ones((2, 2)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((100, 5))

        class FakeEm:
            data = Y
            rows = 100
            width = 5

        C = correlation(FakeEm())
        assert np.max(np.abs(C - naive_correlation(Y))) < 1e-12

    def test_exact_symmetry(self):
        beats = random_beats(5, 12, seed=2)
        C = correlation(embed_class(beats, 6))
        assert np.array_equal(C, C.T)


def smallest(C):
    evals, evecs = jacobi_eigensystem(C)
    return evals[0], evecs[:, 0]


class TestSmallestEigenpair:
    def test_diagonal(self):
        lam, w = smallest(np.diag([2.0, 1.0]))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(w), [0, 1])

    def test_2x2_analytic(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        tr, det = C.trace(), np.linalg.det(C)
        lam_oracle = (tr - np.sqrt(tr * tr - 4 * det)) / 2
        lam, w = smallest(C)
        assert lam == pytest.approx(lam_oracle, abs=1e-12)
        assert np.allclose(np.abs(w), [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_matches_inverse_power_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            Y = rng.standard_normal((40, 12))
            C = Y.T @ Y / 40
            lam, w = smallest(C)
            lam_o, w_o = inverse_power_smallest(C)
            assert abs(lam - lam_o) < 1e-9 * max(1.0, np.trace(C))
            assert abs(np.dot(w, w_o)) > 1 - 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigensystem(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_spectrum_sorted(self):
        C = correlation(embed_class(random_beats(5, 10, seed=4), 6))
        ev, _ = jacobi_eigensystem(C)
        assert np.all(np.diff(ev) >= 0)
        assert np.allclose(ev, np.linalg.eigvalsh(C), atol=1e-10)


class TestFitLaw:
    def test_sinusoid_exact_law(self):
        beats = sinusoid_beats(0.3, 10, seed=5)
        law = fit_law(beats, 3, "Normal")
        power = np.mean([np.mean(b.samples**2) for b in beats])
        assert law.lam <= 1e-18 * power
        ref = np.array([1.0, -2.0 * np.cos(0.3), 1.0])
        ref = ref / np.linalg.norm(ref)
        assert abs(np.dot(law.w, ref)) > 1 - 1e-9

    def test_single_beat_matches_2x2_analytic(self):
        beat = Beat(samples=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        law = fit_law([beat], 2, "Normal")
        Y = embed_class([beat], 2).data
        C = Y.T @ Y / 4
        tr, det = C.trace(), np.linalg.det(C)
        lam_oracle = (tr - np.sqrt(tr * tr - 4 * det)) / 2
        assert law.lam == pytest.approx(lam_oracle, rel=1e-12, abs=1e-15)
        assert law.w[0] > 0  # sign convention

    def test_empty_class(self):
        with pytest.raises(ValueError):
            fit_law([], 3, "Normal")

    def test_degenerate_class_rejected(self):
        # beats on a 1-D manifold: every width-3 window of a linear ramp
        # satisfies two independent laws
        beats = [Beat(samples=c * np.ones(8) + 0.0) for c in (1.0, 2.0)]
        with pytest.raises(DegenerateLawError, match="multiplicity"):
            fit_law(beats, 3, "Normal")
        law = fit_law(beats, 3, "Normal", allow_degenerate=True)
        assert law.lam <= 1e-12

    def test_eigenpair_residual_checked(self, monkeypatch):
        solve = linear_law.jacobi_eigensystem

        def perturbed(C):
            evals, evecs = solve(C)
            evecs = evecs.copy()
            evecs[:, 0] += 1e-3 * evecs[:, 1]
            return evals, evecs

        monkeypatch.setattr(linear_law, "jacobi_eigensystem", perturbed)
        with pytest.raises(ConvergenceError, match="eigenpair residual"):
            fit_law(random_beats(8, 15, seed=0), 5, "Normal")

    def test_variance_identity(self):
        for seed in range(5):
            beats = random_beats(8, 15, seed=seed)
            law = fit_law(beats, 5, "Normal")
            var = law_variance(beats, law)
            assert abs(var - law.lam) <= 1e-10 * max(var, law.lam)

    def test_minimality(self):
        beats = random_beats(10, 20, seed=9)
        law = fit_law(beats, 6, "Normal")
        Y = embed_class(beats, 6).data
        rng = np.random.default_rng(10)
        for _ in range(20):
            u = rng.standard_normal(6)
            u = u / np.linalg.norm(u)
            assert np.mean((Y @ u) ** 2) >= law.lam - 1e-12

    def test_scale_equivariance(self):
        beats = random_beats(6, 12, seed=12)
        law1 = fit_law(beats, 4, "Normal")
        scaled = [Beat(samples=3.0 * b.samples, label=b.label) for b in beats]
        law2 = fit_law(scaled, 4, "Normal")
        assert law2.lam == pytest.approx(9.0 * law1.lam, rel=1e-12)
        assert np.allclose(law1.w, law2.w, atol=1e-12)

    def test_integer_samples_fit_as_doubles(self):
        ints = np.random.default_rng(14).integers(-3, 4, (6, 12))
        law, law_of_doubles = fit_law(ints, 4, "Normal"), fit_law(ints.astype(float), 4, "Normal")
        assert law.w.tobytes() == law_of_doubles.w.tobytes() and law.lam == law_of_doubles.lam
        assert law_variance(ints, law) == law.lam

    def test_sign_determinism(self):
        beats = random_beats(6, 12, seed=13)
        law1 = fit_law(beats, 4, "Normal")
        law2 = fit_law(beats, 4, "Normal")
        assert np.array_equal(law1.w, law2.w)
        assert law1.w[np.flatnonzero(law1.w)[0]] > 0


class TestLawVariance:
    def test_zero_beats(self):
        beats = random_beats(4, 10, seed=1)
        law = fit_law(beats, 4, "Normal")
        zeros = [Beat(samples=np.zeros(10)) for _ in range(3)]
        assert law_variance(zeros, law) == 0.0

    def test_held_out_sinusoids(self):
        train = sinusoid_beats(0.3, 10, seed=20)
        held = sinusoid_beats(0.3, 10, seed=21)
        law = fit_law(train, 3, "Normal")
        assert law_variance(held, law) < 1e-18


class TestScan:
    def test_sinusoid_scan(self):
        train = Corpus(beats=sinusoid_beats(0.3, 20, noise=0.01, seed=30),
                       window_len=30, role=Role.TRAIN)
        val = Corpus(beats=sinusoid_beats(0.3, 20, noise=0.01, seed=31),
                     window_len=30, role=Role.VALIDATION)
        report = scan_law_length(train, val, range(2, 7))
        by_width = {e.width: e for e in report.entries}
        for e in report.entries:
            assert e.feature_count == 30 - e.width + 1
        # the 3-term sinusoid identity kicks in at width 3: residual
        # variance collapses to the noise floor and generalizes
        assert by_width[3].lambda_train < 1e-2 * by_width[2].lambda_train
        for width in (3, 4, 5, 6):
            assert by_width[width].lambda_train < 1e-3
            assert by_width[width].gap < 1.0

    def test_noiseless_scan_collapses(self):
        train = Corpus(beats=sinusoid_beats(0.3, 12, seed=30), window_len=30,
                       role=Role.TRAIN)
        val = Corpus(beats=sinusoid_beats(0.3, 12, seed=31), window_len=30,
                     role=Role.VALIDATION)
        report = scan_law_length(train, val, [3])
        assert report.entries[0].lambda_train < 1e-20
        assert report.entries[0].variance_validation < 1e-18

    def test_full_width_single_feature(self):
        train = Corpus(beats=random_beats(25, 10, seed=33), window_len=10,
                       role=Role.TRAIN)
        val = Corpus(beats=random_beats(25, 10, seed=34), window_len=10,
                     role=Role.VALIDATION)
        report = scan_law_length(train, val, [10])
        assert report.entries[0].feature_count == 1

    def test_out_of_range_width(self):
        train = Corpus(beats=random_beats(6, 10, seed=35), window_len=10,
                       role=Role.TRAIN)
        with pytest.raises(ValueError):
            scan_law_length(train, train, [11])

    def test_csv_shape(self):
        train = Corpus(beats=random_beats(6, 10, seed=36), window_len=10,
                       role=Role.TRAIN)
        val = Corpus(beats=random_beats(6, 10, seed=37), window_len=10,
                     role=Role.VALIDATION)
        text = scan_law_length(train, val, [4, 5]).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "l,lambda_train,var_val,gap,feature_count"
        assert len(lines) == 3

    def test_bad_width_raises_before_any_fit(self, monkeypatch):
        train = Corpus(beats=random_beats(6, 30, seed=38), window_len=30, role=Role.TRAIN)
        fits = []
        fit = linear_law.fit_law
        monkeypatch.setattr(linear_law, "fit_law",
                            lambda *args, **kw: fits.append(args[1]) or fit(*args, **kw))
        for widths, message in (
                (range(2, 41), "width 31: embedding width 31 exceeds series length 30"),
                ([3, 4, 1], "width 1: embedding width must be >= 2, got 1")):
            with pytest.raises(ValueError, match=f"^Normal law at {message}$"):
                scan_law_length(train, train, widths)
        assert fits == []
        scan_law_length(train, train, [3, 4])
        assert fits == [3, 4]

    def test_width_beyond_the_validation_length(self):
        train = Corpus(beats=random_beats(6, 30, seed=39), window_len=30, role=Role.TRAIN)
        val = Corpus(beats=random_beats(6, 20, seed=40), window_len=20, role=Role.VALIDATION)
        with pytest.raises(ValueError, match="^Normal law at width 21: embedding width 21 "
                                             "exceeds series length 20$"):
            scan_law_length(train, val, [20, 21])


def _normal_corpus(samples, role):
    n = len(samples)
    return Corpus.from_arrays(samples, np.full(n, Label.NORMAL.value), np.zeros(n, bool), role)


def _laid_out(samples, layout):
    """The values of the C-ordered `samples` in the memory layout `layout`."""
    if layout == "fortran":
        return np.asfortranarray(samples)
    if layout == "every other column":
        wide = np.zeros((len(samples), 2 * samples.shape[1]))
        wide[:, ::2] = samples
        return wide[:, ::2]
    if layout == "corpus":
        return _normal_corpus(samples, Role.TRAIN).samples
    return samples


@settings(max_examples=100, deadline=None)
@example(1, 7, 5, 2, 0, "normal", 1.0, "C")  # N = 1 and width = L: one row
@example(1, 12, 3, 1, 1, "normal", 1.0, "C")  # N = 1: the reshape is a view
@example(4, 9, 7, 3, 2, "integers", 1.0, "C")  # width = L
@example(1, 2, 0, 1, 3, "integers", 1e-3, "C")  # L = 2
@example(1, 2, 0, 1, 32, "integers", 1.0, "C")  # lam = 0: the gap is inf
@example(5, 40, 38, 4, 4, "normal", 1e50, "C")
@example(3, 11, 4, 2, 5, "normal", 1.0, "fortran")
@example(3, 11, 4, 2, 6, "normal", 1.0, "every other column")
@example(3, 11, 4, 2, 7, "normal", 1.0, "corpus")
@example(1, 11, 9, 1, 8, "normal", 1.0, "every other column")  # N = 1, width = L
@given(
    st.integers(1, 8),
    st.integers(2, 40),
    st.integers(0, 38),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["normal", "integers"]),
    st.sampled_from([1e-100, 1e-3, 1.0, 1e3, 1e50]),
    st.sampled_from(["C", "fortran", "every other column", "corpus"]),
)
def test_law_path_equals_its_oracles(n, length, lag, n_val, seed, kind, scale, layout):
    """The strided embedding, the unmirrored correlation and the
    in-place residual power give the bits of their first versions, on
    samples in C or Fortran order, every other column of a wider array,
    or a read-only corpus view."""
    width = 2 + lag % (length - 1)
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal if kind == "normal" else (lambda shape: rng.integers(-3, 4, shape))
    samples, val = (scale * draw((m, length)).astype(float) for m in (n, n_val))
    samples = _laid_out(samples, layout)
    Y = embed_class(samples, width).data
    oracle_Y = embed_class_oracle(samples, width)
    assert Y.flags.c_contiguous
    assert np.array_equal(Y, oracle_Y) and Y.tobytes() == oracle_Y.tobytes()
    C = correlation(EmbeddedMatrix(Y))
    assert C.tobytes() == correlation_oracle(oracle_Y).tobytes()
    assert C.tobytes() == C.T.copy().tobytes()
    law = fit_law(samples, width, "Normal", allow_degenerate=True)
    assert law_variance(samples, law) == law.lam
    widths = range(2, width + 1)
    expected = scan_oracle(samples, val, widths)
    train, validation = _normal_corpus(samples, Role.TRAIN), _normal_corpus(val, Role.VALIDATION)
    if expected is None:
        with pytest.raises(DegenerateLawError):
            scan_law_length(train, validation, widths)
    else:
        assert scan_law_length(train, validation, widths).to_csv() == expected
