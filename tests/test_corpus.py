"""The corpus sample arrays, and a property that the law, feature, scan
and scoring paths give the same bits on `Corpus` rows as on beat lists."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llt.classifiers import Hyperparams, knn_fit, predict_batch
from llt.dataset_io import SplitSpec, split_train_validation
from llt.embedding import embed_class
from llt.evaluation import evaluate_pipeline
from llt.features import feature_matrix
from llt.linear_law import LawScanReport, ScanEntry, fit_law, law_variance, scan_law_length
from llt.types import Beat, ConvergenceError, Corpus, Label, LinearLaw, Role

from conftest import random_beats


class TestCorpusArrays:
    def test_samples_stack_beats_read_only(self):
        beats = random_beats(5, 7, seed=1)
        corpus = Corpus(beats=beats, window_len=7)
        assert corpus.samples.shape == (5, 7)
        assert np.array_equal(corpus.samples, np.stack([b.samples for b in beats]))
        with pytest.raises(ValueError, match="read-only"):
            corpus.samples[0, 0] = 1.0

    def test_rows_mask_artifacts_and_label(self):
        beats = [Beat(samples=np.full(3, float(i)), label=label, artifact=artifact)
                 for i, (label, artifact) in enumerate([
                     (Label.NORMAL, False), (Label.ECTOPIC, False),
                     (Label.NORMAL, True), (Label.UNLABELED, False), (Label.NORMAL, False)])]
        corpus = Corpus(beats=beats, window_len=3)
        assert corpus.labels.tolist() == ["N", "E", "N", "?", "N"]
        assert corpus.artifact.tolist() == [False, False, True, False, False]
        assert corpus.clean.tolist() == [True, True, False, True, True]
        assert corpus.rows(Label.NORMAL)[:, 0].tolist() == [0.0, 4.0]
        assert corpus.rows(Label.ECTOPIC).shape == (1, 3)
        assert corpus.rows()[:, 0].tolist() == [0.0, 1.0, 3.0, 4.0]
        assert corpus.row_labels() == ["N", "E", "?", "N"]

    def test_empty_corpus(self):
        corpus = Corpus(beats=[], window_len=4)
        assert corpus.samples.shape == (0, 4)
        assert corpus.rows(Label.NORMAL).shape == (0, 4)
        with pytest.raises(ValueError, match="^Normal law at width 2: no beat to embed$"):
            fit_law(corpus.rows(Label.NORMAL), 2, "Normal")

    def test_beat_of_wrong_length_named(self):
        beats = random_beats(2, 6, seed=2) + random_beats(1, 5, seed=3)
        with pytest.raises(ValueError, match=r"^beat 2: length 5 != corpus length 6$"):
            Corpus(beats=beats, window_len=6)

    def test_from_arrays_keeps_a_read_only_view(self):
        samples = np.arange(6.0).reshape(3, 2)
        corpus = Corpus.from_arrays(samples, np.array(["N", "E", "?"]),
                                    np.array([False, True, False]), Role.TEST)
        assert np.shares_memory(corpus.samples, samples) and samples.flags.writeable
        assert not corpus.samples.flags.writeable
        assert (len(corpus), corpus.window_len, corpus.role) == (3, 2, Role.TEST)
        assert corpus.clean.tolist() == [True, False, True]
        beats = corpus.beats
        assert [(b.label, b.artifact) for b in beats] == [
            (Label.NORMAL, False), (Label.ECTOPIC, True), (Label.UNLABELED, False)]
        assert all(np.shares_memory(b.samples, samples) for b in beats)
        assert [b.artifact for b in corpus.with_label(Label.ECTOPIC)] == [True]

    @pytest.mark.parametrize("shapes", [((3,), (3,), (3,)), ((3, 2), (2,), (3,)),
                                        ((3, 2), (3,), (4,)), ((3, 2), (3, 1), (3, 1))])
    def test_from_arrays_rejects_mismatched_shapes(self, shapes):
        samples, labels, artifact = shapes
        with pytest.raises(ValueError, match=rf"^corpus arrays of shapes "
                                             rf"{re.escape(str(samples))}, .* do not match$"):
            Corpus.from_arrays(np.zeros(samples), np.full(labels, "N"),
                               np.zeros(artifact, dtype=bool))

    def test_embed_class_rejects_non_matrix(self):
        with pytest.raises(ValueError, match=r"\(N, L\) array"):
            embed_class(np.zeros(5), 2)


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args)
    except (ValueError, ConvergenceError) as e:
        return type(e), str(e)


def _unit_law(width: int) -> LinearLaw:
    w = np.random.default_rng(width).standard_normal(width)
    return LinearLaw(w=w / np.linalg.norm(w), lam=0.0, class_tag="Normal")


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.shape, a.dtype.str, a.tobytes()


def _same_law(a, b) -> bool:
    if a[0] != "ok" or b[0] != "ok":
        return a == b
    x, y = a[1], b[1]
    return (_bits(x.w) == _bits(y.w) and _bits(x.lam) == _bits(y.lam)
            and x.train_row_count == y.train_row_count)


def _scan_from_beats(train: Corpus, val: Corpus, widths, tag: Label) -> str:
    """`scan_law_length` computed on beat lists."""
    train_beats = [b for b in train.with_label(tag) if not b.artifact]
    val_beats = [b for b in val.with_label(tag) if not b.artifact]
    if not val_beats:
        raise ValueError(f"the validation part holds no non-artifact {tag.value!r} "
                         f"beat to check the {tag.name.title()} law on")
    entries = []
    for width in widths:
        law = fit_law(train_beats, width, tag.name.title())
        var_val = law_variance(val_beats, law)
        denom = law.lam if law.lam > 0 else np.finfo(float).tiny
        entries.append(ScanEntry(width, law.lam, var_val, abs(var_val - law.lam) / denom,
                                 train.window_len - width + 1))
    return LawScanReport(entries).to_csv()


def _tallies_from_beats(test: Corpus, law, model) -> tuple:
    """Confusion tallies (tp, tn, fp, fn) and artifact count of
    `evaluate_pipeline`, one beat at a time: artifacts are Ectopic by
    rule and unlabelled beats are not scored."""
    pairs, clean = [], []
    for beat in test.beats:
        if beat.label is Label.UNLABELED:
            continue
        if beat.artifact:
            pairs.append(("E", beat.label.value))
        else:
            clean.append(beat)
    if clean:
        predicted = predict_batch(model, feature_matrix(clean, law))
        pairs += [(str(p), b.label.value) for p, b in zip(predicted, clean)]
    tp = sum(p == "N" and t == "N" for p, t in pairs)
    tn = sum(p != "N" and t != "N" for p, t in pairs)
    fp = sum(p == "N" and t != "N" for p, t in pairs)
    fn = sum(p != "N" and t == "N" for p, t in pairs)
    return (tp, tn, fp, fn), sum(b.artifact for b in test.beats)


@st.composite
def corpora(draw):
    """A corpus of N in 1..200 beats of length L in 2..40, with mixed
    labels, artifacts and `?` beats; the share of each is drawn too, so
    that corpora without a Normal, a clean or a labelled beat occur."""
    n = draw(st.integers(1, 200))
    length = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_label = draw(st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                    (0.5, 0.5, 0), (0.4, 0.4, 0.2)]))
    p_artifact = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e3]))
    labels = rng.choice(3, size=n, p=p_label)
    beats = [Beat(samples=scale * rng.standard_normal(length), label=list(Label)[i],
                  artifact=bool(rng.random() < p_artifact))
             for i in labels]
    return Corpus(beats=beats, window_len=length)


@settings(max_examples=100, deadline=None)
@given(corpus=corpora(), tag=st.sampled_from([Label.NORMAL, Label.ECTOPIC]),
       train_fraction=st.sampled_from([0.4, 0.7, 1.0]), data=st.data())
def test_rows_match_beat_lists(corpus, tag, train_fraction, data):
    length = corpus.window_len
    widths = range(2, length + 1)
    clean = [b for b in corpus.beats if not b.artifact]
    class_beats = [b for b in clean if b.label == tag]
    for width in widths:
        law = _unit_law(width)
        if clean:
            assert _bits(feature_matrix(corpus.rows(), law)) == _bits(feature_matrix(clean, law))
        assert _same_law(_outcome(fit_law, corpus.rows(tag), width, "Law"),
                         _outcome(fit_law, class_beats, width, "Law"))

    train, val = split_train_validation(corpus, SplitSpec(train_fraction=train_fraction, seed=0))
    scan = _outcome(lambda: scan_law_length(train, val, widths, tag).to_csv())
    assert scan == _outcome(_scan_from_beats, train, val, widths, tag)

    law = _unit_law(data.draw(st.integers(2, length), label="width"))
    X = np.random.default_rng(length).standard_normal((4, length - law.width + 1))
    model = knn_fit(X, ["N", "E", "N", "E"], Hyperparams(knn_k=1))
    test = Corpus(beats=corpus.beats, window_len=length, role=Role.TEST)
    expected, artifacts = _tallies_from_beats(test, law, model)
    if sum(expected) == 0:
        with pytest.raises(ValueError, match="zero evaluated beats"):
            evaluate_pipeline(test, law, model)
        return
    report = evaluate_pipeline(test, law, model)
    c = report.counts
    assert ((c.tp, c.tn, c.fp, c.fn), report.artifact_count) == (expected, artifacts)
