from fractions import Fraction

import numpy as np
import pytest

from llt.classifiers import Hyperparams, knn_fit
from llt.evaluation import (
    BASELINE_TABLE,
    ConfusionCounts,
    compare_report,
    evaluate_pipeline,
    metrics,
    score,
)
from llt.linear_law import fit_law
from llt.types import Beat, Corpus, Label, Role

from conftest import sinusoid_beats


class TestScore:
    def test_example(self):
        c = score(["N", "N", "E", "E"], ["N", "E", "E", "N"])
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)

    def test_all_correct(self):
        c = score(["N", "E"], ["N", "E"])
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="predictions"):
            score(["N"], ["N", "E"])

    @pytest.mark.parametrize("preds, truth, where", [
        (["N", "X"], ["N", "E"], "'X' in predictions"),
        (["N", "E"], ["NE", "E"], "'NE' in truth labels"),
    ])
    def test_unknown_token(self, preds, truth, where):
        with pytest.raises(ValueError, match=f"unknown label token {where}"):
            score(preds, truth)


class TestMetrics:
    def test_hand_computed(self):
        # tp=8 tn=5 fp=2 fn=1 with Normal positive
        m = metrics(ConfusionCounts(tp=8, tn=5, fp=2, fn=1))
        assert m.acc == Fraction(13, 16)
        assert m.se_normal == Fraction(8, 9)
        assert m.pp_normal == Fraction(8, 10)
        assert m.se_ectopic == Fraction(5, 7)
        assert m.pp_ectopic == Fraction(5, 6)

    def test_random_matrices_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, 4))
            if tp + tn + fp + fn == 0:
                continue
            m = metrics(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
            assert m.acc == Fraction(tp + tn, tp + tn + fp + fn)
            if tp + fn:
                assert m.se_normal == Fraction(tp, tp + fn)
            else:
                assert m.se_normal is None
            if tn + fp:
                assert m.se_ectopic == Fraction(tn, tn + fp)
            else:
                assert m.se_ectopic is None

    def test_zero_denominators_are_none(self):
        m = metrics(ConfusionCounts(tp=0, tn=3, fp=0, fn=0))
        assert m.se_normal is None
        assert m.pp_normal is None
        assert m.se_ectopic == Fraction(1)
        assert m.acc == Fraction(1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero evaluated"):
            metrics(ConfusionCounts())

    def test_transpose_symmetry(self):
        # the same tallies with the positive class swapped by hand
        m = metrics(ConfusionCounts(tp=7, tn=4, fp=3, fn=2))
        mt = metrics(ConfusionCounts(tp=4, tn=7, fp=2, fn=3))
        assert m.acc == mt.acc
        assert m.se_normal == mt.se_ectopic
        assert m.pp_normal == mt.pp_ectopic
        assert m.se_ectopic == mt.se_normal
        assert m.pp_ectopic == mt.pp_normal

    def test_row_percentages(self):
        # compare_report prints the report's ratios as percentages
        m = metrics(ConfusionCounts(tp=3, tn=1, fp=1, fn=0), method="knn-k4")
        row = next(line for line in compare_report([m]).splitlines()
                   if line.startswith("knn-k4,test"))
        assert row.split(",")[2:7] == ["80.0", "100.0", "75.0", "50.0", "100.0"]


def small_pipeline():
    ref = sinusoid_beats(0.3, 30, noise=0.01, seed=1, label=Label.NORMAL)
    other = sinusoid_beats(0.9, 30, noise=0.01, seed=2, label=Label.ECTOPIC,
                           phase_span=0.6 * np.pi)
    law = fit_law(ref[:20], 12, "Normal")
    from llt.features import feature_matrix

    X = feature_matrix(ref[:20] + other[:20], law)
    y = ["N"] * 20 + ["E"] * 20
    model = knn_fit(X, y, Hyperparams(knn_k=4))
    return law, model, ref[20:], other[20:]


class TestEvaluatePipeline:
    def test_clean_corpus(self):
        law, model, ref, other = small_pipeline()
        test = Corpus(beats=ref + other, window_len=30, role=Role.TEST)
        report = evaluate_pipeline(test, law, model, method="knn-k4")
        assert report.acc >= Fraction(9, 10)
        assert report.artifact_count == 0
        assert report.dataset_role is Role.TEST

    def test_artifact_rule(self):
        law, model, ref, other = small_pipeline()
        art = Beat(samples=np.zeros(30), label=Label.ECTOPIC, artifact=True)
        test = Corpus(beats=ref + [art], window_len=30, role=Role.TEST)
        report = evaluate_pipeline(test, law, model)
        assert report.artifact_count == 1
        # artifact labeled Ectopic by rule and its truth is Ectopic
        assert report.counts.tn >= 1
        assert report.counts.total == len(ref) + 1

    def test_unlabeled_beats_not_scored(self):
        law, model, ref, other = small_pipeline()
        unlabeled = [Beat(samples=b.samples, label=Label.UNLABELED)
                     for b in ref + other]
        art = Beat(samples=np.zeros(30), label=Label.UNLABELED, artifact=True)
        test = Corpus(beats=ref + other + unlabeled + [art], window_len=30)
        report = evaluate_pipeline(test, law, model)
        labeled = evaluate_pipeline(Corpus(beats=ref + other, window_len=30),
                                    law, model)
        assert report.counts == labeled.counts
        assert report.artifact_count == 1
        with pytest.raises(ValueError, match="zero evaluated"):
            evaluate_pipeline(Corpus(beats=unlabeled + [art], window_len=30),
                              law, model)


class TestCompareReport:
    def test_baseline_values(self):
        assert BASELINE_TABLE["vpnet"]["test"][0] == 96.7
        assert BASELINE_TABLE["knn-k4"]["validation"][0] == 96.4
        assert BASELINE_TABLE["svm-rbf"]["test"][0] == 94.3

    def test_csv_contains_measured_and_baseline(self):
        m = metrics(ConfusionCounts(tp=9, tn=9, fp=1, fn=1),
                    dataset_role=Role.TEST, method="svm-rbf")
        text = compare_report([m])
        lines = text.strip().splitlines()
        assert lines[0].startswith("method,role,acc")
        svm_line = next(l for l in lines if l.startswith("svm-rbf,test"))
        cells = svm_line.split(",")
        assert cells[2] == "90.0"       # measured accuracy
        assert cells[7] == "94.3"       # published accuracy
        # methods without a measured run still appear with baselines
        assert any(l.startswith("vpnet,test") for l in lines)

    def test_unmeasured_validation_row_absent_for_vpnet(self):
        text = compare_report([])
        assert "vpnet,validation" not in text
