"""Acceptance suite: ten numbered criteria, each printing one PASS /
FAIL / SKIPPED line. Criterion 8 needs the clinical beat corpus
(train.csv + test.csv under data/clinical/ or $LLT_CLINICAL_DIR) and is
reported SKIPPED when that corpus is not present.
"""

import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from llt.classifiers import heuristic_k, mlp_init
from llt.cli import main as cli_main
from llt.evaluation import ConfusionCounts, metrics
from llt.linear_law import fit_law, law_variance
from llt.synth import SynthSpec, generate
from llt.types import Label

from conftest import mlp_loss_grad, random_beats, sinusoid_beats
from test_linear_law import inverse_power_smallest


def report(number, name, outcome="PASS"):
    print(f"ACCEPTANCE {number} ({name}): {outcome}")


class _Check:
    """Prints the criterion verdict even when an assert fails."""

    def __init__(self, number, name):
        self.number, self.name = number, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        report(self.number, self.name, "PASS" if exc_type is None else "FAIL")
        return False


def test_criterion_1_variance_identity():
    # 50 random corpora, law_variance on the fitting set == lambda
    # within 1e-10 relative; runtime < 5 s
    with _Check(1, "variance identity"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(50):
            L = int(rng.integers(10, 41))
            width = int(rng.integers(2, L + 1))
            n_beats = int(rng.integers(5, 51))
            beats = random_beats(n_beats, L, seed=int(rng.integers(1 << 31)))
            law = fit_law(beats, width, "Normal", allow_degenerate=True)
            var = law_variance(beats, law)
            assert abs(var - law.lam) <= 1e-10 * max(var, law.lam, 1e-300)
        assert time.perf_counter() - start < 5.0


def test_criterion_2_eigensolver_oracle():
    # 100 random PSD matrices up to 16x16 vs shifted inverse power
    # iteration: eigenvalue within 1e-9 * trace, alignment > 1 - 1e-9;
    # runtime < 5 s
    with _Check(2, "eigensolver oracle equivalence"):
        from llt.linear_law import jacobi_eigensystem

        rng = np.random.default_rng(202)
        start = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(2, 17))
            Y = rng.standard_normal((2 * n + 5, n))
            C = Y.T @ Y / len(Y)
            evals, evecs = jacobi_eigensystem(C)
            lam, w = evals[0], evecs[:, 0]
            lam_o, w_o = inverse_power_smallest(C)
            assert abs(lam - lam_o) <= 1e-9 * max(1.0, np.trace(C))
            assert abs(np.dot(w, w_o)) > 1 - 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_3_exact_law_recovery():
    # noiseless sinusoid, width 3: lambda <= 1e-18 * mean power and
    # coefficients aligned with the analytic 3-term identity; < 1 s
    with _Check(3, "exact-law recovery"):
        start = time.perf_counter()
        beats = sinusoid_beats(0.3, 20, seed=303)
        law = fit_law(beats, 3, "Normal")
        power = np.mean([np.mean(b.samples**2) for b in beats])
        assert law.lam <= 1e-18 * power
        ref = np.array([1.0, -2.0 * np.cos(0.3), 1.0])
        ref = ref / np.linalg.norm(ref)
        assert abs(np.dot(law.w, ref)) > 1 - 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_4_minimality():
    # 20 random unit probes per fitted law never beat lambda
    with _Check(4, "minimality of the fitted law"):
        from llt.embedding import embed_class

        rng = np.random.default_rng(404)
        for seed in (1, 2, 3):
            beats = random_beats(10, 24, seed=seed)
            law = fit_law(beats, 8, "Normal")
            Y = embed_class(beats, 8).data
            for _ in range(20):
                u = rng.standard_normal(8)
                u = u / np.linalg.norm(u)
                assert np.mean((Y @ u) ** 2) >= law.lam - 1e-12


def test_criterion_5_synthetic_end_to_end(tmp_path):
    # default synthetic corpus through `reproduce`: every classifier
    # reaches >= 95% test accuracy, cross-law variance ratio >= 10;
    # runtime < 60 s
    with _Check(5, "synthetic end-to-end"):
        start = time.perf_counter()
        data = tmp_path / "data"
        out = tmp_path / "run"
        assert cli_main(["synth", "--out-dir", str(data)]) == 0
        assert cli_main(["reproduce", "--data", str(data),
                         "--out", str(out)]) == 0
        accs = {}
        for line in (out / "report.csv").read_text().splitlines():
            cells = line.split(",")
            if len(cells) > 2 and cells[1] == "test" and cells[2]:
                accs[cells[0]] = float(cells[2])
        for name in ("knn-k4", "svm-linear", "svm-rbf", "rf", "mlp"):
            assert accs[name] >= 95.0, f"{name}: {accs[name]}%"

        train, _, _ = generate(SynthSpec())
        law = fit_law(train.with_label(Label.NORMAL), 12, "Normal")
        ratio = (law_variance(train.with_label(Label.ECTOPIC), law)
                 / law_variance(train.with_label(Label.NORMAL), law))
        assert ratio >= 10.0
        assert time.perf_counter() - start < 60.0


def test_criterion_6_mlp_gradient_check():
    # analytic vs central finite differences on 10 random
    # configurations, max relative error < 1e-6
    with _Check(6, "network gradient check"):
        rng = np.random.default_rng(606)
        worst = 0.0
        for trial in range(10):
            d = int(rng.integers(2, 8))
            h = int(rng.integers(2, 8))
            n = int(rng.integers(3, 10))
            params = mlp_init(d, h, seed=trial)
            X = rng.standard_normal((n, d))
            t = rng.integers(0, 2, n)
            _, grads = mlp_loss_grad(params, X, t)
            eps = 1e-6
            for name in params:
                flat = params[name].ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    lp, _ = mlp_loss_grad(params, X, t)
                    flat[i] = orig - eps
                    lm, _ = mlp_loss_grad(params, X, t)
                    flat[i] = orig
                    num = (lp - lm) / (2 * eps)
                    rel = abs(num - grads[name].ravel()[i]) / max(1.0, abs(num))
                    worst = max(worst, rel)
        assert worst < 1e-6


def test_criterion_7_metrics_exactness():
    # 20 random confusion matrices reproduced exactly with rational
    # arithmetic, including zero-denominator handling
    with _Check(7, "metrics exactness"):
        rng = np.random.default_rng(707)
        for _ in range(20):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 30, 4))
            if tp + tn + fp + fn == 0:
                tp = 1
            m = metrics(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
            assert m.acc == Fraction(tp + tn, tp + tn + fp + fn)
            assert m.se_normal == (Fraction(tp, tp + fn) if tp + fn else None)
            assert m.pp_normal == (Fraction(tp, tp + fp) if tp + fp else None)
            assert m.se_ectopic == (Fraction(tn, tn + fp) if tn + fp else None)
            assert m.pp_ectopic == (Fraction(tn, tn + fn) if tn + fn else None)


def _clinical_dir():
    cand = os.environ.get("LLT_CLINICAL_DIR")
    if cand:
        return Path(cand)
    return Path(__file__).resolve().parent.parent / "data" / "clinical"


def test_criterion_8_clinical_reproduction(tmp_path):
    # needs the clinical corpus (8520 train / 6440 test beats):
    # RBF-SVM test accuracy within +-2.0 points of 94.3, linear SVM
    # >= 89, KNN k=4 validation within +-2.0 points of 96.4; < 10 min
    data = _clinical_dir()
    if not (data / "train.csv").exists() or not (data / "test.csv").exists():
        report(8, "clinical reproduction", "SKIPPED")
        pytest.skip(f"clinical corpus not found under {data}")
    with _Check(8, "clinical reproduction"):
        start = time.perf_counter()
        out = tmp_path / "clinical_run"
        assert cli_main(["reproduce", "--data", str(data),
                         "--out", str(out)]) == 0
        rows = {}
        for line in (out / "report.csv").read_text().splitlines():
            cells = line.split(",")
            if len(cells) > 2 and cells[2] and not line.startswith("#"):
                rows[(cells[0], cells[1])] = float(cells[2])
        assert abs(rows[("svm-rbf", "test")] - 94.3) <= 2.0
        assert rows[("svm-linear", "test")] >= 89.0
        assert abs(rows[("knn-k4", "validation")] - 96.4) <= 2.0
        assert time.perf_counter() - start < 600.0


def test_criterion_9_determinism(tmp_path):
    # two consecutive reproduce runs: byte-identical laws, models and
    # reports
    with _Check(9, "determinism"):
        data = tmp_path / "data"
        assert cli_main(["synth", "--beats", "60",
                         "--out-dir", str(data)]) == 0
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert cli_main(["reproduce", "--data", str(data),
                             "--out", str(out)]) == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        for name in files:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), name


def test_criterion_10_heuristic_k():
    # square-root neighbor rule on the clinical training size
    with _Check(10, "heuristic neighbor count"):
        assert heuristic_k(3249) == 57
