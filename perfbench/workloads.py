"""The three seeded workloads: their inputs, one pass, and the checks on
each pass's outputs.

A workload object writes its inputs into a directory (`generate`),
parses them (`load`), then runs identical passes (`run_pass`, the
timed part). `fingerprint` reduces a pass's outputs to a comparable
value outside the timed part; `run.py` requires every fingerprint of
a run to equal the first, and `check` tests each against the
workload's own floors.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from llt import cli, dataset_io, evaluation, linear_law, preprocess
from llt.classifiers import (Hyperparams, knn_fit, linear_svm_fit, mlp_fit,
                             rbf_svm_fit, rf_fit)
from llt.features import feature_matrix
from llt.types import Corpus, Label, Role

from probe import MODEL_KINDS, parse_inputs
from tracing import PREDICT_SPANS

# Every model must score at least this share on validation and test.
# A constant or random predictor scores about 0.5 on these balanced sets.
ACCURACY_FLOOR = 0.95

_FITS = ("classifiers.fit_s.knn", "classifiers.fit_s.svm-linear",
         "classifiers.fit_s.svm-rbf", "classifiers.fit_s.rf", "classifiers.fit_s.mlp")


class Reproduce:
    """`cli.run_reproduce` on a default-class synthetic corpus."""

    name = "reproduce"
    beats_per_class = 500
    required_spans = _FITS + PREDICT_SPANS + (
        "features.feature_matrix_s", "embedding.embed_class_s",
        "linear_law.correlation_s", "linear_law.jacobi_s", "linear_law.fit_law_s",
        "evaluation.evaluate_pipeline_s", "evaluation.score_s",
        "dataset_io.load_corpus_s", "dataset_io.split_train_validation_s",
        "dataset_io.save_law_s", "dataset_io.save_model_s")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.data = workdir / "data"
        self.out = workdir / "out"

    def generate(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["synth", "--beats", str(self.beats_per_class),
                           "--seed", str(self.seed), "--out-dir", str(self.data)])
        if rc != 0:
            raise RuntimeError(f"llt synth exited {rc}")

    def load(self) -> None:
        inputs = parse_inputs(self.name, self.data)
        self.beats_per_pass = len(inputs["train"]) + len(inputs["test"])
        self.input_size = (f"{self.beats_per_class} beats per class: "
                           f"{len(inputs['train'])} train+validation, "
                           f"{len(inputs['test'])} test beats")

    def run_pass(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run_reproduce(self.data, self.out, cli.RunConfig(seed=self.seed))

    def fingerprint(self, rc):
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(self.out.iterdir())}
        report = (self.out / "report.csv").read_text(encoding="utf-8")
        return rc, files, report

    def check(self, fingerprint) -> list[str]:
        rc, files, report = fingerprint
        errors = [] if rc == 0 else [f"run_reproduce returned {rc}"]
        expected = {"report.csv", "law_normal.law"} | {
            f"model_{m}.txt" for m in ("knn-k4", "svm-linear", "svm-rbf", "rf", "mlp")}
        if set(files) != expected:
            errors.append(f"output files {sorted(files)}")
        rows = [line.split(",") for line in report.splitlines()
                if line and not line.startswith("#")]
        scored = [(r[0], r[1], r[2]) for r in rows[1:] if r[2]]
        if len(scored) != 10:
            errors.append(f"{len(scored)} scored rows in report.csv, expected 10")
        for method, role, acc in scored:
            if float(acc) < 100 * ACCURACY_FLOOR:
                errors.append(f"{method} {role} accuracy {acc} < {100 * ACCURACY_FLOOR}")
        return errors


class LawScan:
    """`linear_law.scan_law_length` over widths 4-20 on the Normal class."""

    name = "law-scan"
    beats_per_class = 1430  # about 1,000 Normal train + validation beats
    widths = range(4, 21)
    required_spans = ("embedding.embed_class_s", "linear_law.correlation_s",
                      "linear_law.jacobi_s", "linear_law.law_variance_s",
                      "linear_law.fit_law_s")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.data = workdir / "data"

    generate = Reproduce.generate

    def load(self) -> None:
        corpus = parse_inputs(self.name, self.data)["train"]
        self.train, self.val = dataset_io.split_train_validation(
            corpus, dataset_io.SplitSpec(train_fraction=0.4, seed=self.seed))
        n_train, n_val = (sum(not b.artifact for b in c.with_label(Label.NORMAL))
                          for c in (self.train, self.val))
        self.beats_per_pass = n_train + n_val
        self.input_size = (f"{n_train} train + {n_val} validation Normal beats, "
                           f"widths {self.widths.start}-{self.widths.stop - 1}")

    def run_pass(self):
        return linear_law.scan_law_length(self.train, self.val, self.widths)

    def fingerprint(self, report) -> str:
        return report.to_csv()

    def check(self, csv: str) -> list[str]:
        lines = csv.splitlines()[1:]
        errors = []
        if len(lines) != len(self.widths):
            errors.append(f"{len(lines)} scan rows, expected {len(self.widths)}")
        for line in lines:
            if not all(math.isfinite(float(v)) for v in line.split(",")):
                errors.append(f"non-finite scan entry: {line}")
        return errors


# Raw single-beat records for score-records, at 360 Hz. The Normal class
# is a narrow pulse, the Ectopic class a wide one; a planted share of
# records carries two beats, which preprocessing must mark as artifacts.
RECORD_FS = 360.0
RECORD_LEN = 360
RECORD_NOISE = 0.02
PLANTED_SHARE = 0.05
TRAIN_RECORDS = 400
SCORED_RECORDS = 300
# The 0.5-20 Hz band of a 360 Hz record is smooth on a window of a few
# samples, so widths above 3 leave near-degenerate correlation spectra
# and residual features are about 4e-3 in size; svm_c=1 under-fits the
# linear SVM at that scale (about 52% accuracy), svm_c=30 does not.
RECORD_LAW_LEN = 3
RECORD_SVM_C = 30.0


def synth_records(rng: np.random.Generator, n: int):
    """n raw records with their labels and the number of two-beat
    (artifact) records planted among them."""
    t = np.arange(RECORD_LEN)
    records, labels, planted = [], [], 0
    for _ in range(n):
        label = Label.NORMAL if rng.random() < 0.5 else Label.ECTOPIC
        double = rng.random() < PLANTED_SHARE
        centre = rng.uniform(130.0, 230.0)
        amp = rng.uniform(0.8, 1.2)
        width = rng.uniform(2.0, 3.0) if label == Label.NORMAL else rng.uniform(6.0, 8.0)
        y = amp * np.exp(-0.5 * ((t - centre) / width) ** 2)
        if double:
            label = Label.ECTOPIC
            planted += 1
            second = centre + 150.0 if centre < 180.0 else centre - 150.0
            y = y + amp * np.exp(-0.5 * ((t - second) / width) ** 2)
        records.append(y + RECORD_NOISE * rng.standard_normal(RECORD_LEN))
        labels.append(label)
    return records, labels, planted


def _write_records(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for y in records:
            f.write(f"{RECORD_FS:g};" + ",".join(f"{v:.17g}" for v in y) + "\n")


class ScoreRecords:
    """Deployment path: `preprocess.preprocess_record` on each raw record
    of a batch, then `evaluation.evaluate_pipeline` with five saved and
    reloaded models."""

    name = "score-records"
    required_spans = PREDICT_SPANS + (
        "preprocess.bandpass_s", "preprocess.detect_peaks_s",
        "preprocess.preprocess_record_s", "features.feature_matrix_s",
        "evaluation.evaluate_pipeline_s", "evaluation.score_s")
    config = preprocess.PreprocessConfig()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.data = workdir / "data"

    def _beats(self, signals, labels):
        beats = []
        for i, (sig, label) in enumerate(zip(signals, labels)):
            beats.extend(preprocess.preprocess_record(sig, self.config, label=label,
                                                      source_id=str(i)))
        return beats

    def generate(self) -> None:
        """Write the scored records, and fit, save the law and the five
        models on a separate set of training records."""
        rng = np.random.default_rng(self.seed)
        train, train_labels, _ = synth_records(rng, TRAIN_RECORDS)
        scored, self.labels, self.planted = synth_records(rng, SCORED_RECORDS)
        self.data.mkdir(parents=True, exist_ok=True)
        _write_records(self.data / "records.csv", scored)

        signals = [preprocess.Signal(values=y, fs=RECORD_FS) for y in train]
        beats = [b for b in self._beats(signals, train_labels) if not b.artifact]
        law = linear_law.fit_law([b for b in beats if b.label == Label.NORMAL],
                                 RECORD_LAW_LEN, "Normal")
        X = feature_matrix(beats, law)
        y = [b.label.value for b in beats]
        hp = Hyperparams(seed=self.seed, svm_c=RECORD_SVM_C)
        dataset_io.save_law(law, self.data / "law_normal.law")
        for kind, fit in zip(MODEL_KINDS, (knn_fit, linear_svm_fit, rbf_svm_fit,
                                           rf_fit, mlp_fit)):
            dataset_io.save_model(fit(X, y, hp), self.data / f"model_{kind}.txt")

    def load(self) -> None:
        inputs = parse_inputs(self.name, self.data)
        self.signals, self.law, self.models = (
            inputs["signals"], inputs["law"], inputs["models"])
        self.beats_per_pass = len(self.signals)
        self.input_size = (f"{len(self.signals)} records of {RECORD_LEN} samples "
                           f"at {RECORD_FS:g} Hz, {self.planted} two-beat artifacts planted; "
                           f"models fit on {TRAIN_RECORDS} records")

    def run_pass(self):
        beats = self._beats(self.signals, self.labels)
        corpus = Corpus(beats=beats, window_len=self.config.window_len, role=Role.TEST)
        return beats, [evaluation.evaluate_pipeline(corpus, self.law, m, method=m.kind)
                       for m in self.models]

    def fingerprint(self, result):
        beats, reports = result
        digest = hashlib.sha256()
        for b in beats:
            digest.update(b.samples.tobytes() + bytes([b.artifact]))
        return digest.hexdigest(), [
            (r.method, r.counts.tp, r.counts.tn, r.counts.fp, r.counts.fn,
             r.artifact_count, r.acc) for r in reports]

    def check(self, fingerprint) -> list[str]:
        _, reports = fingerprint
        errors = []
        for method, *_, artifacts, acc in reports:
            if artifacts != self.planted:
                errors.append(f"{method}: {artifacts} artifacts, {self.planted} planted")
            if acc < ACCURACY_FLOOR:
                errors.append(f"{method}: accuracy {float(acc):.4f} < {ACCURACY_FLOOR}")
        return errors


WORKLOADS = {w.name: w for w in (Reproduce, LawScan, ScoreRecords)}
