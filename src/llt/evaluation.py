"""Scoring and pipeline orchestration: confusion tallies, accuracy /
sensitivity / positive-predictivity per class, the artifact rule, and
comparison tables against the published reference numbers.

Normal is always the positive class: `score` tallies with it, and
`metrics` reads Ectopic's ratios off the same counts.

Only labelled beats are scored: an unlabelled `?` beat has no truth, so
`evaluate_pipeline` leaves it out, and a corpus with no labelled beat
is a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classifiers import TrainedModel, predict_batch
from .features import feature_matrix
from .types import _TOKEN, Corpus, Label, LinearLaw, Role


@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class MetricsReport:
    acc: Fraction
    se_normal: Fraction | None
    pp_normal: Fraction | None
    se_ectopic: Fraction | None
    pp_ectopic: Fraction | None
    counts: ConfusionCounts
    artifact_count: int = 0
    dataset_role: Role = Role.TEST
    method: str = ""


def _label_tokens(values, what: str) -> np.ndarray:
    """`values` as an array of label tokens; ValueError on any other."""
    tokens = np.asarray(values, dtype=str)
    known = np.isin(tokens, tuple(_TOKEN.values()))
    if not known.all():
        raise ValueError(f"unknown label token {str(tokens[~known][0])!r} in {what}")
    return tokens


def score(predictions, truth) -> ConfusionCounts:
    """Exact confusion tallies with Normal as the positive class."""
    if len(predictions) != len(truth):
        raise ValueError(
            f"{len(predictions)} predictions vs {len(truth)} truth labels"
        )
    pred_pos = _label_tokens(predictions, "predictions") == Label.NORMAL.value
    true_pos = _label_tokens(truth, "truth labels") == Label.NORMAL.value
    count = lambda mask: int(np.count_nonzero(mask))
    return ConfusionCounts(tp=count(pred_pos & true_pos), fn=count(~pred_pos & true_pos),
                           fp=count(pred_pos & ~true_pos), tn=count(~pred_pos & ~true_pos))


def _ratio(num: int, den: int) -> Fraction | None:
    return None if den == 0 else Fraction(num, den)


def metrics(counts: ConfusionCounts, artifact_count: int = 0,
            dataset_role: Role = Role.TEST, method: str = "") -> MetricsReport:
    """Accuracy plus per-class Se and +P. Counts are taken with Normal
    as positive, so Ectopic's true positives are the true negatives.
    Zero-denominator ratios are reported as None, not zero."""
    if counts.total == 0:
        raise ValueError("cannot compute metrics on zero evaluated beats")
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    return MetricsReport(
        acc=Fraction(tp + tn, counts.total),
        se_normal=_ratio(tp, tp + fn),
        pp_normal=_ratio(tp, tp + fp),
        se_ectopic=_ratio(tn, tn + fp),
        pp_ectopic=_ratio(tn, tn + fn),
        counts=counts,
        artifact_count=artifact_count,
        dataset_role=dataset_role,
        method=method,
    )


def evaluate_pipeline(test: Corpus, law: LinearLaw, model: TrainedModel,
                      method: str = "") -> MetricsReport:
    """Two-step classification: artifact beats are labeled Ectopic by
    rule; everything else goes through the reference-law features and
    the trained model. Unlabeled beats have no truth and are not scored;
    a corpus without a labeled beat raises ValueError."""
    labelled = test.labels != Label.UNLABELED.value
    ruled = labelled & test.artifact
    clean = labelled & test.clean
    preds = np.full(np.count_nonzero(ruled), Label.ECTOPIC.value)
    if clean.any():
        X = feature_matrix(test.samples[clean], law)
        preds = np.concatenate([preds, predict_batch(model, X)])
    counts = score(preds, np.concatenate([test.labels[ruled], test.labels[clean]]))
    return metrics(counts, artifact_count=int(np.count_nonzero(test.artifact)),
                   dataset_role=test.role, method=method)


# Published reference numbers (validation ACC, test ACC) in percent,
# with per-class Se/+P pairs where available.
BASELINE_TABLE = {
    "rf": {"validation": (93.6, 94.3, 93.1, 93.0, 94.2),
           "test": (92.1, 92.9, 91.4, 91.2, 92.8)},
    "svm-rbf": {"validation": (95.0, 96.3, 93.8, 93.6, 96.2),
                "test": (94.3, 94.4, 94.2, 94.2, 94.4)},
    "svm-linear": {"validation": (89.4, 89.9, 89.0, 88.9, 89.8),
                   "test": (91.8, 93.2, 90.6, 90.4, 93.0)},
    "mlp": {"validation": (95.2, 95.7, 94.7, 94.7, 95.6),
            "test": (93.1, 94.0, 92.3, 92.2, 93.9)},
    "knn-k4": {"validation": (96.4, 97.4, 95.5, 95.4, 97.4),
               "test": (91.5, 95.0, 88.8, 88.0, 94.6)},
    "knn-sqrt": {"validation": (92.7, 90.7, 94.5, 94.7, 91.1),
                 "test": (90.9, 88.1, 93.3, 93.7, 88.7)},
    "vpnet": {"validation": None,
              "test": (96.7, 99.4, 94.2, 93.9, 99.3)},
}

# the MetricsReport fields of the measured columns, in table order
_COLUMNS = ("acc", "se_normal", "pp_normal", "se_ectopic", "pp_ectopic")


def compare_report(reports: list[MetricsReport]) -> str:
    """CSV comparison table: one row per (method, role) with measured
    metrics, in percent, next to the published baseline where one exists."""
    lines = ["method,role," + ",".join(_COLUMNS)
             + "," + ",".join("baseline_" + c for c in _COLUMNS)
             + ",artifacts"]
    fmt = lambda v: "" if v is None else f"{v:.1f}"
    pct = lambda v: "" if v is None else f"{float(v) * 100.0:.1f}"
    for r in reports:
        base = BASELINE_TABLE.get(r.method, {}).get(r.dataset_role.value)
        base_cells = [fmt(v) for v in base] if base else [""] * len(_COLUMNS)
        lines.append(
            ",".join(
                [r.method, r.dataset_role.value]
                + [pct(getattr(r, c)) for c in _COLUMNS]
                + base_cells
                + [str(r.artifact_count)]
            )
        )
    for name, entry in BASELINE_TABLE.items():
        if name not in {r.method for r in reports}:
            for role in ("validation", "test"):
                vals = entry.get(role)
                if vals:
                    lines.append(
                        ",".join([name, role] + [""] * len(_COLUMNS)
                                 + [fmt(v) for v in vals] + [""])
                    )
    return "\n".join(lines) + "\n"
