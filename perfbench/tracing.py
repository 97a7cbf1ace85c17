"""Per-layer spans recorded from outside the program.

`Tracer.patched()` replaces each public layer function listed in SPANS
with a timing wrapper, under every name a loaded `llt` module binds it
to (`cli.feature_matrix`, `evaluation.predict_batch`,
`linear_law.embed_class`, the fitters imported into `cli`, ...), and
restores the originals on exit. Each wrapper adds its inclusive wall
time to one span name, counts calls, and updates the work counters in
HOOKS. Calls made while no wrapper is on the stack are top-level; their
summed time is what the named spans cover of a pass.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from probe import MODEL_KINDS

# (module, function, span name). predict_batch is named per model kind.
SPANS = (
    ("dataset_io", "load_corpus", "dataset_io.load_corpus_s"),
    ("dataset_io", "split_train_validation", "dataset_io.split_train_validation_s"),
    ("dataset_io", "save_law", "dataset_io.save_law_s"),
    ("dataset_io", "save_model", "dataset_io.save_model_s"),
    ("embedding", "embed_class", "embedding.embed_class_s"),
    ("linear_law", "correlation", "linear_law.correlation_s"),
    ("linear_law", "jacobi_eigensystem", "linear_law.jacobi_s"),
    ("linear_law", "law_variance", "linear_law.law_variance_s"),
    ("linear_law", "fit_law", "linear_law.fit_law_s"),
    ("features", "feature_matrix", "features.feature_matrix_s"),
    ("classifiers", "knn_fit", "classifiers.fit_s.knn"),
    ("classifiers", "linear_svm_fit", "classifiers.fit_s.svm-linear"),
    ("classifiers", "rbf_svm_fit", "classifiers.fit_s.svm-rbf"),
    ("classifiers", "rf_fit", "classifiers.fit_s.rf"),
    ("classifiers", "mlp_fit", "classifiers.fit_s.mlp"),
    ("classifiers", "predict_batch", None),
    ("evaluation", "evaluate_pipeline", "evaluation.evaluate_pipeline_s"),
    ("evaluation", "score", "evaluation.score_s"),
    ("preprocess", "bandpass", "preprocess.bandpass_s"),
    ("preprocess", "detect_peaks", "preprocess.detect_peaks_s"),
    ("preprocess", "preprocess_record", "preprocess.preprocess_record_s"),
)

PREDICT_SPANS = tuple(f"classifiers.predict_s.{k}" for k in MODEL_KINDS)
SPAN_NAMES = tuple(span for _, _, span in SPANS if span) + PREDICT_SPANS

COUNTERS = (
    "classifiers.knn_distance_evals",
    "classifiers.smo_passes",
    "classifiers.rf_nodes",
    "features.rows",
    "embedding.rows",
    "preprocess.artifacts",
    "dataset_io.bytes_written",
)


class TraceCoverageError(RuntimeError):
    """A layer that a pass must call recorded no call."""


def _tree_nodes(node) -> int:
    if "leaf" in node:
        return 1
    return 1 + _tree_nodes(node["left"]) + _tree_nodes(node["right"])


def _predict_span(args, kwargs) -> str:
    model = args[0] if args else kwargs["model"]
    return f"classifiers.predict_s.{model.kind}"


def _count_predict(t, args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    if model.kind == "knn":
        t.counts["classifiers.knn_distance_evals"] += len(result) * len(model.params["X"])


def _count_features(t, args, kwargs, result):
    beats = args[0] if args else kwargs["beats"]
    t.counts["features.rows"] += len(result)
    t.distinct_beats.update((id(b), b) for b in beats)


def _count_embedded(t, args, kwargs, result):
    t.counts["embedding.rows"] += result.rows


def _count_smo(t, args, kwargs, result):
    t.counts["classifiers.smo_passes"] += len(result.train_meta["objective_history"]) - 1


def _count_rf(t, args, kwargs, result):
    t.counts["classifiers.rf_nodes"] += sum(_tree_nodes(n) for n in result.params["trees"])


def _count_artifacts(t, args, kwargs, result):
    t.counts["preprocess.artifacts"] += sum(b.artifact for b in result)


def _count_written(t, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    t.counts["dataset_io.bytes_written"] += os.path.getsize(path)


# function name -> hook(tracer, args, kwargs, result) run after each call
HOOKS = {
    "predict_batch": _count_predict,
    "feature_matrix": _count_features,
    "embed_class": _count_embedded,
    "rbf_svm_fit": _count_smo,
    "rf_fit": _count_rf,
    "preprocess_record": _count_artifacts,
    "save_law": _count_written,
    "save_model": _count_written,
}


class Tracer:
    """Span times, call counts and work counters of one traced pass."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        # beats kept alive until reset, so their ids stay distinct
        self.distinct_beats: dict[int, object] = {}
        self.top_level_s = 0.0
        self._depth = 0

    def _wrap(self, fn, span, hook):
        def wrapper(*args, **kwargs):
            name = span or _predict_span(args, kwargs)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._depth -= 1
                self.seconds[name] += dt
                self.calls[name] += 1
                if self._depth == 0:
                    self.top_level_s += dt
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patched(self):
        """Wrap every SPANS function under every name an `llt` module
        binds it to; restore all originals on exit."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "llt" or name.startswith("llt."))]
        saved = []
        try:
            for mod_name, fn_name, span in SPANS:
                original = getattr(sys.modules[f"llt.{mod_name}"], fn_name)
                wrapper = self._wrap(original, span, HOOKS.get(fn_name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def require(self, spans) -> None:
        missing = [s for s in spans if self.calls.get(s, 0) == 0]
        if missing:
            raise TraceCoverageError(
                "no call recorded in a pass that must make one: " + ", ".join(missing))
