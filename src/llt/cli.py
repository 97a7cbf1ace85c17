"""Command-line interface: one entry point with subcommands covering
the whole pipeline, plus `reproduce` which chains fit -> transform ->
train -> evaluate and emits a comparison table.

`train` and `reproduce` fit the same five classifiers (`_fitters`) on
labelled rows only (`_labelled`): an unlabelled `?` beat has no truth
to fit or score against. `reproduce` checks that the validation part
and the test corpus each hold a labelled beat, and that the test and
training beats have one length, before any fit, and
`evaluate` checks its test corpus before any prediction
(`_check_scoreable`). A law fit's errors name the class and width
(`linear_law.fit_law`), to which `_naming` adds the file; `_naming`
also adds the training file to a classifier fit's errors (not exactly
2 classes, a `knn_k` above the rows, a solver that did not converge).

Each subcommand takes as flags only the settings its handler reads, its
entry of READS: fields of PreprocessConfig for `preprocess`, of
RunConfig for the others; `synth` also takes those of SynthSpec. A
config file still builds and checks the whole class. A bad value exits
1, naming its field, before any file is read or written.

Exit codes: 0 success, 1 usage error or a solver that did not converge
(`ConvergenceError`), 2 invariant-audit failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import dataset_io, evaluation, linear_law
from .classifiers import (
    Hyperparams,
    knn_fit,
    linear_svm_fit,
    mlp_fit,
    predict_batch,
    rbf_svm_fit,
    rf_fit,
)
from .dataset_io import SplitSpec
from .features import feature_matrix
from .preprocess import PreprocessConfig, preprocess_record
from .synth import SynthSpec, generate
from .types import ConvergenceError, Corpus, Label, Role

CONFIG_ENV_VAR = "LLT_CONFIG"


@dataclass
class RunConfig(Hyperparams):
    """Settings of every subcommand but `preprocess`: the classifier
    hyperparameters and seed of `Hyperparams`, the law width and the
    train share of the train/validation split."""

    law_len: int = 12
    train_fraction: float = SplitSpec.train_fraction

    def __post_init__(self):
        super().__post_init__()
        if self.law_len < 2:
            raise ValueError(f"law_len must be at least 2, got {self.law_len}")
        SplitSpec(self.train_fraction, self.seed)  # checks train_fraction

    def echo_lines(self) -> list[str]:
        return [f"# config {f.name}={getattr(self, f.name)}" for f in fields(self)]


# the settings each subcommand's handler reads, which are its flags: fields
# of PreprocessConfig for `preprocess`, of RunConfig for the others
READS = {
    "synth": ("seed",),
    "preprocess": tuple(f.name for f in fields(PreprocessConfig)),
    "fit-law": ("law_len",),
    "scan-law-length": ("train_fraction", "seed"),
    "transform": (),
    "train": tuple(f.name for f in fields(Hyperparams)),
    "evaluate": (),
    "reproduce": tuple(f.name for f in fields(RunConfig)),
}
# `llt synth`'s own flags; its seed is RunConfig's
_SYNTH_FLAGS = tuple(f.name for f in fields(SynthSpec) if f.name != "seed")


def load_config(path: str | None, overrides: dict, cls=RunConfig):
    """`cls` (RunConfig or PreprocessConfig) from a flat key=value config
    file and the flags in `overrides`, which win. A file key may be a
    field of either class, so one file serves every subcommand, but only
    the fields of `cls` are applied; its constructor checks them. A line
    that is not key=value with such a key, or whose value does not
    convert to the field's type, raises ValueError naming path:line; so
    does a file value that the constructor rejects, unless a flag
    replaced it."""
    types = {f.name: type(f.default) for c in (RunConfig, PreprocessConfig)
             for f in fields(c)}
    values, lines = {}, {}  # lines: key -> path:line of its value in the file
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    for lineno, line in dataset_io.data_lines(path) if path else ():
        k, eq, v = (part.strip() for part in line.partition("="))
        if not eq or k not in types:
            raise ValueError(f"{path}:{lineno}: expected key=value with a "
                             f"known key, got {line!r}")
        try:
            values[k] = types[k](v)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {k}={v!r} is not "
                             f"{'an integer' if types[k] is int else 'a number'}") from None
        lines[k] = f"{path}:{lineno}"
    for k, v in overrides.items():
        if v is not None:
            values[k] = types[k](v)
            lines.pop(k, None)
    names = [f.name for f in fields(cls)]
    try:
        return cls(**{k: values[k] for k in names if k in values})
    except ValueError as e:
        # each check names the fields it rejects; point at the first the file set
        at = next((lines[w] for w in re.findall(r"\w+", str(e))
                   if w in names and w in lines), None)
        if at is None:
            raise
        raise ValueError(f"{at}: {e}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


# --------------------------------------------------------- subcommands

def cmd_synth(args, cfg: RunConfig) -> int:
    spec = SynthSpec(seed=cfg.seed, **{name: v for name in _SYNTH_FLAGS
                                       if (v := getattr(args, name)) is not None})
    train, val, test = generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # train.csv carries train + validation beats; `reproduce` re-splits it
    merged = Corpus.from_arrays(np.concatenate([train.samples, val.samples]),
                                np.concatenate([train.labels, val.labels]),
                                np.concatenate([train.artifact, val.artifact]), Role.TRAIN)
    dataset_io.save_corpus(merged, out / "train.csv")
    dataset_io.save_corpus(test, out / "test.csv")
    print(f"wrote {len(merged)} train and {len(test)} test beats to {out}")
    return 0


def cmd_preprocess(args, cfg: PreprocessConfig) -> int:
    signals = dataset_io.load_raw_signals(args.infile)
    label = Label(args.label)
    beats = []
    for i, sig in enumerate(signals):
        try:
            beats.extend(preprocess_record(sig, cfg, label=label, source_id=str(i)))
        except ValueError as e:  # bandpass rejects the record: name its line
            lineno = [n for n, _ in dataset_io.data_lines(args.infile)][i]
            raise ValueError(f"{args.infile}:{lineno}: {e}") from None
    corpus = Corpus(beats=beats, window_len=cfg.window_len, role=Role.TRAIN)
    dataset_io.save_corpus(corpus, args.out)
    n_art = sum(b.artifact for b in beats)
    print(f"wrote {len(beats)} beats ({n_art} artifacts) to {args.out}")
    return 0


@contextmanager
def _naming(path):
    """Prefix `path` to a ValueError or ConvergenceError of the block."""
    try:
        yield
    except (ValueError, ConvergenceError) as e:
        raise type(e)(f"{path}: {e}") from None


def cmd_fit_law(args, cfg: RunConfig) -> int:
    corpus = dataset_io.load_corpus(args.train, role=Role.TRAIN)
    label = Label(args.class_token)
    with _naming(args.train):
        law = linear_law.fit_law(corpus.rows(label), cfg.law_len, label.name.title())
    dataset_io.save_law(law, args.out)
    print(f"fitted {label.name.title()} law l={law.width} lambda={law.lam:.6g} "
          f"on {law.train_row_count} rows -> {args.out}")
    return 0


def cmd_scan(args, cfg: RunConfig) -> int:
    if args.min > args.max:
        raise ValueError(f"--min {args.min} exceeds --max {args.max}: no law length to scan")
    corpus = dataset_io.load_corpus(args.train, role=Role.TRAIN)
    train, val = dataset_io.split_train_validation(
        corpus, SplitSpec(train_fraction=cfg.train_fraction, seed=cfg.seed))
    with _naming(args.train):
        report = linear_law.scan_law_length(train, val, range(args.min, args.max + 1))
    text = report.to_csv()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_transform(args, cfg: RunConfig) -> int:
    law = dataset_io.load_law(args.law)
    corpus = dataset_io.load_corpus(args.infile)
    rows = corpus.rows()
    if not len(rows):
        raise ValueError(f"{args.infile}: every beat is an artifact; no beat to transform")
    with _naming(f"--law {args.law} on --in {args.infile}"):
        X = feature_matrix(rows, law)
    k = args.downsample
    if not 1 <= k <= X.shape[1]:
        raise ValueError(f"--downsample must be in 1..{X.shape[1]}, got {k}")
    X = X[:, ::k]
    dataset_io.save_features(args.out, X, corpus.row_labels(),
                             [(law.class_tag, X.shape[1])])
    print(f"wrote {len(X)} feature vectors to {args.out}")
    return 0


def _fitters() -> dict:
    """Model kind -> fit function. Built on each call, so that a wrapper
    bound to a fitter's module-level name sees every fit."""
    return {"knn": knn_fit, "svm-linear": linear_svm_fit, "svm-rbf": rbf_svm_fit,
            "rf": rf_fit, "mlp": mlp_fit}


def _labelled(X: np.ndarray, labels: list[str], path) -> tuple[np.ndarray, list[str]]:
    """The feature rows with a label, and their labels: an unlabelled `?`
    row (`llt transform` keeps them) has no truth to fit or score
    against. A ValueError naming `path` if no row is left."""
    keep = [i for i, lbl in enumerate(labels) if lbl != Label.UNLABELED.value]
    if not keep:
        raise ValueError(f"{path}: no labelled feature row (every row is "
                         f"{Label.UNLABELED.value!r})")
    return X[keep], [labels[i] for i in keep]


def _fit_rows(corpus: Corpus, law, path) -> tuple[np.ndarray, list[str], Role]:
    """The labelled feature rows of `corpus` under `law` (`_labelled`),
    their labels, and the role of `corpus`, which the leakage audit
    records for every fit that the rows reach."""
    X, labels = _labelled(feature_matrix(corpus.rows(), law), corpus.row_labels(), path)
    return X, labels, corpus.role


def _check_scoreable(corpus: Corpus, path) -> None:
    """A ValueError naming `path` if `corpus` holds no labelled beat: an
    unlabelled `?` beat is never scored."""
    if not np.any(corpus.labels != Label.UNLABELED.value):
        raise ValueError(f"{path}: no labelled beat to score (every beat "
                         f"is {Label.UNLABELED.value!r})")


def cmd_train(args, cfg: RunConfig) -> int:
    X, labels, _ = dataset_io.load_features(args.features)
    X, labels = _labelled(X, labels, args.features)
    if args.val:
        Xv, yv, _ = dataset_io.load_features(args.val)
        Xv, yv = _labelled(Xv, yv, args.val)
        if Xv.shape[1] != X.shape[1]:
            raise ValueError(f"--features {args.features} has {X.shape[1]} features "
                             f"per row but --val {args.val} has {Xv.shape[1]}")
    with _naming(args.features):
        model = _fitters()[args.model](X, labels, cfg)
    if args.val:
        acc = float(np.mean(predict_batch(model, Xv) == np.array(yv)))
        print(f"validation accuracy {acc:.4f}")
    dataset_io.save_model(model, args.out)
    print(f"trained {model.kind} on {len(X)} vectors -> {args.out}")
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    law = dataset_io.load_law(args.law)
    model = dataset_io.load_model(args.model)
    test = dataset_io.load_corpus(args.test, role=Role.TEST)
    _check_scoreable(test, args.test)
    n_features = max(0, test.window_len - law.width + 1)
    if n_features != model.feature_dim:
        raise ValueError(f"--law {args.law} (l={law.width}) on --test {args.test} "
                         f"(beats of {test.window_len}) gives {n_features} features "
                         f"but --model {args.model} expects {model.feature_dim}")
    report = evaluation.evaluate_pipeline(test, law, model, method=model.kind)
    text = evaluation.compare_report([report])
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def run_reproduce(data_dir, out_dir, cfg: RunConfig) -> int:
    """Full protocol: split, fit the Normal law, transform, train every
    classifier configuration on the labelled training beats, score the
    labelled validation and test beats, emit the comparison table.
    Raises ValueError before any fit if the validation part or the test
    corpus holds no labelled beat, or if the test beats' length differs
    from the training beats'. Audits that no fit consumed Test
    data, and exits 2 before anything is scored or written if one did.
    Creates `out_dir` and writes to it only once every fit and score has
    returned."""
    data = Path(data_dir)
    full_train = dataset_io.load_corpus(data / "train.csv", role=Role.TRAIN)
    test = dataset_io.load_corpus(data / "test.csv", role=Role.TEST)
    train, val = dataset_io.split_train_validation(
        full_train, SplitSpec(train_fraction=cfg.train_fraction, seed=cfg.seed))
    # unlabelled `?` beats of each part, which no fit and no score sees
    u_train, u_val, u_test = (int(np.count_nonzero(c.labels == Label.UNLABELED.value))
                              for c in (train, val, test))
    if u_val == len(val):
        raise ValueError(f"train_fraction {cfg.train_fraction} leaves no labelled beat "
                         f"of {data / 'train.csv'} to validate on")
    _check_scoreable(test, data / "test.csv")
    if test.window_len != full_train.window_len:
        raise ValueError(f"{data / 'test.csv'} has beats of {test.window_len} samples "
                         f"but {data / 'train.csv'} has beats of {full_train.window_len}")

    with _naming(data / "train.csv"):
        law = linear_law.fit_law(train.rows(Label.NORMAL), cfg.law_len, "Normal")
    X_tr, y_tr, fit_role = _fit_rows(train, law, data / "train.csv")
    with _naming(data / "train.csv"):
        models = [(f"knn-k{cfg.knn_k}" if kind == "knn" else kind, fit(X_tr, y_tr, cfg))
                  for kind, fit in _fitters().items()]
    fit_inputs = [("law", train.role)] + [(name, fit_role) for name, _ in models]
    if any(role == Role.TEST for _, role in fit_inputs):
        sys.stderr.write("audit failure: test corpus consumed by a fit\n")
        return 2
    reports = [evaluation.evaluate_pipeline(corpus, law, model, method=name)
               for name, model in models for corpus in (val, test)]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset_io.save_law(law, out / "law_normal.law")
    for name, model in models:
        dataset_io.save_model(model, out / f"model_{name}.txt")
    table = evaluation.compare_report(reports)
    header = cfg.echo_lines() + [f"# fit_input {n}={r.value}" for n, r in fit_inputs]
    if u_train + u_val + u_test:  # no line otherwise, so such reports keep their bytes
        header.append(f"# unlabelled={u_train + u_val + u_test}")
    (out / "report.csv").write_text("\n".join(header) + "\n" + table, encoding="utf-8")
    sys.stdout.write(table)
    return 0


def cmd_reproduce(args, cfg: RunConfig) -> int:
    return run_reproduce(args.data, args.out, cfg)


# --------------------------------------------------------------- main

def _field_flags(parser, cls, names) -> None:
    """One flag per field of `cls` in `names`, `-` for `_`; an unset flag
    is None, which leaves the field's default or the config file's value."""
    for f in fields(cls):
        if f.name in names:
            parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                                default=None, help=f"default {f.default}")


def build_parser() -> _Parser:
    parser = _Parser(prog="llt", description=__doc__)
    config_help = f"key=value config file (default from ${CONFIG_ENV_VAR})"
    parser.add_argument("--config", help=config_help)
    sub = parser.add_subparsers(dest="command")

    def add(name, func, summary, cls=RunConfig):
        """The subparser of `name`, whose handler reads `cls`: --config
        and the flags of the fields in its READS entry."""
        p = sub.add_parser(name, help=summary)
        # SUPPRESS: a subcommand without --config keeps the top-level value
        p.add_argument("--config", default=argparse.SUPPRESS, help=config_help)
        _field_flags(p, cls, READS[name])
        p.set_defaults(func=func, settings=cls, reads=READS[name])
        return p

    p = add("synth", cmd_synth, "generate a synthetic corpus")
    _field_flags(p, SynthSpec, _SYNTH_FLAGS)
    p.add_argument("--out-dir", required=True)

    p = add("preprocess", cmd_preprocess, "raw signals (fs;v0,v1,...) -> beat CSV",
            PreprocessConfig)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--label", default="?", choices=[lbl.value for lbl in Label],
                   help="label token for all records")

    p = add("fit-law", cmd_fit_law, "fit a class law")
    p.add_argument("--class", dest="class_token", default="N",
                   choices=[Label.NORMAL.value, Label.ECTOPIC.value])
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)

    p = add("scan-law-length", cmd_scan, "law-length diagnostics CSV")
    p.add_argument("--min", type=int, default=4)
    p.add_argument("--max", type=int, default=20)
    p.add_argument("--train", required=True)
    p.add_argument("--out")

    p = add("transform", cmd_transform, "beats -> law-residual features")
    p.add_argument("--law", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--downsample", type=int, default=1,
                   help="keep every k-th residual (1 <= k <= feature count)")

    p = add("train", cmd_train, "train a classifier")
    p.add_argument("--model", choices=sorted(_fitters()), required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--val")
    p.add_argument("--out", required=True)

    p = add("evaluate", cmd_evaluate, "score a model")
    p.add_argument("--law", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--report")

    p = add("reproduce", cmd_reproduce, "full pipeline + comparison table")
    p.add_argument("--data", required=True,
                   help="directory holding train.csv and test.csv")
    p.add_argument("--out", default="out")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    overrides = {name: getattr(args, name) for name in args.reads}
    try:
        cfg = load_config(args.config, overrides, args.settings)
        return args.func(args, cfg)
    except (ValueError, OSError, ConvergenceError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
