"""Command-line interface: one entry point with subcommands covering
the whole pipeline, plus `reproduce` which chains fit -> transform ->
train -> evaluate and emits a comparison table.

Exit codes: 0 success, 1 usage error or a solver that did not converge
(`ConvergenceError`), 2 invariant-audit failure.
"""

from __future__ import annotations

import argparse
import os
import sys
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
from .synth import RecurrenceSpec, SynthSpec, generate
from .types import ConvergenceError, Corpus, Label, Role

CONFIG_ENV_VAR = "LLT_CONFIG"


@dataclass
class RunConfig:
    law_len: int = 12
    train_fraction: float = 0.4
    seed: int = 0
    lowpass: float = 20.0
    highpass: float = 0.5
    window_len: int = 30
    peak_threshold: float = 0.5
    refractory_ms: float = 200.0
    fs: float = 360.0
    knn_k: int = 4
    rf_estimators: int = 10
    rf_depth: int = 6
    svm_c: float = 1.0
    rbf_gamma: float = 0.0  # 0 -> auto
    mlp_hidden: int = 8
    mlp_epochs: int = 500
    mlp_lr: float = 0.5

    def echo_lines(self) -> list[str]:
        return [f"# config {f.name}={getattr(self, f.name)}" for f in fields(self)]

    def hyperparams(self) -> Hyperparams:
        return Hyperparams(
            knn_k=self.knn_k,
            rf_estimators=self.rf_estimators,
            rf_depth=self.rf_depth,
            svm_c=self.svm_c,
            rbf_gamma=self.rbf_gamma or None,
            mlp_hidden=self.mlp_hidden,
            mlp_epochs=self.mlp_epochs,
            mlp_lr=self.mlp_lr,
            seed=self.seed,
        )


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Flat key=value config file; command-line flags win. A line that
    is not key=value with a RunConfig field as key, or whose value does
    not convert to the field's type, raises ValueError naming path:line."""
    cfg = RunConfig()
    types = {f.name: type(getattr(cfg, f.name)) for f in fields(RunConfig)}
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                k, eq, v = (part.strip() for part in line.partition("="))
                if not eq or k not in types:
                    raise ValueError(f"{path}:{lineno}: expected key=value with a "
                                     f"known key, got {line!r}")
                try:
                    setattr(cfg, k, types[k](v))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {k}={v!r} is not "
                                     f"{'an integer' if types[k] is int else 'a number'}") from None
    for name, raw in overrides.items():
        if raw is not None:
            setattr(cfg, name, types[name](raw))
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _preprocess_config(cfg: RunConfig) -> PreprocessConfig:
    return PreprocessConfig(
        lowpass_hz=cfg.lowpass,
        highpass_hz=cfg.highpass,
        window_len=cfg.window_len,
        refractory_samples=max(1, round(cfg.refractory_ms / 1000.0 * cfg.fs)),
        peak_threshold=cfg.peak_threshold,
    )


# --------------------------------------------------------- subcommands

def cmd_synth(args, cfg: RunConfig) -> int:
    spec = SynthSpec(
        class_a=RecurrenceSpec("sinusoid", omega=args.omega_a),
        class_b=RecurrenceSpec("sinusoid", omega=args.omega_b),
        beats_per_class=args.beats,
        window_len=cfg.window_len,
        noise_sigma=args.noise,
        seed=cfg.seed,
    )
    train, val, test = generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # train.csv carries train + validation beats; `reproduce` re-splits it
    merged = Corpus(beats=train.beats + val.beats, window_len=spec.window_len,
                    role=Role.TRAIN)
    dataset_io.save_corpus(merged, out / "train.csv")
    dataset_io.save_corpus(test, out / "test.csv")
    print(f"wrote {len(merged)} train and {len(test)} test beats to {out}")
    return 0


def cmd_preprocess(args, cfg: RunConfig) -> int:
    signals = dataset_io.load_raw_signals(args.infile)
    pcfg = _preprocess_config(cfg)
    label = Label.from_token(args.label)
    beats = []
    for i, sig in enumerate(signals):
        beats.extend(preprocess_record(sig, pcfg, label=label, source_id=str(i)))
    corpus = Corpus(beats=beats, window_len=pcfg.window_len, role=Role.TRAIN)
    dataset_io.save_corpus(corpus, args.out)
    n_art = sum(b.artifact for b in beats)
    print(f"wrote {len(beats)} beats ({n_art} artifacts) to {args.out}")
    return 0


def _class_rows(corpus: Corpus, label: Label, path) -> np.ndarray:
    """Samples of the non-artifact `label` beats that a law is fitted on;
    a ValueError naming `path` if there is none."""
    rows = corpus.rows(label)
    if not len(rows):
        raise ValueError(f"{path}: no non-artifact {label.value!r} beat to fit "
                         f"the {label.name.title()} law on")
    return rows


def cmd_fit_law(args, cfg: RunConfig) -> int:
    corpus = dataset_io.load_corpus(args.train, role=Role.TRAIN)
    label = Label.from_token(args.class_token)
    law = linear_law.fit_law(_class_rows(corpus, label, args.train), cfg.law_len,
                             label.name.title())
    dataset_io.save_law(law, args.out)
    print(f"fitted {label.name.title()} law l={law.width} lambda={law.lam:.6g} "
          f"on {law.train_row_count} rows -> {args.out}")
    return 0


def cmd_scan(args, cfg: RunConfig) -> int:
    corpus = dataset_io.load_corpus(args.train, role=Role.TRAIN)
    train, val = dataset_io.split_train_validation(
        corpus, SplitSpec(train_fraction=cfg.train_fraction, seed=cfg.seed))
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
    X = feature_matrix(rows, law)
    k = args.downsample
    if not 1 <= k <= X.shape[1]:
        raise ValueError(f"--downsample must be in 1..{X.shape[1]}, got {k}")
    X = X[:, ::k]
    dataset_io.save_features(args.out, X, corpus.row_labels(),
                             [(law.class_tag, X.shape[1])])
    print(f"wrote {len(X)} feature vectors to {args.out}")
    return 0


_FITTERS = {
    "knn": knn_fit,
    "svm-linear": linear_svm_fit,
    "svm": rbf_svm_fit,
    "svm-rbf": rbf_svm_fit,
    "rf": rf_fit,
    "mlp": mlp_fit,
}


def _labelled_features(path) -> tuple[np.ndarray, list[str]]:
    """Feature rows of a file with a label; unlabelled `?` rows (which
    `llt transform` keeps) have no truth to fit or score against."""
    X, labels, _ = dataset_io.load_features(path)
    keep = [i for i, lbl in enumerate(labels) if lbl != Label.UNLABELED.value]
    if not keep:
        raise ValueError(f"{path}: no labelled feature row (every row is "
                         f"{Label.UNLABELED.value!r})")
    return X[keep], [labels[i] for i in keep]


def cmd_train(args, cfg: RunConfig) -> int:
    X, labels = _labelled_features(args.features)
    model = _FITTERS[args.model](X, labels, cfg.hyperparams())
    if args.val:
        Xv, yv = _labelled_features(args.val)
        acc = float(np.mean(predict_batch(model, Xv) == np.array(yv)))
        print(f"validation accuracy {acc:.4f}")
    dataset_io.save_model(model, args.out)
    print(f"trained {model.kind} on {len(X)} vectors -> {args.out}")
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    law = dataset_io.load_law(args.law)
    model = dataset_io.load_model(args.model)
    test = dataset_io.load_corpus(args.test, role=Role.TEST)
    report = evaluation.evaluate_pipeline(test, law, model, method=model.kind)
    text = "\n".join(cfg.echo_lines()) + "\n" + evaluation.compare_report([report])
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def run_reproduce(data_dir, out_dir, cfg: RunConfig) -> int:
    """Full protocol: split, fit the Normal law, transform, train every
    classifier configuration, score validation and test, emit the
    comparison table. Audits that no fit ever consumed Test data."""
    hp = cfg.hyperparams()
    data = Path(data_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    full_train = dataset_io.load_corpus(data / "train.csv", role=Role.TRAIN)
    test = dataset_io.load_corpus(data / "test.csv", role=Role.TEST)
    train, val = dataset_io.split_train_validation(
        full_train, SplitSpec(train_fraction=cfg.train_fraction, seed=cfg.seed))

    fit_inputs: list[tuple[str, Role]] = []
    law = linear_law.fit_law(_class_rows(train, Label.NORMAL, data / "train.csv"),
                             cfg.law_len, "Normal")
    fit_inputs.append(("law", train.role))
    dataset_io.save_law(law, out / "law_normal.law")

    X_tr, y_tr = feature_matrix(train.rows(), law), train.row_labels()
    configs = [
        ("knn-k4", lambda: knn_fit(X_tr, y_tr, hp)),
        ("svm-linear", lambda: linear_svm_fit(X_tr, y_tr, hp)),
        ("svm-rbf", lambda: rbf_svm_fit(X_tr, y_tr, hp)),
        ("rf", lambda: rf_fit(X_tr, y_tr, hp)),
        ("mlp", lambda: mlp_fit(X_tr, y_tr, hp)),
    ]
    reports = []
    for name, fit in configs:
        model = fit()
        fit_inputs.append((name, train.role))
        dataset_io.save_model(model, out / f"model_{name}.txt")
        reports.append(evaluation.evaluate_pipeline(val, law, model, method=name))
        reports.append(evaluation.evaluate_pipeline(test, law, model, method=name))

    table = evaluation.compare_report(reports)
    header = "\n".join(cfg.echo_lines()
                       + [f"# fit_input {n}={r.value}" for n, r in fit_inputs]) + "\n"
    (out / "report.csv").write_text(header + table, encoding="utf-8")
    sys.stdout.write(table)

    if any(role == Role.TEST for _, role in fit_inputs):
        sys.stderr.write("audit failure: test corpus consumed by a fit\n")
        return 2
    return 0


def cmd_reproduce(args, cfg: RunConfig) -> int:
    return run_reproduce(args.data, args.out, cfg)


# --------------------------------------------------------------- main

def build_parser() -> _Parser:
    parser = _Parser(prog="llt", description=__doc__)
    config_help = f"key=value config file (default from ${CONFIG_ENV_VAR})"
    parser.add_argument("--config", help=config_help)
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS: a subcommand without --config keeps the top-level value
    common.add_argument("--config", default=argparse.SUPPRESS, help=config_help)
    for name, typ in (
        ("law-len", int), ("train-fraction", float), ("seed", int),
        ("lowpass", float), ("highpass", float), ("window-len", int),
        ("peak-threshold", float), ("refractory-ms", float), ("fs", float),
        ("knn-k", int), ("rf-estimators", int), ("rf-depth", int),
        ("svm-c", float), ("rbf-gamma", float), ("mlp-hidden", int),
        ("mlp-epochs", int), ("mlp-lr", float),
    ):
        common.add_argument(f"--{name}", type=typ, default=None)

    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--omega-a", type=float, default=0.3)
    p.add_argument("--omega-b", type=float, default=0.9)
    p.add_argument("--beats", type=int, default=200)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", parents=[common],
                       help="raw signals (fs;v0,v1,...) -> beat CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--label", default="?", help="label token for all records")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit-law", parents=[common], help="fit a class law")
    p.add_argument("--class", dest="class_token", default="N")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_law)

    p = sub.add_parser("scan-law-length", parents=[common],
                       help="law-length diagnostics CSV")
    p.add_argument("--min", type=int, default=4)
    p.add_argument("--max", type=int, default=20)
    p.add_argument("--train", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("transform", parents=[common],
                       help="beats -> law-residual features")
    p.add_argument("--law", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--downsample", type=int, default=1,
                   help="keep every k-th residual (1 <= k <= feature count)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", parents=[common], help="train a classifier")
    p.add_argument("--model", choices=sorted(_FITTERS), required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--val")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common], help="score a model")
    p.add_argument("--law", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reproduce", parents=[common],
                       help="full pipeline + comparison table")
    p.add_argument("--data", required=True,
                   help="directory holding train.csv and test.csv")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    overrides = {
        f.name: getattr(args, f.name, None) for f in fields(RunConfig)
    }
    try:
        cfg = load_config(args.config, overrides)
        return args.func(args, cfg)
    except SystemExit:
        raise
    except (ValueError, OSError, ConvergenceError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
