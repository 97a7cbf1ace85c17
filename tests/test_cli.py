import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import llt
from llt.cli import RunConfig, build_parser, load_config, main
from llt.dataset_io import load_corpus, load_features, load_law, load_model


def run(argv):
    return main(argv)


class TestParsing:
    def test_no_subcommand(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["frobnicate"])
        assert e.value.code == 1

    def test_help_every_subcommand(self, capsys):
        for cmd in ("synth", "preprocess", "fit-law", "scan-law-length",
                    "transform", "train", "evaluate", "reproduce"):
            with pytest.raises(SystemExit) as e:
                build_parser().parse_args([cmd, "--help"])
            assert e.value.code == 0
            assert "--" in capsys.readouterr().out

    def test_threads_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            run(["--threads", "2", "synth", "--out-dir", str(tmp_path)])
        assert e.value.code == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["fit-law", "--train", "x.csv"])  # --out missing
        assert e.value.code == 1


class TestConfig:
    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("law_len=7\nseed=3\n# comment\n")
        cfg = load_config(str(path), {})
        assert cfg.law_len == 7 and cfg.seed == 3
        assert cfg.train_fraction == 0.4  # untouched default

    def test_flags_win(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("law_len=7\n")
        cfg = load_config(str(path), {"law_len": "9"})
        assert cfg.law_len == 9

    def test_env_var_default(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg"
        path.write_text("seed=11\n")
        monkeypatch.setenv("LLT_CONFIG", str(path))
        assert load_config(None, {}).seed == 11

    @pytest.mark.parametrize("text, message", [
        ("seed=3\nlaw_lenn=5\n", "cfg:2: expected key=value with a known key, got 'law_lenn=5'"),
        ("# comment\n\nlaw_len\n", "cfg:3: expected key=value with a known key, got 'law_len'"),
        ("seed=3\nlaw_len=abc\n", "cfg:2: law_len='abc' is not an integer"),
        ("svm_c=1,5\n", "cfg:1: svm_c='1,5' is not a number"),
    ])
    def test_bad_line_rejected(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_config(str(path), {})
        assert run(["--config", str(path), "synth",
                    "--out-dir", str(tmp_path / "data")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_config_after_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("seed=3\n")
        for i, argv in enumerate((["--config", str(cfg), "synth"],
                                  ["synth", "--config", str(cfg)],
                                  ["synth", "--seed", "3"],
                                  ["synth"])):
            assert run(argv + ["--beats", "5", "--out-dir", str(tmp_path / str(i))]) == 0
        texts = [(tmp_path / str(i) / "train.csv").read_text() for i in range(4)]
        assert texts[0] == texts[1] == texts[2] != texts[3]
        bad = tmp_path / "bad"
        bad.write_text("seed=x\n")
        assert run(["synth", "--config", str(bad), "--out-dir", str(tmp_path)]) == 1
        assert run(["--config", str(bad), "synth", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "4")]) == 0  # the later one wins
        assert "bad:1: seed='x' is not an integer" in capsys.readouterr().err

    def test_echo_lines_cover_all_fields(self):
        from dataclasses import fields

        lines = RunConfig().echo_lines()
        assert len(lines) == len(fields(RunConfig))
        assert all(l.startswith("# config ") for l in lines)


class TestSynthCommand:
    def test_writes_corpora(self, tmp_path):
        out = tmp_path / "data"
        assert run(["synth", "--beats", "20", "--out-dir", str(out)]) == 0
        train = load_corpus(out / "train.csv")
        test = load_corpus(out / "test.csv")
        assert len(train) == 2 * (8 + 6)  # 40% + 30% of 20 per class
        assert len(test) == 2 * 6


class TestPipelineCommands:
    @pytest.fixture()
    def data_dir(self, tmp_path):
        out = tmp_path / "data"
        assert run(["synth", "--beats", "40", "--out-dir", str(out)]) == 0
        return out

    def test_fit_law_and_transform(self, data_dir, tmp_path):
        law_path = tmp_path / "n.law"
        assert run(["fit-law", "--train", str(data_dir / "train.csv"),
                    "--out", str(law_path)]) == 0
        law = load_law(law_path)
        assert law.width == 12
        feat_path = tmp_path / "f.csv"
        assert run(["transform", "--law", str(law_path),
                    "--in", str(data_dir / "train.csv"),
                    "--out", str(feat_path)]) == 0
        from llt.dataset_io import load_features

        X, labels, layout = load_features(feat_path)
        assert X.shape[1] == 19
        assert layout == [("Normal", 19)]

    def test_scan_law_length(self, data_dir, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run(["scan-law-length", "--min", "3", "--max", "5",
                    "--train", str(data_dir / "train.csv"),
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("l,lambda_train")
        assert len(lines) == 4

    def test_reproduce_end_to_end(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["reproduce", "--data", str(data_dir),
                    "--out", str(out)]) == 0
        report = (out / "report.csv").read_text()
        assert "# config law_len=12" in report
        assert "# fit_input law=train" in report
        for name in ("knn-k4", "svm-linear", "svm-rbf", "rf", "mlp"):
            assert f"model_{name}.txt" in {p.name for p in out.iterdir()}
            assert f"{name},test" in report
        assert (out / "law_normal.law").exists()

    def test_missing_data_dir(self, tmp_path, capsys):
        assert run(["reproduce", "--data", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err


def test_evaluate_command(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "run"
    assert run(["synth", "--beats", "40", "--out-dir", str(data)]) == 0
    assert run(["reproduce", "--data", str(data), "--out", str(out)]) == 0
    report = tmp_path / "eval.csv"
    assert run(["evaluate", "--law", str(out / "law_normal.law"),
                "--model", str(out / "model_rf.txt"),
                "--test", str(data / "test.csv"),
                "--report", str(report)]) == 0
    assert "rf,test" in report.read_text()


def test_evaluate_unlabeled_only_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["synth", "--beats", "20", "--out-dir", str(data)]) == 0
    law = tmp_path / "n.law"
    features = tmp_path / "f.csv"
    model = tmp_path / "m.txt"
    assert run(["fit-law", "--train", str(data / "train.csv"), "--out", str(law)]) == 0
    assert run(["transform", "--law", str(law), "--in", str(data / "train.csv"),
                "--out", str(features)]) == 0
    assert run(["train", "--model", "svm-linear", "--features", str(features),
                "--out", str(model)]) == 0
    test = tmp_path / "unlabeled.csv"
    test.write_text("".join("?" + line[1:] for line in
                            (data / "test.csv").read_text().splitlines(keepends=True)))
    capsys.readouterr()
    assert run(["evaluate", "--law", str(law), "--model", str(model),
                "--test", str(test)]) == 1
    assert "zero evaluated beats" in capsys.readouterr().err


@pytest.fixture()
def features_with_unlabelled(tmp_path):
    """Feature files from `llt transform`: one whose first four beats
    are `?`, and one where every beat is."""
    data = tmp_path / "data"
    assert run(["synth", "--beats", "20", "--out-dir", str(data)]) == 0
    law = tmp_path / "n.law"
    assert run(["fit-law", "--train", str(data / "train.csv"), "--out", str(law)]) == 0
    lines = (data / "train.csv").read_text().splitlines(keepends=True)
    paths = {}
    for name, n_unlabelled in (("some", 4), ("all", len(lines))):
        corpus = tmp_path / f"{name}.csv"
        corpus.write_text("".join("?" + line[1:] if i < n_unlabelled else line
                                  for i, line in enumerate(lines)))
        paths[name] = tmp_path / f"features_{name}.csv"
        assert run(["transform", "--law", str(law), "--in", str(corpus),
                    "--out", str(paths[name])]) == 0
    assert load_features(paths["some"])[1][:5] == ["?"] * 4 + [lines[4][0]]
    return paths


@pytest.mark.parametrize("model", ["knn", "svm-linear"])
def test_train_drops_unlabelled_rows(tmp_path, features_with_unlabelled, model):
    out = tmp_path / "m.txt"
    features = str(features_with_unlabelled["some"])
    assert run(["train", "--model", model, "--features", features,
                "--val", features, "--out", str(out)]) == 0
    assert load_model(out).labels == ["E", "N"]


def test_train_on_unlabelled_only_exits_1(tmp_path, capsys, features_with_unlabelled):
    path = features_with_unlabelled["all"]
    capsys.readouterr()
    assert run(["train", "--model", "knn", "--features", str(path),
                "--out", str(tmp_path / "m.txt")]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: no labelled feature row (every row is '?')\n")
    assert not (tmp_path / "m.txt").exists()


def test_import_leaves_out_scipy_signal():
    """Every subcommand imports llt.cli; only raw-record filtering needs
    scipy.signal, which costs about a second to import."""
    code = "import sys, llt.cli; print('scipy.signal' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(Path(llt.__file__).parents[1])},
                          check=True)
    assert done.stdout == "False\n"


def test_preprocess_command(tmp_path):
    t = np.arange(2000) / 360.0
    v = np.zeros(2000)
    for i in range(-8, 9):
        v[1000 + i] = 1.0 - abs(i) / 9
    raw = tmp_path / "raw.csv"
    raw.write_text("360;" + ",".join(f"{x:.17g}" for x in v) + "\n")
    out = tmp_path / "beats.csv"
    assert run(["preprocess", "--in", str(raw), "--out", str(out),
                "--label", "N"]) == 0
    corpus = load_corpus(out)
    assert len(corpus) == 1
    assert corpus.window_len == 30


def test_preprocess_artifact_reaches_evaluate(tmp_path):
    # a one-peak and a two-peak record: the second is an artifact beat,
    # which must survive the beat CSV and be counted by `llt evaluate`
    records = []
    for centers in ((1000,), (600, 1400)):
        v = np.zeros(2000)
        for c in centers:
            for i in range(-8, 9):
                v[c + i] = 1.0 - abs(i) / 9
        records.append("360;" + ",".join(f"{x:.17g}" for x in v) + "\n")
    raw = tmp_path / "raw.csv"
    raw.write_text("".join(records))
    beats = tmp_path / "beats.csv"
    assert run(["preprocess", "--in", str(raw), "--out", str(beats), "--label", "E"]) == 0
    assert [b.artifact for b in load_corpus(beats).beats] == [False, True]

    data = tmp_path / "data"
    out = tmp_path / "run"
    assert run(["synth", "--beats", "40", "--out-dir", str(data)]) == 0
    assert run(["reproduce", "--data", str(data), "--out", str(out)]) == 0
    report = tmp_path / "eval.csv"
    assert run(["evaluate", "--law", str(out / "law_normal.law"),
                "--model", str(out / "model_knn-k4.txt"),
                "--test", str(beats), "--report", str(report)]) == 0
    header, row = [line.split(",") for line in report.read_text().splitlines()
                   if line.startswith(("method,", "knn,test,"))]
    assert row[header.index("artifacts")] == "1"


@pytest.mark.parametrize("command, text, message", [
    (["fit-law", "--train"], "N,1,2,3\nE,nan,1,2\n", "2: column 2: 'nan' is not finite"),
    (["preprocess", "--in"], "360;1,2,inf\n", "1: column 4: 'inf' is not finite"),
])
def test_bad_input_row_exits_1(tmp_path, capsys, command, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert run(command + [str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {path}:{message}\n"
    assert not (tmp_path / "out").exists()


def test_fit_law_without_class_beats_names_file(tmp_path, capsys):
    # the only Ectopic beat is an artifact, so no beat can fit its law
    path = tmp_path / "train.csv"
    path.write_text("N,1,2,3,4\nN,2,3,4,1\nE*,0,0,0,0\n")
    assert run(["fit-law", "--class", "E", "--train", str(path), "--law-len", "2",
                "--out", str(tmp_path / "e.law")]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: no non-artifact 'E' beat to fit the Ectopic law on\n")
    assert not (tmp_path / "e.law").exists()


def test_transform_all_artifacts_names_file(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_text("N,1,2,3,4\nN,2,3,4,1\nN,3,1,4,2\n")
    law = tmp_path / "n.law"
    assert run(["fit-law", "--train", str(train), "--law-len", "2", "--out", str(law)]) == 0
    beats = tmp_path / "beats.csv"
    beats.write_text("E*,0,0,0,0\n?*,0,0,0,0\n")
    capsys.readouterr()
    assert run(["transform", "--law", str(law), "--in", str(beats),
                "--out", str(tmp_path / "f.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {beats}: every beat is an artifact; no beat to transform\n")
    assert not (tmp_path / "f.csv").exists()


@pytest.fixture()
def small_data(tmp_path):
    data = tmp_path / "data"
    assert run(["synth", "--beats", "20", "--out-dir", str(data)]) == 0
    return data


@pytest.mark.parametrize("flag, value, name", [
    ("--rbf-gamma", "-1", "rbf_gamma"),
    ("--rbf-gamma", "nan", "rbf_gamma"),
    ("--svm-c", "nan", "svm_c"),
    ("--svm-c", "inf", "svm_c"),
    ("--svm-c", "0", "svm_c"),
    ("--mlp-lr", "inf", "mlp_lr"),
    ("--mlp-lr", "-0.5", "mlp_lr"),
])
def test_bad_hyperparameter_exits_1(tmp_path, capsys, small_data, flag, value, name):
    capsys.readouterr()
    assert run(["reproduce", "--data", str(small_data), "--out", str(tmp_path / "run"),
                flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name} must be finite and positive")
    assert not (tmp_path / "run").exists()  # rejected before any output


def test_rbf_gamma_zero_means_auto():
    assert RunConfig(rbf_gamma=0.0).hyperparams().rbf_gamma is None


def test_solver_failure_exits_1_without_traceback(tmp_path, capsys, small_data, monkeypatch):
    from llt import classifiers

    monkeypatch.setattr(classifiers, "_SMO_MAX_ITER", 1)
    capsys.readouterr()
    assert run(["reproduce", "--data", str(small_data), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SMO did not converge in 1 iterations (KKT gap ")
    assert "Traceback" not in err
