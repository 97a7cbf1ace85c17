import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import llt
from llt import cli, dataset_io, types
from llt.classifiers import Hyperparams, rbf_gamma_default, rbf_svm_fit
from llt.cli import RunConfig, build_parser, load_config, main
from llt.dataset_io import load_corpus, load_features, load_law, load_model
from llt.preprocess import PreprocessConfig
from llt.synth import SynthSpec
from llt.types import Corpus, Label, Role


def run(argv):
    return main(argv)


# each subcommand with its required arguments
REQUIRED = {
    "synth": ["--out-dir", "d"],
    "preprocess": ["--in", "r.csv", "--out", "b.csv"],
    "fit-law": ["--train", "t.csv", "--out", "n.law"],
    "scan-law-length": ["--train", "t.csv"],
    "transform": ["--law", "n.law", "--in", "b.csv", "--out", "f.csv"],
    "train": ["--model", "knn", "--features", "f.csv", "--out", "m.txt"],
    "evaluate": ["--law", "n.law", "--model", "m.txt", "--test", "t.csv"],
    "reproduce": ["--data", "d"],
}

# each subcommand's settings flags: exactly the fields its handler reads
_HYPERPARAMS = ("knn_k", "rf_estimators", "rf_depth", "svm_c", "rbf_gamma",
                "mlp_hidden", "seed")
SETTINGS_FLAGS = {
    "synth": ("seed", "omega_a", "omega_b", "beats", "window_len", "noise"),
    "preprocess": ("lowpass", "highpass", "window_len", "refractory_ms", "peak_threshold"),
    "fit-law": ("law_len",),
    "scan-law-length": ("train_fraction", "seed"),
    "transform": (),
    "train": _HYPERPARAMS,
    "evaluate": (),
    "reproduce": _HYPERPARAMS + ("law_len", "train_fraction"),
}


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

    @pytest.mark.parametrize("argv", [
        ["preprocess", "--in", "raw.csv", "--out", "beats.csv", "--fs", "250"],
        ["train", "--model", "svm", "--features", "f.csv", "--out", "m.txt"],
    ])
    def test_removed_option_rejected(self, argv):
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 1

    def test_every_config_field_is_a_flag(self):
        """Every field of RunConfig, PreprocessConfig and SynthSpec is a
        flag of exactly the subcommands whose handlers read it, 30 flags
        in all; any other subcommand rejects it as a usage error."""
        names = {f.name for cls in (RunConfig, PreprocessConfig, SynthSpec)
                 for f in fields(cls)}
        assert set().union(*SETTINGS_FLAGS.values()) == names
        assert sum(map(len, SETTINGS_FLAGS.values())) == 30
        for name, required in REQUIRED.items():
            for field in names:
                argv = [name, *required, "--" + field.replace("_", "-"), "3"]
                if field in SETTINGS_FLAGS[name]:
                    assert getattr(build_parser().parse_args(argv), field) == 3
                else:
                    with pytest.raises(SystemExit):
                        build_parser().parse_args(argv)

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
        # the network's fit has no learning rate (L-BFGS with a line search)
        ("seed=3\nmlp_lr=0.5\n", "cfg:2: expected key=value with a known key, got 'mlp_lr=0.5'"),
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

    def test_key_of_the_other_stage_is_ignored(self, tmp_path, capsys):
        # one file serves every subcommand; each applies only its own keys
        path = tmp_path / "cfg"
        path.write_text("law_len=7\nwindow_len=20\nknn_k=0\nrefractory_ms=-1\n")
        with pytest.raises(ValueError, match="knn_k must be positive"):
            load_config(str(path), {})
        path.write_text("law_len=7\nwindow_len=20\n")
        cfg = load_config(str(path), {})
        assert cfg.law_len == 7 and not hasattr(cfg, "window_len")
        pcfg = load_config(str(path), {}, PreprocessConfig)
        assert pcfg == PreprocessConfig(window_len=20)
        assert run(["--config", str(path), "synth", "--beats", "5",
                    "--out-dir", str(tmp_path / "data")]) == 0
        assert load_corpus(tmp_path / "data" / "test.csv").window_len == 30

    def test_rejected_file_value_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text("seed=3\n# comment\nknn_k=0\n")
        message = f"{path}:3: knn_k must be positive, got 0"
        with pytest.raises(ValueError) as e:
            load_config(str(path), {})
        assert str(e.value) == message
        assert run(["--config", str(path), "synth", "--out-dir", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        path.write_text("lowpass=30\nhighpass=0.5\nhighpass=40\n")  # the last line wins
        with pytest.raises(ValueError) as e:
            load_config(str(path), {}, PreprocessConfig)
        assert str(e.value).startswith(f"{path}:3: need 0 < highpass < lowpass")

    def test_rejected_flag_value_names_no_line(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        for text in ("knn_k=0\n", "knn_k=3\n"):  # a flag replaces the file's value
            path.write_text(text)
            with pytest.raises(ValueError) as e:
                load_config(str(path), {"knn_k": "0"})
            assert str(e.value) == "knn_k must be positive, got 0"
            assert run(["--config", str(path), "reproduce", "--knn-k", "0",
                        "--data", str(tmp_path / "data"), "--out", str(tmp_path / "d")]) == 1
            assert capsys.readouterr().err == "error: knn_k must be positive, got 0\n"

    def test_echo_lines_cover_all_fields(self):
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

    def test_window_len(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run(["synth", "--beats", "5", "--window-len", "12",
                    "--out-dir", str(out)]) == 0
        assert load_corpus(out / "train.csv").window_len == 12
        capsys.readouterr()
        assert run(["synth", "--window-len", "3", "--out-dir", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: window_len must be at least 4, got 3\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--omega-a", "0", "omega_a must be in (0, pi), got 0.0"),
        ("--omega-b", "3.2", "omega_b must be in (0, pi), got 3.2"),
        ("--beats", "2", "beats must be at least 4, got 2"),
        ("--noise", "-1", "noise must be finite and >= 0, got -1.0"),
    ])
    def test_bad_flag_names_its_field(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "data"
        assert run(["synth", flag, value, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_own_flags_reach_the_corpus(self, tmp_path):
        # the CI byte-identity case; noiseless Normal beats obey omega_a's law
        out = tmp_path / "data"
        assert run(["synth", "--omega-a", "0.5", "--window-len", "24", "--noise", "0",
                    "--beats", "50", "--seed", "7", "--out-dir", str(out)]) == 0
        train = load_corpus(out / "train.csv")
        assert (len(train), train.window_len) == (70, 24)
        y = train.rows(Label.NORMAL)
        resid = y[:, 2:] - 2.0 * np.cos(0.5) * y[:, 1:-1] + y[:, :-2]
        assert np.max(np.abs(resid)) < 1e-12


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

    def test_scan_law_length_min_above_max_exits_1(self, data_dir, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run(["scan-law-length", "--min", "9", "--max", "4",
                    "--train", str(data_dir / "train.csv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: --min 9 exceeds --max 4: "
                                           "no law length to scan\n")
        assert not out.exists()

    def test_reproduce_end_to_end(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["reproduce", "--data", str(data_dir),
                    "--out", str(out)]) == 0
        report = (out / "report.csv").read_text()
        assert "# config law_len=12" in report
        echoed = [line[len("# config "):].partition("=")[0]
                  for line in report.splitlines() if line.startswith("# config ")]
        assert echoed == [f.name for f in fields(RunConfig)]
        assert "# fit_input law=train" in report
        for name in ("knn-k4", "svm-linear", "svm-rbf", "rf", "mlp"):
            assert f"model_{name}.txt" in {p.name for p in out.iterdir()}
            assert f"{name},test" in report
        assert (out / "law_normal.law").exists()

    def test_reproduce_builds_no_beat(self, data_dir, tmp_path, monkeypatch):
        """`llt reproduce` loads, splits, fits and scores on the corpus
        arrays: no Beat is made on its path."""
        def no_beat(beat):
            raise AssertionError("a Beat was made")

        monkeypatch.setattr(types.Beat, "__post_init__", no_beat)
        assert run(["reproduce", "--data", str(data_dir), "--out", str(tmp_path / "run")]) == 0

    def test_reproduce_names_knn_after_its_k(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["reproduce", "--knn-k", "2", "--data", str(data_dir),
                    "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "model_knn-k2.txt" in names and "model_knn-k4.txt" not in names
        assert "param k=2" in (out / "model_knn-k2.txt").read_text()
        rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()
                if line.startswith("knn-k")]
        k2 = [r for r in rows if r[0] == "knn-k2"]
        assert [r[1] for r in k2] == ["validation", "test"]
        for r in k2:  # measured cells filled, no published baseline beside them
            assert all(r[2:7]) and r[7:12] == [""] * 5
        for r in rows:  # the paper's k=4 rows hold its baseline alone
            if r[0] == "knn-k4":
                assert r[2:7] == [""] * 5 and all(r[7:12])

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
    assert "# config" not in report.read_text()  # evaluate reads no setting


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
    assert capsys.readouterr().err == (f"error: {test}: no labelled beat to score "
                                       f"(every beat is '?')\n")


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


@pytest.mark.parametrize("model, message", [
    ("knn", "KNN needs exactly 2 classes, got 1"),
    ("svm-linear", "linear SVM needs exactly 2 classes, got 1"),
    ("svm-rbf", "RBF SVM needs exactly 2 classes, got 1"),
    ("rf", "random forest needs exactly 2 classes, got 1"),
    ("mlp", "network needs exactly 2 classes, got 1"),
])
def test_one_class_training_file_is_named(tmp_path, capsys, small_data, model, message):
    """A fit that rejects its labels names the training file: the
    feature file of `train`, the train.csv of `reproduce`."""
    data = tmp_path / "normal-only"
    data.mkdir()
    lines = (small_data / "train.csv").read_text().splitlines(keepends=True)
    (data / "train.csv").write_text("".join(line for line in lines if line[0] == "N"))
    (data / "test.csv").write_bytes((small_data / "test.csv").read_bytes())
    law, features = tmp_path / "n.law", tmp_path / "features.csv"
    assert run(["fit-law", "--train", str(data / "train.csv"), "--out", str(law)]) == 0
    assert run(["transform", "--law", str(law), "--in", str(data / "train.csv"),
                "--out", str(features)]) == 0
    capsys.readouterr()
    assert run(["train", "--model", model, "--features", str(features),
                "--out", str(tmp_path / "m.txt")]) == 1
    assert capsys.readouterr().err == f"error: {features}: {message}\n"
    assert run(["reproduce", "--data", str(data), "--out", str(tmp_path / "run")]) == 1
    # KNN is the first fit, and every fit rejects one class
    assert capsys.readouterr().err == (f"error: {data / 'train.csv'}: KNN needs "
                                       f"exactly 2 classes, got 1\n")
    assert not (tmp_path / "m.txt").exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("rows, top", [([1e308, 2e307, -1e308, -2e307], "1e+308"),
                                       ([1e-200, 2e-200, -1e-200, -2e-200], "2e-200")])
def test_rbf_training_file_that_overflows_is_named(rows, top, tmp_path, capsys):
    """Features whose squares overflow, or whose variance underflows so
    that the default gamma overflows, fail the RBF fit with their
    magnitude, naming the feature file, with no traceback."""
    features = tmp_path / "features.csv"
    dataset_io.save_features(features, np.array(rows)[:, None], ["N", "N", "E", "E"],
                             [("Normal", 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", "--model", "svm-rbf", "--features", str(features),
                    "--out", str(tmp_path / "m.txt")]) == 1
    assert capsys.readouterr().err == (f"error: {features}: RBF kernel overflows on "
                                       f"features of magnitude up to {top}\n")
    assert not (tmp_path / "m.txt").exists()


def test_linear_training_file_that_underflows_is_named(tmp_path, capsys):
    """Features whose squared norms underflow to 0 fail the linear SVM
    fit with their magnitude, naming the feature file, with no
    traceback."""
    features = tmp_path / "features.csv"
    dataset_io.save_features(features, np.array([[1e-200], [2e-200], [-1e-200], [-2e-200]]),
                             ["N", "N", "E", "E"], [("Normal", 1)])
    assert run(["train", "--model", "svm-linear", "--features", str(features),
                "--out", str(tmp_path / "m.txt")]) == 1
    assert capsys.readouterr().err == (f"error: {features}: linear SVM Gram matrix underflows "
                                       f"on features of magnitude up to 2e-200\n")
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("module", ["scipy.signal", "scipy"])
def test_import_leaves_out_scipy_signal(module):
    """Every subcommand imports llt.cli; only raw-record filtering needs
    scipy.signal, which costs about a second to import, and only KNN
    predict scipy.spatial: the import loads no scipy module at all."""
    code = ("import sys, llt.cli; print(any(m == {0!r} or m.startswith({0!r} + '.') "
            "for m in sys.modules))".format(module))
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


@pytest.mark.parametrize("record, message", [
    ("360;" + ",".join(["0"] * 4 + ["1"]), "signal too short to filter (5 samples)"),
    ("40;" + ",".join(["0"] * 100 + ["1"] + ["0"] * 100),
     "lowpass cutoff 20.0 Hz >= Nyquist 20.0 Hz"),
], ids=["short", "lowpass-at-nyquist"])
def test_preprocess_names_the_line_of_a_rejected_record(tmp_path, capsys, record, message):
    raw = tmp_path / "raw.csv"
    good = "360;" + ",".join(["0"] * 100 + ["1"] + ["0"] * 100)
    raw.write_text(f"# records\n{good}\n\n{record}\n{good}\n")
    out = tmp_path / "beats.csv"
    assert run(["preprocess", "--in", str(raw), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {raw}:4: {message}\n"
    assert not out.exists()


def test_preprocess_names_a_record_that_overflows_the_filter(tmp_path, capsys):
    """A finite record whose filtered samples overflow fails in the
    band-pass, on its own line, with no traceback."""
    raw = tmp_path / "raw.csv"
    good = "360;" + ",".join(["0"] * 100 + ["1"] + ["0"] * 100)
    raw.write_text(f"{good}\n360;" + ",".join(["0"] * 100 + ["1e308"] + ["0"] * 100) + "\n")
    out = tmp_path / "beats.csv"
    assert run(["preprocess", "--in", str(raw), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {raw}:2: band-pass output is not finite: "
                                       f"the record overflows the filter\n")
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "# no record\n\n"], ids=["empty", "comments"])
def test_preprocess_without_records_exits_1(tmp_path, capsys, text):
    raw = tmp_path / "raw.csv"
    raw.write_text(text)
    out = tmp_path / "beats.csv"
    assert run(["preprocess", "--in", str(raw), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {raw}: no records found\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
def test_bad_refractory_ms_exits_1(tmp_path, capsys, value):
    raw = tmp_path / "raw.csv"
    raw.write_text("360;" + ",".join(["0"] * 100 + ["1"] + ["0"] * 100) + "\n")
    out = tmp_path / "beats.csv"
    assert run(["preprocess", "--in", str(raw), "--out", str(out),
                "--refractory-ms", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: refractory_ms ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture()
def two_widths(tmp_path, capsys):
    """A corpus of 30-sample beats, its Normal laws at l=12 and l=10, the
    l=12 feature file of its train beats (19 residuals a row) and a KNN
    model fitted on it."""
    data = tmp_path / "data"
    assert run(["synth", "--beats", "20", "--out-dir", str(data)]) == 0
    p = {"train": data / "train.csv", "test": data / "test.csv", "law12": tmp_path / "12.law",
         "law10": tmp_path / "10.law", "features": tmp_path / "f.csv",
         "model": tmp_path / "m.txt"}
    for width in ("12", "10"):
        assert run(["fit-law", "--train", str(p["train"]), "--law-len", width,
                    "--out", str(p["law" + width])]) == 0
    assert run(["transform", "--law", str(p["law12"]), "--in", str(p["train"]),
                "--out", str(p["features"])]) == 0
    assert run(["train", "--model", "knn", "--features", str(p["features"]),
                "--out", str(p["model"])]) == 0
    capsys.readouterr()
    return p


def test_evaluate_feature_count_mismatch_names_flags(tmp_path, capsys, two_widths):
    p = two_widths
    report = tmp_path / "eval.csv"
    assert run(["evaluate", "--law", str(p["law10"]), "--model", str(p["model"]),
                "--test", str(p["test"]), "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"error: --law {p['law10']} (l=10) on --test {p['test']} (beats of 30) "
        f"gives 21 features but --model {p['model']} expects 19\n")
    assert not report.exists()


def test_train_val_width_mismatch_names_flags(tmp_path, capsys, two_widths):
    p = two_widths
    val = tmp_path / "val.csv"
    assert run(["transform", "--law", str(p["law10"]), "--in", str(p["test"]),
                "--out", str(val)]) == 0
    capsys.readouterr()
    out = tmp_path / "m2.txt"
    assert run(["train", "--model", "knn", "--features", str(p["features"]),
                "--val", str(val), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --features {p['features']} has 19 features per row "
        f"but --val {val} has 21\n")
    assert not out.exists()


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
        f"error: {path}: Ectopic law at width 2: no beat to embed\n")
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


def test_transform_law_wider_than_beats_names_files(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_text("N,1,2,3,4,5,6\nN,2,3,4,1,6,5\nN,3,1,4,2,5,6\nN,6,1,5,2,4,3\n")
    law = tmp_path / "n.law"
    assert run(["fit-law", "--train", str(train), "--law-len", "3", "--out", str(law)]) == 0
    beats = tmp_path / "short.csv"
    beats.write_text("N,1,2\n")
    capsys.readouterr()
    assert run(["transform", "--law", str(law), "--in", str(beats),
                "--out", str(tmp_path / "f.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: --law {law} on --in {beats}: embedding width 3 exceeds series length 2\n")
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
])
def test_bad_hyperparameter_exits_1(tmp_path, capsys, small_data, flag, value, name):
    capsys.readouterr()
    assert run(["reproduce", "--data", str(small_data), "--out", str(tmp_path / "run"),
                flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name} must be finite and positive")
    assert not (tmp_path / "run").exists()  # rejected before any output


def test_rbf_gamma_zero_means_auto():
    assert RunConfig().rbf_gamma == Hyperparams().rbf_gamma == 0.0
    X = np.random.default_rng(0).standard_normal((12, 3))
    model = rbf_svm_fit(X, ["N", "E"] * 6, Hyperparams())
    assert model.params["gamma"] == rbf_gamma_default(X)


@pytest.fixture()
def stage_inputs(small_data, tmp_path):
    """Input paths for `transform`, `reproduce` and `synth`, and the
    path each would write."""
    law = tmp_path / "n.law"
    assert run(["fit-law", "--train", str(small_data / "train.csv"), "--out", str(law)]) == 0
    out = tmp_path / "out"
    return out, {
        "transform": ["transform", "--law", str(law), "--in", str(small_data / "test.csv"),
                      "--out", str(out)],
        "reproduce": ["reproduce", "--data", str(small_data), "--out", str(out)],
        "synth": ["synth", "--beats", "5", "--out-dir", str(out)],
    }


@pytest.mark.parametrize("command", ["transform", "reproduce", "synth"])
@pytest.mark.parametrize("flag, value, message", [
    ("--law-len", "1", "law_len must be at least 2, got 1"),
    ("--train-fraction", "0", "train_fraction must be in (0, 1], got 0.0"),
    ("--seed", "-1", "seed must be non-negative, got -1"),
    ("--knn-k", "0", "knn_k must be positive, got 0"),
])
def test_bad_setting_exits_1_before_any_output(capsys, stage_inputs, command, flag, value,
                                               message):
    """A bad value of a setting the subcommand reads exits 1 naming its
    field; a setting it does not read is not a flag of it at all."""
    out, argv = stage_inputs
    capsys.readouterr()
    if flag[2:].replace("-", "_") in SETTINGS_FLAGS[command]:
        assert run(argv[command] + [flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(SystemExit) as e:
            run(argv[command] + [flag, value])
        assert e.value.code == 1
        assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--law-len", "40", "{train}: Normal law at width 40: embedding width 40 "
                 "exceeds series length 30", id="--law-len-40"),
    pytest.param("--knn-k", "100", "{train}: knn_k=100 exceeds training size 11",
                 id="--knn-k-100-knn_k=100 exceeds training size 11"),
])
def test_reproduce_failure_writes_nothing(capsys, small_data, stage_inputs, flag, value,
                                          message):
    # both fail after the corpora are read: in the law fit, or in the KNN fit
    out, argv = stage_inputs
    capsys.readouterr()
    assert run(argv["reproduce"] + [flag, value]) == 1
    assert capsys.readouterr().err == (
        "error: " + message.format(train=small_data / "train.csv") + "\n")
    assert not out.exists()


def test_solver_failure_exits_1_without_traceback(tmp_path, capsys, small_data, monkeypatch):
    from llt import classifiers

    monkeypatch.setattr(classifiers, "_SMO_MAX_ITER", 1)
    capsys.readouterr()
    assert run(["reproduce", "--data", str(small_data), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {small_data / 'train.csv'}: SMO did not converge in 1 "
                          f"iterations (KKT gap ")
    assert "Traceback" not in err


def test_audit_failure_exits_2_before_any_output(capsys, monkeypatch, stage_inputs):
    # a split that hands a Test corpus to the fits
    split = dataset_io.split_train_validation

    def leaky_split(corpus, spec):
        train, val = split(corpus, spec)
        return Corpus(beats=train.beats, window_len=train.window_len, role=Role.TEST), val

    monkeypatch.setattr(dataset_io, "split_train_validation", leaky_split)
    out, argv = stage_inputs
    capsys.readouterr()
    assert run(argv["reproduce"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "audit failure: test corpus consumed by a fit\n"
    assert captured.out == ""
    assert not out.exists()


def test_audit_fails_when_classifiers_fit_on_test_rows(capsys, monkeypatch, stage_inputs,
                                                      small_data):
    # the law fits on train rows, but the classifiers' rows come from test.csv
    fit_rows = cli._fit_rows
    test = dataset_io.load_corpus(small_data / "test.csv", role=Role.TEST)
    monkeypatch.setattr(cli, "_fit_rows", lambda corpus, *args: fit_rows(test, *args))
    out, argv = stage_inputs
    capsys.readouterr()
    assert run(argv["reproduce"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "audit failure: test corpus consumed by a fit\n"
    assert captured.out == ""
    assert not out.exists()


def test_reproduce_fits_and_scores_labelled_beats_only(tmp_path, capsys, small_data):
    """`?` beats in train.csv reach no fit, and the report counts them;
    a corpus without them gets no such line."""
    data = tmp_path / "unlabelled"
    data.mkdir()
    lines = (small_data / "train.csv").read_text().splitlines(keepends=True)
    (data / "train.csv").write_text("".join("?" + line[1:] if i < 10 else line
                                            for i, line in enumerate(lines)))
    (data / "test.csv").write_bytes((small_data / "test.csv").read_bytes())
    out = tmp_path / "run"
    assert run(["reproduce", "--data", str(data), "--out", str(out)]) == 0
    models = sorted(out.glob("model_*.txt"))
    assert len(models) == 5
    for path in models:
        assert load_model(path).labels == ["E", "N"]
    assert "# unlabelled=10\n" in (out / "report.csv").read_text()
    assert run(["reproduce", "--data", str(small_data), "--out", str(tmp_path / "plain")]) == 0
    assert "# unlabelled" not in (tmp_path / "plain" / "report.csv").read_text()


@pytest.mark.parametrize("case", ["train_fraction", "test"])
def test_reproduce_without_scoreable_beats_exits_1_before_any_fit(
        tmp_path, capsys, monkeypatch, small_data, case):
    from llt import linear_law

    def no_fit(*args, **kwargs):
        raise AssertionError("a law was fitted")

    monkeypatch.setattr(linear_law, "fit_law", no_fit)
    argv = ["reproduce", "--data", str(small_data), "--out", str(tmp_path / "run")]
    if case == "train_fraction":
        argv += ["--train-fraction", "1.0"]
        message = (f"train_fraction 1.0 leaves no labelled beat of "
                   f"{small_data / 'train.csv'} to validate on")
    else:
        test = small_data / "test.csv"
        test.write_text("".join("?" + line[1:] for line in
                                test.read_text().splitlines(keepends=True)))
        message = f"{test}: no labelled beat to score (every beat is '?')"
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_reproduce_with_test_beats_of_another_length_exits_1_before_any_fit(
        tmp_path, capsys, monkeypatch, small_data):
    """A test.csv whose beats are shorter than train.csv's would give
    the models features of another dimension: both files are named."""
    from llt import linear_law

    def no_fit(*args, **kwargs):
        raise AssertionError("a law was fitted")

    short = tmp_path / "short"
    assert run(["synth", "--beats", "20", "--window-len", "24", "--out-dir", str(short)]) == 0
    test = small_data / "test.csv"
    test.write_bytes((short / "test.csv").read_bytes())
    monkeypatch.setattr(linear_law, "fit_law", no_fit)
    capsys.readouterr()
    assert run(["reproduce", "--data", str(small_data), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (f"error: {test} has beats of 24 samples but "
                                       f"{small_data / 'train.csv'} has beats of 30\n")
    assert not (tmp_path / "run").exists()


def test_ambiguous_law_error_names_its_context(tmp_path, capsys):
    """A noiseless corpus has no unique law at the default width; the
    error names the file, the class and the width: law_len, or for the
    scan the width it reached."""
    data = tmp_path / "data"
    assert run(["synth", "--noise", "0", "--beats", "20", "--out-dir", str(data)]) == 0
    train = data / "train.csv"
    prefix = f"error: {train}: Normal law at width 12: rank-deficient: law ambiguous"
    capsys.readouterr()
    assert run(["reproduce", "--data", str(data), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith(prefix)
    assert run(["fit-law", "--train", str(train), "--out", str(tmp_path / "n.law")]) == 1
    assert capsys.readouterr().err.startswith(prefix)
    assert run(["scan-law-length", "--min", "3", "--max", "5", "--train", str(train)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {train}: Normal law at width 4: rank-deficient: law ambiguous")


@pytest.fixture()
def law_fit_corpora(tmp_path, small_data):
    """Corpus directories: the noisy 20-beat one, a noiseless one, and a
    copy of the first whose Ectopic beats are all artifacts."""
    noiseless, no_ectopic = tmp_path / "noiseless", tmp_path / "no_ectopic"
    assert run(["synth", "--noise", "0", "--beats", "20", "--out-dir", str(noiseless)]) == 0
    no_ectopic.mkdir()
    lines = (small_data / "train.csv").read_text().splitlines(keepends=True)
    (no_ectopic / "train.csv").write_text("".join("E*" + line[1:] if line.startswith("E,")
                                                  else line for line in lines))
    return {"noisy": small_data, "noiseless": noiseless, "no_ectopic": no_ectopic}


_AMBIGUOUS = "rank-deficient: law ambiguous (smallest eigenvalue has multiplicity"
_TOO_WIDE = "embedding width 31 exceeds series length 30"


@pytest.mark.parametrize("command, corpus, flags, message", [
    pytest.param("fit-law", "no_ectopic", ["--class", "E"],
                 "Ectopic law at width 12: no beat to embed", id="fit-law-no-beat"),
    pytest.param("reproduce", "noisy", ["--train-fraction", "0.001"],
                 "Normal law at width 12: no beat to embed", id="reproduce-no-beat"),
    pytest.param("scan-law-length", "noisy", ["--train-fraction", "0.001"],
                 "Normal law at width 4: no beat to embed", id="scan-no-beat"),
    pytest.param("scan-law-length", "noisy", ["--min", "1"],
                 "Normal law at width 1: embedding width must be >= 2, got 1",
                 id="scan-width-1"),
    pytest.param("fit-law", "noisy", ["--law-len", "31"],
                 f"Normal law at width 31: {_TOO_WIDE}", id="fit-law-too-wide"),
    pytest.param("reproduce", "noisy", ["--law-len", "31"],
                 f"Normal law at width 31: {_TOO_WIDE}", id="reproduce-too-wide"),
    pytest.param("scan-law-length", "noisy", ["--min", "31", "--max", "31"],
                 f"Normal law at width 31: {_TOO_WIDE}", id="scan-too-wide"),
    pytest.param("fit-law", "noiseless", [], f"Normal law at width 12: {_AMBIGUOUS} 10)",
                 id="fit-law-ambiguous"),
    pytest.param("reproduce", "noiseless", [], f"Normal law at width 12: {_AMBIGUOUS} 10)",
                 id="reproduce-ambiguous"),
    pytest.param("scan-law-length", "noiseless", ["--min", "3", "--max", "5"],
                 f"Normal law at width 4: {_AMBIGUOUS} 2)", id="scan-ambiguous"),
    # the scan compares each law on the validation part, before any fit
    pytest.param("scan-law-length", "noisy", ["--train-fraction", "1.0"],
                 "the validation part holds no non-artifact 'N' beat to check the "
                 "Normal law on", id="scan-no-validation-beat"),
])
def test_law_fit_error_names_file_class_and_width(tmp_path, capsys, law_fit_corpora,
                                                  command, corpus, flags, message):
    """Every subcommand that fits a law reports `fit_law`'s error, which
    names the class and the width, with the training file in front, and
    writes nothing."""
    data = law_fit_corpora[corpus]
    out = tmp_path / "out"
    source = ["--data", str(data)] if command == "reproduce" else ["--train",
                                                                   str(data / "train.csv")]
    capsys.readouterr()
    assert run([command, *source, "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"error: {data / 'train.csv'}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["fit-law", "--class", "Q"],
                 "argument --class: invalid choice: 'Q' (choose from 'N', 'E')", id="class-Q"),
    pytest.param(["fit-law", "--class", "?"],
                 "argument --class: invalid choice: '?' (choose from 'N', 'E')", id="class-?"),
    pytest.param(["preprocess", "--label", "Q", "--in", "raw.csv"],
                 "argument --label: invalid choice: 'Q' (choose from 'N', 'E', '?')",
                 id="label-Q"),
])
def test_label_flag_is_a_choice(tmp_path, capsys, argv, message):
    """A label flag outside its choices is a usage error naming the flag,
    raised before any file is read: neither input exists."""
    if argv[0] == "fit-law":
        argv = argv + ["--train", str(tmp_path / "missing.csv")]
    with pytest.raises(SystemExit) as e:
        run(argv + ["--out", str(tmp_path / "out")])
    assert e.value.code == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not (tmp_path / "out").exists()
