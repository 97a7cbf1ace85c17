import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from llt import dataset_io
from llt.classifiers import (
    Hyperparams,
    TrainedModel,
    knn_fit,
    linear_svm_fit,
    mlp_fit,
    predict_batch,
    rbf_svm_fit,
    rf_fit,
)
from llt.dataset_io import (
    ArtifactFileError,
    SplitSpec,
    load_corpus,
    load_features,
    load_law,
    load_model,
    load_raw_signals,
    save_corpus,
    save_features,
    save_law,
    save_model,
    split_train_validation,
)
from llt.linear_law import fit_law
from llt.types import Beat, Corpus, Label, LinearLaw, Role

from conftest import beat_rows, beat_split, float_rows, random_beats, raw_records


class TestCorpusFormat:
    def test_round_trip(self, tmp_path):
        corpus = Corpus(beats=random_beats(5, 8, seed=1), window_len=8)
        path = tmp_path / "c.csv"
        save_corpus(corpus, path)
        back = load_corpus(path)
        assert len(back) == 5
        assert back.window_len == 8
        for a, b in zip(corpus.beats, back.beats):
            assert np.array_equal(a.samples, b.samples)  # 17-digit exact
            assert a.label == b.label

    def test_artifact_round_trip(self, tmp_path):
        beats = random_beats(4, 3, seed=2)
        beats[1] = Beat(samples=np.zeros(3), label=Label.ECTOPIC, artifact=True)
        beats[3] = Beat(samples=np.zeros(3), label=Label.UNLABELED, artifact=True)
        path = tmp_path / "c.csv"
        save_corpus(Corpus(beats=beats, window_len=3), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "E*,0,0,0" and lines[3] == "?*,0,0,0"
        assert "*" not in lines[0] + lines[2]
        back = load_corpus(path)
        assert [b.artifact for b in back.beats] == [False, True, False, True]
        assert [b.label for b in back.beats] == [b.label for b in beats]

    def test_corpus_without_artifacts_has_no_marker(self, tmp_path):
        corpus = Corpus(beats=[Beat(samples=np.array([0.5, -1.0]), label=Label.NORMAL),
                               Beat(samples=np.array([1.0, 2.0]), label=Label.ECTOPIC)],
                        window_len=2)
        path = tmp_path / "c.csv"
        save_corpus(corpus, path)
        assert path.read_bytes() == b"N,0.5,-1\nE,1,2\n"

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# a comment\n\nN,1,2,3\nE,4,5,6\n")
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert corpus.beats[1].label is Label.ECTOPIC

    def test_bad_label_row_indexed(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("N,1,2,3\nX,4,5,6\n")
        with pytest.raises(ArtifactFileError) as e:
            load_corpus(path)
        assert str(e.value) == f"{path}:2: unknown label token 'X'"

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("N,1,2,3\nE,4,5\n")
        with pytest.raises(ArtifactFileError) as e:
            load_corpus(path)
        assert str(e.value) == f"{path}:2: expected 3 samples, got 2"

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("N,1,oops,3\n")
        with pytest.raises(ArtifactFileError) as e:
            load_corpus(path)
        assert str(e.value) == f"{path}:1: column 3: 'oops' is not a number"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, tmp_path, cell):
        path = tmp_path / "c.csv"
        path.write_text(f"N,1,2,3\nE,{cell},1,2\n")
        with pytest.raises(ArtifactFileError) as e:
            load_corpus(path)
        assert str(e.value) == f"{path}:2: column 2: '{cell}' is not finite"

    @pytest.mark.parametrize("text, message", [
        ("N,1,2,3\nN\nE,4,5,6\n", "2: expected 3 samples, got 0"),
        ("N,1,2,3\nE,4,5,6,7\n", "2: expected 3 samples, got 4"),
        ("N,1,2,3\nE,4,#5,6\n", "2: column 3: '#5' is not a number"),
        ("N,1,2,3 # note\n", "1: column 4: '3 # note' is not a number"),
        ("N,1,nan,3\n", "1: column 3: 'nan' is not finite"),
        ("N,1,2,3\nE,4,5,1e999\n", "2: column 4: '1e999' is not finite"),
        ("N,1,,3\n", "1: column 3: '' is not a number"),
        ("N,1\n", "1: too few samples"),
        ("N\n", "1: too few samples"),
        # the first bad row in the file is named, whatever its fault
        ("N,1,x,3\nQ,4,5,6\n", "1: column 3: 'x' is not a number"),
        ("N,1,x,3\nE,4,5\n", "1: column 3: 'x' is not a number"),
        ("Q,1,x,3\nE,4,y,6\n", "1: unknown label token 'Q'"),
        ("N,1,2\nE,4\nE,x,6\n", "2: expected 2 samples, got 1"),
        # np.loadtxt strips ASCII separators around a value; float() does not
        ("N,1,2\x1f,3\n", "1: column 3: '2\\x1f' is not a number"),
        ("N,1,2,3\nE,\x1c4,5,6\n", "2: column 2: '\\x1c4' is not a number"),
    ], ids=["value-less row", "long row", "hash in a cell", "hash after a cell", "nan",
            "overflow", "empty cell", "one sample", "no sample", "value before label",
            "value before length", "label before value", "length before value",
            "unit separator", "file separator"])
    def test_bad_row_message(self, tmp_path, text, message):
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ArtifactFileError) as e:
            load_corpus(path)
        assert str(e.value) == f"{path}:{message}"

    @pytest.mark.parametrize("text, values", [
        ("N,1_0,2,3\nE,4,5,6\n", [[10.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        ("N,1,2,3\nE,\u0661\u0662,5,6\n", [[1.0, 2.0, 3.0], [12.0, 5.0, 6.0]]),
        ("N, 1 ,\t2,3\u2003\nE*,-0,5e-324,1e308\n", [[1.0, 2.0, 3.0], [-0.0, 5e-324, 1e308]]),
    ], ids=["underscore", "arabic-indic digits", "padding, -0, subnormal"])
    def test_values_equal_float(self, tmp_path, text, values):
        # np.loadtxt rejects `1_0` and non-ASCII digits, which float() reads
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8")
        samples = load_corpus(path).samples
        assert samples.tobytes() == np.array(values).tobytes()
        assert samples.tobytes() == np.array([r for *_, r in float_rows(path)]).tobytes()

    def test_well_formed_file_read_in_bulk(self, tmp_path, monkeypatch):
        # the row-by-row read is only a fallback; the bulk read gives the
        # same bytes on a file it accepts: a beat CSV, a feature file and
        # a KNN model, with padded cells
        corpus, features, model = tmp_path / "c.csv", tmp_path / "f.csv", tmp_path / "m.txt"
        corpus.write_text("# header\nN,0.1,-0,3e-320\n\nE*, 1e308 ,2,-3\n")
        X = np.array([[0.1, -0.0, 3e-320], [1e308, 2.0, -3.0]])
        save_features(features, X, ["N", "E"], [("Normal", 3)])
        rewrite_payload(features, lambda line: line.replace(",", ",\t ") + " ")
        save_model(TrainedModel(kind="knn", feature_dim=3, labels=["E", "N"],
                                params={"k": 1, "metric": "chebyshev", "X": X,
                                        "y": np.array([0, 1])}), model)
        rewrite_payload(model, lambda line: line if line[0].isalpha() else
                        " " + line.replace(" ", " \t ") + "\t")
        expected = (load_corpus(corpus).samples, load_features(features)[0],
                    load_model(model).params["X"])
        assert all(a.tobytes() == X.tobytes() for a in expected[1:])
        monkeypatch.setattr(dataset_io, "_float_rows", None)
        assert load_corpus(corpus).samples.tobytes() == expected[0].tobytes()
        assert load_features(features)[0].tobytes() == expected[1].tobytes()
        assert load_model(model).params["X"].tobytes() == expected[2].tobytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# nothing\n")
        with pytest.raises(ArtifactFileError, match="no beats"):
            load_corpus(path)

    @pytest.mark.parametrize("text", ["", "# nothing\n\n"], ids=["empty", "comments"])
    def test_raw_signals_empty_file(self, tmp_path, text):
        path = tmp_path / "r.csv"
        path.write_text(text)
        with pytest.raises(ArtifactFileError) as e:
            load_raw_signals(path)
        assert str(e.value) == f"{path}: no records found"

    def test_raw_signals(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("360;0.0,1.0,2.0\n250;5,6\n")
        sigs = load_raw_signals(path)
        assert len(sigs) == 2
        assert sigs[0].fs == 360.0
        assert list(sigs[1].values) == [5.0, 6.0]

    @pytest.mark.parametrize("row, message", [
        ("360;1,2,inf", "column 4: 'inf' is not finite"),
        ("360;nan,2", "column 2: 'nan' is not finite"),
        ("360;1,x", "column 3: 'x' is not a number"),
        ("360;", "column 2: '' is not a number"),
        ("360;1,2\x1f,3", "column 3: '2\\x1f' is not a number"),
        ("360,1,2", "expected 'fs;v0,v1,...' with a positive finite fs, got '360,1,2'"),
        ("0;1,2", "expected 'fs;v0,v1,...' with a positive finite fs, got '0;1,2'"),
        ("nan;1,2", "expected 'fs;v0,v1,...' with a positive finite fs, got 'nan;1,2'"),
    ])
    def test_bad_raw_signal_row(self, tmp_path, row, message):
        path = tmp_path / "r.csv"
        path.write_text(f"# header\n360;1,2\n{row}\n")
        with pytest.raises(ArtifactFileError) as e:
            load_raw_signals(path)
        assert str(e.value) == f"{path}:3: {message}"


# a raw-record rate or value cell that is well formed, and one that is not
_RATES = st.sampled_from(["360", "250.0", " 1e3", "125"])
_GOOD_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                        st.sampled_from(["1_0", " 2\t", "-0", "5e-324"]))
_BAD_RATES = st.sampled_from(["0", "-360", "nan", "inf", "x", ""])
_BAD_CELLS = st.sampled_from(["x", "inf", "-inf", "nan", "", "1e999", "1,"])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(st.tuples(_RATES, st.lists(_GOOD_CELLS, min_size=1, max_size=3)),
                        max_size=12),
       faults=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 5),
                                 st.one_of(_BAD_RATES.map(lambda t: ("rate", t)),
                                           _BAD_CELLS.map(lambda t: ("cell", t)),
                                           st.just(("no ;", "")))),
                       max_size=3),
       extra=st.lists(st.tuples(st.integers(0, 12), st.sampled_from(["", "  ", "# a;1,2"])),
                      max_size=4))
@example(records=[("360", ["1"]), ("360", ["1", "2"]), ("360", ["1"])],
         faults=[(1, 0, ("cell", "x")), (2, 0, ("cell", "x"))], extra=[])
@example(records=[("360", ["1", "2"]), ("360", ["1"]), ("360", ["1", "2"])],
         faults=[(1, 0, ("cell", "inf")), (2, 0, ("rate", "0"))], extra=[])
def test_raw_signals_equal_line_oracle(tmp_path, records, faults, extra):
    """Records of mixed lengths, some with a bad rate, a bad cell or no
    `;`, read as `raw_records` reads them line by line: the same rates
    and values bit for bit, or an error naming the first bad line."""
    lines = [[rate, ";", list(cells)] for rate, cells in records]  # rate, separator, cells
    for at, column, (kind, text) in faults:
        if at < len(lines):
            line = lines[at]
            if kind == "rate":
                line[0] = text
            elif kind == "cell":
                line[2][column % len(line[2])] = text
            else:
                line[1] = ","
    text = [rate + sep + ",".join(cells) for rate, sep, cells in lines]
    for at, line in extra:
        text.insert(min(at, len(text)), line)
    path = tmp_path / "r.csv"
    path.write_text("\n".join(text) + "\n")

    want = raw_records(path)
    if isinstance(want, int):
        with pytest.raises(ArtifactFileError, match=rf"^{re.escape(str(path))}:{want}: "):
            load_raw_signals(path)
    elif not want:
        with pytest.raises(ArtifactFileError, match="no records found"):
            load_raw_signals(path)
    else:
        signals = load_raw_signals(path)
        assert [(s.fs, s.values.tobytes()) for s in signals] == [
            (fs, np.array(values).tobytes()) for fs, values in want]


# planted in every corpus of the property below: signed zeros,
# subnormals, the smallest normal, the largest doubles, and two values
# whose shortest form has fewer digits than the 17 written
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(1, 300), width=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
       drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20),
       extra_lines=st.lists(st.sampled_from(["", "   ", "# a comment", "#E,1,2", " # x"]),
                            max_size=6))
def test_load_corpus_equals_float_oracle(tmp_path, rows, width, seed, drawn, extra_lines):
    """A corpus written by save_corpus, with comment and blank lines put
    in, reads back bit for bit as `float()` reads each row."""
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    planted = np.array(_EDGE_VALUES + drawn)
    at = rng.integers(0, rows * width, len(planted))
    samples.ravel()[at] = planted
    beats = [Beat(samples=s, label=list(Label)[rng.integers(3)], artifact=bool(rng.random() < 0.2))
             for s in samples]
    path = tmp_path / "c.csv"
    save_corpus(Corpus(beats=beats, window_len=width), path)
    lines = path.read_text().splitlines()
    for line in extra_lines:
        lines.insert(int(rng.integers(0, len(lines) + 1)), line)
    path.write_text("\n".join(lines) + "\n")

    corpus = load_corpus(path)
    oracle = float_rows(path)
    assert corpus.samples.tobytes() == np.array([v for *_, v in oracle]).tobytes()
    assert corpus.samples.tobytes() == samples.tobytes()
    assert [(b.label.value, b.artifact) for b in corpus.beats] == [r[:2] for r in oracle]
    assert [(b.label, b.artifact) for b in corpus.beats] == [(b.label, b.artifact)
                                                             for b in beats]


def _assert_holds(corpus, beats):
    """`corpus` holds `beats`' samples bit for bit, their labels and
    artifact flags, in order, in a read-only sample array."""
    assert corpus.samples.shape == (len(beats), corpus.window_len)
    assert corpus.samples.tobytes() == b"".join(b.samples.tobytes() for b in beats)
    assert corpus.labels.tolist() == [b.label.value for b in beats]
    assert corpus.artifact.tolist() == [b.artifact for b in beats]
    assert not corpus.samples.flags.writeable


# a beat-CSV cell: a finite double, written in one of three ways
_CELLS = st.builds(str.format, st.sampled_from(["{!r}", "{:.17g}", " {!r}\t"]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), width=st.integers(2, 8),
       rows=st.lists(st.tuples(st.sampled_from(["N", "E", "?"]), st.booleans()),
                     min_size=1, max_size=30),
       extra=st.lists(st.tuples(st.integers(0, 30),
                                st.sampled_from(["", "  ", "# note", "#N,1,2", "\t# x"])),
                      max_size=6),
       fraction=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_corpus_and_split_equal_beat_oracle(tmp_path, data, width, rows, extra, fraction,
                                            seed):
    """On a beat CSV of N/E/? rows, `*` artifact rows, comment and blank
    lines, `load_corpus` holds what one Beat per row holds, and each
    part of `split_train_validation` what the beat-list split of those
    beats holds, bit for bit and in order; every sample array is
    read-only."""
    lines = [f"{token}{'*' if artifact else ''}," + ",".join(
                 data.draw(st.lists(_CELLS, min_size=width, max_size=width)))
             for token, artifact in rows]
    for at, text in extra:
        lines.insert(min(at, len(lines)), text)
    path = tmp_path / "beats.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    corpus = load_corpus(path)
    beats = beat_rows(path)
    _assert_holds(corpus, beats)
    spec = SplitSpec(train_fraction=fraction, seed=seed)
    for part, oracle in zip(split_train_validation(corpus, spec), beat_split(beats, spec)):
        _assert_holds(part, oracle)


def rewrite_payload(path, edit):
    """Replace each payload line of an artifact file by `edit(line)`,
    and its checksum by the new payload's."""
    head, _, rest = path.read_text(encoding="utf-8").partition("\nchecksum=")
    payload = "".join(edit(line) + "\n" for line in rest.splitlines()[1:])
    digest = hashlib.sha256(payload.encode()).hexdigest()
    path.write_text(f"{head}\nchecksum={digest}\n{payload}", encoding="utf-8")


def float_cells(path):
    """Oracle of the loaders on the reals of a law, feature or KNN model
    file: `float()` of each cell of its payload rows (law lines, feature
    rows after their label, the rows of `matrix X`)."""
    payload = path.read_text(encoding="utf-8").partition("\nchecksum=")[2].splitlines()[1:]
    if payload[0].startswith("param k="):
        return [[float(c) for c in line.split()] for line in payload[3:-1]]
    if "," in payload[0]:
        return [[float(c) for c in line.split(",")[1:]] for line in payload]
    return [[float(line)] for line in payload]


# separators of padded matrix rows, on each of which str.split() and
# np.loadtxt both split; the first five also pad comma-separated cells,
# since float() strips them (it rejects \x1f)
_PADS = [" ", "  ", "\t", " \t ", "\u2003", "\x1f"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(1, 60), width=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=10),
       padded=st.booleans(), underscore=st.booleans())
def test_artifact_reals_equal_float_oracle(tmp_path, rows, width, seed, drawn, padded,
                                           underscore):
    """Feature rows, a KNN model's matrix and a law's coefficients, as
    their savers write them or with cells padded by spaces and tabs
    (matrix rows also by extra separators), read back bit for bit as
    `float()` reads each cell. A `_` between two digits of each row
    (`1_0`), which only `float()` reads, sends the file to the
    row-by-row read."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    planted = np.array(_EDGE_VALUES + drawn)
    X.ravel()[rng.integers(0, rows * width, len(planted))] = planted
    # unit norm, with coefficients too small to change it
    w = rng.standard_normal(width)
    w = rng.permutation(np.concatenate([w / np.linalg.norm(w), _EDGE_VALUES[:5]]))
    law, features, model = tmp_path / "n.law", tmp_path / "f.csv", tmp_path / "m.txt"
    save_law(LinearLaw(w=w, lam=0.0, class_tag="Normal"), law)
    save_features(features, X, [("N", "E", "?")[i] for i in rng.integers(0, 3, rows)],
                  [("Normal", width)])
    save_model(TrainedModel(kind="knn", feature_dim=width, labels=["E", "N"],
                            params={"k": 1, "metric": "chebyshev", "X": X,
                                    "y": rng.integers(0, 2, rows)}), model)

    def pad(pads=_PADS[:5]):
        return pads[rng.integers(len(pads))] if padded else ""

    def underscored(line):
        return re.sub(r"(\d)(\d)", r"\1_\2", line, count=1) if underscore else line

    rewrite_payload(law, lambda line: underscored(pad() + line + pad()))
    rewrite_payload(features, lambda line: underscored(",".join(
        [c if i == 0 else pad() + c + pad() for i, c in enumerate(line.split(","))])))
    rewrite_payload(model, lambda line: line if line[0].isalpha() else underscored(
        pad() + "".join(c + pad(_PADS) for c in line.split()) if padded else line))

    assert load_law(law).w.tobytes() == w.tobytes() == np.array(float_cells(law)).tobytes()
    for values, path in ((load_features(features)[0], features),
                         (load_model(model).params["X"], model)):
        assert values.tobytes() == X.tobytes() == np.array(float_cells(path)).tobytes()


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 6), width=st.integers(1, 40), sep=st.sampled_from([",", " "]),
       cells=st.data())
@example(rows=1, width=len(_EDGE_VALUES), sep=" ", cells=_EDGE_VALUES)
def test_real_lines_equal_fmt_per_value(rows, width, sep, cells):
    """Each row that `_real_lines` writes is its values formatted one by
    one with `_fmt` and joined by `sep`."""
    if not isinstance(cells, list):
        cells = cells.draw(st.lists(st.one_of(
            st.sampled_from(_EDGE_VALUES),
            st.integers(-2 ** 60, 2 ** 60).map(float),
            st.floats(allow_nan=False, allow_infinity=False)),
            min_size=rows * width, max_size=rows * width))
    values = np.array(cells, dtype=float).reshape(rows, width)
    assert dataset_io._real_lines(values, sep) == [
        sep.join(dataset_io._fmt(v) for v in row) for row in values]


def _row_indices(corpus, part):
    """The index in `corpus` of each row of `part`; the rows of `corpus`
    must be distinct."""
    index = {row.tobytes(): i for i, row in enumerate(corpus.samples)}
    assert len(index) == len(corpus)
    return [index[row.tobytes()] for row in part.samples]


class TestSplit:
    def test_sizes_and_disjoint(self):
        corpus = Corpus(beats=random_beats(100, 6, seed=2), window_len=6)
        train, val = split_train_validation(corpus, SplitSpec(seed=3))
        assert len(train) == 40 and len(val) == 60
        assert train.role is Role.TRAIN and val.role is Role.VALIDATION
        # the parts cover the corpus, and no row is in both
        rows = _row_indices(corpus, train) + _row_indices(corpus, val)
        assert sorted(rows) == list(range(100))

    def test_clinical_sizes(self):
        # 8520 beats at a 40% fraction -> 3408 train, 5112 validation
        corpus = Corpus(beats=random_beats(8520, 4, seed=4), window_len=4)
        train, val = split_train_validation(corpus, SplitSpec())
        assert len(train) == 3408
        assert len(val) == 5112

    def test_seed_determinism(self):
        corpus = Corpus(beats=random_beats(50, 5, seed=5), window_len=5)
        t1, v1 = split_train_validation(corpus, SplitSpec(seed=9))
        t2, v2 = split_train_validation(corpus, SplitSpec(seed=9))
        assert _row_indices(corpus, t1) == _row_indices(corpus, t2)
        assert _row_indices(corpus, v1) == _row_indices(corpus, v2)
        t3, _ = split_train_validation(corpus, SplitSpec(seed=10))
        assert _row_indices(corpus, t1) != _row_indices(corpus, t3)

    def test_cannot_split_test_corpus(self):
        corpus = Corpus(beats=random_beats(10, 5, seed=8), window_len=5,
                        role=Role.TEST)
        with pytest.raises(ValueError, match="train corpus"):
            split_train_validation(corpus, SplitSpec())

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="train_fraction"):
            SplitSpec(train_fraction=0.0)


class TestLawFile:
    def law(self):
        return fit_law(random_beats(8, 20, seed=10), 6, "Normal")

    def test_round_trip_bit_exact(self, tmp_path):
        law = self.law()
        path = tmp_path / "n.law"
        save_law(law, path)
        back = load_law(path)
        assert np.array_equal(back.w, law.w)
        assert back.lam == law.lam
        assert back.class_tag == law.class_tag
        assert back.train_row_count == law.train_row_count

    def test_tampered_coefficient_detected(self, tmp_path):
        path = tmp_path / "n.law"
        save_law(self.law(), path)
        lines = path.read_text().splitlines()
        lines[-1] = "0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactFileError, match="checksum"):
            load_law(path)

    def test_missing_header_field(self, tmp_path):
        path = tmp_path / "n.law"
        save_law(self.law(), path)
        lines = [l for l in path.read_text().splitlines()
                 if not l.startswith("lambda=")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactFileError, match="lambda"):
            load_law(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "n.law"
        save_law(self.law(), path)
        path.write_text(path.read_text().replace("version=1", "version=99", 1))
        with pytest.raises(ArtifactFileError, match="version"):
            load_law(path)


def _training_set(seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, (20, 3)), rng.normal(3, 1, (20, 3))])
    y = ["N"] * 20 + ["E"] * 20
    return X, y


class TestModelFile:
    @pytest.mark.parametrize("fit", [knn_fit, linear_svm_fit, rbf_svm_fit,
                                     rf_fit, mlp_fit])
    def test_round_trip_predictions_identical(self, fit, tmp_path):
        X, y = _training_set()
        model = fit(X, y, Hyperparams())
        path = tmp_path / "m.txt"
        save_model(model, path)
        back = load_model(path)
        assert back.kind == model.kind
        assert back.labels == model.labels
        assert back.feature_dim == model.feature_dim
        probe = np.random.default_rng(1).normal(1.5, 2, (30, 3))
        assert np.array_equal(predict_batch(back, probe),
                              predict_batch(model, probe))

    def test_tampered_payload_detected(self, tmp_path):
        X, y = _training_set()
        path = tmp_path / "m.txt"
        save_model(linear_svm_fit(X, y, Hyperparams()), path)
        text = path.read_text()
        lines = text.splitlines()
        lines[-1] = lines[-1].replace("0", "1", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactFileError, match="checksum"):
            load_model(path)


class TestFeatureFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((6, 4))
        labels = ["N", "E", "N", "N", "E", "E"]
        layout = [("Normal", 4)]
        path = tmp_path / "f.csv"
        save_features(path, X, labels, layout)
        X2, labels2, layout2 = load_features(path)
        assert np.array_equal(X2, X)
        assert labels2 == labels
        assert layout2 == layout
