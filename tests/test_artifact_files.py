"""The on-disk format of law, model and feature files, and the loaders'
answer to damaged files: golden bytes built from fixed parameters (no
fitting, so nothing depends on LAPACK or the host), row-numbered errors,
and a hypothesis property over truncated, line-deleted, tampered and
non-finite files."""

import contextlib
import hashlib
import io
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from llt.classifiers import TrainedModel, predict_batch
from llt.cli import main
from llt.dataset_io import (
    ArtifactFileError,
    load_features,
    load_law,
    load_model,
    save_features,
    save_law,
    save_model,
)
from llt.types import LinearLaw

from conftest import tree_predict

LAW = LinearLaw(w=np.array([0.6, -0.8]), lam=0.1, class_tag="Normal",
                train_row_count=7)

PARAMS = {
    "knn": {"X": np.array([[0.5, -1.25], [2.0, 3.0], [0.1, 0.2]]),
            "y": np.array([0, 1, 1]), "k": 2, "metric": "chebyshev"},
    "svm-linear": {"w": np.array([0.25, -1.5]), "b": 0.125},
    "svm-rbf": {"support_vectors": np.array([[1.0, 2.0], [0.5, -0.5]]),
                "coef": np.array([0.75, -0.75]), "b": -0.1, "gamma": 0.5},
    "rf": {"trees": [{"feature": 1, "threshold": 0.3, "left": {"leaf": 0},
                      "right": {"feature": 0, "threshold": -2.5,
                                "left": {"leaf": 1}, "right": {"leaf": 0}}},
                     {"leaf": 1}]},
    "mlp": {"W1": np.array([[0.1, -0.2, 0.3], [1.5, 0.0, -2.25]]),
            "b1": np.array([0.01, 0.02, -0.03]),
            "W2": np.array([[1.0, -1.0], [0.5, 0.25], [-0.125, 2.0]]),
            "b2": np.array([0.2, -0.2])},
}

FEATURES = (np.array([[0.5, -1.25, 0.1], [2.0, 3.0, -1e-300]]), ["N", "E"],
            [("Normal", 3)])

GOLDEN = {
    "law": """\
version=1
class=Normal
l=2
lambda=0.10000000000000001
rows=7
checksum=37b9694ca96f4be5a960c9af0c27e75ae92b442bc34a77d6a13904da5c208577
0.59999999999999998
-0.80000000000000004
""",
    "knn": """\
version=1
kind=knn
feature_dim=2
labels=E,N
checksum=25f763b8fa08c36a33330c9755da9aeec2aa89d7ea6bad4765aee0853bcb916e
param k=2
param metric=chebyshev
matrix X 3 2
0.5 -1.25
2 3
0.10000000000000001 0.20000000000000001
ivector y 0 1 1
""",
    "svm-linear": """\
version=1
kind=svm-linear
feature_dim=2
labels=E,N
checksum=6881f9c6b2802d8ac6b86c4b86383122b5e0f3b893f5ea9a777c249cc3f41f63
param b=0.125
matrix w 1 2
0.25 -1.5
""",
    "svm-rbf": """\
version=1
kind=svm-rbf
feature_dim=2
labels=E,N
checksum=b758f622241325a2c42471fe7ace8afeed5b2c7eb07f1e38a7c8947c0f94ba88
param b=-0.10000000000000001
param gamma=0.5
matrix coef 1 2
0.75 -0.75
matrix support_vectors 2 2
1 2
0.5 -0.5
""",
    "rf": """\
version=1
kind=rf
feature_dim=2
labels=E,N
checksum=1da9b796f071e783d5859e0824a818f411b3da546fbc7ad1a9609670d482163f
param trees=2
tree 0 5
node 0 split 1 0.29999999999999999 1 2
node 1 leaf 0
node 2 split 0 -2.5 3 4
node 3 leaf 1
node 4 leaf 0
tree 1 1
node 0 leaf 1
""",
    "mlp": """\
version=1
kind=mlp
feature_dim=2
labels=E,N
checksum=b4aa84def6418731393db11b5063647cf10ac99a3bc4eeb9f7b7daa0472157aa
matrix W1 2 3
0.10000000000000001 -0.20000000000000001 0.29999999999999999
1.5 0 -2.25
matrix b1 1 3
0.01 0.02 -0.029999999999999999
matrix W2 3 2
1 -1
0.5 0.25
-0.125 2
matrix b2 1 2
0.20000000000000001 -0.20000000000000001
""",
    "features": """\
version=1
layout=Normal:3
rows=2
checksum=fe70df9bf951c67e616e08a6c100376078f35ff400016ea745c032c5f49a7911
N,0.5,-1.25,0.10000000000000001
E,2,3,-1e-300
""",
}

HEADER_LINES = {"law": 6, "features": 4, **{kind: 5 for kind in PARAMS}}
LOADERS = {"law": load_law, "features": load_features,
           **{kind: load_model for kind in PARAMS}}


def save(name, path):
    if name == "law":
        save_law(LAW, path)
    elif name == "features":
        save_features(path, *FEATURES)
    else:
        save_model(TrainedModel(kind=name, feature_dim=2, labels=["E", "N"],
                                params=PARAMS[name]), path)


def with_checksum(name: str, lines: list[str]) -> str:
    """Join lines, writing the checksum of the (changed) payload."""
    n = HEADER_LINES[name]
    payload = "".join(l + "\n" for l in lines[n:])
    lines = lines[:n - 1] + [f"checksum={hashlib.sha256(payload.encode()).hexdigest()}"]
    return "\n".join(lines) + "\n" + payload


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name, tmp_path):
    path = tmp_path / name
    save(name, path)
    assert path.read_text() == GOLDEN[name]
    assert with_checksum(name, GOLDEN[name].splitlines()) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_round_trip(name, tmp_path):
    path = tmp_path / name
    path.write_text(GOLDEN[name])
    back = LOADERS[name](path)
    if name == "law":
        save_law(back, path)
    elif name == "features":
        X, labels, layout = back
        assert np.array_equal(X, FEATURES[0]) and (labels, layout) == FEATURES[1:]
        save_features(path, X, labels, layout)
    else:
        probe = np.random.default_rng(0).normal(0, 2, (20, 2))
        model = TrainedModel(kind=name, feature_dim=2, labels=["E", "N"],
                             params=PARAMS[name])
        assert np.array_equal(predict_batch(back, probe), predict_batch(model, probe))
        save_model(back, path)
    assert path.read_text() == GOLDEN[name]


def edit(name, line, new):
    """Golden file with line `line` (1-based) replaced by `new` lines,
    checksum rewritten."""
    lines = GOLDEN[name].splitlines()
    lines[line - 1:line] = new
    return with_checksum(name, lines)


def feature_rows(*rows):
    """Golden feature file with its payload rows replaced by `rows`,
    checksum rewritten."""
    return with_checksum("features", GOLDEN["features"].splitlines()[:4] + list(rows))


def forest_tree_1(*nodes):
    """Golden forest file with tree 1 replaced by `nodes`, checksum
    rewritten."""
    return with_checksum("rf", GOLDEN["rf"].splitlines()[:12]
                         + [f"tree 1 {len(nodes)}", *nodes])


DAMAGED = [
    ("law", edit("law", 8, []), r"law:8: payload ends before coefficient"),
    ("law", edit("law", 7, ["0.6zz"]), r"law:7: coefficient: '0.6zz' is not a number"),
    ("law", edit("law", 8, ["nan"]), r"law:8: coefficient: 'nan' is not finite"),
    ("law", edit("law", 8, ["-0.8 0.1"]), r"law:8: coefficient: '-0.8 0.1' is not a number"),
    ("law", edit("law", 8, ["-0.8,0.1"]), r"law:8: coefficient: '-0.8,0.1' is not a number"),
    ("law", edit("law", 7, ["0.6,0", "-0.8,0"]), r"law:7: coefficient: '0.6,0' is not a number"),
    ("law", edit("law", 8, [""]), r"law:8: coefficient: '' is not a number"),
    ("law", edit("law", 8, ["-0.8\x1f"]), r"law:8: coefficient: '-0.8\\x1f' is not a number"),
    ("law", edit("law", 8, ["-0.8", "0"]), r"law:9: unexpected payload line '0'"),
    ("law", edit("law", 8, ["-0.7"]), r"law: coefficients not unit norm"),
    ("law", edit("law", 3, ["l=zz"]), r"law:3: header field 'l': 'zz' is not an integer"),
    ("law", edit("law", 4, ["lambda=inf"]), r"law:4: header field 'lambda': 'inf' is not finite"),
    ("law", edit("law", 5, []), r"law: missing header field 'rows'"),
    ("law", edit("law", 1, ["version=2"]), r"law:1: unsupported version '2'"),
    ("law", GOLDEN["law"].replace("l=2", "l=2\nl=2"), r"law: missing header field 'checksum'"),
    ("law", GOLDEN["law"][:-5], r"law: checksum mismatch"),
    ("mlp", edit("mlp", 16, []), r"mlp:16: payload ends before row 0 of b2"),
    ("mlp", edit("mlp", 7, ["0.1 zz 0.3"]), r"mlp:7: W1: 'zz' is not a number"),
    ("mlp", edit("mlp", 12, ["inf -1"]), r"mlp:12: W2: 'inf' is not finite"),
    ("mlp", edit("mlp", 8, ["1.5 0"]), r"mlp:8: W1: expected 3 values, got 2"),
    ("mlp", edit("mlp", 8, [""]), r"mlp:8: W1: expected 3 values, got 0"),
    ("mlp", edit("mlp", 9, ["matrix b1 1 4"]), r"mlp:9: b1: size 4 disagrees with 3"),
    ("mlp", edit("mlp", 9, []), r"mlp:9: expected matrix b1, got '0.01 0.02"),
    ("mlp", GOLDEN["mlp"] + "param x=1\n", r"mlp: checksum mismatch"),
    ("mlp", edit("mlp", 16, [GOLDEN["mlp"].splitlines()[15], "param x=1"]),
     r"mlp:17: unexpected payload line 'param x=1'"),
    ("mlp", edit("mlp", 2, ["kind=cnn"]), r"mlp:2: unknown model kind 'cnn'"),
    ("mlp", edit("mlp", 3, ["feature_dim=0"]), r"mlp:3: header field 'feature_dim': '0' is out of range"),
    ("svm-linear", edit("svm-linear", 4, ["labels=N"]), r"svm-linear:4: bad label list 'N' for svm-linear: expected 'E,N'"),
    ("rf", edit("rf", 4, ["labels=N,E"]), r"rf:4: bad label list 'N,E' for rf: expected 'E,N'"),
    ("knn", edit("knn", 4, ["labels=E,Q"]), r"knn:4: bad label list 'E,Q' for knn: expected 'E,N'"),
    ("knn", edit("knn", 4, ["labels=N"]), r"knn:4: bad label list 'N' for knn: expected 'E,N'"),
    ("rf", edit("rf", 4, ["labels=N"]), r"rf:4: bad label list 'N' for rf: expected 'E,N'"),
    ("svm-rbf", edit("svm-rbf", 7, []), r"svm-rbf:7: expected 'param gamma=', got 'matrix coef 1 2'"),
    ("knn", edit("knn", 7, ["param metric=manhattan"]), r"knn:7: unknown metric 'manhattan'"),
    ("knn", edit("knn", 7, ["param metric=euclidean"]), r"knn:7: unknown metric 'euclidean'"),
    ("knn", edit("knn", 12, ["ivector y 0 1 2"]), r"knn:12: y: '2' is out of range"),
    ("knn", edit("knn", 6, ["param k=4"]), r"knn:6: k=4 exceeds the 3 rows of matrix X"),
    ("svm-rbf", edit("svm-rbf", 7, ["param gamma=-5"]), r"svm-rbf:7: gamma must be > 0, got -5.0"),
    ("svm-rbf", edit("svm-rbf", 7, ["param gamma=0"]), r"svm-rbf:7: gamma must be > 0, got 0.0"),
    ("knn", edit("knn", 12, ["ivector y 0 1"]), r"knn:12: y: size 2 disagrees with 3"),
    ("rf", edit("rf", 12, []), r"rf:12: expected node 4 of 5, got 'tree 1 1'"),
    ("rf", edit("rf", 14, []), r"rf:14: payload ends before node 0 of tree 1"),
    ("rf", edit("rf", 8, ["node 0 split 1 0.3 1 5"]), r"rf:8: right child: '5' is out of range"),
    ("rf", edit("rf", 8, ["node 0 split 1 0.3 0 2"]), r"rf:8: left child: '0' is out of range"),
    ("rf", edit("rf", 8, ["node 0 split 2 0.3 1 2"]), r"rf:8: split feature: '2' is out of range"),
    ("rf", edit("rf", 6, ["param trees=3"]), r"rf:15: payload ends before tree 2"),
    # trees that `save_model` never writes: swapped children, one node as
    # both children, a node that no link reaches
    ("rf", forest_tree_1("node 0 split 0 0.5 2 1", "node 1 leaf 0", "node 2 leaf 1"),
     r"rf:14: left child 2 must be 1"),
    ("rf", forest_tree_1("node 0 split 0 0.5 1 1", "node 1 leaf 0"),
     r"rf:14: right child 1 must be 2, the id after the left subtree"),
    ("rf", forest_tree_1("node 0 split 0 0.5 1 2", "node 1 leaf 0", "node 2 leaf 1",
                         "node 3 leaf 0"), r"rf:17: node 3 of tree 1 is not reached from node 0"),
    ("rf", edit("rf", 10, ["node 2 split 0 -2.5 3 3"]),
     r"rf:10: right child 3 must be 4, the id after the left subtree"),
    ("features", edit("features", 6, []), r"features:6: payload ends before feature row 1"),
    ("features", edit("features", 5, ["N,nan,1,2"]), r"features:5: feature row: 'nan' is not finite"),
    ("features", edit("features", 5, ["N,1,2"]), r"features:5: feature row: expected 3 values, got 2"),
    ("features", edit("features", 5, ["N,1,x,2"]), r"features:5: feature row: 'x' is not a number"),
    ("features", edit("features", 5, ["N"]), r"features:5: feature row: expected 3 values, got 0"),
    ("features", edit("features", 5, ["N,"]), r"features:5: feature row: expected 3 values, got 1"),
    ("features", edit("features", 5, ["N,0.5\x1f,-1.25,0.1"]),
     r"features:5: feature row: '0.5\\x1f' is not a number"),
    # of two bad rows the first is named, whatever its fault
    ("features", feature_rows("N,0.5,y,0.1", "Q,2,3,-1e-300"),
     r"features:5: feature row: 'y' is not a number"),
    ("features", feature_rows("Q,0.5,-1.25,0.1", "E,2,x,-1e-300"),
     r"features:5: feature row: unknown label token 'Q'"),
    ("features", feature_rows("N,0.5,z,0.1", "E,2,3"),
     r"features:5: feature row: 'z' is not a number"),
    ("features", feature_rows("N,0.5,-1.25,0.1,7", "E,2,x,-1e-300"),
     r"features:5: feature row: expected 3 values, got 4"),
    ("features", edit("features", 6, ["Q,2,3,-1e-300"]),
     r"features:6: feature row: unknown label token 'Q'"),
    ("features", edit("features", 2, ["layout=Normal:x"]),
     r"features:2: layout segment 'Normal': 'x' is not an integer"),
    ("features", edit("features", 3, ["rows=1"]), r"features:6: unexpected payload line 'E,2"),
    ("features", edit("features", 3, ["rows=10000000000"]),
     r"features:7: payload ends before feature row 2"),
    ("features", "# layout=Normal:3\nN,0.5,-1.25,0.1\n", r"features: missing header field 'version'"),
]


@pytest.mark.parametrize("name, text, message", DAMAGED, ids=[m for _, _, m in DAMAGED])
def test_damaged_file_rejected(name, text, message, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ArtifactFileError, match=message):
        LOADERS[name](path)
    assert cli_on(name, path, tmp_path) == 1
    err = capsys.readouterr().err
    assert re.search(message, err) and "Traceback" not in err


@pytest.mark.parametrize("label", [0, 1])
def test_knn_file_of_one_label_predicts_it(label, tmp_path):
    """No fit writes a KNN model of one class, but a file may hold one:
    every vote, and so every prediction, is that label."""
    path = tmp_path / "knn"
    path.write_text(edit("knn", 12, [f"ivector y {label} {label} {label}"]))
    model = load_model(path)
    Q = np.random.default_rng(0).normal(0, 2, (20, 2))
    for k in (1, 2, 3):
        model.params["k"] = k
        assert list(predict_batch(model, Q)) == [model.labels[label]] * len(Q)


def test_tree_deeper_than_the_recursion_limit_loads(tmp_path):
    """A left chain of `depth` splits, each right child a leaf: the
    reader keeps its open slots on a stack, not on Python's."""
    depth = 2 * sys.getrecursionlimit()
    nodes = [f"node {j} split 0 {-j} {j + 1} {2 * depth - j}" for j in range(depth)]
    nodes += [f"node {j} leaf {j % 2}" for j in range(depth, 2 * depth + 1)]
    header = GOLDEN["rf"].replace("feature_dim=2", "feature_dim=1").splitlines()[:5]
    path = tmp_path / "deep"
    path.write_text(with_checksum("rf", header + ["param trees=1",
                                                  f"tree 0 {len(nodes)}", *nodes]))
    model = load_model(path)
    Q = np.arange(-depth - 1.5, 1.0)[:, None]
    expected = [model.labels[tree_predict(model.params["trees"][0], q)] for q in Q]
    assert len(set(expected)) == 2
    assert list(predict_batch(model, Q)) == expected


def cli_on(name, path, tmp_path):
    """`llt train` on a damaged feature file, `llt evaluate` on a damaged
    law or model (the other artifact intact)."""
    if name == "features":
        return main(["train", "--model", "knn", "--features", str(path),
                     "--out", str(tmp_path / "m.txt")])
    law, model = tmp_path / "ok.law", tmp_path / "ok.txt"
    save("law", law)
    save("knn", model)
    test = tmp_path / "test.csv"
    test.write_text("N,1,0.5,0.2\nE,0.3,-1,2\n")
    return main(["evaluate", "--law", str(path if name == "law" else law),
                 "--model", str(model if name == "law" else path),
                 "--test", str(test)])


BAD_TOKENS = ["zz", "", "1.5.2", "0x10", "nan", "inf", "-inf", "1e999"]
NUMBER = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$")


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(GOLDEN)), how=st.sampled_from(
    ["truncate", "delete line", "tamper", "non-finite"]), data=st.data())
def test_corrupted_file_property(name, how, data, tmp_path):
    """Every damaged file is an ArtifactFileError, and the CLI exits 1.
    Payload edits rewrite the checksum, so the structure checks must
    catch them, not the checksum."""
    text = GOLDEN[name]
    lines = text.splitlines()
    n_header = HEADER_LINES[name]
    if how == "truncate":
        cut = data.draw(st.integers(0, len(text) - 1))
        if data.draw(st.booleans()) and text[:cut].count("\n") >= n_header:
            whole = text[:cut].count("\n")  # drop the tail from a line start
            text = with_checksum(name, lines[:whole])
        else:
            text = text[:cut]
    elif how == "delete line":
        i = data.draw(st.integers(0, len(lines) - 1))
        del lines[i]
        text = with_checksum(name, lines) if i >= n_header else "\n".join(lines) + "\n"
    else:
        pieces = [re.split(r"([ ,=])", l) for l in lines]
        spots = [(i, j) for i, p in enumerate(pieces) if i != n_header - 1
                 for j, tok in enumerate(p) if NUMBER.match(tok)]
        i, j = data.draw(st.sampled_from(spots))
        bad = BAD_TOKENS[:4] if how == "tamper" else BAD_TOKENS[4:]
        pieces[i][j] = data.draw(st.sampled_from(bad))
        text = with_checksum(name, ["".join(p) for p in pieces])
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ArtifactFileError, match=re.escape(str(path))):
        LOADERS[name](path)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli_on(name, path, tmp_path) == 1
    assert str(path) in err.getvalue()
