"""The compare step of tools/identity.py, on small hand-made trees; the
gate itself runs both commits' pipelines and is not run here."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


@pytest.fixture
def trees(tmp_path):
    files = {"report.csv": b"method,acc\nknn,100\n", "data-1/train.csv": b"N,0.5,1\n",
             "run-1/deep/model_mlp.txt": b"\x00matrix W1 1 1\n0.25\n"}
    return _tree(tmp_path / "base", files), _tree(tmp_path / "head", files)


def test_identical_trees(trees):
    assert identity.compare(*trees) == ([], 3)


def test_one_changed_byte_names_the_file(trees):
    base, head = trees
    (head / "report.csv").write_bytes(b"method,acc\nknn,101\n")
    assert identity.compare(base, head) == (["report.csv"], 3)


@pytest.mark.parametrize("side", [0, 1])
def test_file_on_one_side_only(trees, side):
    _tree(trees[side], {"run-1/extra.txt": b""})
    assert identity.compare(*trees) == (["run-1/extra.txt"], 4)


def test_difference_in_a_nested_directory(trees):
    base, head = trees
    (base / "run-1/deep/model_mlp.txt").write_bytes(b"\x00matrix W1 1 1\n0.26\n")
    assert identity.compare(base, head) == (["run-1/deep/model_mlp.txt"], 3)


def test_every_difference_named_in_order(trees):
    base, head = trees
    (head / "data-1/train.csv").write_bytes(b"E,0.5,1\n")
    (head / "report.csv").unlink()
    _tree(base, {"a.txt": b"x"})
    assert identity.compare(base, head) == (["a.txt", "data-1/train.csv", "report.csv"], 4)
