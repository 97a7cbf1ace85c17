"""The compare step of tools/identity.py, its list of expected
differences, the path of each side and its one-thread rerun, on small
hand-made trees, a small git repository and a small corpus; the gate
itself runs both commits' pipelines and is not run here."""

import importlib.util
import os
import shutil
import subprocess
import sys
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


BASE = "0123456789abcdef0123456789abcdef01234567"
LIST = f"{BASE}\n# the network's model files\nrun-1/deep/model_mlp.txt\n\nreport.csv\n"


def test_list_names_its_paths():
    assert identity.expected_differences(LIST, BASE) == {"run-1/deep/model_mlp.txt",
                                                         "report.csv"}


def test_unlisted_difference_breaks_the_list(trees):
    base, head = trees
    (head / "data-1/train.csv").write_bytes(b"E,0.5,1\n")
    (head / "report.csv").write_bytes(b"method,acc\nknn,101\n")
    (head / "run-1/deep/model_mlp.txt").write_bytes(b"\x00matrix W1 1 1\n0.5\n")
    differ, _ = identity.compare(base, head)
    assert identity.breaches(differ, identity.expected_differences(LIST, BASE)) == [
        "differs, not listed: data-1/train.csv"]


def test_listed_path_that_does_not_differ_breaks_the_list(trees):
    base, head = trees
    (head / "report.csv").write_bytes(b"method,acc\nknn,101\n")
    differ, _ = identity.compare(base, head)
    assert identity.breaches(differ, identity.expected_differences(LIST, BASE)) == [
        "listed, identical: run-1/deep/model_mlp.txt"]


def test_list_for_another_base_is_ignored(trees):
    base, head = trees
    (head / "report.csv").write_bytes(b"method,acc\nknn,101\n")
    (head / "run-1/deep/model_mlp.txt").write_bytes(b"\x00matrix W1 1 1\n0.5\n")
    differ, _ = identity.compare(base, head)
    other = BASE.replace("0", "f")
    assert identity.expected_differences(LIST, other) == set()
    assert identity.breaches(differ, identity.expected_differences(LIST, other)) == [
        "differs, not listed: report.csv", "differs, not listed: run-1/deep/model_mlp.txt"]


def test_listed_files_are_still_compared(trees):
    """A listed path that differs passes, but it is still read and
    counted, and a file that exists on one side only is not hidden by
    a listed name."""
    base, head = trees
    (head / "report.csv").write_bytes(b"method,acc\nknn,101\n")
    (head / "run-1/deep/model_mlp.txt").write_bytes(b"\x00matrix W1 1 1\n0.5\n")
    expected = identity.expected_differences(LIST, BASE)
    differ, n = identity.compare(base, head)
    assert (differ, n) == (["report.csv", "run-1/deep/model_mlp.txt"], 3)
    assert identity.breaches(differ, expected) == []
    _tree(head, {"run-1/deep/model_mlp.txt.bak": b""})
    differ, n = identity.compare(base, head)
    assert n == 4
    assert identity.breaches(differ, expected) == [
        "differs, not listed: run-1/deep/model_mlp.txt.bak"]


def test_checked_in_list_names_a_full_sha():
    first, *paths = identity.EXPECTED.read_text(encoding="utf-8").splitlines()
    assert len(first) == 40 and int(first, 16) >= 0
    paths = [p for p in paths if p and not p.startswith("#")]
    assert len(paths) == len(set(paths))


def test_each_side_imports_its_own_workloads(tmp_path):
    """The base side's path leads to the base commit's `workloads.py`
    and `src`, the head side's to the checkout's, though they differ."""
    repo = tmp_path / "repo"
    files = {"src/llt/__init__.py": b"", "perfbench/workloads.py": b"SIDE = 'base'\n"}
    _tree(repo, files)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + args, check=True)
    sha = subprocess.run(git + ["rev-parse", "HEAD"], check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    (repo / "perfbench/workloads.py").write_text("SIDE = 'head'\n")

    assert identity.unpack(repo, sha, tmp_path / "base")
    code = "import llt, workloads; print(workloads.SIDE, workloads.__file__, llt.__file__)"
    for root, side in ((tmp_path / "base", "base"), (repo, "head")):
        out = subprocess.run([sys.executable, "-B", "-c", code], check=True, text=True,
                             stdout=subprocess.PIPE, cwd=tmp_path,
                             env=dict(os.environ, PYTHONPATH=identity.side_path(root)))
        name, workloads, llt = out.stdout.split()
        assert name == side
        assert Path(workloads) == root / "perfbench/workloads.py"
        assert Path(llt) == root / "src/llt/__init__.py"


def test_unpack_fails_on_an_unknown_commit(tmp_path):
    subprocess.run(["git", "init", "-q", str(tmp_path / "repo")], check=True)
    assert not identity.unpack(tmp_path / "repo", "0" * 40, tmp_path / "base")


def test_python_runs_with_one_blas_thread(tmp_path):
    code = ("import os, sys; sys.exit([os.environ[v] for v in ('OPENBLAS_NUM_THREADS', "
            "'OMP_NUM_THREADS', 'MKL_NUM_THREADS')] != ['1'] * 3)")
    assert identity.run_python(code, tmp_path, identity.ROOT, **identity.BLAS_ONE_THREAD) == 0


def test_one_thread_rerun_names_each_differing_file(tmp_path, monkeypatch):
    """The rerun at one BLAS thread writes, beside the head tree, the
    files of the head tree's clinical-size case, here on a small corpus;
    the one file changed on the head side is named, and a failed rerun
    is reported."""
    head = tmp_path / "head"
    head.mkdir()
    monkeypatch.chdir(head)
    identity._llt("synth --beats 40 --out-dir data-clinical")
    identity._llt("reproduce --data data-clinical --out run-clinical")
    (head / "run-clinical/report.csv").write_text("method,acc\n", encoding="utf-8")
    assert identity.one_thread_differences(tmp_path) == [
        "differs at one BLAS thread: run-clinical/report.csv"]
    assert (tmp_path / "one-thread/run-clinical/model_mlp.txt").is_file()
    shutil.rmtree(tmp_path / "one-thread")
    (head / "data-clinical/train.csv").unlink()
    assert identity.one_thread_differences(tmp_path) is None
