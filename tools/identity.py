"""Byte identity with a base commit: every artifact of the cases below
must keep its bytes (acceptance criterion 9 across commits).

    python3 tools/identity.py BASE_SHA

The base side is the base commit's `src` and `perfbench`, unpacked
with `git archive`; the head side is this checkout's. Each side runs
every case of CASES in its own interpreter, started with `-B` in an
empty tree directory, with only that side's `src` and `perfbench`
(whose `workloads.py` the workload cases import, and which nothing
writes to) and this checkout's `tools` on the path. So a change to the
workloads is compared against the base's workloads on the base's
`src`, and a workload may call a name that the base lacks. Every path
a case writes is relative to the tree. The two trees are then compared
byte for byte, every file of both. The head side also reruns its
clinical-size `reproduce` in a fresh interpreter with one BLAS thread,
into a third directory, and that output is compared with the head
tree's.

A change that alters bytes on purpose lists the paths it expects to
differ in `tools/identity_expected.txt`: the first line is the full SHA
of the base commit the list applies to, and each further line that is
neither blank nor a `#` comment is one relative path. Against any other
base the list is ignored, so it never carries over to the next change.
The script prints each path that differs or exists on one side only but
is not listed, each listed path that does not differ and each file of
the one-thread rerun that differs, names the directory that keeps the
trees on stderr, and exits 1. Otherwise it prints the number of files
compared and of listed paths that differ, and exits 0. A case that
fails on either side, or in the rerun, also exits 1.

Why each case is there:

- `synth` + `reproduce` on the default corpora of seeds 1-3, 7 and 9:
  the whole pipeline and every file it writes. On seeds 3, 7 and 9 the
  linear SVM scores below 100 %, so a changed decision shows in
  `report.csv`.
- `hard` (`--beats 1000 --noise 0.2 --omega-b 0.4`): noisy classes
  that overlap, where KNN and RF misclassify about a quarter of the
  test beats.
- clinical size (`--beats 6086`, 3,408 fitting rows): BLAS may take
  other kernel paths than on the small corpora.
- clinical size again, on the head side only, in a fresh interpreter
  with one BLAS thread (`OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS` and
  `MKL_NUM_THREADS` set to 1): a product whose bits depend on how many
  threads share it makes a file differ from the default run's. Both
  sides of the base comparison run at the same thread count, so that
  comparison cannot show it.
- all flags (`--omega-a 0.5 --window-len 24 --noise 0 --beats 50
  --seed 7`): every `llt synth` flag. Noiseless sinusoids have a unique
  law only at width 3, hence `--law-len 3`.
- `synth --beats 4`, the fewest beats `llt synth` accepts: its train,
  validation and test parts hold 2, 1 and 1 beats per class, the
  narrowest cuts of the generator's per-class sample array.
- `records` and `preprocess`: the score-records workload's 300 seed-1
  raw records written at 360 Hz and at 250 Hz (the refractory gap and
  the filter designs follow each record's rate), and the same records
  cut around their centre to lengths from 25 samples (the shortest
  `bandpass` accepts) to 360, written at 125 Hz (filter designs and
  record shapes that the 360-sample benchmark records never reach).
  The 125 Hz records are also cut at `--window-len` 2 and 61, widths
  the 30-sample cases never use: 2 is the only width at which a window
  can be constant, and 61 overruns many of the short records.
- the stage subcommands on the seed-1 corpus: `fit-law`,
  `scan-law-length`, `transform` of train.csv and test.csv, and for
  each of the five model kinds `train --val` (its stdout, which prints
  the validation accuracy) and `evaluate --report`. They reach the
  feature-file, scan and model readers and writers that `reproduce`
  does not call.
- `hand`: a hand-written beat CSV, feature file and KNN model. Each has
  cells padded with spaces and tabs, `-0`, a subnormal and a `1_0`
  cell. The loaders read a file's values in one `np.loadtxt` call,
  which rejects `1_0`, and then read such a file again row by row with
  `float()`. A base commit may read every file with `float()`, so both
  sides must write the same bytes: the case checks that the fallback
  and its line handling match. Each file has a `-bulk` twin with `10`
  for `1_0`, which the bulk read accepts, padding included.
  - `hand.csv`, a beat CSV with comment and blank lines, `*` artifact
    rows and a `?` row, through `fit-law --law-len 3` and `transform`;
  - `hand_features.csv`, a feature file with a `?` row, through
    `train --model knn`, whose model keeps the rows it read, and
    `train --model rf`, whose forest splits on those values and writes
    its thresholds;
  - `hand_knn.txt`, a KNN model whose matrix rows have extra spaces and
    tabs between and around their values, through `evaluate` with the
    law of `hand.csv` on `hand.csv`;
  - `hand_rf.txt`, a forest of two trees on the same six features whose
    node lines have extra spaces and tabs and whose thresholds include
    `-0`, the smallest subnormals and `1_0`, through the same `evaluate`.
    The forest reader reads each token with `int()` or `float()`, so
    this compares it on a file that `save_model` did not write. The two
    trees tie on some rows, whose vote goes to `E`.
  The feature files' and the models' checksums are computed here with
  `hashlib`, not by `llt`.
- the three benchmark workloads (`perfbench/workloads.py`) on seeds
  1-10: the inputs each one generates, the files a pass writes, and
  the pass's `fingerprint()`, which `perfbench/run.py` requires to be
  equal across a run's passes. They cover the sizes the benchmark
  times, and `scan_law_length` and the record path on their own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tools" / "identity_expected.txt"

SEEDS = (1, 2, 3, 7, 9)
MODELS = ("knn", "svm-linear", "svm-rbf", "rf", "mlp")

# (runner, its arguments), in run order; paths are relative to the tree
CASES = (
    *(case for s in SEEDS for case in (
        ("llt", f"synth --seed {s} --out-dir data-{s}"),
        ("llt", f"reproduce --seed {s} --data data-{s} --out run-{s}"))),
    ("llt", "synth --beats 1000 --noise 0.2 --omega-b 0.4 --out-dir data-hard"),
    ("llt", "reproduce --data data-hard --out run-hard"),
    ("llt", "synth --beats 6086 --out-dir data-clinical"),
    ("llt", "reproduce --data data-clinical --out run-clinical"),
    ("llt", "synth --omega-a 0.5 --window-len 24 --noise 0 --beats 50 --seed 7 "
            "--out-dir data-flags"),
    ("llt", "reproduce --law-len 3 --data data-flags --out run-flags"),
    ("llt", "synth --beats 4 --seed 2 --out-dir data-min"),
    ("records",),
    ("llt", "preprocess --in raw.csv --out beats.csv"),
    ("llt", "preprocess --in raw250.csv --out beats250.csv"),
    ("llt", "preprocess --in raw125.csv --out beats125.csv"),
    ("llt", "preprocess --in raw125.csv --window-len 2 --out beats125-w2.csv"),
    ("llt", "preprocess --in raw125.csv --window-len 61 --out beats125-w61.csv"),
    ("hand",),
    ("llt", "fit-law --law-len 3 --train hand.csv --out stages/hand.law"),
    *(("llt", f"transform --law stages/hand.law --in {f}.csv --out stages/{f}_features.csv")
      for f in ("hand", "hand-bulk")),
    *(("llt", f"train --model {m} --features hand_features{s}.csv "
              f"--out stages/hand_features{s}_{m}.txt")
      for m in ("knn", "rf") for s in ("", "-bulk")),
    *(("llt", f"evaluate --law stages/hand.law --model hand_{m}{s}.txt --test hand.csv "
              f"--report stages/hand_{m}{s}_evaluate.csv")
      for m in ("knn", "rf") for s in ("", "-bulk")),
    ("llt", "fit-law --train data-1/train.csv --out stages/normal.law"),
    ("llt", "scan-law-length --seed 1 --train data-1/train.csv --out stages/scan.csv"),
    ("llt", "transform --law stages/normal.law --in data-1/train.csv "
            "--out stages/train_features.csv"),
    ("llt", "transform --law stages/normal.law --in data-1/test.csv "
            "--out stages/test_features.csv"),
    *(case for m in MODELS for case in (
        ("llt", f"train --seed 1 --model {m} --features stages/train_features.csv "
                f"--val stages/test_features.csv --out stages/model_{m}.txt",
         f"stages/train_{m}.out"),
        ("llt", f"evaluate --law stages/normal.law --model stages/model_{m}.txt "
                f"--test data-1/test.csv --report stages/evaluate_{m}.csv"))),
    *(("workload", w, s) for w in ("reproduce", "law-scan", "score-records")
      for s in range(1, 11)),
)


# the head side's clinical-size case, rerun in a sibling of its tree
ONE_THREAD = "reproduce --data ../head/data-clinical --out run-clinical"
BLAS_ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}


def _llt(argv: str, stdout: str | None = None) -> None:
    """`llt ARGV`, in this interpreter; its stdout goes to the file
    `stdout` if one is named, and is dropped otherwise."""
    from llt import cli

    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        rc = cli.main(argv.split())
    if rc != 0:
        raise SystemExit(f"llt {argv}: exit {rc}")
    if stdout:
        Path(stdout).write_text(text.getvalue(), encoding="utf-8")


def _records() -> None:
    """raw.csv, raw250.csv and raw125.csv: the raw records of the
    `records` case, one `fs;v0,v1,...` line each."""
    import numpy as np
    from workloads import RECORD_FS, synth_records

    records, _, _ = synth_records(np.random.default_rng(1), 300)
    lengths = np.linspace(25, 360, len(records)).astype(int)
    mixed = [y[(len(y) - n) // 2:][:n] for y, n in zip(records, lengths)]
    for path, fs, rows in (("raw.csv", RECORD_FS, records), ("raw250.csv", 250.0, records),
                           ("raw125.csv", 125.0, mixed)):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            for y in rows:
                f.write(f"{fs:g};" + ",".join(f"{v:.17g}" for v in y) + "\n")


# the `hand` case's beats; `{ten}` is `1_0` in hand.csv, `10` in hand-bulk.csv
HAND_CSV = """\
# hand-written beats
N,0.5,{ten},-0.25, 0.75 ,1.5,-1,0.125,2

N, -0 ,0.3,0.9,-0.6,5e-324,0.2,-0.8,1.1
   # an indented comment
#E,1,2,3,4,5,6,7,8
E*,0,0,0,0,0,0,0,0
N,1.25,-0.5,0.0625,\t0.7,-1.3,0.4,0.9,-0.2
E,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8e-1
?,0.3,-0.3,0.6,-0.6,0.9,-0.9,1.2,-1.2
 N* ,0,0,0,0,0,0,0,0
"""


# the payloads of the `hand` case's feature file, KNN model and forest,
# on the six features of a width-3 law on hand.csv; `{ten}` as in HAND_CSV
HAND_FEATURES = """\
N,0.5,{ten},-0.25, 0.75 ,1.5,-1
E, -0 ,0.3,\t0.9,-0.6,5e-324,0.2
?,1,2,3,4,5,6
N,1.25,-0.5,0.0625,0.7,-1.3,0.4
E,0.1,0.2,0.3,0.4,0.5,0.6e-1
N,0.3,-0.3,0.6,-0.6,0.9,-0.9
"""
HAND_KNN = """\
param k=3
param metric=chebyshev
matrix X 5 6
0.5  {ten}\t-0.25 0.75 1.5 -1
 -0 0.3 0.9\t\t-0.6 5e-324 0.2\t
1.25 -0.5 0.0625 0.7 -1.3 0.4
0.1 0.2 0.3  0.4 0.5 0.6e-1
0.3 -0.3 0.6 -0.6 0.9 -0.9
ivector y 0 1 1 0 1
"""
HAND_RF = """\
param trees=2
tree 0 7
node 0 split 2  -0 1 4
\tnode 1 split 0 5e-324\t2 3
node 2 leaf  1
node  3 leaf\t0
node 4 split 5 {ten} 5 6
node 5 leaf 1
node 6 leaf 0\t
tree 1\t3
node 0 split  3 -4.9406564584124654e-324 1 2
 node 1 leaf 0
node 2 leaf 1
"""


def _envelope(header: str, payload: str) -> str:
    """An artifact file: the version, the `key=value` lines of `header`,
    the sha256 of `payload`, then `payload`."""
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return f"version=1\n{header}checksum={digest}\n{payload}"


def _hand() -> None:
    """The `hand` case's beat CSVs, feature files, KNN models and
    forests, each with `1_0` and, in its `-bulk` twin, `10`."""
    for suffix, ten in (("", "1_0"), ("-bulk", "10")):
        for path, text in (
                (f"hand{suffix}.csv", HAND_CSV.format(ten=ten)),
                (f"hand_features{suffix}.csv", _envelope(
                    "layout=Normal:6\nrows=6\n", HAND_FEATURES.format(ten=ten))),
                (f"hand_knn{suffix}.txt", _envelope(
                    "kind=knn\nfeature_dim=6\nlabels=E,N\n", HAND_KNN.format(ten=ten))),
                (f"hand_rf{suffix}.txt", _envelope(
                    "kind=rf\nfeature_dim=6\nlabels=E,N\n", HAND_RF.format(ten=ten)))):
            Path(path).write_text(text, encoding="utf-8")


def _workload(name: str, seed: int) -> None:
    """One pass of a benchmark workload in `NAME-SEED/`, and its
    fingerprint in `NAME-SEED/fingerprint.txt`."""
    from workloads import WORKLOADS

    workdir = Path(f"{name}-{seed}")
    w = WORKLOADS[name](seed, workdir)
    w.generate()
    w.load()
    fingerprint = w.fingerprint(w.run_pass())
    (workdir / "fingerprint.txt").write_text(repr(fingerprint) + "\n", encoding="utf-8")


def write_tree(src: str) -> None:
    """Run every case in the current directory, which is the side's
    tree, after checking that `llt` is imported from `src`."""
    from llt import cli

    if Path(cli.__file__).resolve().parents[1] != Path(src).resolve():
        raise SystemExit(f"llt imported from {cli.__file__}, not from {src}")
    Path("stages").mkdir()
    runners = {"llt": _llt, "records": _records, "hand": _hand, "workload": _workload}
    for runner, *args in CASES:
        runners[runner](*args)


def compare(a: Path, b: Path) -> tuple[list[str], int]:
    """The sorted relative paths of the files under `a` or `b` that
    differ in bytes or exist on one side only, and the number of paths
    compared."""
    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    in_a, in_b = files(a), files(b)
    differ = (in_a ^ in_b) | {f for f in in_a & in_b
                              if (a / f).read_bytes() != (b / f).read_bytes()}
    return sorted(differ), len(in_a | in_b)


def expected_differences(text: str, base: str) -> set[str]:
    """The paths of the expected-differences list `text` if its first
    line is `base`, the full SHA of the base commit; none otherwise."""
    lines = [line.strip() for line in text.splitlines()]
    if not lines or lines[0] != base:
        return set()
    return {line for line in lines[1:] if line and not line.startswith("#")}


def breaches(differ: list[str], expected: set[str]) -> list[str]:
    """A line for each path of `differ` that `expected` does not list,
    then one for each listed path that is not in `differ`."""
    return ([f"differs, not listed: {p}" for p in differ if p not in expected]
            + [f"listed, identical: {p}" for p in sorted(expected.difference(differ))])


def unpack(repo: Path, sha: str, dest: Path) -> bool:
    """The `src` and `perfbench` of commit `sha` of the git checkout
    `repo`, unpacked under `dest`; False if `git archive` fails."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", sha, "src", "perfbench"],
                             stdout=subprocess.PIPE)
    if archive.returncode:
        return False
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return True


def side_path(root: Path) -> str:
    """The PYTHONPATH of the side whose `src` and `perfbench` are under
    `root`, with this checkout's `tools`."""
    return os.pathsep.join(str(p) for p in (root / "src", root / "perfbench", ROOT / "tools"))


def run_python(code: str, cwd: Path, root: Path, **env: str) -> int:
    """The exit status of `code` in a fresh interpreter started with `-B`
    in `cwd`, on the path of the side under `root`, with `env` added to
    this process's environment."""
    return subprocess.run([sys.executable, "-B", "-c", code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=side_path(root), **env)).returncode


def one_thread_differences(work: Path) -> list[str] | None:
    """Rerun the clinical-size `reproduce` of the head tree `work/head`
    in `work/one-thread`, at one BLAS thread: a line for each file of its
    `run-clinical` that differs from the head tree's, or None if the
    rerun fails."""
    one = work / "one-thread"
    one.mkdir()
    if run_python(f"import identity; identity._llt({ONE_THREAD!r})", one, ROOT,
              **BLAS_ONE_THREAD):
        return None
    differ, _ = compare(one / "run-clinical", work / "head" / "run-clinical")
    return [f"differs at one BLAS thread: run-clinical/{p}" for p in differ]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write("usage: tools/identity.py BASE_SHA\n")
        return 2
    base = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                           argv[0] + "^{commit}"], stdout=subprocess.PIPE, text=True)
    if base.returncode:
        return 1
    sha = base.stdout.strip()
    work = Path(tempfile.mkdtemp(prefix="identity-"))
    if not unpack(ROOT, sha, work / "base-commit"):
        shutil.rmtree(work)
        return 1
    for side, root in (("base", work / "base-commit"), ("head", ROOT)):
        tree = work / side
        tree.mkdir()
        if run_python(f"import identity; identity.write_tree({str(root / 'src')!r})", tree, root):
            sys.stderr.write(f"the {side} side failed; its tree is in {tree}\n")
            return 1
    threads = one_thread_differences(work)
    if threads is None:
        sys.stderr.write(f"the one-thread rerun failed; its tree is in {work / 'one-thread'}\n")
        return 1
    differ, n = compare(work / "base", work / "head")
    wrong = breaches(differ, expected_differences(EXPECTED.read_text(encoding="utf-8"), sha))
    if wrong or threads:
        print("\n".join(wrong + threads))
        sys.stderr.write(f"{len(wrong)} paths break {EXPECTED.name} ({len(differ)} of {n} "
                         f"files differ) and {len(threads)} differ at one BLAS thread; "
                         f"the trees are in {work}\n")
        return 1
    shutil.rmtree(work)
    print(f"{n} files compared: {n - len(differ)} identical, {len(differ)} differ as listed; "
          f"the clinical-size run is identical at one BLAS thread")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
