"""Disk formats and the split protocol.

Laws, models and feature matrices share one envelope, written by
`write_artifact` and checked when an `_Artifact` reads it: `version=`,
the artifact's key=value header, `checksum=` (sha256 of the payload),
then the payload.

Every file kind stores its reals as rows, and one codec reads and writes
them: beat-CSV and feature rows (after their label), raw-signal records
(after their rate), law coefficients (one per line) and model matrices
(space-separated). `_real_lines` writes each row's reals with 17
significant digits, so that parse(serialize(x)) reproduces every double
bit-exactly. `_real_rows` reads the rows of a file at once; their
callers first check each row's label and value count in one pass over
the lines, so that a file with several faults names the first.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .classifiers import TrainedModel
from .types import Corpus, Label, LinearLaw, Role, Signal

FORMAT_VERSION = "1"
# follows the label token of an artifact beat in a beat CSV
_ARTIFACT_MARK = "*"
# ASCII separators that `np.loadtxt` strips around a value as whitespace
# and `float()` rejects
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


class ArtifactFileError(ValueError):
    """Malformed, tampered or version-incompatible artifact file."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _real_lines(values: np.ndarray, sep: str) -> list[str]:
    """Each row of the 2-D `values` as one line of its reals joined by
    `sep`: the bytes of `_fmt` per value, from one list of Python floats."""
    fmt = "{:.17g}".format
    return [sep.join(map(fmt, row)) for row in values.tolist()]


def _real_rows(path, linenos: list[int], texts: list[str], width: int, sep: str | None,
               what: str) -> np.ndarray:
    """The value texts of n rows, each holding `width` values separated
    by `sep` (`None`: whitespace), as an (n, width) array of finite
    floats.

    `np.loadtxt` reads all the rows at once; it parses every number it
    accepts as `float()` does, and it rejects some that `float()` reads
    (`1_0`, non-ASCII digits). If it fails, or its result has another
    shape (it skips an empty row) or a non-finite value, `_float_rows`
    reads the rows again, and names the first bad cell as
    `path:line: <what>: ...` or gives `float()`'s values. So it does
    when a row is empty or holds one of `_LOADTXT_ONLY_SPACE`: on no
    value `np.loadtxt` warns, and it strips those around a value."""
    values = None
    if width and texts and all(texts) and not any(
            c in t for t in texts for c in _LOADTXT_ONLY_SPACE):
        try:
            values = np.loadtxt(texts, delimiter=sep, comments=None, ndmin=2)
        except ValueError:
            pass
    if values is not None and values.shape == (len(texts), width) and np.isfinite(values).all():
        return values
    return _float_rows(path, linenos, texts, width, sep, what)


def _float_rows(path, linenos: list[int], texts: list[str], width: int, sep: str | None,
                what: str) -> np.ndarray:
    """The rows of `_real_rows`, read one cell at a time with `float()`.
    A bad cell fails as `path:line: <what>: 'cell' is not a number` (or
    `is not finite`); a `{}` in `what` becomes the cell's column,
    counting a row's leading field (a label or a sampling rate) as
    column 1. The callers check each row's value count, except for law
    lines: a row that does not split into `width` cells is one cell,
    which then is not a number, as a law line with a comma is not."""
    rows = []
    for lineno, text in zip(linenos, texts):
        cells = text.split(sep)
        row = []
        for column, cell in enumerate(cells if len(cells) == width else [text], start=2):
            try:
                value = float(cell)
            except ValueError:
                value = None
            if value is None or not math.isfinite(value):
                raise ArtifactFileError(
                    f"{path}:{lineno}: {what.format(column)}: {cell!r} is not "
                    f"{'a number' if value is None else 'finite'}")
            row.append(value)
        rows.append(row)
    return np.array(rows).reshape(len(texts), width)


def data_lines(path):
    """(line number, stripped line) of each line of a text file that is
    neither blank nor a `#` comment."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield lineno, line


# ------------------------------------------------------------- corpus

def load_corpus(path, role: Role = Role.TRAIN) -> Corpus:
    """Beat CSV: one row per beat, leading label token (N/E/?), then the
    sample values. A `*` after the label token (`E*,0,...`) marks an
    artifact beat, whose samples are placeholders. Row length fixes the
    corpus window length. A bad row is an ArtifactFileError naming
    path:line; of several, the first in the file.

    One pass over the lines checks each row's label and length and keeps
    its value text; `_real_rows` then reads all the values at once, and
    its array becomes the corpus's `samples`, with no object per row."""
    linenos, codes, texts = [], [], []
    # label field -> its index into `tokens` and `flags`, parsed once per
    # distinct field of the file
    parsed, tokens, flags = {}, [], []
    window_len = error = None
    for lineno, line in data_lines(path):
        field, sep, values = line.partition(",")
        code = parsed.get(field)
        if code is None:
            token = field.strip()
            try:
                label = Label.from_token(token.removesuffix(_ARTIFACT_MARK))
            except ValueError as e:
                error = f"{path}:{lineno}: {e}"
                break
            code = parsed[field] = len(tokens)
            tokens.append(label.value)
            flags.append(token.endswith(_ARTIFACT_MARK))
        n = values.count(",") + 1 if sep else 0
        if window_len is None:
            window_len = n
        if n < 2 or n != window_len:
            error = (f"{path}:{lineno}: too few samples" if n == window_len else
                     f"{path}:{lineno}: expected {window_len} samples, got {n}")
            break
        linenos.append(lineno)
        codes.append(code)
        texts.append(values)
    # a bad value in a row above a bad label or length is named first
    samples = _real_rows(path, linenos, texts, window_len, ",", "column {}") if texts else None
    if error:
        raise ArtifactFileError(error)
    if samples is None:
        raise ArtifactFileError(f"{path}: no beats found")
    at = np.array(codes)
    return Corpus.from_arrays(samples, np.array(tokens, dtype=str)[at],
                              np.array(flags, dtype=bool)[at], role)


def save_corpus(corpus: Corpus, path) -> None:
    """Beat CSV as `load_corpus` reads it; only artifact beats carry the
    marker, so a corpus without artifacts is plain `LABEL,v1,...` rows."""
    tokens = [label + _ARTIFACT_MARK if artifact else label
              for label, artifact in zip(corpus.labels.tolist(), corpus.artifact.tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(token + "," + row + "\n"
                        for token, row in zip(tokens, _real_lines(corpus.samples, ","))))


def load_raw_signals(path) -> list[Signal]:
    """Raw signal CSV: one record per line, "fs;v0,v1,...". A bad row is
    an ArtifactFileError naming path:line; of several, the first in the
    file. A file without a record is one naming the path.

    One pass over the lines checks each rate and keeps the value text;
    `_real_rows` then reads the records of each length at once."""
    linenos, rates, texts = [], [], []
    by_width: dict[int, list[int]] = {}  # record length -> indices of its records
    error = None
    for lineno, line in data_lines(path):
        fs_part, sep, vals_part = line.partition(";")
        try:
            fs = float(fs_part)
        except ValueError:
            fs = math.nan
        if not sep or not 0.0 < fs < math.inf:
            error = (f"{path}:{lineno}: expected 'fs;v0,v1,...' with a positive finite "
                     f"fs, got {line[:40]!r}")
            break
        by_width.setdefault(vals_part.count(",") + 1, []).append(len(texts))
        linenos.append(lineno)
        rates.append(fs)
        texts.append(vals_part)
    values = [None] * len(texts)
    try:
        for width, at in by_width.items():
            rows = _real_rows(path, [linenos[i] for i in at], [texts[i] for i in at],
                              width, ",", "column {}")
            for i, row in zip(at, rows):
                values[i] = row
    except ArtifactFileError:
        # that names the first bad record of its length; name the file's
        for lineno, text in zip(linenos, texts):
            _float_rows(path, [lineno], [text], text.count(",") + 1, ",", "column {}")
        raise
    # a bad value in a record above a bad rate is named first
    if error:
        raise ArtifactFileError(error)
    if not texts:
        raise ArtifactFileError(f"{path}: no records found")
    return [Signal(values=v, fs=fs) for v, fs in zip(values, rates)]


# -------------------------------------------------------------- split

@dataclass
class SplitSpec:
    train_fraction: float = 0.40
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValueError(
                f"train_fraction must be in (0, 1], got {self.train_fraction}"
            )


def split_train_validation(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Seeded uniform shuffle; the first floor(fraction * N) beats form
    the training part, the rest the validation part. Each part holds the
    rows of `corpus`'s arrays at its indices, in shuffled order."""
    if corpus.role != Role.TRAIN:
        raise ValueError(f"can only split a train corpus, got role {corpus.role.value}")
    perm = np.random.default_rng(spec.seed).permutation(len(corpus))
    cut = math.floor(spec.train_fraction * len(corpus))

    def part(idx, role):
        return Corpus.from_arrays(corpus.samples[idx], corpus.labels[idx],
                                  corpus.artifact[idx], role)

    return part(perm[:cut], Role.TRAIN), part(perm[cut:], Role.VALIDATION)


# -------------------------------------------------- artifact envelope

def write_artifact(path, header: dict, payload_lines: list[str]) -> None:
    """Write `version=`, the header's key=value lines, `checksum=` (the
    sha256 of the payload), then the payload lines."""
    payload = "".join(line + "\n" for line in payload_lines)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    header = {"version": FORMAT_VERSION, **header, "checksum": digest}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(f"{k}={v}\n" for k, v in header.items()) + payload)


class _Artifact:
    """A checked artifact header and a cursor over its payload lines.
    Every parse error names path:line."""

    def __init__(self, path, required_keys):
        """Read a file from `write_artifact`. The header must be exactly
        the version, `required_keys` and the checksum, in that order; the
        version and the checksum must match."""
        # undecodable bytes become U+FFFD and so fail the header or checksum check
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines(keepends=True)
        expected = ["version", *required_keys, "checksum"]
        header = dict(line.rstrip("\n").partition("=")[::2] for line in lines[:len(expected)])
        if list(header) != expected:
            missing = [k for k in expected if k not in header]
            raise ArtifactFileError(
                f"{path}: missing header field {missing[0]!r}" if missing
                else f"{path}: header fields {list(header)}, expected {expected}")
        if header["version"] != FORMAT_VERSION:
            raise ArtifactFileError(f"{path}:1: unsupported version {header['version']!r}")
        payload = "".join(lines[len(expected):])
        if hashlib.sha256(payload.encode()).hexdigest() != header["checksum"]:
            raise ArtifactFileError(f"{path}: checksum mismatch")
        self.path, self.header = path, header
        self.lines = list(enumerate(payload.splitlines(), start=len(expected) + 1))
        self.pos = 0
        self.lineno = len(expected)

    def fail(self, message: str, lineno: int | None = None):
        raise ArtifactFileError(f"{self.path}:{lineno or self.lineno}: {message}")

    def field(self, key: str, parse=None, low=-math.inf):
        """Header value of `key`, parsed as by `number` if `parse` is given."""
        self.lineno = list(self.header).index(key) + 1
        value = self.header[key]
        return value if parse is None else self.number(value, parse, f"header field {key!r}", low)

    def number(self, token: str, parse, what: str, low=-math.inf, high=math.inf):
        """`parse(token)` (int or float), finite and in [low, high)."""
        try:
            value = parse(token)
        except ValueError:
            self.fail(f"{what}: {token!r} is not {'an integer' if parse is int else 'a number'}")
        if not math.isfinite(value):
            self.fail(f"{what}: {token!r} is not finite")
        if not low <= value < high:
            self.fail(f"{what}: {token!r} is out of range")
        return value

    def next(self, what: str) -> str:
        if self.pos == len(self.lines):
            self.lineno += 1
            self.fail(f"payload ends before {what}")
        self.lineno, line = self.lines[self.pos]
        self.pos += 1
        return line

    def rows(self, n: int, line_what: str, width: int, sep: str | None, what: str,
             value_text=None) -> np.ndarray:
        """The next n payload lines as an (n, width) array of reals, read
        by `_real_rows` with `sep` and `what`. `value_text(line)` checks a
        line (its label, its value count) and returns its value text; by
        default the whole line is. A fault (a failed check, or a line
        missing: `line_what`, in which `{}` becomes the row's index) is
        raised once the lines above it are read, so the first bad line
        of a file is named."""
        linenos, texts, error = [], [], None
        try:
            for i in range(n):
                line = self.next(line_what.format(i))
                texts.append(value_text(line) if value_text else line)
                linenos.append(self.lineno)
        except ArtifactFileError as e:
            error = e
        values = _real_rows(self.path, linenos, texts, width, sep, what)
        if error:
            raise error
        return values

    def finish(self) -> None:
        if self.pos < len(self.lines):
            self.lineno, line = self.lines[self.pos]
            self.fail(f"unexpected payload line {line!r}")


# ----------------------------------------------------------- law file

def save_law(law: LinearLaw, path) -> None:
    write_artifact(path, {"class": law.class_tag, "l": law.width,
                          "lambda": _fmt(law.lam), "rows": law.train_row_count},
                   _real_lines(law.w[:, None], ","))


def load_law(path) -> LinearLaw:
    a = _Artifact(path, ("class", "l", "lambda", "rows"))
    width = a.field("l", int, 1)
    lam = a.field("lambda", float)
    rows = a.field("rows", int, 0)
    w = a.rows(width, "coefficient", 1, ",", "coefficient")
    a.finish()
    try:
        return LinearLaw(w=w.ravel(), lam=lam, class_tag=a.header["class"],
                         train_row_count=rows)
    except ValueError as e:
        raise ArtifactFileError(f"{path}: {e}") from None


# --------------------------------------------------------- model file

# Payload fields of each model kind in file order: (name, type, sizes).
# Types: "real", "count" and "metric" are `param name=value` lines,
# "forest" is `param name=<trees>` then the trees, "labels" an ivector of
# label indices, "matrix" and "vector" a `matrix name rows cols` block.
# Size letters must agree across fields: d is feature_dim, c the number
# of labels, 1 is one; any other letter is set by the first field read.
_MODEL_FIELDS = {
    "knn": (("k", "count", ""), ("metric", "metric", ""),
            ("X", "matrix", "nd"), ("y", "labels", "n")),
    "svm-linear": (("b", "real", ""), ("w", "vector", "1d")),
    "svm-rbf": (("b", "real", ""), ("gamma", "real", ""),
                ("coef", "vector", "1n"), ("support_vectors", "matrix", "nd")),
    "rf": (("trees", "forest", ""),),
    "mlp": (("W1", "matrix", "dh"), ("b1", "vector", "1h"),
            ("W2", "matrix", "hc"), ("b2", "vector", "1c")),
}


def _tree_lines(root: dict) -> list[str]:
    """A CART tree as node lines numbered in preorder: a split's left
    child follows it and its right child follows the left subtree. Kept
    on an explicit stack, as a tree may be deeper than the recursion
    limit: a split's line gets its right child's id when that child is
    reached."""
    lines: list[str] = []
    stack = [(root, None)]  # (node, index of the split line it is the right child of)
    while stack:
        node, parent = stack.pop()
        j = len(lines)
        if parent is not None:
            lines[parent] += f" {j}"
        if "leaf" in node:
            lines.append(f"node {j} leaf {node['leaf']}")
        else:
            lines.append(f"node {j} split {node['feature']} {_fmt(node['threshold'])} {j + 1}")
            stack += [(node["right"], j), (node["left"], None)]
    return lines


def _field_lines(name: str, typ: str, value) -> list[str]:
    if typ == "real":
        return [f"param {name}={_fmt(value)}"]
    if typ in ("count", "metric"):
        return [f"param {name}={value}"]
    if typ == "labels":
        return [f"ivector {name} " + " ".join(str(int(v)) for v in value)]
    if typ == "forest":
        lines = [f"param {name}={len(value)}"]
        for i, tree in enumerate(value):
            nodes = _tree_lines(tree)
            lines += [f"tree {i} {len(nodes)}", *nodes]
        return lines
    arr = np.atleast_2d(value)
    return [f"matrix {name} {arr.shape[0]} {arr.shape[1]}", *_real_lines(arr, " ")]


def _read_tree(a: _Artifact, i: int, sizes: dict) -> dict:
    """Tree i, whose nodes must be numbered in the preorder that
    `_tree_lines` writes: split node j's left child is j + 1, its right
    child the first id after its left subtree, and every node is reached
    from node 0. Read in one pass without recursion, as the file sets
    the depth: each node fills the open child slot on top of a stack."""
    t = a.next(f"tree {i}").split()
    if t[:2] != ["tree", str(i)] or len(t) != 3:
        a.fail(f"expected 'tree {i} NODES', got {' '.join(t)!r}")
    n = a.number(t[2], int, "node count", 1)
    top = {}
    slots = [(top, "root", 0, a.lineno)]  # (parent, key, child id in the file, its line)

    def fill(j: int, node) -> None:
        parent, key, want, line = slots.pop()
        if want != j:
            a.fail(f"right child {want} must be {j}, the id after the left subtree", line)
        parent[key] = node

    for j in range(n):
        t = a.next(f"node {j} of tree {i}").split()
        if not slots:
            a.fail(f"node {j} of tree {i} is not reached from node 0")
        if t[:3] == ["node", str(j), "leaf"] and len(t) == 4:
            fill(j, {"leaf": a.number(t[3], int, "leaf label", 0, sizes["c"])})
        elif t[:3] == ["node", str(j), "split"] and len(t) == 7:
            node = {"feature": a.number(t[3], int, "split feature", 0, sizes["d"]),
                    "threshold": a.number(t[4], float, "split threshold")}
            left = a.number(t[5], int, "left child", j + 1, n)
            if left != j + 1:
                a.fail(f"left child {left} must be {j + 1}")
            right = a.number(t[6], int, "right child", 0, n)
            fill(j, node)
            slots += [(node, "right", right, a.lineno), (node, "left", j + 1, a.lineno)]
        else:
            a.fail(f"expected node {j} of {n}, got {' '.join(t)!r}")
    if slots:  # a right child past the last node
        fill(n, None)
    return top["root"]


def _read_field(a: _Artifact, name: str, typ: str, letters: str, sizes: dict):
    if typ in ("real", "count", "forest", "metric"):
        line = a.next(f"param {name}")
        if not line.startswith(f"param {name}="):
            a.fail(f"expected 'param {name}=', got {line!r}")
        value = line[len(f"param {name}="):]
        if typ == "real":
            return a.number(value, float, name)
        if typ == "metric":
            if value != "chebyshev":
                a.fail(f"unknown metric {value!r}")
            return value
        count = a.number(value, int, name, 1)
        return count if typ == "count" else [_read_tree(a, i, sizes) for i in range(count)]
    head = "ivector" if typ == "labels" else "matrix"
    t = a.next(f"{head} {name}").split()
    if t[:2] != [head, name] or (head == "matrix" and len(t) != 4):
        a.fail(f"expected {head} {name}, got {' '.join(t)!r}")
    values = [a.number(v, int, name, 0, sizes["c"] if typ == "labels" else math.inf)
              for v in t[2:]]
    shape = [len(values)] if typ == "labels" else values
    for letter, size in zip(letters, shape):
        if sizes.setdefault(letter, size) != size:
            a.fail(f"{name}: size {size} disagrees with {sizes[letter]}")
    if typ == "labels":
        return np.array(values, dtype=int)
    rows, cols = shape

    def counted(line: str) -> str:
        n = len(line.split())
        if n != cols:
            a.fail(f"{name}: expected {cols} values, got {n}")
        return line

    arr = a.rows(rows, "row {} of " + name, cols, None, name, counted)
    return arr.ravel() if typ == "vector" else arr


def save_model(model: TrainedModel, path) -> None:
    write_artifact(path, {"kind": model.kind, "feature_dim": model.feature_dim,
                          "labels": ",".join(model.labels)},
                   [line for name, typ, _ in _MODEL_FIELDS[model.kind]
                    for line in _field_lines(name, typ, model.params[name])])


def load_model(path) -> TrainedModel:
    a = _Artifact(path, ("kind", "feature_dim", "labels"))
    kind = a.field("kind")
    if kind not in _MODEL_FIELDS:
        a.fail(f"unknown model kind {kind!r}")
    feature_dim = a.field("feature_dim", int, 1)
    labels = a.field("labels").split(",")
    # a fit indexes its two classes in sorted order, and a model file's
    # header is not under its checksum: a swapped list would invert every label
    want = sorted((Label.NORMAL.value, Label.ECTOPIC.value))
    if labels != want:
        a.fail(f"bad label list {a.header['labels']!r} for {kind}: "
               f"expected {','.join(want)!r}")
    sizes = {"1": 1, "d": feature_dim, "c": len(labels)}
    params, at = {}, {}  # at: field -> its last line, a param's only one
    for name, typ, letters in _MODEL_FIELDS[kind]:
        params[name] = _read_field(a, name, typ, letters, sizes)
        at[name] = a.lineno
    a.finish()
    # values that no fit writes: they would fail unnamed or mispredict
    if kind == "knn" and params["k"] > sizes["n"]:
        a.fail(f"k={params['k']} exceeds the {sizes['n']} rows of matrix X", at["k"])
    if kind == "svm-rbf" and params["gamma"] <= 0:
        a.fail(f"gamma must be > 0, got {params['gamma']}", at["gamma"])
    return TrainedModel(kind=kind, feature_dim=feature_dim, labels=labels, params=params)


# ------------------------------------------------------- feature file

def save_features(path, X: np.ndarray, labels: list[str],
                  layout: list[tuple[str, int]]) -> None:
    write_artifact(path, {"layout": ";".join(f"{tag}:{n}" for tag, n in layout),
                          "rows": len(labels)},
                   [str(lbl) + "," + row for lbl, row in zip(labels, _real_lines(X, ","))])


def load_features(path) -> tuple[np.ndarray, list[str], list[tuple[str, int]]]:
    a = _Artifact(path, ("layout", "rows"))
    layout = []
    for part in a.field("layout").split(";"):
        tag, _, n = part.rpartition(":")
        if not tag:
            a.fail(f"expected layout TAG:COUNT;..., got {a.header['layout']!r}")
        layout.append((tag, a.number(n, int, f"layout segment {tag!r}", 1)))
    n_rows = a.field("rows", int, 0)
    width = sum(n for _, n in layout)
    labels = []

    def labelled(line: str) -> str:
        label, sep, values = line.partition(",")
        try:
            Label.from_token(label)
        except ValueError as e:
            a.fail(f"feature row: {e}")
        n = values.count(",") + 1 if sep else 0
        if n != width:
            a.fail(f"feature row: expected {width} values, got {n}")
        labels.append(label)
        return values

    X = a.rows(n_rows, "feature row {}", width, ",", "feature row", labelled)
    a.finish()
    return X, labels, layout
