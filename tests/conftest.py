import math
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

# Hypothesis imports its patch writer lazily, while reporting a failing
# example; under `-W error` a DeprecationWarning that mypy_extensions
# raises on that import turns the report into a pytest INTERNALERROR
# with no falsifying example. Import it here with the warning ignored.
# The patch writer needs libcst, which hypothesis installs only with its
# `codemods` extra; without it hypothesis skips the patch and so may we.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from llt import classifiers, linear_law
from llt.preprocess import FILTER_ORDER
from llt.synth import PHASE_SPAN
from llt.types import Beat, Label, LinearLaw, Role


def sinusoid_beats(omega, n_beats, length=30, noise=0.0, seed=0,
                   label=Label.NORMAL, phase_span=2 * np.pi):
    rng = np.random.default_rng(seed)
    beats = []
    for _ in range(n_beats):
        phase = rng.uniform(0.0, phase_span)
        amp = rng.uniform(0.5, 1.5)
        y = amp * np.cos(omega * np.arange(length) + phase)
        if noise > 0:
            y = y + noise * rng.standard_normal(length)
        beats.append(Beat(samples=y, label=label))
    return beats


def synth_parts(spec):
    """Oracle of `synth.generate`: one Beat per synthetic beat, drawn in
    a loop (class A's beats, then class B's; each its phase, its
    amplitude, then its noise), and each class's beats cut 40/30/30
    into the train, validation and test lists, class A's first."""
    rng = np.random.default_rng(spec.seed)
    k = np.arange(spec.window_len)
    beats_by_class = {}
    for label, omega in ((Label.NORMAL, spec.omega_a), (Label.ECTOPIC, spec.omega_b)):
        beats = []
        for _ in range(spec.beats):
            phase = rng.uniform(0.0, PHASE_SPAN)
            amp = rng.uniform(0.5, 1.5)
            y = amp * np.cos(omega * k + phase)
            if spec.noise > 0:
                y = y + spec.noise * rng.standard_normal(spec.window_len)
            beats.append(Beat(samples=y, label=label, source_id="synth"))
        beats_by_class[label] = beats
    n_train, n_val = round(0.4 * spec.beats), round(0.3 * spec.beats)
    parts = {Role.TRAIN: [], Role.VALIDATION: [], Role.TEST: []}
    for beats in beats_by_class.values():
        parts[Role.TRAIN] += beats[:n_train]
        parts[Role.VALIDATION] += beats[n_train : n_train + n_val]
        parts[Role.TEST] += beats[n_train + n_val :]
    return parts


def random_beats(n_beats, length, seed=0, label=Label.NORMAL):
    rng = np.random.default_rng(seed)
    return [Beat(samples=rng.standard_normal(length), label=label)
            for _ in range(n_beats)]


def embed_series(values, width):
    """Oracle of `embedding.embed_class` on one series: the
    (n - width + 1, width) matrix whose row j holds [v[j+width-1],
    v[j+width-2], ..., v[j]], the window ending at j+width-1, newest
    first."""
    values = np.asarray(values, dtype=float)
    return np.ascontiguousarray(sliding_window_view(values, width)[:, ::-1])


def embed_class_oracle(samples, width):
    """Oracle of `embedding.embed_class` on an (N, L) sample array, as
    it was first written: `sliding_window_view` reversed along the lag
    axis, copied C-contiguous."""
    windows = sliding_window_view(samples, width, axis=1)[:, :, ::-1]
    return np.ascontiguousarray(windows.reshape(-1, width))


def correlation_oracle(Y):
    """Oracle of `linear_law.correlation` on a matrix of windows, as it
    was first written: the product's upper triangle mirrored."""
    M = Y.T @ Y / Y.shape[0]
    upper = np.triu(M)
    return upper + upper.T - np.diag(np.diag(M))


def scan_oracle(train_rows, val_rows, widths):
    """Oracle of `linear_law.scan_law_length`'s CSV on the sample arrays
    of the class, from `embed_class_oracle`, `correlation_oracle` and the
    law arithmetic as first written (`np.linalg.norm`, `np.mean` of the
    squared residuals), with the gap's overflow to inf silenced; None
    if some width's law is ambiguous."""
    entries = []
    for width in widths:
        Y = embed_class_oracle(train_rows, width)
        C = correlation_oracle(Y)
        evals, evecs = np.linalg.eigh(C)
        lam = float(evals[0])
        scale = max(float(np.trace(C)), np.finfo(float).tiny)
        if int(np.sum(evals - lam <= linear_law.DEGENERACY_RTOL * scale)) > 1:
            return None
        w = evecs[:, 0].copy()
        w = -w if w[np.flatnonzero(w)[0]] < 0 else w
        w = w / np.linalg.norm(w)
        lam = float(np.mean((Y @ w) ** 2))
        var_val = float(np.mean((embed_class_oracle(val_rows, width) @ w) ** 2))
        with np.errstate(over="ignore"):
            gap = abs(var_val - lam) / (lam if lam > 0 else np.finfo(float).tiny)
        entries.append(linear_law.ScanEntry(width, lam, var_val, gap,
                                            train_rows.shape[1] - width + 1))
    return linear_law.LawScanReport(entries).to_csv()


def exact_law(omega, width, class_tag="Normal"):
    """Analytic law of the sinusoids of angular frequency `omega`,
    (1, -2 cos(omega), 1) normalised and zero-padded to `width` at the
    older-lag end (rows are newest-first)."""
    if width < 3:
        raise ValueError(f"a sinusoid's law needs width >= 3, got {width}")
    w = np.zeros(width)
    w[:3] = 1.0, -2.0 * np.cos(omega), 1.0
    return LinearLaw(w=w / np.linalg.norm(w), lam=0.0, class_tag=class_tag)


def tree_depth(node):
    """Depth of a CART tree of `classifiers.rf_fit`; a leaf has depth 0."""
    if "leaf" in node:
        return 0
    return 1 + max(tree_depth(node["left"]), tree_depth(node["right"]))


def tree_predict(node, x):
    """Oracle of one tree's vote in `classifiers.predict_batch`: walk
    the row x from the root, left where x[feature] < threshold."""
    while "leaf" not in node:
        node = node["left"] if x[node["feature"]] < node["threshold"] else node["right"]
    return node["leaf"]


def mlp_loss_grad(params, X, targets):
    """Cross-entropy loss and analytic gradients of the tanh network at
    `params`, from the function `classifiers.mlp_fit` minimises, which
    leaves out the fit's L2 term; `targets` are class indices (0/1)."""
    X, targets = np.asarray(X, dtype=float), np.asarray(targets)
    names, hidden = ("W1", "b1", "W2", "b2"), len(params["b1"])
    theta = np.concatenate([params[k].ravel() for k in names])
    grad = np.empty_like(theta)
    loss = classifiers._mlp_loss_grad(theta, grad, X, np.eye(2)[targets],
                                      2 * np.arange(len(X)) + targets, hidden)
    return loss, dict(zip(names, classifiers._unpack(grad, X.shape[1], hidden)))


def record_chain_peaks(v, fs, config):
    """Oracle of `preprocess.detect_peaks`, as the chain was first
    written: candidates from `np.flatnonzero` of the local-maximum mask
    over the threshold, accepted tallest first (index breaks ties)
    under the refractory gap."""
    gap = max(1, round(config.refractory_ms / 1000.0 * fs))
    if len(v) < 3 or v.max() <= 0:
        return []
    thr = config.peak_threshold * v.max()
    m = v[1:-1]
    cand = (np.flatnonzero((m >= v[:-2]) & (m > v[2:]) & (m > thr)) + 1).tolist()
    accepted = []
    for i in sorted(cand, key=lambda i: (-v[i], i)):
        if all(abs(i - j) >= gap for j in accepted):
            accepted.append(i)
    return sorted(accepted)


def record_chain_cut(filtered, fs, config, label=Label.UNLABELED, source_id=""):
    """Oracle of `preprocess.preprocess_record` after the band-pass: the
    one beat of the `filtered` samples, the window_len samples around a
    single peak at window_len // 2, minus `np.mean`, over
    `np.max(np.abs(...))`; a zero artifact beat when there is not one
    peak, the window overruns or it is constant."""
    n = config.window_len
    peaks = record_chain_peaks(filtered, fs, config)
    start = peaks[0] - n // 2 if len(peaks) == 1 else -1
    window = filtered[start : start + n] if start >= 0 else filtered[:0]
    if len(window) < n or window.max() == window.min():
        return Beat(samples=np.zeros(n), label=label, artifact=True, source_id=source_id)
    centered = window - np.mean(window)
    return Beat(samples=centered / np.max(np.abs(centered)), label=label,
                source_id=source_id)


def record_chain(sig, config, label=Label.UNLABELED, source_id=""):
    """Oracle of `preprocess.preprocess_record`: the public
    `scipy.signal.sosfiltfilt` with a fresh Butterworth high-pass, then
    low-pass, then `record_chain_cut`."""
    from scipy import signal  # about a second to import; only this oracle needs it

    def zero_phase(cutoff, btype, x):
        return signal.sosfiltfilt(
            signal.butter(FILTER_ORDER, cutoff, btype, fs=sig.fs, output="sos"), x)

    filtered = zero_phase(config.lowpass, "lowpass",
                          zero_phase(config.highpass, "highpass", sig.values))
    return record_chain_cut(filtered, sig.fs, config, label, source_id)


def float_rows(path):
    """Oracle of `dataset_io.load_corpus` on a well-formed beat CSV: per
    line that is neither blank nor a `#` comment, its label token, its
    artifact flag and `float()` of each of its value cells, in file
    order."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                token, *cells = line.split(",")
                token = token.strip()
                rows.append((token.removesuffix("*"), token.endswith("*"),
                             [float(c) for c in cells]))
    return rows


def raw_records(path):
    """Oracle of `dataset_io.load_raw_signals`, one line at a time: per
    line that is neither blank nor a `#` comment, its rate and `float()`
    of each of its value cells, in file order; or, if a line's rate is
    not a positive finite number after a `;` or one of its cells is not
    a finite number, the number of the first such line."""
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fs, sep, cells = line.partition(";")
            try:
                fs, values = float(fs), [float(c) for c in cells.split(",")]
            except ValueError:
                return lineno
            if not (sep and 0.0 < fs < math.inf and all(map(math.isfinite, values))):
                return lineno
            records.append((fs, values))
    return records


def beat_rows(path):
    """Oracle of `dataset_io.load_corpus` as one Beat per row: a Beat of
    each row of `float_rows`, in file order."""
    return [Beat(samples=np.array(cells), label=Label(token), artifact=artifact)
            for token, artifact, cells in float_rows(path)]


def beat_split(beats, spec):
    """Oracle of `dataset_io.split_train_validation` on a list of beats:
    the same seeded permutation, cut at floor(fraction * N), as two
    lists of the beats themselves."""
    perm = np.random.default_rng(spec.seed).permutation(len(beats))
    cut = math.floor(spec.train_fraction * len(beats))
    return [beats[i] for i in perm[:cut]], [beats[i] for i in perm[cut:]]


@pytest.fixture
def sin_beats():
    return sinusoid_beats(0.3, 20, length=30, seed=1)
