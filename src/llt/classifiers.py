"""Classifiers trained on law-residual features, implemented natively:
Chebyshev KNN, linear and RBF soft-margin SVMs, random forest
(CART/Gini bagging) and a one-hidden-layer network.

Every fit is deterministic given (features, labels, hyperparameters):
the seed drives all shuffling, bootstrapping and initialization. Every
fit first checks its training set in `_training_set`: finite 2-D
features, one label per row and exactly 2 classes, the two that a
model file holds; it indexes the classes in sorted order.

Both SVMs solve the same dual with one SMO solver (second-order working
set selection, as in LIBSVM) on their kernel matrix, X Xᵀ or the RBF
kernel. Each step is one move along yᵀα = const, capped where LIBSVM's
test puts the first bound. The solver returns only at a
maximal-violating-pair gap of at most SMO_TOL, and otherwise raises
ConvergenceError naming the gap: at once if the gap is not finite, else
after _SMO_MAX_ITER iterations. The linear model stores w = Σ αᵢyᵢxᵢ,
so both model layouts keep their fields. Where the RBF kernel's squared
distances, its default γ's variance or that γ overflow (γ does where the
variance underflows), in fit or predict, a ValueError names the largest
feature magnitude.

KNN and the forest count votes for label 1 of the two; label 1 wins
with more than half of them. The forest's split search sorts each
candidate feature once per node and reads the left-hand label-1 count
of every midpoint threshold off one prefix sum of the sorted labels
(`searchsorted(..., "left")` counts exactly the rows `x < thr`), then
scores all thresholds' Gini impurities in one array expression and
picks the best in one Python pass over them. The forest predicts node
by node: each node splits the indices of the rows that reach it, and a
leaf of label 1 adds one vote to each of its rows; a tie goes to label
0. KNN predicts a whole batch: distances in row blocks of at most
_KNN_BLOCK_ENTRIES entries and the k-th distance per row by partition.
A row with exactly k entries within its k-th distance has them as the
first k of a stable sort of the row, so its label-1 votes are one count
over the block. Only the rows with more than k such entries (a distance
tie at the k-th place) or with a vote tie have their entries put in
stable order, all at once, by (row, distance, column) with two stable
argsorts, and take the first k; for a vote tie, label 1 wins exactly
when its neighbours' summed distance, taken in that order, is smaller.

The network is fitted by limited-memory BFGS (Liu & Nocedal, Math.
Programming 45, 1989) to mean cross-entropy plus ½·MLP_L2·‖θ‖²; the
separable corpora have no minimiser without the penalty. It runs on
`X / s`, s = X.std() (1 if that is 0) as `_std` computes it without
overflow, the scalar rule of `rbf_gamma_default`, and stores W1 / s, so
the model layout and predict take raw features. Each step takes the
two-loop direction from the last _MLP_MEMORY curvature pairs (a pair
with sᵀy <= 0 is dropped) and backtracks from step 1 until the Armijo
condition holds. The fit
returns only when every gradient entry is at most MLP_TOL, and raises
ConvergenceError naming the gradient and the iteration otherwise: at
_MLP_MAX_ITER iterations, a non-finite loss or a step too small to move
θ. `_mlp_loss_grad` reads one flat parameter vector and writes one flat
gradient vector, with W1, b1, W2 and b2 as their reshaped views
(`_unpack`). Its cost is its count of numpy calls, and three choices
lower that count and keep every bit of the plain per-array form: the
softmax's row max and row sum are one `maximum` and one `add` of the
two column views (a max or a sum of two numbers is exact), the target
terms are one `take` at precomputed flat indices (and p - onehot leaves
the other entries as they are, p - 0.0 == p), and the mean and the
bias gradients are `np.add.reduce`, the reduction that `mean` and
`sum` run behind their Python wrappers. The matrix products and axis-0
sums run on arrays of the same shape and layout as in that form.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field

import numpy as np

from .types import ConvergenceError

# the SVM solver stops when its maximal-violating-pair gap is at most this
SMO_TOL = 1e-3
# SMO iterations after which the SVM solver raises ConvergenceError; a
# linear kernel at a large C·‖x‖² can miss SMO_TOL even here on twenty rows
_SMO_MAX_ITER = 1_000_000
# least curvature Kᵢᵢ + Kⱼⱼ - 2Kᵢⱼ the SMO step divides by (LIBSVM's TAU,
# here also for tiny positive ones, whose b²/a and step would overflow)
_SMO_TAU = 1e-12
# the network's fit stops when every entry of its gradient is at most this
MLP_TOL = 1e-6
# weight of the network objective's ½‖θ‖² term, over all of θ
MLP_L2 = 1e-3
# L-BFGS iterations after which the network's fit raises ConvergenceError
_MLP_MAX_ITER = 10_000
# curvature pairs the L-BFGS direction is built from
_MLP_MEMORY = 10
# most distances (query rows x training rows) one KNN predict block holds
_KNN_BLOCK_ENTRIES = 1 << 20


@dataclass
class Hyperparams:
    knn_k: int = 4
    rf_estimators: int = 10
    rf_depth: int = 6
    svm_c: float = 1.0
    rbf_gamma: float = 0.0  # 0 -> 1 / (dim * var(features))
    mlp_hidden: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("knn_k", "rf_estimators", "rf_depth", "mlp_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.svm_c) and self.svm_c > 0):
            raise ValueError(f"svm_c must be finite and positive, got {self.svm_c}")
        if not (math.isfinite(self.rbf_gamma) and self.rbf_gamma >= 0):
            raise ValueError(f"rbf_gamma must be finite and positive, or 0 for auto, "
                             f"got {self.rbf_gamma}")


@dataclass
class TrainedModel:
    kind: str  # knn | svm-linear | svm-rbf | rf | mlp
    feature_dim: int
    labels: list[str]  # index -> label token, sorted
    params: dict
    # SMO iterations, gap and (RBF) objective history; the network's
    # L-BFGS iterations, largest gradient entry and objective at its θ
    train_meta: dict = field(default_factory=dict)


def _check_finite(X: np.ndarray) -> None:
    """A ValueError naming the first row of X that holds a NaN or inf."""
    bad = ~np.isfinite(X)
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        j = int(np.argmax(bad[i]))
        raise ValueError(f"feature row {i} is not finite: {X[i, j]} in column {j}")


def _training_set(X, y, name):
    """X as a finite 2-D float array, the sorted distinct label tokens of
    y and each row's index into them. A ValueError unless y gives one
    label per row from exactly 2 classes, the two a model file holds."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=str)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D array")
    if len(X) != len(y):
        raise ValueError(f"{len(X)} feature rows vs {len(y)} labels")
    _check_finite(X)
    labels, idx = np.unique(y, return_inverse=True)
    if len(labels) != 2:
        raise ValueError(f"{name} needs exactly 2 classes, got {len(labels)}")
    return X, labels.tolist(), idx


def _check_dim(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.feature_dim:
        raise ValueError(
            f"feature dimension mismatch: model expects {model.feature_dim}, "
            f"got {X.shape[1]}"
        )
    _check_finite(X)
    return X


def heuristic_k(n_train: int) -> int:
    """Square-root-of-N rule of thumb for the KNN neighbor count."""
    if n_train < 1:
        raise ValueError("need at least one training point")
    return max(1, round(np.sqrt(n_train)))


# ---------------------------------------------------------------- KNN

def knn_fit(X, y, hp: Hyperparams) -> TrainedModel:
    X, labels, yi = _training_set(X, y, "KNN")
    if hp.knn_k > len(X):
        raise ValueError(f"knn_k={hp.knn_k} exceeds training size {len(X)}")
    return TrainedModel(
        kind="knn",
        feature_dim=X.shape[1],
        labels=labels,
        params={"X": X, "y": yi, "k": hp.knn_k, "metric": "chebyshev"},
    )


def _knn_predict(p, Q):
    """Label indices for the query rows Q, in row blocks of at most
    _KNN_BLOCK_ENTRIES Chebyshev distances. Neighbours are the first k of
    a stable distance sort; label 1 wins with more than k / 2 of their
    votes, and a tie goes to label 1 only if its summed distance is
    smaller. A row with exactly k entries within its k-th distance (from
    a partition) has its votes counted from them at once, in any order;
    only the rows with a distance tie at the k-th place or a vote tie
    have those entries sorted, together."""
    from scipy.spatial.distance import cdist

    X, y, k = p["X"], p["y"], p["k"]
    ones_mask = y == 1
    out = np.empty(len(Q), dtype=int)
    rows = max(1, _KNN_BLOCK_ENTRIES // len(X))
    for start in range(0, len(Q), rows):
        B = Q[start:start + rows]
        D = cdist(B, X, "chebyshev")
        within = D <= np.partition(D, k - 1, axis=1)[:, k - 1:k]
        ones = np.count_nonzero(within & ones_mask, axis=1)
        pred = 2 * ones > k
        tied = np.flatnonzero((np.count_nonzero(within, axis=1) > k) | (2 * ones == k))
        if len(tied):
            # their entries by (row, distance, column): nonzero lists them
            # by (row, column), so a stable sort by distance and then one
            # by row gives that order, as a stable sort of each row does
            r, c = np.nonzero(within[tied])
            i = np.argsort(D[tied[r], c], kind="stable")
            c = c[i[np.argsort(r[i], kind="stable")]]
            order = c[np.searchsorted(r, np.arange(len(tied)))[:, None] + np.arange(k)]
            near = ones_mask[order]
            twice = 2 * np.count_nonzero(near, axis=1)
            pred[tied] = twice > k
            for j in np.flatnonzero(twice == k):
                d = D[tied[j], order[j]]
                pred[tied[j]] = d[near[j]].sum() < d[~near[j]].sum()
        out[start:start + len(B)] = pred
    return out


# ---------------------------------------------------------------- SVMs

def _smo(K, ys, C):
    """Solve the SVM dual  max Σα - ½αᵀQα  s.t. 0 <= α <= C, Σαᵢyᵢ = 0,
    with Qᵢⱼ = yᵢyⱼKᵢⱼ, by SMO with second-order working-set selection
    (Fan, Chen & Lin, JMLR 2005; LIBSVM's WSS2).

    The solver keeps v = -y∘G, where G = Qα - 1 is the gradient of
    ½αᵀQα - Σα; vᵢ = yᵢ - Σₜ αₜyₜKᵢₜ updates from two rows of the kernel
    matrix K as given, so no second n×n array is made. Each step is one
    move along yᵀα = const, αᵢ by yᵢt and αⱼ by -yⱼt with t = bⱼ/aⱼ
    (LIBSVM's |delta|), capped where LIBSVM's test on inv = αᵢ + yᵢyⱼαⱼ
    (its diff or total) puts the first bound, ties included. Returns
    (alpha, rho, gap, history): the decision value is
    Σ αᵢyᵢK(xᵢ, x) - rho, gap is the final maximal-violating-pair gap
    m(α) - M(α) <= SMO_TOL, and history holds the dual objective
    ½(Σα - αᵀG) at the start and after every iteration. Raises
    ConvergenceError with the gap after _SMO_MAX_ITER iterations, or in
    the first iteration whose gap is not finite.
    """
    diag = K.diagonal().copy()
    alpha = np.zeros(len(ys))
    v = ys.copy()
    up = ys > 0   # αᵢyᵢ can rise: yᵢ = +1 and αᵢ < C, or yᵢ = -1 and αᵢ > 0
    low = ~up     # αᵢyᵢ can fall: yᵢ = +1 and αᵢ > 0, or yᵢ = -1 and αᵢ < C
    history = [0.0]
    for it in range(_SMO_MAX_ITER + 1):
        i = int(np.argmax(np.where(up, v, -np.inf)))
        m = float(v[i])
        v_low = np.where(low, v, np.inf)
        M = v_low.min()
        gap = float(m - M)
        if gap <= SMO_TOL:
            break
        if not math.isfinite(gap):  # a NaN or inf kernel entry reached v
            raise ConvergenceError(f"SMO stopped in iteration {it}: KKT gap {gap} "
                                   f"is not finite")
        if it == _SMO_MAX_ITER:
            raise ConvergenceError(
                f"SMO did not converge in {_SMO_MAX_ITER} iterations "
                f"(KKT gap {gap:.3e} > {SMO_TOL:g})")
        Ki = K[i]
        a = np.maximum(diag[i] + diag - 2.0 * Ki, _SMO_TAU)  # Kᵢᵢ + Kₜₜ - 2Kᵢₜ
        # -b²/a is least where b = m - vₜ > 0 over `low`; 0 elsewhere
        b = np.maximum(m - v_low, 0.0)
        j = int(np.argmax(b * b / a))
        yi, yj = ys[i], ys[j]
        s, ai, aj = yi * yj, float(alpha[i]), float(alpha[j])
        inv = ai + s * aj
        t = float(b[j]) / float(a[j])
        ni, nj = ai + yi * t, aj - yj * t
        if (inv > (C if s > 0 else 0.0)) == (yi > 0):
            if ni > C if yi > 0 else ni < 0:
                ni = C if yi > 0 else 0.0
                nj = s * (inv - ni)
        elif nj < 0 if yj > 0 else nj > C:
            nj = 0.0 if yj > 0 else C
            ni = inv - s * nj
        v -= Ki * (yi * (ni - ai)) + K[j] * (yj * (nj - aj))
        for r, ar in ((i, ni), (j, nj)):
            alpha[r] = ar
            up[r] = ar < C if ys[r] > 0 else ar > 0
            low[r] = ar > 0 if ys[r] > 0 else ar < C
        history.append(0.5 * float(alpha.sum() + (alpha * ys) @ v))
    free = (alpha > 0) & (alpha < C)
    # with no free α, LIBSVM's midpoint of the bounds on rho, which are
    # -m and -M when every α sits at a bound
    rho = -float(v[free].mean()) if free.any() else -float(m + M) / 2.0
    return alpha, rho, gap, history


def linear_svm_fit(X, y, hp: Hyperparams) -> TrainedModel:
    """Soft-margin linear SVM: the SMO dual on the Gram matrix X Xᵀ,
    stored as w = Σ αᵢyᵢxᵢ and b = -rho; a ValueError naming the largest
    feature magnitude if a nonzero row's squared norm underflows to 0,
    as the dual then does not see that row."""
    X, labels, yi = _training_set(X, y, "linear SVM")
    ys = np.where(yi == 1, 1.0, -1.0)
    K = X @ X.T
    if (X.any(axis=1) & (K.diagonal() == 0)).any():
        top = float(np.abs(X).max())
        raise ValueError(f"linear SVM Gram matrix underflows on features of magnitude "
                         f"up to {top:.6g}")
    alpha, rho, gap, history = _smo(K, ys, hp.svm_c)
    return TrainedModel(
        kind="svm-linear",
        feature_dim=X.shape[1],
        labels=labels,
        params={"w": (alpha * ys) @ X, "b": -rho},
        train_meta={"iterations": len(history) - 1, "gap": gap},
    )


def _rbf_overflow(*arrays) -> ValueError:
    top = max(float(np.abs(a).max(initial=0.0)) for a in arrays)
    return ValueError(f"RBF kernel overflows on features of magnitude up to {top:.6g}")


def _rbf_kernel(A, B, gamma):
    """exp(-γ‖a - b‖²) for each row a of A and b of B; a ValueError
    naming the largest feature magnitude if a squared distance is not
    finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        aa = np.sum(A * A, axis=1)[:, None]
        bb = np.sum(B * B, axis=1)[None, :]
        d2 = aa + bb - 2.0 * (A @ B.T)
    if not np.isfinite(d2.max(initial=0.0)):
        raise _rbf_overflow(A, B)
    # in place: a fresh n × m array per step costs more than its arithmetic
    np.maximum(d2, 0.0, out=d2)
    d2 *= -gamma
    return np.exp(d2, out=d2)


def rbf_gamma_default(X: np.ndarray) -> float:
    """1 / (features · X.var()), or 1 if X is constant (`_std`, which
    does not underflow, is 0); a ValueError naming the largest feature
    magnitude where that reciprocal is not finite and positive: the
    variance overflows, or on nonconstant X it is 0 or too small."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = X.var()
        gamma = 1.0 / (X.shape[1] * v)
    if v == 0 and _std(X) == 0:
        return 1.0
    if not 0 < gamma < math.inf:
        raise _rbf_overflow(X)
    return gamma


def rbf_svm_fit(X, y, hp: Hyperparams) -> TrainedModel:
    """Soft-margin SVM with an RBF kernel: the SMO dual on K(X, X),
    stored as its support vectors (α > 0), αᵢyᵢ and b = -rho."""
    X, labels, yi = _training_set(X, y, "RBF SVM")
    ys = np.where(yi == 1, 1.0, -1.0)
    gamma = hp.rbf_gamma or rbf_gamma_default(X)
    alpha, rho, gap, history = _smo(_rbf_kernel(X, X, gamma), ys, hp.svm_c)
    sv = alpha > 0
    return TrainedModel(
        kind="svm-rbf",
        feature_dim=X.shape[1],
        labels=labels,
        params={
            "support_vectors": X[sv],
            "coef": alpha[sv] * ys[sv],  # alpha_i * y_i
            "b": -rho,
            "gamma": gamma,
        },
        train_meta={"iterations": len(history) - 1, "gap": gap,
                    "objective_history": history},
    )


# ------------------------------------------------------- random forest

def _best_split(X, y, feats):
    """Lowest weighted Gini over every feature in feats (ascending) and
    every midpoint between its distinct values, as (impurity, feature,
    threshold), or None. A later candidate replaces the best only when it
    is lower by more than 1e-15, so ties keep the first in scan order."""
    n, ones = len(y), y.sum()
    best = None
    for f in np.sort(feats):
        order = np.argsort(X[:, f], kind="stable")
        col = X[order, f]
        vals = col[np.concatenate(([True], col[1:] != col[:-1]))]
        if len(vals) < 2:
            continue
        # (a + b) / 2 overflows above about 9e307; the sum of the halves
        # equals it wherever it is finite, unless a half is subnormal
        thr = vals[:-1] / 2.0 + vals[1:] / 2.0
        # nl = #(X[:, f] < thr), its label-1 count off the prefix sum; a
        # midpoint that rounds onto vals[0] empties a side
        nl = np.searchsorted(col, thr, "left")
        keep = (nl > 0) & (nl < n)
        thr, nl = thr[keep], nl[keep]
        l1 = np.cumsum(y[order])[nl - 1]
        nr, r1 = n - nl, ones - l1
        p0, p1 = (nl - l1) / nl, l1 / nl
        q0, q1 = (nr - r1) / nr, r1 / nr
        gl = 1.0 - (p0 * p0 + p1 * p1)
        gr = 1.0 - (q0 * q0 + q1 * q1)
        imp = (nl * gl + nr * gr) / n
        for j, v in enumerate(imp.tolist()):
            if best is None or v < best[0] - 1e-15:
                best = (v, f, float(thr[j]))
    return best


def _build_tree(X, y, depth_left, rng, n_sub):
    ones = y.sum()
    leaf = {"leaf": int(2 * ones > len(y))}  # a tie goes to label 0
    if depth_left == 0 or ones in (0, len(y)):
        return leaf
    best = _best_split(X, y, rng.permutation(X.shape[1])[:n_sub])
    if best is None:
        return leaf
    _, f, thr = best
    mask = X[:, f] < thr
    return {
        "feature": int(f),
        "threshold": thr,
        "left": _build_tree(X[mask], y[mask], depth_left - 1, rng, n_sub),
        "right": _build_tree(X[~mask], y[~mask], depth_left - 1, rng, n_sub),
    }


def rf_fit(X, y, hp: Hyperparams) -> TrainedModel:
    """Bagged CART trees: Gini splits, sqrt(d) feature subset per split,
    seeded bootstrap per tree."""
    X, labels, yi = _training_set(X, y, "random forest")
    n, d = X.shape
    n_sub = max(1, round(np.sqrt(d)))
    trees = []
    for t in range(hp.rf_estimators):
        rng = np.random.default_rng([hp.seed, t])
        boot = rng.integers(0, n, n)
        trees.append(_build_tree(X[boot], yi[boot], hp.rf_depth, rng, n_sub))
    return TrainedModel(
        kind="rf",
        feature_dim=d,
        labels=labels,
        params={"trees": trees},
    )


def _forest_votes(trees, X) -> np.ndarray:
    """The number of trees whose leaf label is 1, for each row of X. Each
    tree splits the row indices at every node it reaches by the node's
    test `x[feature] < threshold`, so all rows pass a node at once."""
    votes = np.zeros(len(X), dtype=int)
    for tree in trees:
        stack = [(tree, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if not len(rows):
                continue
            if "leaf" in node:
                votes[rows] += node["leaf"]
            else:
                left = X[rows, node["feature"]] < node["threshold"]
                stack += [(node["left"], rows[left]), (node["right"], rows[~left])]
    return votes


# ---------------------------------------------------------------- MLP

def mlp_init(feature_dim: int, hidden: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "W1": rng.standard_normal((feature_dim, hidden)) / np.sqrt(feature_dim),
        "b1": np.zeros(hidden),
        "W2": rng.standard_normal((hidden, 2)) / np.sqrt(hidden),
        "b2": np.zeros(2),
    }


def _unpack(vec: np.ndarray, d: int, hidden: int):
    """W1, b1, W2 and b2 of the d-hidden-2 network as reshaped views of
    `vec`, a flat parameter vector or its gradient."""
    a, b, c = d * hidden, (d + 1) * hidden, (d + 3) * hidden
    return vec[:a].reshape(d, hidden), vec[a:b], vec[b:c].reshape(hidden, 2), vec[c:]


def _mlp_loss_grad(theta, grad, X, onehot, pick, hidden) -> float:
    """Mean cross-entropy of the tanh network with parameters `theta` on
    the rows of X, whose targets are the rows of `onehot` and the flat
    indices `pick` of their ones; writes its gradient into `grad`."""
    W1, b1, W2, b2 = _unpack(theta, X.shape[1], hidden)
    gW1, gb1, gW2, gb2 = _unpack(grad, X.shape[1], hidden)
    h = np.tanh(X @ W1 + b1)
    z = h @ W2 + b2
    # softmax over the two columns; a max or sum of two is exact
    e = np.exp(z - np.maximum(z[:, 0], z[:, 1])[:, None])
    p = e / np.add(e[:, 0], e[:, 1])[:, None]
    loss = -float(np.add.reduce(np.log(p.take(pick) + 1e-300)) / len(X))
    dz = (p - onehot) / len(X)
    np.matmul(h.T, dz, out=gW2)
    np.add.reduce(dz, axis=0, out=gb2)
    dh = (dz @ W2.T) * (1.0 - h * h)
    np.matmul(X.T, dh, out=gW1)
    np.add.reduce(dh, axis=0, out=gb1)
    return loss


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g, for the L-BFGS inverse-Hessian estimate H of the curvature
    pairs (s, y, 1 / sᵀy), oldest first: the two-loop recursion from
    the initial estimate sᵀy / yᵀy · I of the newest pair."""
    q = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    if pairs:
        _, y, rho = pairs[-1]
        q /= rho * (y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return q


def _std(X: np.ndarray) -> float:
    """X.std() as m · (X / m).std(), m the power of two at or below
    max|X|. Scaling by a power of two is exact, and commutes with every
    correctly rounded operation of the std, so this is X.std() bit for
    bit wherever that neither overflows nor underflows; and the scaled
    values lie in (-2, 2), so it is finite for every finite X (X.std()
    is inf above about 1e154)."""
    top = float(np.abs(X).max(initial=0.0))
    if top == 0.0:
        return 0.0
    m = math.ldexp(1.0, math.frexp(top)[1] - 1)
    return m * float((X / m).std())


def mlp_fit(X, y, hp: Hyperparams) -> TrainedModel:
    """tanh hidden layer, two softmax outputs, fitted by L-BFGS on
    X / X.std() until every gradient entry is at most MLP_TOL (see the
    module docstring); W1 is stored for raw features."""
    X, labels, yi = _training_set(X, y, "network")
    scale = _std(X) or 1.0
    Xs, dim, hidden = X / scale, X.shape[1], hp.mlp_hidden
    theta = np.concatenate([a.ravel() for a in mlp_init(dim, hidden, hp.seed).values()])
    g = np.empty_like(theta)
    onehot, pick = np.eye(2)[yi], 2 * np.arange(len(yi)) + yi

    def objective():
        """Mean cross-entropy plus ½·MLP_L2·‖θ‖² at theta; fills g with
        its gradient."""
        f = _mlp_loss_grad(theta, g, Xs, onehot, pick, hidden)
        np.add(g, MLP_L2 * theta, out=g)
        return f + 0.5 * MLP_L2 * float(theta @ theta)

    pairs = collections.deque(maxlen=_MLP_MEMORY)
    f, it = objective(), 0

    def stop(why):
        return ConvergenceError(f"network {why} (gradient {gap:.3e} > {MLP_TOL:g} "
                                f"after {it} iterations)")

    # `not <=`: a NaN gradient does not end the fit
    while not (gap := float(np.abs(g).max())) <= MLP_TOL:
        if it == _MLP_MAX_ITER:
            raise stop("did not converge")
        d = _lbfgs_direction(g, pairs)
        slope = float(g @ d)
        theta0, f0, g0 = theta.copy(), f, g.copy()
        step = 1.0
        while True:  # Armijo backtracking from step 1
            np.multiply(step, d, out=theta)
            theta += theta0
            f = objective()
            if not math.isfinite(f):
                raise stop("diverged to a non-finite loss")
            if f <= f0 + 1e-4 * step * slope:
                break
            if np.array_equal(theta, theta0):
                raise stop("line search found no decrease")
            step *= 0.5
        s, dy = theta - theta0, g - g0
        sy = float(s @ dy)
        if sy > 0:
            pairs.append((s, dy, 1.0 / sy))
        it += 1
    W1, b1, W2, b2 = _unpack(theta, dim, hidden)
    W1 /= scale
    return TrainedModel(
        kind="mlp",
        feature_dim=dim,
        labels=labels,
        params={"W1": W1, "b1": b1, "W2": W2, "b2": b2},
        train_meta={"iterations": it, "gradient": gap, "loss": f},
    )


# ----------------------------------------------------------- dispatch

def predict_batch(model: TrainedModel, X) -> np.ndarray:
    """Labels for a batch of feature vectors, any model kind."""
    X = _check_dim(model, X)
    p = model.params
    if model.kind == "knn":
        idx = _knn_predict(p, X)
    elif model.kind == "svm-linear":
        idx = (X @ p["w"] + p["b"] >= 0).astype(int)
    elif model.kind == "svm-rbf":
        dec = _rbf_kernel(X, p["support_vectors"], p["gamma"]) @ p["coef"] + p["b"]
        idx = (dec >= 0).astype(int)
    elif model.kind == "rf":
        # label 1 needs more than half of the votes: a tie goes to label 0
        idx = (2 * _forest_votes(p["trees"], X) > len(p["trees"])).astype(int)
    elif model.kind == "mlp":
        h = np.tanh(X @ p["W1"] + p["b1"])
        idx = np.argmax(h @ p["W2"] + p["b2"], axis=1)
    else:
        raise ValueError(f"unknown model kind {model.kind!r}")
    return np.asarray(model.labels)[idx]

