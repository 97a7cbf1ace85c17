import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llt import classifiers, dataset_io, linear_law
from llt.classifiers import (
    MLP_L2,
    MLP_TOL,
    SMO_TOL,
    Hyperparams,
    TrainedModel,
    heuristic_k,
    knn_fit,
    linear_svm_fit,
    mlp_fit,
    mlp_init,
    predict_batch,
    rbf_svm_fit,
    rf_fit,
    _rbf_kernel,
)
from llt.features import feature_matrix
from llt.synth import SynthSpec, generate
from llt.types import ConvergenceError, Corpus, Label

from conftest import mlp_loss_grad, tree_depth, tree_predict


def hard_features():
    """Training and test features and labels of `llt synth --beats 1000
    --noise 0.2 --omega-b 0.4`, split as `llt reproduce` splits it:
    noisy classes that overlap."""
    spec = SynthSpec(omega_b=0.4, beats=1000, noise=0.2)
    train, val, test = generate(spec)
    full = Corpus(beats=train.beats + val.beats, window_len=spec.window_len)
    train, _ = dataset_io.split_train_validation(full, dataset_io.SplitSpec())
    law = linear_law.fit_law(train.with_label(Label.NORMAL), 12, "Normal")
    X = feature_matrix(train.beats, law)
    y = [b.label.value for b in train.beats]
    Xt = feature_matrix(test.beats, law)
    yt = np.array([b.label.value for b in test.beats])
    return X, y, Xt, yt


def smo_dual_objective(alpha, ys, K):
    """The SVM dual objective Σα - ½(α∘y)ᵀK(α∘y), computed directly."""
    return float(alpha.sum() - 0.5 * (alpha * ys) @ K @ (alpha * ys))


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = ["N", "E", "E", "N"]


def two_blobs(n=30, gap=3.0, seed=0, dim=2):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 0.5, (n, dim)),
                   rng.normal(gap, 0.5, (n, dim))])
    y = ["N"] * n + ["E"] * n
    return X, y


def test_heuristic_k_examples():
    assert heuristic_k(3249) == 57
    assert heuristic_k(1) == 1
    assert heuristic_k(2) == 1
    assert heuristic_k(100) == 10
    with pytest.raises(ValueError):
        heuristic_k(0)


class TestKNN:
    def test_chebyshev_distance(self):
        # nearest by Chebyshev differs from Euclidean here: from (0,0),
        # (2,2) is Chebyshev-2 / Euclid-2.83, (0,2.5) is 2.5 on both
        X = np.array([[2.0, 2.0], [0.0, 2.5]])
        model = knn_fit(X, ["N", "E"], Hyperparams(knn_k=1))
        assert predict_batch(model, [[0.0, 0.0]])[0] == "N"

    def test_majority_vote(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0]])
        model = knn_fit(X, ["N", "N", "E", "E"], Hyperparams(knn_k=3))
        assert predict_batch(model, [[0.05]])[0] == "N"

    def test_tie_broken_by_summed_distance(self):
        X = np.array([[0.0], [1.0], [3.0], [4.0]])
        model = knn_fit(X, ["N", "N", "E", "E"], Hyperparams(knn_k=4))
        # 2 votes each; N neighbors are closer to the probe
        assert predict_batch(model, [[1.5]])[0] == "N"

    def test_k_exceeds_training(self):
        with pytest.raises(ValueError, match="exceeds"):
            knn_fit(np.zeros((2, 1)), ["N", "E"], Hyperparams(knn_k=3))

    def test_separable_blobs(self):
        X, y = two_blobs(seed=1)
        model = knn_fit(X, y, Hyperparams(knn_k=4))
        assert np.mean(predict_batch(model, X) == np.array(y)) == 1.0


class TestLinearSVM:
    def test_separable(self):
        X, y = two_blobs(seed=2)
        model = linear_svm_fit(X, y, Hyperparams())
        assert np.mean(predict_batch(model, X) == np.array(y)) == 1.0

    def test_xor_not_learnable(self):
        model = linear_svm_fit(XOR_X, XOR_Y, Hyperparams())
        acc = np.mean(predict_batch(model, XOR_X) == np.array(XOR_Y))
        assert acc <= 0.75  # no hyperplane separates XOR

    def test_deterministic(self):
        X, y = two_blobs(seed=3)
        m1 = linear_svm_fit(X, y, Hyperparams(seed=7))
        m2 = linear_svm_fit(X, y, Hyperparams(seed=7))
        assert np.array_equal(m1.params["w"], m2.params["w"])
        assert m1.params["b"] == m2.params["b"]

    @pytest.mark.parametrize("scale", [1e-150, 1e-160])
    def test_tiny_features_fit(self, scale):
        """Squared norms down to the subnormal 1e-320 still fit."""
        X, y = np.array([[1.0], [2.0], [-1.0], [-2.0]]) * scale, ["N", "N", "E", "E"]
        assert list(predict_batch(linear_svm_fit(X, y, Hyperparams()), X)) == y

    @pytest.mark.parametrize("scale", [1e-162, 1e-200])
    def test_underflowing_gram_diagonal_raises(self, scale):
        """A nonzero row whose squared norm underflows to 0 is not in the
        dual, which then fits a model that predicts one label for all:
        the fit names the features' magnitude instead, without a
        warning. A zero row is not an underflow."""
        X, y = np.array([[1.0], [2.0], [-1.0], [-2.0]]) * scale, ["N", "N", "E", "E"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^linear SVM Gram matrix underflows on "
                                                 rf"features of magnitude up to {2 * scale:g}$"):
                linear_svm_fit(X, y, Hyperparams())
        zero = linear_svm_fit(np.array([[0.0], [2.0], [-1.0], [-2.0]]), y, Hyperparams())
        assert list(predict_batch(zero, np.array([[2.0], [-2.0]]))) == ["N", "E"]


class TestRbfSVM:
    def test_xor_learnable(self):
        model = rbf_svm_fit(XOR_X, XOR_Y, Hyperparams(rbf_gamma=2.0, svm_c=10.0))
        assert np.array_equal(predict_batch(model, XOR_X), np.array(XOR_Y))

    def test_dual_feasibility(self):
        X, y = two_blobs(seed=4)
        hp = Hyperparams(svm_c=1.0)
        model = rbf_svm_fit(X, y, hp)
        coef = model.params["coef"]  # alpha_i * y_i with 0 <= alpha <= C
        assert np.all(np.abs(coef) <= hp.svm_c + 1e-12)
        assert abs(coef.sum()) < 1e-9  # sum alpha_i y_i = 0

    def test_objective_nondecreasing(self):
        X, y = two_blobs(seed=5)
        model = rbf_svm_fit(X, y, Hyperparams())
        hist = model.train_meta["objective_history"]
        assert hist[0] == 0.0
        assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))
        assert hist[-1] > 0.0

    def test_decision_from_support_vectors(self):
        X, y = two_blobs(seed=6)
        model = rbf_svm_fit(X, y, Hyperparams())
        p = model.params
        assert len(p["support_vectors"]) == len(p["coef"])
        assert len(p["support_vectors"]) <= len(X)
        dec = _rbf_kernel(X, p["support_vectors"], p["gamma"]) @ p["coef"] + p["b"]
        labels = np.array(model.labels)
        assert np.array_equal(labels[(dec >= 0).astype(int)], np.array(y))

    @pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["default-gamma", "given-gamma"])
    def test_overflowing_features_raise_without_a_warning(self, gamma):
        """Features whose variance and squared norms overflow fail in the
        kernel (or the default gamma) with their magnitude, in the fit
        and in predict, before any RuntimeWarning."""
        X = np.array([[1e308], [2e307], [-1e308], [-2e307]])
        model = rbf_svm_fit(X / 1e307, ["N", "N", "E", "E"], Hyperparams(rbf_gamma=gamma))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^RBF kernel overflows on features of "
                                                 r"magnitude up to 1e\+308$"):
                rbf_svm_fit(X, ["N", "N", "E", "E"], Hyperparams(rbf_gamma=gamma))
            with pytest.raises(ValueError, match=r"^RBF kernel overflows on features of "
                                                 r"magnitude up to 1e\+200$"):
                predict_batch(model, np.array([[1e200]]))

    @pytest.mark.parametrize("scale", [1e-155, 1e-160, 1e-200])
    def test_underflowing_variance_raises_without_a_warning(self, scale):
        """Features whose variance is subnormal or underflows to 0 give a
        default gamma that overflows: the fit names their magnitude,
        before any RuntimeWarning, and does not fall back to gamma 1."""
        X, y = np.array([[1.0], [2.0], [-1.0], [-2.0]]), ["N", "N", "E", "E"]
        assert list(predict_batch(rbf_svm_fit(X, y, Hyperparams()), X)) == y
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^RBF kernel overflows on features of "
                                                 rf"magnitude up to {2 * scale:g}$"):
                rbf_svm_fit(X * scale, y, Hyperparams())

    def test_dual_objective_helper(self):
        ys = np.array([1.0, -1.0])
        K = np.eye(2)
        alpha = np.array([0.5, 0.5])
        # sum(alpha) - 0.5 * (0.25 + 0.25)
        assert smo_dual_objective(alpha, ys, K) == pytest.approx(0.75)


class TestRandomForest:
    def test_xor_learnable(self):
        X = np.repeat(XOR_X, 8, axis=0)
        y = list(np.repeat(XOR_Y, 8))
        model = rf_fit(X, y, Hyperparams(rf_estimators=20, rf_depth=4, seed=1))
        assert np.mean(predict_batch(model, XOR_X) == np.array(XOR_Y)) == 1.0

    def test_depth_bound(self):
        X, y = two_blobs(n=50, gap=1.0, seed=7)
        hp = Hyperparams(rf_estimators=5, rf_depth=3)
        model = rf_fit(X, y, hp)
        assert all(tree_depth(t) <= 3 for t in model.params["trees"])

    def test_stump(self):
        X, y = two_blobs(seed=8)
        model = rf_fit(X, y, Hyperparams(rf_estimators=3, rf_depth=1))
        assert all(tree_depth(t) <= 1 for t in model.params["trees"])
        assert np.mean(predict_batch(model, X) == np.array(y)) == 1.0

    def test_deterministic(self):
        X, y = two_blobs(seed=9)
        m1 = rf_fit(X, y, Hyperparams(seed=5))
        m2 = rf_fit(X, y, Hyperparams(seed=5))
        assert m1.params["trees"] == m2.params["trees"]

    def test_pure_node_is_leaf(self):
        # either feature separates the classes, so a split's children are pure
        X = np.array([[0.0, 0.0]] * 2 + [[1.0, 1.0]] * 3)
        model = rf_fit(X, ["E"] * 2 + ["N"] * 3, Hyperparams(rf_estimators=4))
        split = [t for t in model.params["trees"] if "leaf" not in t]
        assert split and all((t["left"], t["right"]) == ({"leaf": 0}, {"leaf": 1})
                             for t in split)

    def test_features_near_the_largest_double(self):
        """A midpoint between values above 9e307 is found without an
        overflow, and the forest separates the classes."""
        X = np.array([[1e308], [1.5e308], [-1e308], [-1.5e308]])
        y = ["N", "N", "E", "E"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = rf_fit(X, y, Hyperparams(rf_estimators=5))
            assert np.array_equal(predict_batch(model, X), y)

    def test_predict_equals_per_row_walk_on_hard_corpus(self):
        X, y, Xt, _ = hard_features()
        model = rf_fit(X, y, Hyperparams(rf_estimators=10))
        for Q in (X, Xt):
            votes = forest_votes_oracle(model, Q)
            # 5-5 ties occur, and argmax gives them to the first label
            assert np.any(votes[:, 0] == 5)
            assert np.array_equal(predict_batch(model, Q),
                                  np.array(model.labels)[np.argmax(votes, axis=1)])
            assert np.array_equal(predict_batch(model, Q), forest_oracle(model, Q))

    def test_row_on_the_threshold_goes_right(self):
        tree = {"feature": 0, "threshold": 0.5, "left": {"leaf": 0},
                "right": {"feature": 1, "threshold": -1.0, "left": {"leaf": 0},
                          "right": {"leaf": 1}}}
        model = TrainedModel(kind="rf", feature_dim=2, labels=["E", "N"],
                             params={"trees": [tree]})
        Q = np.array([[0.5, -1.0], [0.5, -1.5], [0.25, 7.0], [np.nextafter(0.5, 0), 7.0]])
        assert list(predict_batch(model, Q)) == ["N", "E", "E", "E"]
        assert list(forest_oracle(model, Q)) == ["N", "E", "E", "E"]

    def test_near_tie_keeps_first_candidate(self):
        # y has 2 of label 0 and 6 of label 1. Feature 0 puts two 1s
        # left, feature 1 a 0 and a 1: both splits have Gini 1/3, which
        # rounds to 0.3333333333333333 and 0.33333333333333326. The later,
        # lower one is not lower by more than 1e-15, so the first stays.
        y = np.array([0, 0, 1, 1, 1, 1, 1, 1])
        X = np.array([[1, 0], [1, 1], [0, 0], [0, 1], [1, 1], [1, 1], [1, 1], [1, 1]],
                     dtype=float)
        first = classifiers._best_split(X[:, :1], y, np.array([0]))
        later = classifiers._best_split(X[:, 1:], y, np.array([0]))
        assert 0 < first[0] - later[0] < 1e-15
        assert classifiers._best_split(X, y, np.array([1, 0])) == (first[0], 0, 0.5)


class TestMLP:
    def test_gradient_check(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            d, h, n = rng.integers(2, 6), rng.integers(2, 6), 7
            params = mlp_init(int(d), int(h), seed=trial)
            X = rng.standard_normal((n, int(d)))
            t = rng.integers(0, 2, n)
            _, grads = mlp_loss_grad(params, X, t)
            eps = 1e-6
            for name in params:
                flat = params[name].ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    lp, _ = mlp_loss_grad(params, X, t)
                    flat[i] = orig - eps
                    lm, _ = mlp_loss_grad(params, X, t)
                    flat[i] = orig
                    num = (lp - lm) / (2 * eps)
                    ana = grads[name].ravel()[i]
                    assert abs(num - ana) <= 1e-6 * max(1.0, abs(num))

    def test_objective_gradient_check(self, monkeypatch):
        """The fit minimises cross-entropy plus ½·MLP_L2·‖θ‖²: central
        differences of that sum at an evaluated θ match the gradient the
        fit holds when it evaluates the next θ, and the loss it reports
        is that sum at the last θ it evaluated."""
        real, calls = classifiers._mlp_loss_grad, []

        def spy(theta, grad, *args):
            calls.append((theta.copy(), grad.copy(), args))
            return real(theta, grad, *args)

        monkeypatch.setattr(classifiers, "_mlp_loss_grad", spy)
        X, t = mlp_case(7, 3, 1.0, seed=1)
        model = mlp_fit(X, np.array(["E", "N"])[t], Hyperparams(mlp_hidden=4, seed=1))

        def objective(theta):
            return real(theta, np.empty_like(theta), *args) + 0.5 * MLP_L2 * float(theta @ theta)

        theta, _, args = calls[-1]
        assert model.train_meta["loss"] == objective(theta)
        eps = 1e-6
        for k in (1, len(calls) - 1):
            theta, grad = calls[k - 1][0], calls[k][1]
            for i in range(theta.size):
                step = np.zeros_like(theta)
                step[i] = eps
                num = (objective(theta + step) - objective(theta - step)) / (2 * eps)
                assert abs(num - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))

    def test_separable_training(self):
        X, y = two_blobs(seed=12)
        model = mlp_fit(X, y, Hyperparams())
        assert np.mean(predict_batch(model, X) == np.array(y)) == 1.0
        assert model.params["W2"].shape[1] == 2  # two output nodes

    def test_xor_learnable(self):
        X = np.repeat(XOR_X, 4, axis=0)
        y = list(np.repeat(XOR_Y, 4))
        model = mlp_fit(X, y, Hyperparams(seed=2))
        assert np.mean(predict_batch(model, XOR_X) == np.array(XOR_Y)) == 1.0

    def test_divergence_raises_convergence_error(self, monkeypatch):
        # finite features are checked on entry, so only a pass of the
        # network itself can make the loss non-finite
        real, calls = classifiers._mlp_loss_grad, []

        def nan_on_third(*args):
            calls.append(None)
            loss = real(*args)
            return loss if len(calls) < 3 else np.nan

        monkeypatch.setattr(classifiers, "_mlp_loss_grad", nan_on_third)
        X, y = two_blobs(seed=12)
        with pytest.raises(ConvergenceError, match=r"^network diverged to a non-finite "
                                                   r"loss \(gradient \S+ > 1e-06 after \d+ "
                                                   r"iterations\)$"):
            mlp_fit(X, y, Hyperparams())
        assert len(calls) == 3

    def test_line_search_without_decrease_raises(self, monkeypatch):
        """A loss that grows by one at each evaluation, wherever θ is,
        has no step that decreases it: the fit halves its first step
        until θ no longer moves, then raises. A fit still evaluating
        after 5,000 calls would halve forever."""
        real, calls = classifiers._mlp_loss_grad, []

        def growing(*args):
            calls.append(None)
            if len(calls) > 5000:
                pytest.fail("the line search is still running after 5,000 evaluations")
            return real(*args) + len(calls)

        monkeypatch.setattr(classifiers, "_mlp_loss_grad", growing)
        X, y = two_blobs(seed=12)
        with pytest.raises(ConvergenceError, match=r"^network line search found no decrease "
                                                   r"\(gradient \S+ > 1e-06 after 0 "
                                                   r"iterations\)$"):
            mlp_fit(X, y, Hyperparams())

    def test_iteration_cap_raises_with_gradient(self, monkeypatch):
        X, y = two_blobs(seed=4)
        monkeypatch.setattr(classifiers, "_MLP_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match=r"^network did not converge \(gradient "
                                                   r"\d\.\d{3}e-\d\d > 1e-06 after 1 "
                                                   r"iterations\)$"):
            mlp_fit(X, y, Hyperparams())

    def test_scale_of_huge_features(self):
        """The fit on 2^600·X, whose X.std() overflows, predicts on its
        input what the fit on X predicts on X, with no warning."""
        X, y = two_blobs(seed=12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = mlp_fit(2.0 ** 600 * X, y, Hyperparams())
            want = predict_batch(mlp_fit(X, y, Hyperparams()), X)
            assert np.array_equal(predict_batch(big, 2.0 ** 600 * X), want)
        assert np.mean(want == np.array(y)) == 1.0

    def test_deterministic(self):
        X, y = two_blobs(seed=13)
        m1 = mlp_fit(X, y, Hyperparams(seed=3))
        m2 = mlp_fit(X, y, Hyperparams(seed=3))
        for k in m1.params:
            assert np.array_equal(m1.params[k], m2.params[k])


def oracle_mlp_loss_grad(params, X, targets):
    """The network's loss and gradients as one dict-based pass with fresh
    arrays and numpy's own reductions: the reference that the flat-vector
    kernel must match bit for bit."""
    h = np.tanh(X @ params["W1"] + params["b1"])
    z = h @ params["W2"] + params["b2"]
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    n = len(X)
    loss = float(-np.mean(np.log(p[np.arange(n), targets] + 1e-300)))
    dz = p.copy()
    dz[np.arange(n), targets] -= 1.0
    dz /= n
    grads = {"W2": h.T @ dz, "b2": dz.sum(axis=0)}
    dh = (dz @ params["W2"].T) * (1.0 - h * h)
    grads["W1"] = X.T @ dh
    grads["b1"] = dh.sum(axis=0)
    return loss, grads


def mlp_case(n, d, scale, seed):
    """Features with a per-column offset, and 0/1 targets holding both."""
    rng = np.random.default_rng(seed)
    X = scale * (rng.standard_normal((n, d)) + rng.standard_normal(d))
    t = rng.integers(0, 2, n)
    t[:2] = (0, 1)
    return X, t


_MLP_CASES = dict(n=st.integers(2, 60), d=st.integers(1, 8),
                  hidden=st.sampled_from([1, 2, 3, 8, 19]),
                  scale=st.sampled_from([1e-3, 1.0, 30.0]), seed=st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(**_MLP_CASES)
def test_mlp_matches_dict_oracle_bit_for_bit(n, d, hidden, scale, seed):
    X, t = mlp_case(n, d, scale, seed)
    init = mlp_init(d, hidden, seed)
    loss, grads = mlp_loss_grad(init, X, t)
    want_loss, want_grads = oracle_mlp_loss_grad(init, X, t)
    assert loss == want_loss
    for k in want_grads:
        assert np.array_equal(grads[k], want_grads[k]), k


@settings(max_examples=60, deadline=None)
@given(**_MLP_CASES)
def test_mlp_fit_returns_a_stationary_point(n, d, hidden, scale, seed):
    """The fitted network, on the features X / X.std() it was fitted
    on, has every entry of its objective's gradient (cross-entropy from
    the oracle plus the L2 term) at most MLP_TOL, and predict_batch on
    raw X takes the argmax of that network."""
    X, t = mlp_case(n, d, scale, seed)
    model = mlp_fit(X, np.array(["E", "N"])[t], Hyperparams(mlp_hidden=hidden, seed=seed))
    s = X.std() or 1.0
    params = dict(model.params, W1=model.params["W1"] * s)
    _, grads = mlp_loss_grad(params, X / s, t)
    gap = max(np.abs(grads[k] + MLP_L2 * params[k]).max() for k in params)
    assert gap <= MLP_TOL
    assert model.train_meta["gradient"] <= MLP_TOL
    h = np.tanh(X / s @ params["W1"] + params["b1"])
    scaled = np.argmax(h @ params["W2"] + params["b2"], axis=1)
    assert np.array_equal(predict_batch(model, X), np.array(model.labels)[scaled])


_FITS = [knn_fit, linear_svm_fit, rbf_svm_fit, rf_fit, mlp_fit]


@pytest.mark.parametrize("fit", _FITS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_names_its_row(fit, value):
    X, y = two_blobs(seed=12)
    X[5, 1] = X[7, 0] = value
    with pytest.raises(ValueError, match=rf"^feature row 5 is not finite: {value} in column 1$"):
        fit(X, y, Hyperparams())


@pytest.mark.parametrize("fit", _FITS, ids=lambda f: f.__name__)
def test_predict_non_finite_feature_names_its_row(fit):
    X, y = two_blobs(seed=12)
    model = fit(X, y, Hyperparams())
    Q = X[:4].copy()
    Q[2, 0] = np.nan
    with pytest.raises(ValueError, match=r"^feature row 2 is not finite: nan in column 0$"):
        predict_batch(model, Q)


class TestDispatch:
    def test_dimension_mismatch(self):
        X, y = two_blobs(seed=14)
        model = knn_fit(X, y, Hyperparams())
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict_batch(model, np.zeros((2, 5)))

    def test_unknown_kind(self):
        model = TrainedModel(kind="nope", feature_dim=1, labels=["N"], params={})
        with pytest.raises(ValueError, match="unknown model kind"):
            predict_batch(model, np.zeros((1, 1)))

    def test_single_prediction_is_str(self):
        X, y = two_blobs(seed=15)
        model = knn_fit(X, y, Hyperparams())
        out = predict_batch(model, [X[0]])[0]
        assert isinstance(out, str) and out in ("N", "E")

    def test_labels_sorted(self):
        X, y = two_blobs(seed=16)
        model = rf_fit(X, y, Hyperparams())
        assert model.labels == ["E", "N"]


class TestSMO:
    @pytest.mark.parametrize("C, w, b", [
        (1.0, 1.0, -2.0),  # both αs free at 1/2: ρ is the mean of yᵢGᵢ
        (0.1, 0.2, -0.4),  # both αs at C: ρ is the midpoint of its bounds
    ])
    def test_bias_sign(self, C, w, b):
        # x = 1 labelled -1 and x = 3 labelled +1: the boundary is x = 2
        model = linear_svm_fit(np.array([[1.0], [3.0]]), ["a", "b"],
                               Hyperparams(svm_c=C))
        assert model.params["w"] == pytest.approx([w], abs=1e-12)
        assert model.params["b"] == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("fit", [linear_svm_fit, rbf_svm_fit])
    def test_iteration_cap_raises_with_gap(self, fit, monkeypatch):
        X, y = two_blobs(seed=4)
        monkeypatch.setattr(classifiers, "_SMO_MAX_ITER", 1)
        with pytest.raises(ConvergenceError,
                           match=r"did not converge in 1 iterations \(KKT gap "):
            fit(X, y, Hyperparams())

    def test_non_finite_gap_raises_at_once(self):
        # NaN entries off the diagonal reach v in the first step; a NaN
        # gap is not <= SMO_TOL, which alone would run to _SMO_MAX_ITER
        K = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ConvergenceError,
                           match=r"^SMO stopped in iteration 1: KKT gap nan is not finite$"):
            classifiers._smo(K, np.array([1.0, -1.0]), 1.0)

    def test_hard_corpus(self):
        # an RBF SVM stopped before its KKT gap closes scores far below
        # the linear SVM on this corpus
        X, y, Xt, yt = hard_features()
        acc = {}
        for fit in (linear_svm_fit, rbf_svm_fit):
            model = fit(X, y, Hyperparams())
            assert model.train_meta["gap"] <= SMO_TOL
            acc[model.kind] = np.mean(predict_batch(model, Xt) == yt)
        assert acc["svm-rbf"] >= acc["svm-linear"] - 0.02


@st.composite
def _svm_problems(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    # duplicate rows, opposite labels among them, give Kᵢᵢ + Kⱼⱼ - 2Kᵢⱼ = 0
    value = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.0 + 2.0 ** -52]),
                      st.floats(-1.0, 1.0))
    X = np.array(draw(st.lists(value, min_size=n * d, max_size=n * d))).reshape(n, d)
    ys = np.array([-1.0, 1.0] + draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                              min_size=n - 2, max_size=n - 2)))
    return X, ys


def _svm_example(X, ys, C):
    """An @example of a 1-D linear-kernel problem for the SMO property."""
    return example(problem=(np.array(X)[:, None], np.array(ys)), kernel="linear",
                   C=C, gamma=1.0)


@settings(max_examples=200, deadline=None)
@given(problem=_svm_problems(), kernel=st.sampled_from(["linear", "rbf"]),
       C=st.floats(0.1, 100.0), gamma=st.floats(0.05, 5.0))
# one outcome of the pair step each: no step clipped
@_svm_example([-1.0, 0.5], [-1.0, 1.0], 1.0)
# αᵢ clipped to its bound, with yᵢyⱼ = +1 and with yᵢyⱼ = -1
@_svm_example([-1.0, -1.0, 0.0, 0.5], [-1.0, 1.0, 1.0, -1.0], 10.0)
@_svm_example([-1.0, 0.0, 0.5], [-1.0, 1.0, -1.0], 10.0)
# αⱼ clipped to its bound, with yᵢyⱼ = +1 and with yᵢyⱼ = -1
@_svm_example([-1.0, 1.0, 0.5], [-1.0, 1.0, 1.0], 1.0)
@_svm_example([-0.5, 1.0, -1.0], [-1.0, 1.0, 1.0], 1.0)
# both reach their bounds at once, a tie of LIBSVM's test: with yᵢ = +1
# it caps αⱼ (diff = 0 in the first step, whose unclipped t = 8 exceeds
# C), with yᵢ = -1 αᵢ (total = C)
@_svm_example([-1.0, -0.5], [-1.0, 1.0], 0.1)
@_svm_example([0.0, -1.0, 0.0, 0.5, 0.5], [-1.0, 1.0, -1.0, -1.0, 1.0], 0.1)
def test_smo_returns_a_kkt_point(problem, kernel, C, gamma):
    X, ys = problem
    K = X @ X.T if kernel == "linear" else _rbf_kernel(X, X, gamma)
    alpha, rho, gap, history = classifiers._smo(K.copy(), ys, C)
    assert np.all((alpha >= 0) & (alpha <= C))
    assert abs(alpha @ ys) <= 1e-9
    # the gap again, from a gradient computed afresh rather than maintained
    v = ys * (1.0 - ys * (K @ (alpha * ys)))
    up = np.where(ys > 0, alpha < C, alpha > 0)
    low = np.where(ys > 0, alpha > 0, alpha < C)
    assert gap <= SMO_TOL
    assert v[up].max() - v[low].min() <= SMO_TOL + 1e-9
    assert abs(history[-1] - smo_dual_objective(alpha, ys, K)) <= 1e-9


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        Hyperparams(knn_k=0)
    with pytest.raises(ValueError):
        Hyperparams(svm_c=-1.0)


# ------------------------------------------------ equivalence oracles
#
# The per-threshold CART search and the per-row KNN predict that the
# prefix-count split search and the blocked KNN predict replaced. The
# properties below require the fast paths to give the same trees and
# the same labels as these, tie for tie.

def _oracle_gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - np.sum(p * p)


def _oracle_build_tree(X, y, n_labels, depth_left, rng, n_sub):
    counts = np.bincount(y, minlength=n_labels)
    majority = int(np.argmax(counts))
    if depth_left == 0 or counts.max() == len(y):
        return {"leaf": majority}
    d = X.shape[1]
    feats = rng.permutation(d)[:n_sub]
    best = None  # (impurity, feature, threshold)
    for f in np.sort(feats):
        vals = np.unique(X[:, f])
        if len(vals) < 2:
            continue
        for thr in (vals[:-1] + vals[1:]) / 2.0:
            mask = X[:, f] < thr
            lc = np.bincount(y[mask], minlength=n_labels)
            rc = counts - lc
            nl, nr = lc.sum(), rc.sum()
            if nl == 0 or nr == 0:
                continue
            imp = (nl * _oracle_gini(lc) + nr * _oracle_gini(rc)) / len(y)
            if best is None or imp < best[0] - 1e-15:
                best = (imp, f, float(thr))
    if best is None:
        return {"leaf": majority}
    _, f, thr = best
    mask = X[:, f] < thr
    return {
        "feature": int(f),
        "threshold": thr,
        "left": _oracle_build_tree(X[mask], y[mask], n_labels, depth_left - 1, rng, n_sub),
        "right": _oracle_build_tree(X[~mask], y[~mask], n_labels, depth_left - 1, rng, n_sub),
    }


def _oracle_forest(X, y, hp):
    labels, yi = np.unique(np.asarray(y, dtype=str), return_inverse=True)
    n, d = X.shape
    n_sub = max(1, round(np.sqrt(d)))
    trees = []
    for t in range(hp.rf_estimators):
        rng = np.random.default_rng([hp.seed, t])
        boot = rng.integers(0, n, n)
        trees.append(_oracle_build_tree(X[boot], yi[boot], len(labels),
                                        hp.rf_depth, rng, n_sub))
    return trees


def forest_votes_oracle(model, Q):
    """Per-label vote counts of the forest's trees for each row of Q,
    one row through one tree at a time."""
    votes = np.array([[tree_predict(t, q) for t in model.params["trees"]] for q in Q])
    return np.array([np.bincount(v, minlength=len(model.labels)) for v in votes])


def forest_oracle(model, Q):
    """The forest's labels for Q by the per-row walk: the most votes, a
    tie to the first label."""
    return np.array(model.labels)[np.argmax(forest_votes_oracle(model, Q), axis=1)]


def _oracle_knn_predict_one(p, x):
    d = np.max(np.abs(p["X"] - x), axis=1)
    order = np.argsort(d, kind="stable")[: p["k"]]
    votes = np.bincount(p["y"][order], minlength=0)
    best = np.flatnonzero(votes == votes.max())
    if len(best) == 1:
        return int(best[0])
    # tie: smallest summed distance, then label order
    sums = [d[order][p["y"][order] == lbl].sum() for lbl in best]
    return int(best[int(np.argmin(sums))])


# Small integers make equal values and equal impurities common; 1 + 2**-52
# sits next to 1.0, so the midpoint between them rounds back onto 1.0.
_TIE_VALUES = [0.0, 1.0, 1.0 + 2.0 ** -52, 2.0, 3.0, 4.0]


@st.composite
def _labelled_rows(draw, max_rows=40):
    """Rows of tie-prone values with labels of exactly two classes, as
    every fit requires."""
    n = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, 5))
    X = np.array(draw(st.lists(st.sampled_from(_TIE_VALUES),
                               min_size=n * d, max_size=n * d))).reshape(n, d)
    y = draw(st.lists(st.sampled_from("ab"), min_size=n - 2, max_size=n - 2))
    return X, draw(st.permutations(y + ["a", "b"]))


@settings(max_examples=200, deadline=None)
@given(data=_labelled_rows(), depth=st.integers(1, 6),
       estimators=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
@example(data=(np.array([[1.0], [1.0 + 2.0 ** -52], [2.0], [0.0]]),
               ["a", "b", "b", "a"]), depth=3, estimators=2, seed=0)
def test_rf_trees_equal_per_threshold_search(data, depth, estimators, seed):
    X, y = data
    hp = Hyperparams(rf_estimators=estimators, rf_depth=depth, seed=seed)
    assert rf_fit(X, y, hp).params["trees"] == _oracle_forest(X, y, hp)


@settings(max_examples=200, deadline=None)
@given(data=_labelled_rows(), queries=st.data(), depth=st.integers(1, 6),
       estimators=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_rf_predict_equals_per_row_walk(data, queries, depth, estimators, seed):
    X, y = data
    model = rf_fit(X, y, Hyperparams(rf_estimators=estimators, rf_depth=depth, seed=seed))
    m = queries.draw(st.integers(1, 12))
    # the training values include midpoints that round onto a value, so
    # some query rows sit exactly on a threshold
    Q = np.array(queries.draw(st.lists(st.sampled_from(_TIE_VALUES), min_size=m * X.shape[1],
                                       max_size=m * X.shape[1]))).reshape(m, X.shape[1])
    for rows in (Q, X):
        assert np.array_equal(predict_batch(model, rows), forest_oracle(model, rows))


# One small problem for each path of `_knn_predict`: training values,
# their labels ("a" is label 0, "b" label 1), k, query values and the
# labels of the stable-sort rule. Every value is exact in binary, so
# equal distances are exactly equal.
_KNN_PATHS = {
    # more rows at the k-th distance than places left, at even k: the
    # stable sort keeps the lowest row indices, and where that leaves one
    # vote each the smaller summed distance wins
    "distance tie, even k": ([0.0, 2.0, 2.0, 2.0, 2.0], "abbaa", 2,
                             [0.0, 4.0, 2.0, 1.0, 3.0], "abbab"),
    # the same at odd k, where the rows within the k-th distance hold
    # more than k / 2 "b" and the first k of them fewer
    "distance tie, odd k": ([2.0, 2.0, 2.0, 2.0, 9.0], "aabbb", 3, [2.0, 1.0, 9.0], "aaa"),
    # four "b" of five rows within the k-th distance, but one vote each
    # after the stable cut at k = 2
    "distance tie, then a vote tie": ([1.0, 1.5, 3.0, 3.0, 3.0], "babbb", 2, [2.0], "a"),
    # exactly k rows within the k-th distance, one vote each
    "exactly k within, a vote tie": ([0.0, 1.0, 3.0, 4.0, 10.0], "aabba", 2,
                                     [2.25, 1.75], "ba"),
    # every training row is a neighbour
    "k = n": ([0.0, 1.0, 3.0, 4.0], "aabb", 4, [1.5, 2.5, 2.0], "aba"),
}


def _knn_path(name):
    """The `_KNN_PATHS` problem `name` as the arguments `data` and
    `queries` of `test_knn_predict_equals_per_row_oracle`."""
    X, y, k, Q, _ = _KNN_PATHS[name]
    return {"data": (np.array(X)[:, None], list(y)), "queries": (k, np.array(Q)[:, None])}


@settings(max_examples=200, deadline=None)
@given(data=_labelled_rows(), queries=st.data(), block=st.integers(1, 200))
@example(**_knn_path("distance tie, even k"), block=4)
@example(**_knn_path("distance tie, odd k"), block=1)
@example(**_knn_path("distance tie, then a vote tie"), block=200)
@example(**_knn_path("exactly k within, a vote tie"), block=5)
@example(**_knn_path("k = n"), block=4)
def test_knn_predict_equals_per_row_oracle(data, queries, block):
    X, y = data
    if isinstance(queries, tuple):  # an explicit example
        k, Q = queries
    else:
        k = queries.draw(st.integers(1, len(X)))
        m = queries.draw(st.integers(1, 12))
        Q = np.array(queries.draw(st.lists(
            st.sampled_from(_TIE_VALUES), min_size=m * X.shape[1],
            max_size=m * X.shape[1]))).reshape(m, X.shape[1])
    model = knn_fit(X, y, Hyperparams(knn_k=k))
    expected = np.array([model.labels[_oracle_knn_predict_one(model.params, q)]
                         for q in Q])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifiers, "_KNN_BLOCK_ENTRIES", block)
        assert np.array_equal(predict_batch(model, Q), expected)


@pytest.mark.parametrize("fit, name", [
    (knn_fit, "KNN"), (linear_svm_fit, "linear SVM"), (rbf_svm_fit, "RBF SVM"),
    (rf_fit, "random forest"), (mlp_fit, "network")])
@pytest.mark.parametrize("y", [list("aaaaaa"), list("abcabc")])
def test_fit_needs_exactly_two_classes(fit, name, y):
    """Every fit rejects a training set of one or of three classes: a
    model file holds two."""
    X = np.arange(12.0).reshape(6, 2)
    with pytest.raises(ValueError, match=f"^{name} needs exactly 2 classes, got {len(set(y))}$"):
        fit(X, y, Hyperparams())


@pytest.mark.parametrize("fit", _FITS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("X, y, message", [
    (np.arange(4.0), list("NENE"), "features must be a 2-D array"),
    (np.arange(12.0).reshape(2, 2, 3), list("NE"), "features must be a 2-D array"),
    (np.arange(12.0).reshape(6, 2), list("NENE"), "6 feature rows vs 4 labels"),
])
def test_fit_needs_one_label_per_feature_row(fit, X, y, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit(X, y, Hyperparams())


@pytest.mark.parametrize("block", [1, 5, 1 << 20])
@pytest.mark.parametrize("path", list(_KNN_PATHS))
def test_knn_ties_at_kth_distance_keep_stable_order(path, block):
    X, y, k, Q, expected = _KNN_PATHS[path]
    X, Q = np.array(X)[:, None], np.array(Q)[:, None]
    model = knn_fit(X, list(y), Hyperparams(knn_k=k))
    assert model.params["metric"] == "chebyshev"
    assert [model.labels[_oracle_knn_predict_one(model.params, q)] for q in Q] == list(expected)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifiers, "_KNN_BLOCK_ENTRIES", block)
        assert list(predict_batch(model, Q)) == list(expected)
