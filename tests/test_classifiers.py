import numpy as np
import pytest

from llt.classifiers import (
    Hyperparams,
    TrainedModel,
    heuristic_k,
    knn_fit,
    linear_svm_fit,
    mlp_fit,
    mlp_init,
    mlp_loss_grad,
    predict_batch,
    rbf_svm_fit,
    rf_fit,
    smo_dual_objective,
    tree_depth,
    _rbf_kernel,
)

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
        model_e = knn_fit(X, ["N", "E"],
                          Hyperparams(knn_k=1, knn_metric="euclidean"))
        assert predict_batch(model_e, [[0.0, 0.0]])[0] == "E"

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

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="2 classes"):
            linear_svm_fit(np.zeros((3, 2)), ["N", "N", "N"], Hyperparams())

    def test_deterministic(self):
        X, y = two_blobs(seed=3)
        m1 = linear_svm_fit(X, y, Hyperparams(seed=7))
        m2 = linear_svm_fit(X, y, Hyperparams(seed=7))
        assert np.array_equal(m1.params["w"], m2.params["w"])
        assert m1.params["b"] == m2.params["b"]


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
        X = np.zeros((5, 2))
        model = rf_fit(X, ["N"] * 5, Hyperparams(rf_estimators=2))
        assert all(t == {"leaf": 0} for t in model.params["trees"])


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

    def test_separable_training(self):
        X, y = two_blobs(seed=12)
        model = mlp_fit(X, y, Hyperparams(mlp_epochs=300))
        assert np.mean(predict_batch(model, X) == np.array(y)) == 1.0
        assert model.params["W2"].shape[1] == 2  # two output nodes

    def test_xor_learnable(self):
        X = np.repeat(XOR_X, 4, axis=0)
        y = list(np.repeat(XOR_Y, 4))
        model = mlp_fit(X, y, Hyperparams(mlp_epochs=2000, mlp_lr=1.0, seed=2))
        assert np.mean(predict_batch(model, XOR_X) == np.array(XOR_Y)) == 1.0

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="2 classes"):
            mlp_fit(np.zeros((3, 2)), ["N", "N", "N"], Hyperparams())

    def test_deterministic(self):
        X, y = two_blobs(seed=13)
        m1 = mlp_fit(X, y, Hyperparams(mlp_epochs=50, seed=3))
        m2 = mlp_fit(X, y, Hyperparams(mlp_epochs=50, seed=3))
        for k in m1.params:
            assert np.array_equal(m1.params[k], m2.params[k])


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


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        Hyperparams(knn_k=0)
    with pytest.raises(ValueError):
        Hyperparams(svm_c=-1.0)
    with pytest.raises(ValueError):
        Hyperparams(knn_metric="manhattan")
