import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumppipe import regression as reg
from jumppipe.nncore import DimensionError
from jumppipe.regression import (GbtConfig, MlpRegConfig, RfConfig, fit_gbt,
                                 fit_mlp_regressor, fit_rf, fit_tree,
                                 permutation_importance, predict_gbt,
                                 predict_mlp, predict_rf, predict_tree)


def brute_force_root_split(X, y):
    """Exhaustive best split over all features and midpoints (SSE gain)."""
    n, p = X.shape
    parent = ((y - y.mean()) ** 2).sum()
    best = None
    for f in range(p):
        values = np.unique(X[:, f])
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2
            left = y[X[:, f] <= thr]
            right = y[X[:, f] > thr]
            sse = (((left - left.mean()) ** 2).sum()
                   + ((right - right.mean()) ** 2).sum())
            gain = parent - sse
            if best is None or gain > best[0] + 1e-12:
                best = (gain, f, thr)
    return best


def scalar_walk(tree, row):
    """Reference walk: follow one row from the root to its leaf."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return tree.value[node]


class TestTree:
    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        tree = fit_tree(X, np.full(20, 2.5))
        assert tree.feature.tolist() == [-1]
        assert tree.value.tolist() == [2.5]

    def test_one_split_suffices(self):
        rng = np.random.default_rng(1)
        X = np.concatenate([rng.uniform(-2, -1, size=(20, 1)),
                            rng.uniform(1, 2, size=(20, 1))])
        y = (X[:, 0] > 0).astype(float)
        tree = fit_tree(X, y)
        assert tree.feature[0] >= 0
        children = [tree.left[0], tree.right[0]]
        assert tree.feature[children].tolist() == [-1, -1]
        np.testing.assert_allclose(predict_tree(tree, X), y)

    @pytest.mark.parametrize("seed", range(5))
    def test_root_split_matches_exhaustive_search(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        tree = fit_tree(X, y, max_depth=1)
        gain, f, thr = brute_force_root_split(X, y)
        assert tree.feature[0] == f
        assert tree.threshold[0] == pytest.approx(thr)

    def test_max_leaf_nodes_budget(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 4))
        y = rng.normal(size=100)
        tree = fit_tree(X, y, max_leaf_nodes=5)
        assert (tree.feature < 0).sum() <= 5

    def test_memorizing_tree_exact_on_training_rows(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        tree = fit_tree(X, y, min_gain=0.0)
        np.testing.assert_allclose(predict_tree(tree, X), y, atol=1e-12)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_tree(np.zeros((0, 2)), np.zeros(0))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_vectorized_walk_matches_scalar_walk(self, data):
        n = data.draw(st.integers(1, 30))
        p = data.draw(st.integers(1, 4))
        cells = st.lists(st.integers(-3, 3), min_size=n * (p + 1),
                         max_size=n * (p + 1))
        table = np.array(data.draw(cells), dtype=float).reshape(n, p + 1)
        X, y = table[:, :p], table[:, p]
        tree = fit_tree(X, y, max_depth=data.draw(st.none() | st.integers(1, 4)))
        # Rows on the thresholds themselves exercise the `<=` boundary.
        query = np.vstack([X, X + 0.5, np.repeat(tree.threshold[:, None], p, 1)])
        expected = np.array([scalar_walk(tree, row) for row in query])
        assert predict_tree(tree, query).tobytes() == expected.tobytes()


def linear_fixture(seed=0, n=200, p=5, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = X.sum(axis=1) + noise * rng.normal(size=n)
    return X, y


class TestRandomForest:
    def test_constant_target(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        model = fit_rf(X, np.full(30, 1.2), RfConfig(n_estimators=5))
        assert predict_rf(model, X[0]) == pytest.approx(1.2)

    def test_beats_mean_predictor(self):
        X, y = linear_fixture()
        model = fit_rf(X, y, RfConfig(seed=0))
        mse = ((predict_rf(model, X) - y) ** 2).mean()
        mse_mean = ((y.mean() - y) ** 2).mean()
        assert mse < mse_mean

    def test_seed_determinism_and_stability(self):
        X, y = linear_fixture(seed=1)
        Xtest, ytest = linear_fixture(seed=99)

        def r2(pred):
            return 1 - ((ytest - pred) ** 2).sum() / ((ytest - ytest.mean()) ** 2).sum()

        m1 = fit_rf(X, y, RfConfig(seed=7))
        m2 = fit_rf(X, y, RfConfig(seed=7))
        np.testing.assert_array_equal(predict_rf(m1, Xtest), predict_rf(m2, Xtest))
        m3 = fit_rf(X, y, RfConfig(seed=8))
        assert abs(r2(predict_rf(m1, Xtest)) - r2(predict_rf(m3, Xtest))) < 0.1

    def test_prediction_within_tree_range(self):
        X, y = linear_fixture(seed=2)
        model = fit_rf(X, y, RfConfig(n_estimators=10, seed=0))
        per_tree = np.array([predict_tree(t, X) for t in model.payload["trees"]])
        pred = predict_rf(model, X)
        assert np.all(pred >= per_tree.min(axis=0) - 1e-12)
        assert np.all(pred <= per_tree.max(axis=0) + 1e-12)

    def test_dimension_check(self):
        X, y = linear_fixture()
        model = fit_rf(X, y, RfConfig(n_estimators=2))
        with pytest.raises(DimensionError):
            predict_rf(model, np.zeros(4))


class TestGradientBoosting:
    def test_zero_estimators_predicts_mean(self):
        X, y = linear_fixture(seed=3)
        model = fit_gbt(X, y, GbtConfig(n_estimators=0))
        np.testing.assert_allclose(predict_gbt(model, X), y.mean())

    def test_eta_one_single_tree_reduction(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 2))
        y = (X[:, 0] > 0).astype(float)
        boosted = fit_gbt(X, y, GbtConfig(eta=1.0, n_estimators=1, max_depth=6))
        single = fit_tree(X, y - y.mean(), max_depth=6)
        np.testing.assert_allclose(
            predict_gbt(boosted, X), y.mean() + predict_tree(single, X)
        )

    def test_beats_mean_predictor(self):
        X, y = linear_fixture(seed=5)
        model = fit_gbt(X, y, GbtConfig())
        mse = ((predict_gbt(model, X) - y) ** 2).mean()
        assert mse < ((y.mean() - y) ** 2).mean()

    @pytest.mark.parametrize("seed", range(20))
    def test_stagewise_mse_nonincreasing(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 80))
        p = int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        model = fit_gbt(X, y, GbtConfig(n_estimators=20, max_depth=3))
        mse = model.payload["stage_mse"]
        assert all(b <= a + 1e-12 for a, b in zip(mse, mse[1:]))

    def test_row_order_invariance(self):
        X, y = linear_fixture(seed=6, n=60)
        model = fit_gbt(X, y, GbtConfig(n_estimators=10))
        perm = np.random.default_rng(0).permutation(60)
        model_p = fit_gbt(X[perm], y[perm], GbtConfig(n_estimators=10))
        np.testing.assert_allclose(predict_gbt(model, X), predict_gbt(model_p, X))


class TestMlp:
    def test_null_target(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 3))
        model = fit_mlp_regressor(X, np.zeros(50),
                                  MlpRegConfig(hidden_layers=(16,),
                                               max_iter=500, seed=0))
        assert np.all(np.abs(predict_mlp(model, X)) < 0.05)

    def test_linear_capacity(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 1))
        y = 2 * X[:, 0] + 1
        model = fit_mlp_regressor(X, y, MlpRegConfig(hidden_layers=(32,),
                                                     max_iter=2000, seed=0))
        pred = predict_mlp(model, X)
        r2 = 1 - ((y - pred) ** 2).sum() / ((y - y.mean()) ** 2).sum()
        assert r2 > 0.99

    def test_deterministic(self):
        X, y = linear_fixture(seed=9, n=40)
        cfg = MlpRegConfig(hidden_layers=(8,), max_iter=200, seed=3)
        a = fit_mlp_regressor(X, y, cfg)
        b = fit_mlp_regressor(X, y, cfg)
        np.testing.assert_array_equal(predict_mlp(a, X), predict_mlp(b, X))

    def test_row_order_invariance(self):
        X, y = linear_fixture(seed=10, n=40)
        cfg = MlpRegConfig(hidden_layers=(8,), max_iter=100, seed=3)
        model = fit_mlp_regressor(X, y, cfg)
        perm = np.random.default_rng(1).permutation(40)
        model_p = fit_mlp_regressor(X[perm], y[perm], cfg)
        np.testing.assert_allclose(predict_mlp(model, X), predict_mlp(model_p, X),
                                   rtol=1e-9, atol=1e-12)

    def test_gradients_match_finite_difference(self):
        from jumppipe import nncore
        rng = np.random.default_rng(11)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=(12, 1))
        layers = [reg._init_dense(rng, 3, 5), reg._init_dense(rng, 5, 1)]

        def loss():
            pred, _ = reg._mlp_forward(layers, X)
            return ((pred - y) ** 2).mean()

        pred, caches = reg._mlp_forward(layers, X)
        grads = reg._mlp_backward(layers, caches, 2 * (pred - y) / X.shape[0])
        arrays = [a for l in layers for a in (l.weights, l.bias)]
        eps = 1e-5
        for analytic, arr in zip(grads, arrays):
            fd = np.zeros_like(arr)
            flat, fdf = arr.ravel(), fd.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss()
                flat[i] = orig - eps
                lm = loss()
                flat[i] = orig
                fdf[i] = (lp - lm) / (2 * eps)
            rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
            assert rel.max() < 1e-4


class TestPermutationImportance:
    def test_unused_feature_zero_importance(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(float)
        tree = fit_tree(X, y, max_depth=1)
        model = reg.TrainedRegressor("rf", {"trees": [tree],
                                            "config": RfConfig()}, 3)
        ranked = permutation_importance(model, X, y, repeats=5, seed=0)
        by_feature = dict(ranked)
        unused = [f for f in (1, 2) if f != tree.feature[0]]
        for f in unused:
            assert by_feature[f] == 0.0

    def test_exact_dependence_ranked_first(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(100, 5))
        y = X[:, 3].copy()
        model = fit_gbt(X, y, GbtConfig(n_estimators=50, max_depth=3))
        ranked = permutation_importance(model, X, y, repeats=5, seed=0)
        assert ranked[0][0] == 3

    def test_reproducible(self):
        X, y = linear_fixture(seed=14, n=50, p=3)
        model = fit_rf(X, y, RfConfig(n_estimators=5, seed=0))
        a = permutation_importance(model, X, y, repeats=3, seed=1)
        b = permutation_importance(model, X, y, repeats=3, seed=1)
        assert a == b
        assert np.isfinite(sum(v for _, v in a))
