import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumppipe import regression as reg
from jumppipe.nncore import DimensionError
from jumppipe.regression import (GbtConfig, MlpRegConfig, RfConfig,
                                 _predict_trees, fit_gbt, fit_mlp_regressor,
                                 fit_rf, fit_tree, permutation_importance,
                                 predict_gbt, predict_mlp, predict_rf)


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


def loop_best_split(X, y, idx, features):
    """Reference split search: one argsort and one gain vector per feature,
    as `_best_split` did before it searched all features in one pass."""
    yi = y[idx]
    n = idx.size
    total_sum = yi.sum()
    total_sq = (yi**2).sum()
    parent_sse = total_sq - total_sum**2 / n
    best = None
    for f in features:
        xv = X[idx, f]
        order = np.argsort(xv, kind="stable")
        xs = xv[order]
        ys = yi[order]
        csum = np.cumsum(ys)
        distinct = np.nonzero(np.diff(xs))[0]  # split after position i
        if distinct.size == 0:
            continue
        nl = distinct + 1
        nr = n - nl
        sl = csum[distinct]
        sr = total_sum - sl
        gains = parent_sse - (total_sq - sl**2 / nl - sr**2 / nr)
        k = int(np.argmax(gains))
        gain = float(gains[k])
        thr = (xs[distinct[k]] + xs[distinct[k] + 1]) / 2.0
        if best is None or gain > best[0] + 1e-15:
            best = (gain, f, thr, order, distinct[k] + 1)
    return best


def loop_permutation_importance(model, X, y, repeats, seed):
    """Reference importance: one predict call per permuted copy."""
    def r2(pred):
        ss_tot = ((y - y.mean()) ** 2).sum()
        return 1.0 - ((y - pred) ** 2).sum() / ss_tot

    baseline = r2(reg.predict(model, X))
    rng = np.random.default_rng(seed)
    importances = []
    for j in range(X.shape[1]):
        drops = []
        for _ in range(repeats):
            Xp = X.copy()
            Xp[:, j] = rng.permutation(Xp[:, j])
            drops.append(baseline - r2(reg.predict(model, Xp)))
        importances.append((j, float(np.mean(drops))))
    importances.sort(key=lambda t: (-t[1], t[0]))
    return importances


def tied_fixture(seed=0, n=80):
    """Features with many repeated values, one constant and one duplicated
    column, so split ties and non-distinct cuts occur at most nodes."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-3, 4, size=(n, 8)).astype(float)
    X[:, 4] = 1.5
    X[:, 7] = X[:, 2]
    y = X[:, 2] - 0.5 * X[:, 5] + 0.3 * rng.normal(size=n)
    return X, y


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
        np.testing.assert_allclose(_predict_trees([tree], X)[0], y)

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
        tree = fit_tree(X, y)
        np.testing.assert_allclose(_predict_trees([tree], X)[0], y,
                                   atol=1e-12)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_tree(np.zeros((0, 2)), np.zeros(0))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_pass_split_matches_per_feature_loop(self, data):
        n = data.draw(st.integers(2, 25))
        p = data.draw(st.integers(1, 6))
        cols = []
        for j in range(p):
            kind = data.draw(st.sampled_from(
                ["own", "constant", "copy"] if j else ["own", "constant"]))
            if kind == "own":
                cols.append(np.array(data.draw(st.lists(
                    st.integers(-2, 2).map(float) | st.floats(-4, 4),
                    min_size=n, max_size=n))))
            elif kind == "constant":
                cols.append(np.full(n, data.draw(st.floats(-4, 4))))
            else:
                cols.append(cols[data.draw(st.integers(0, j - 1))].copy())
        X = np.column_stack(cols)
        y = np.array(data.draw(st.lists(
            st.integers(-3, 3).map(float) | st.floats(-5, 5),
            min_size=n, max_size=n)))
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                          max_size=n)))
        features = data.draw(
            st.just(range(p))
            | st.lists(st.integers(0, p - 1), min_size=1, max_size=p,
                       unique=True).map(np.array))
        got = reg._best_split(X, y, idx, features)
        want = loop_best_split(X, y, idx, features)
        if want is None:
            assert got is None
            return
        gain, f, thr, order, cut = got
        assert (gain, f, thr, cut) == want[:3] + (want[4],)
        assert order[:cut].tolist() == want[3][:cut].tolist()
        assert order[cut:].tolist() == want[3][cut:].tolist()

    @pytest.mark.parametrize("kind", ["rf", "gbt"])
    def test_checkpoint_bytes_match_per_feature_loop(self, kind, monkeypatch):
        X, y = tied_fixture()
        config = (RfConfig(n_estimators=10, seed=3) if kind == "rf"
                  else GbtConfig(n_estimators=15, max_depth=4))
        got = json.dumps(reg.to_doc(reg.fit(kind, X, y, config)))
        monkeypatch.setattr(reg, "_best_split", loop_best_split)
        want = json.dumps(reg.to_doc(reg.fit(kind, X, y, config)))
        assert got == want

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
        assert _predict_trees([tree], query)[0].tobytes() == expected.tobytes()


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
        per_tree = np.array([_predict_trees([t], X)[0]
                             for t in model.payload["trees"]])
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
            predict_gbt(boosted, X), y.mean() + _predict_trees([single], X)[0]
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

    def test_affine_equivariant_in_the_target(self):
        """The net fits standardised targets, so rescaling and shifting y
        rescales and shifts the predictions, to rounding."""
        X, y = linear_fixture(seed=18, n=60)
        cfg = MlpRegConfig(hidden_layers=(16,), max_iter=300, seed=2)
        pred = predict_mlp(fit_mlp_regressor(X, y, cfg), X)
        scaled = predict_mlp(fit_mlp_regressor(X, 10 * y - 2, cfg), X)
        np.testing.assert_allclose(scaled, 10 * pred - 2, rtol=0, atol=1e-12)

    def test_constant_column_is_not_scaled_up(self):
        """A column fixed at 0.3 has a mean that rounds, so its std is
        5.6e-17, not 0. It gets scale 1, so 0.31 in that column moves a
        prediction by its first-layer weights times 0.01, not by 1.8e14
        times that (which predicted -3.3e11 m)."""
        X, y = linear_fixture(seed=20, n=50)
        X[:, 1] = 0.3
        assert X[:, 1].std() > 0
        model = fit_mlp_regressor(X, 0.3 + 0.05 * y,
                                  MlpRegConfig(hidden_layers=(8,), max_iter=50))
        assert model.payload["sigma"][1] == 1.0
        moved = X[:5].copy()
        moved[:, 1] = 0.31
        np.testing.assert_allclose(predict_mlp(model, moved),
                                   predict_mlp(model, X[:5]), rtol=0, atol=5e-3)

    def test_folded_checkpoint_round_trip_bit_identical(self, tmp_path):
        from jumppipe import dataio
        X, y = linear_fixture(seed=19, n=40)
        model = fit_mlp_regressor(X, 0.3 + 0.05 * y,
                                  MlpRegConfig(hidden_layers=(8,), max_iter=50))
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dataio.save_checkpoint(model, first)
        loaded = dataio.load_checkpoint(first, expect="regressor")
        dataio.save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        np.testing.assert_array_equal(predict_mlp(loaded, X),
                                      predict_mlp(model, X))

    def test_held_out_subject_error_on_default_dataset(self):
        """Default MLP, default seed-1 dataset: fit on 9 subjects, predict
        the tenth. Fit on raw heights for 8000 iterations it erred by
        0.039 m; on standardised heights for 500, by 0.016 m."""
        from jumppipe import dataio, evaluation
        from jumppipe.segmentation import DEFAULT_ROI_WIDTH
        sessions, heights = dataio.synth_generate(dataio.SyntheticConfig(seed=1))
        held_out = sessions[-1].subject_id
        tables = [evaluation.feature_table(
            [s for s in sessions if (s.subject_id == held_out) == test],
            heights, DEFAULT_ROI_WIDTH) for test in (False, True)]
        (X, y), (X_test, y_test) = tables
        model = fit_mlp_regressor(X, y, MlpRegConfig())
        rmse = np.sqrt(((predict_mlp(model, X_test) - y_test) ** 2).mean())
        assert rmse <= 0.025

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
    def test_constant_targets_rejected_before_predicting(self, monkeypatch):
        X = np.random.default_rng(12).normal(size=(20, 3))
        y = np.full(20, 0.3)  # mean 0.29999999999999993: rounding hides it
        model = fit_rf(X, X[:, 0], RfConfig(n_estimators=2, seed=0))

        def refuse(*args):
            raise AssertionError("predict called")
        monkeypatch.setattr(reg, "predict", refuse)
        with pytest.raises(ValueError, match="constant targets"):
            permutation_importance(model, X, y, repeats=2, seed=0)

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_rejected_before_predicting(self, repeats,
                                                          monkeypatch):
        X, y = linear_fixture(seed=15, n=20, p=3)
        model = fit_rf(X, y, RfConfig(n_estimators=2, seed=0))

        def refuse(*args):
            raise AssertionError("predict called")
        monkeypatch.setattr(reg, "predict", refuse)
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            permutation_importance(model, X, y, repeats=repeats, seed=0)

    @pytest.mark.parametrize("kind", ["rf", "gbt"])
    def test_stacked_repeats_match_one_predict_per_repeat(self, kind):
        X, y = tied_fixture(seed=16, n=40)
        config = (RfConfig(n_estimators=5, seed=0) if kind == "rf"
                  else GbtConfig(n_estimators=10, max_depth=3))
        model = reg.fit(kind, X, y, config)
        assert (permutation_importance(model, X, y, repeats=4, seed=2)
                == loop_permutation_importance(model, X, y, 4, 2))

    def test_stacked_repeats_match_for_mlp_within_rounding(self):
        # BLAS may block a taller matrix product differently, so the MLP's
        # predictions, unlike a tree's, can move in the last bits.
        X, y = tied_fixture(seed=17, n=40)
        model = fit_mlp_regressor(X, y, MlpRegConfig(hidden_layers=(8,),
                                                     max_iter=50))
        got = dict(permutation_importance(model, X, y, repeats=4, seed=2))
        want = dict(loop_permutation_importance(model, X, y, 4, 2))
        assert got.keys() == want.keys()
        for j in want:
            assert got[j] == pytest.approx(want[j], rel=0, abs=1e-12)

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
