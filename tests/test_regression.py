import functools
import heapq
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumppipe import dataio, nncore
from jumppipe import regression as reg
from jumppipe.evaluation import permutation_importance
from jumppipe.nncore import DimensionError
from jumppipe.regression import (GbtConfig, MlpRegConfig, RfConfig,
                                 _predict_trees)


def fit_tree(X, y, max_depth=None, max_leaf_nodes=None):
    """One tree on every row, through the calls that `fit` makes for rf and
    gbt: the input check, one ranking of X and the grower."""
    X, y = reg._fit_input(X, y)
    return reg._grow(X, reg._rank_columns(X), y, np.arange(X.shape[0]),
                     max_depth, max_leaf_nodes, features_per_split=None,
                     rng=None)


@pytest.fixture
def gbt_shape(monkeypatch):
    """`gbt_shape(n_estimators, max_depth=, eta=)` sets the boosting
    constants for one test; `_fit_gbt` reads them on each call."""
    def set_shape(n_estimators, max_depth=reg.GBT_MAX_DEPTH, eta=reg.GBT_ETA):
        monkeypatch.setattr(reg, "GBT_N_ESTIMATORS", n_estimators)
        monkeypatch.setattr(reg, "GBT_MAX_DEPTH", max_depth)
        monkeypatch.setattr(reg, "GBT_ETA", eta)
    return set_shape


def checkpoint_bytes(model, tmp_path) -> bytes:
    """The bytes of `model` saved as a checkpoint."""
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(model, path)
    return path.read_bytes()


def load_svm_checkpoint(tmp_path):
    """Load a checkpoint whose header names the kind 'svm'."""
    path = tmp_path / "svm.ckpt"
    path.write_text(json.dumps({"magic": dataio.CHECKPOINT_MAGIC,
                                "format_version": dataio.CHECKPOINT_VERSION,
                                "kind": "svm"}))
    return dataio.load_checkpoint(path, "regressor")


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


def argsort_best_split(X, y, idx, features):
    """Frozen float-argsort split search: a stable argsort of the node's
    (rows, features) values, as `_best_split` did before it sorted packed
    rank keys."""
    features = np.asarray(features, dtype=np.int64)
    yi = y[idx]
    n = idx.size
    total_sum = yi.sum()
    total_sq = (yi**2).sum()
    parent_sse = total_sq - total_sum**2 / n
    xv = X[np.ix_(idx, features)]
    order = np.argsort(xv, axis=0, kind="stable")
    xs = np.take_along_axis(xv, order, axis=0)
    sl = np.cumsum(yi[order], axis=0)[:-1]
    nl = np.arange(1, n)[:, None]
    sr = total_sum - sl
    gains = parent_sse - (total_sq - sl**2 / nl - sr**2 / (n - nl))
    distinct = xs[1:] != xs[:-1]
    gains[~distinct] = -np.inf
    cuts = gains.argmax(axis=0)
    col_gains = gains[cuts, np.arange(features.size)].tolist()
    best, j = None, None
    for c, (gain, has_cut) in enumerate(zip(col_gains,
                                            distinct.any(axis=0).tolist())):
        if has_cut and (best is None or gain > best + 1e-15):
            best, j = gain, c
    if j is None:
        return None
    k = cuts[j]
    thr = (xs[k, j] + xs[k + 1, j]) / 2.0
    return best, features[j], thr, order[:, j], k + 1


def argsort_fit_tree(X, y, max_depth, max_leaf_nodes, features_per_split,
                     rng):
    """Frozen one-tree fit over `argsort_best_split`, on its own copy of
    the rows."""
    p = X.shape[1]

    def candidate_features():
        if features_per_split is None or features_per_split >= p:
            return range(p)
        return np.sort(rng.choice(p, size=features_per_split, replace=False))

    nodes = [[-1, 0.0, -1, -1, float(y.mean())]]
    heap = []

    def consider(node, idx, depth):
        if max_depth is not None and depth >= max_depth:
            return
        if idx.size < 2 or np.ptp(y[idx]) == 0:
            return
        split = argsort_best_split(X, y, idx, candidate_features())
        if split is None or split[0] <= 0.0:
            return
        heapq.heappush(heap, (-split[0], node, idx, depth, split))

    consider(0, np.arange(X.shape[0]), 0)
    while heap:
        if max_leaf_nodes is not None and len(nodes) // 2 + 1 >= max_leaf_nodes:
            break
        _, node, idx, depth, (gain, f, thr, order, cut) = heapq.heappop(heap)
        left_idx = idx[order[:cut]]
        right_idx = idx[order[cut:]]
        nodes[node][:4] = f, thr, len(nodes), len(nodes) + 1
        nodes += [[-1, 0.0, -1, -1, float(y[i].mean())]
                  for i in (left_idx, right_idx)]
        consider(len(nodes) - 2, left_idx, depth + 1)
        consider(len(nodes) - 1, right_idx, depth + 1)
    return reg.Tree(*(np.array(col) for col in zip(*nodes)))


def argsort_fit(kind, X, y, config):
    """Frozen rf and gbt fits: every tree through `argsort_fit_tree`,
    a forest tree on a copy of its bootstrap rows."""
    if kind == "rf":
        fps = math.ceil(X.shape[1] / 3)
        master = np.random.default_rng(config.seed)
        trees = []
        for _ in range(config.n_estimators):
            tree_rng = np.random.default_rng(master.integers(0, 2**63))
            idx = tree_rng.integers(0, X.shape[0], size=X.shape[0])
            trees.append(argsort_fit_tree(X[idx], y[idx], reg.RF_MAX_DEPTH,
                                          reg.RF_MAX_LEAF_NODES, fps,
                                          tree_rng))
        return reg.TrainedRegressor("rf", {"trees": trees}, X.shape[1])
    base = float(y.mean())
    current = np.full(y.shape, base)
    trees = []
    for _ in range(reg.GBT_N_ESTIMATORS):
        tree = argsort_fit_tree(X, y - current, reg.GBT_MAX_DEPTH, None, None,
                                None)
        current = current + reg.GBT_ETA * _predict_trees([tree], X)[0]
        trees.append(tree)
    payload = {"base": base, "trees": trees, "eta": reg.GBT_ETA}
    return reg.TrainedRegressor("gbt", payload, X.shape[1])


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


def signed_zero_fixture(seed=0, n=80):
    """`tied_fixture` with half of its zeros made -0.0, which ties with
    0.0."""
    X, y = tied_fixture(seed, n)
    zeros = X == 0
    X[zeros] = np.where(np.random.default_rng(seed).random(zeros.sum()) < 0.5,
                        -0.0, 0.0)
    return X, y


@functools.lru_cache(maxsize=1)
def default_tables():
    """Seed-1 default dataset: ((X, y) of the first 9 subjects, (X, y) of
    the tenth), 145 features per row."""
    from jumppipe import dataio, evaluation
    from jumppipe.segmentation import DEFAULT_ROI_WIDTH
    sessions, heights = dataio.synth_generate(dataio.SyntheticConfig(seed=1))
    held_out = sessions[-1].subject_id
    return tuple(evaluation.feature_table(
        [s for s in sessions if (s.subject_id == held_out) == test],
        heights, DEFAULT_ROI_WIDTH) for test in (False, True))


SMALL_CONFIGS = {"rf": RfConfig(n_estimators=2), "gbt": GbtConfig(),
                 "mlp": MlpRegConfig(max_iter=2)}
# every kind through `fit`, and the tests' own one-tree fit
FIT_INPUTS = {"fit_tree": fit_tree,
              **{kind: functools.partial(reg.fit, kind,
                                         config=SMALL_CONFIGS[kind])
                 for kind in reg.KINDS}}


class TestFitInput:
    """`fit` checks X and y once, before any tree or step."""

    @pytest.mark.parametrize("fitter", FIT_INPUTS)
    @pytest.mark.parametrize("rows", [25, 15])
    def test_target_count_must_match_rows(self, fitter, rows):
        X, y = linear_fixture(n=20, p=3)
        y = np.resize(y, rows)
        with pytest.raises(DimensionError, match=f"shape \\({rows},\\), X "
                                                 f"has 20 rows"):
            FIT_INPUTS[fitter](X, y)

    @pytest.mark.parametrize("fitter", FIT_INPUTS)
    def test_two_dimensional_target_rejected(self, fitter):
        X, y = linear_fixture(n=20, p=3)
        with pytest.raises(DimensionError, match="one target per row"):
            FIT_INPUTS[fitter](X, y[:, None])

    @pytest.mark.parametrize("fitter", FIT_INPUTS)
    @pytest.mark.parametrize("X", [np.zeros(20), np.zeros((0, 3)),
                                   np.zeros((20, 0)), np.zeros((2, 10, 1))])
    def test_x_must_be_non_empty_2d(self, fitter, X):
        with pytest.raises(ValueError, match="non-empty 2-D array, got shape"):
            FIT_INPUTS[fitter](X, np.zeros(len(X)))

    @pytest.mark.parametrize("fitter", FIT_INPUTS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, fitter, bad):
        X, y = linear_fixture(n=20, p=3)
        X[7, 2] = bad
        with pytest.raises(ValueError,
                           match=f"X\\[7, 2\\] is {bad}, not finite"):
            FIT_INPUTS[fitter](X, y)

    @pytest.mark.parametrize("fitter", FIT_INPUTS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, fitter, bad):
        X, y = linear_fixture(n=20, p=3)
        y[4] = bad
        with pytest.raises(ValueError, match=f"y\\[4\\] is {bad}, not finite"):
            FIT_INPUTS[fitter](X, y)


class TestFrontDoor:
    """Every kind is fit and predicted through `fit` and `predict`."""

    @pytest.mark.parametrize("call", [
        lambda tmp: reg.fit("svm", *linear_fixture(n=20, p=3), None),
        lambda tmp: load_svm_checkpoint(tmp),
        lambda tmp: checkpoint_bytes(reg.TrainedRegressor("svm", {}, 3), tmp)])
    def test_unknown_kind_refused_with_the_kinds(self, call, tmp_path):
        with pytest.raises(ValueError, match="unknown regressor kind 'svm'; "
                                             "the kinds are rf, gbt, mlp$"):
            call(tmp_path)

    @pytest.mark.parametrize("kind", reg.KINDS)
    def test_one_row_gives_a_float(self, kind):
        X, y = linear_fixture(n=20, p=3)
        model = FIT_INPUTS[kind](X, y)
        one = reg.predict(model, X[3])
        assert type(one) is float
        # BLAS may round a one-row MLP product differently in the last bits
        assert one == pytest.approx(reg.predict(model, X)[3], rel=0,
                                    abs=1e-12)

    @pytest.mark.parametrize("kind", reg.KINDS)
    @pytest.mark.parametrize("shape", [(20, 3, 1), (1, 20, 3), (20, 4)])
    def test_predict_refuses_other_than_rows_of_the_width(self, kind, shape):
        X, y = linear_fixture(n=20, p=3)
        model = FIT_INPUTS[kind](X, y)
        with pytest.raises(DimensionError, match=f"rows of 3 features, got "
                                                 f"an array of shape"):
            reg.predict(model, np.zeros(shape))


@pytest.mark.skipif(nncore._openblas() is None,
                    reason="numpy's OpenBLAS thread setter is not found")
class TestOneBlasThread:
    """`fit` and `predict` run the kind's code with OpenBLAS at one thread
    and hand the caller's count back, also when the kind's code raises."""

    @staticmethod
    def count():
        return nncore._openblas()[0]()

    def test_mlp_fit_and_predict_run_at_one_thread(self, monkeypatch, prior):
        forward, seen = reg._mlp_forward, []

        def counting(*args):
            seen.append(self.count())
            return forward(*args)

        monkeypatch.setattr(reg, "_mlp_forward", counting)
        X, y = linear_fixture(seed=3, n=30)
        model = reg.fit("mlp", X, y, MlpRegConfig(hidden_layers=(4,),
                                                  max_iter=3))
        assert seen == [1] * 3 and self.count() == prior
        reg.predict(model, X)
        reg.predict(model, X[0])
        assert seen == [1] * 5 and self.count() == prior

    @pytest.mark.parametrize("call", ["fit", "predict"])
    def test_count_comes_back_when_the_kind_raises(self, monkeypatch, prior,
                                                   call):
        def refuse(*args):
            assert self.count() == 1
            raise FloatingPointError("kind failed")

        X, y = linear_fixture(seed=4, n=30)
        model = reg.fit("mlp", X, y, MlpRegConfig(hidden_layers=(4,),
                                                  max_iter=3))
        monkeypatch.setitem(reg.KINDS, "mlp",
                            reg.KINDS["mlp"]._replace(**{call: refuse}))
        with pytest.raises(FloatingPointError, match="kind failed"):
            if call == "fit":
                reg.fit("mlp", X, y, None)
            else:
                reg.predict(model, X)
        assert self.count() == prior


class TestConfigs:
    """A config refuses a bad field when it is built, by name."""

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("n_estimators", 2.5)])
    def test_rf_config(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            RfConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("max_iter", 2.5), ("hidden_layers", ()),
        ("hidden_layers", (0,)), ("hidden_layers", (8, 2.5)),
        ("hidden_layers", 100)])
    def test_mlp_config(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            MlpRegConfig(**{field: value})


class TestRankKeys:
    """The packed-rank split search against the frozen float-argsort one."""

    def test_ranks_share_equal_values_and_keep_order(self):
        X = np.array([[0.5, -0.0], [-1.0, 0.0], [0.5, 2.0], [3.0, 0.0]])
        assert reg._rank_columns(X).tolist() == [[1, 0, 1, 2], [0, 0, 1, 0]]

    @pytest.mark.parametrize("kind", ["rf", "gbt"])
    @pytest.mark.parametrize("table", ["default", "tied", "signed_zero"])
    def test_checkpoint_bytes_match_argsort_reference(self, kind, table,
                                                      tmp_path):
        X, y = {"default": lambda: default_tables()[0],
                "tied": tied_fixture,
                "signed_zero": signed_zero_fixture}[table]()
        config = RfConfig() if kind == "rf" else GbtConfig()
        got = checkpoint_bytes(reg.fit(kind, X, y, config), tmp_path)
        want = checkpoint_bytes(argsort_fit(kind, X, y, config), tmp_path)
        assert got == want

    @pytest.mark.parametrize("kind", ["rf", "gbt"])
    def test_columns_ranked_once_per_ensemble(self, kind, monkeypatch,
                                              gbt_shape):
        calls = []
        rank = reg._rank_columns
        monkeypatch.setattr(reg, "_rank_columns",
                            lambda X: calls.append(X.shape) or rank(X))
        X, y = tied_fixture()
        gbt_shape(7)
        config = RfConfig(n_estimators=7) if kind == "rf" else GbtConfig()
        reg.fit(kind, X, y, config)
        assert calls == [X.shape]


class TestKeyWidth:
    """Ranks are int32 while a node's packed keys fit in it, and the split
    search gives the same answer on either width."""

    @pytest.mark.parametrize("rows, dtype", [
        (1, np.int32), (270, np.int32), (2**15 - 1, np.int32),
        (2**15, np.int64), (2**15 + 1, np.int64)])
    def test_rank_dtype_follows_the_row_count(self, rows, dtype):
        X = np.arange(rows, 0, -1, dtype=np.float64)[:, None]
        ranks = reg._rank_columns(X)
        assert ranks.dtype == dtype
        assert ranks[0].tolist() == list(range(rows - 1, -1, -1))

    @pytest.mark.parametrize("table", ["default", "tied", "signed_zero"])
    def test_same_split_on_int32_and_int64_ranks(self, table):
        X, y = {"default": lambda: default_tables()[0],
                "tied": tied_fixture,
                "signed_zero": signed_zero_fixture}[table]()
        narrow = reg._rank_columns(X)
        assert narrow.dtype == np.int32
        rng = np.random.default_rng(0)
        for idx in (np.arange(X.shape[0]),
                    rng.integers(0, X.shape[0], size=X.shape[0]),
                    np.sort(rng.choice(X.shape[0], 9, replace=False))):
            for features in (np.arange(X.shape[1]),
                             np.sort(rng.choice(X.shape[1], 3,
                                                replace=False))):
                got = reg._best_split(X, narrow, y, idx, features)
                want = reg._best_split(X, narrow.astype(np.int64), y, idx,
                                       features)
                assert got[:3] + got[4:] == want[:3] + want[4:]
                assert got[3].tolist() == want[3].tolist()

    @pytest.mark.parametrize("features", [[2, 1, 0], [1, 0, 2], [0, 2, 1]])
    def test_full_length_unsorted_features_are_gathered(self, features):
        """A permutation of every column is not every column in order."""
        X = np.array([[0.0, 5.0, 1.0], [1.0, 4.0, 0.0], [2.0, 3.0, 1.0],
                      [3.0, 2.0, 0.0], [4.0, 1.0, 1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        idx = np.arange(5)
        got = reg._best_split(X, reg._rank_columns(X), y, idx, features)
        want = loop_best_split(X, y, idx, features)
        assert got[:3] + got[4:] == want[:3] + want[4:]
        assert got[3].tolist() == want[3].tolist()


def scan_records(gains) -> list[int]:
    """The indexes at which an in-order scan takes a new best: the first
    finite entry, then each entry more than 1e-15 above the best so far."""
    best, records = None, []
    for c, gain in enumerate(gains):
        if gain > -math.inf and (best is None or gain > best + 1e-15):
            best = gain
            records.append(c)
    return records


def one_split_columns(orders, n):
    """(n, len(orders)) X whose column c ranks the rows in `orders[c]`
    (then every row not listed, in index order) as 0, 1, 2, ..."""
    X = np.empty((n, len(orders)))
    for c, order in enumerate(orders):
        rest = [r for r in range(n) if r not in order]
        X[list(order) + rest, c] = np.arange(n)
    return X


class TestTieBreak:
    """The vectorised 1e-15 tie-break keeps the feature that the sequential
    scan keeps."""

    def check_against_loop(self, X, y):
        idx = np.arange(X.shape[0])
        features = np.arange(X.shape[1])
        got = reg._best_split(X, reg._rank_columns(X), y, idx, features)
        want = loop_best_split(X, y, idx, features)
        assert got[:3] + got[4:] == want[:3] + want[4:]
        assert got[3].tolist() == want[3].tolist()
        gains = [loop_best_split(X, y, idx, [f])[0] for f in features]
        return got[1], gains

    def test_same_partition_ulps_apart_keeps_the_earlier_feature(self):
        # both columns put rows 0-3 left; summed in another order, the
        # second column's gain is 2 ulps (4.4e-16) above the first's
        y = np.array([0.4, 0.3, 0.2, 0.4, 1.3, 1.2])
        X = one_split_columns([(0, 2, 1, 3), (0, 1, 2, 3)], 6)
        chosen, gains = self.check_against_loop(X, y)
        assert 1 <= (gains[1] - gains[0]) / np.spacing(gains[0]) <= 2
        assert int(np.argmax(gains)) == 1
        assert chosen == 0  # the chain path: not the first argmax

    def test_chain_of_three_records_each_within_the_margin(self):
        # column c puts rows 0-2 and one of eight rows near 0.4 left; the
        # gains of the chosen five climb in steps of under 1e-15
        y = np.array([0.3] * 3 + [0.4 - k * 8e-16 for k in range(8)]
                     + [0.9] * 3)
        X = one_split_columns([(0, 1, 2, 3 + k, 11, 12, 13)
                               for k in (0, 1, 2, 4, 7)], 14)
        chosen, gains = self.check_against_loop(X, y)
        records = scan_records(gains)
        assert records == [0, 2, 4]
        for r in records[1:]:
            assert gains[r] <= gains[r - 1] + 1e-15  # not a clear record
        assert chosen == 4

    @given(st.lists(st.none() | st.integers(0, 12), min_size=1,
                    max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_tie_break_matches_the_scan(self, steps):
        """Gains 0.3e-15 apart around 1.0, so most of them tie within the
        margin; None is a feature without a cut."""
        gains = np.array([-np.inf if s is None else 1.0 + s * 3e-16
                          for s in steps])
        records = scan_records(gains.tolist())
        assert reg._tie_break(gains) == (records[-1] if records
                                            else None)


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
        got = reg._best_split(X, reg._rank_columns(X), y, idx, features)
        want = loop_best_split(X, y, idx, features)
        if want is None:
            assert got is None
            return
        gain, f, thr, order, cut = got
        assert (gain, f, thr, cut) == want[:3] + (want[4],)
        assert order[:cut].tolist() == want[3][:cut].tolist()
        assert order[cut:].tolist() == want[3][cut:].tolist()

    @pytest.mark.parametrize("kind", ["rf", "gbt"])
    def test_checkpoint_bytes_match_per_feature_loop(self, kind, monkeypatch,
                                                     gbt_shape, tmp_path):
        X, y = tied_fixture()
        gbt_shape(15, max_depth=4)
        config = (RfConfig(n_estimators=10, seed=3) if kind == "rf"
                  else GbtConfig())
        got = checkpoint_bytes(reg.fit(kind, X, y, config), tmp_path)
        monkeypatch.setattr(reg, "_best_split",
                            lambda X, ranks, y, idx, features:
                            loop_best_split(X, y, idx, features))
        want = checkpoint_bytes(reg.fit(kind, X, y, config), tmp_path)
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
        model = reg.fit("rf", X, np.full(30, 1.2), RfConfig(n_estimators=5))
        assert reg.predict(model, X[0]) == pytest.approx(1.2)

    def test_beats_mean_predictor(self):
        X, y = linear_fixture()
        model = reg.fit("rf", X, y, RfConfig(seed=0))
        mse = ((reg.predict(model, X) - y) ** 2).mean()
        mse_mean = ((y.mean() - y) ** 2).mean()
        assert mse < mse_mean

    def test_seed_determinism_and_stability(self):
        X, y = linear_fixture(seed=1)
        Xtest, ytest = linear_fixture(seed=99)

        def r2(pred):
            return 1 - ((ytest - pred) ** 2).sum() / ((ytest - ytest.mean()) ** 2).sum()

        m1 = reg.fit("rf", X, y, RfConfig(seed=7))
        m2 = reg.fit("rf", X, y, RfConfig(seed=7))
        np.testing.assert_array_equal(reg.predict(m1, Xtest),
                                      reg.predict(m2, Xtest))
        m3 = reg.fit("rf", X, y, RfConfig(seed=8))
        assert abs(r2(reg.predict(m1, Xtest))
                   - r2(reg.predict(m3, Xtest))) < 0.1

    def test_prediction_within_tree_range(self):
        X, y = linear_fixture(seed=2)
        model = reg.fit("rf", X, y, RfConfig(n_estimators=10, seed=0))
        per_tree = np.array([_predict_trees([t], X)[0]
                             for t in model.payload["trees"]])
        pred = reg.predict(model, X)
        assert np.all(pred >= per_tree.min(axis=0) - 1e-12)
        assert np.all(pred <= per_tree.max(axis=0) + 1e-12)

    def test_dimension_check(self):
        X, y = linear_fixture()
        model = reg.fit("rf", X, y, RfConfig(n_estimators=2))
        with pytest.raises(DimensionError):
            reg.predict(model, np.zeros(4))


class TestGradientBoosting:
    def test_zero_estimators_predicts_mean(self, gbt_shape):
        X, y = linear_fixture(seed=3)
        gbt_shape(0)
        model = reg.fit("gbt", X, y, GbtConfig())
        np.testing.assert_allclose(reg.predict(model, X), y.mean())

    def test_eta_one_single_tree_reduction(self, gbt_shape):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 2))
        y = (X[:, 0] > 0).astype(float)
        gbt_shape(1, max_depth=6, eta=1.0)
        boosted = reg.fit("gbt", X, y, GbtConfig())
        single = fit_tree(X, y - y.mean(), max_depth=6)
        np.testing.assert_allclose(
            reg.predict(boosted, X), y.mean() + _predict_trees([single], X)[0]
        )

    def test_beats_mean_predictor(self):
        X, y = linear_fixture(seed=5)
        model = reg.fit("gbt", X, y, GbtConfig())
        mse = ((reg.predict(model, X) - y) ** 2).mean()
        assert mse < ((y.mean() - y) ** 2).mean()

    @pytest.mark.parametrize("seed", range(20))
    def test_stagewise_mse_nonincreasing(self, seed, gbt_shape):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 80))
        p = int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        gbt_shape(20, max_depth=3)
        model = reg.fit("gbt", X, y, GbtConfig())
        mse = model.payload["stage_mse"]
        assert all(b <= a + 1e-12 for a, b in zip(mse, mse[1:]))

    def test_row_order_invariance(self, gbt_shape):
        X, y = linear_fixture(seed=6, n=60)
        gbt_shape(10)
        model = reg.fit("gbt", X, y, GbtConfig())
        perm = np.random.default_rng(0).permutation(60)
        model_p = reg.fit("gbt", X[perm], y[perm], GbtConfig())
        np.testing.assert_allclose(reg.predict(model, X),
                                   reg.predict(model_p, X))


class TestMlp:
    def test_null_target(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 3))
        model = reg.fit("mlp", X, np.zeros(50),
                        MlpRegConfig(hidden_layers=(16,), max_iter=500,
                                     seed=0))
        assert np.all(np.abs(reg.predict(model, X)) < 0.05)

    def test_linear_capacity(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 1))
        y = 2 * X[:, 0] + 1
        model = reg.fit("mlp", X, y, MlpRegConfig(hidden_layers=(32,),
                                                  max_iter=2000, seed=0))
        pred = reg.predict(model, X)
        r2 = 1 - ((y - pred) ** 2).sum() / ((y - y.mean()) ** 2).sum()
        assert r2 > 0.99

    def test_deterministic(self):
        X, y = linear_fixture(seed=9, n=40)
        cfg = MlpRegConfig(hidden_layers=(8,), max_iter=200, seed=3)
        a = reg.fit("mlp", X, y, cfg)
        b = reg.fit("mlp", X, y, cfg)
        np.testing.assert_array_equal(reg.predict(a, X), reg.predict(b, X))

    def test_row_order_invariance(self):
        X, y = linear_fixture(seed=10, n=40)
        cfg = MlpRegConfig(hidden_layers=(8,), max_iter=100, seed=3)
        model = reg.fit("mlp", X, y, cfg)
        perm = np.random.default_rng(1).permutation(40)
        model_p = reg.fit("mlp", X[perm], y[perm], cfg)
        np.testing.assert_allclose(reg.predict(model, X),
                                   reg.predict(model_p, X),
                                   rtol=1e-9, atol=1e-12)

    def test_affine_equivariant_in_the_target(self):
        """The net fits standardised targets, so rescaling and shifting y
        rescales and shifts the predictions, to rounding."""
        X, y = linear_fixture(seed=18, n=60)
        cfg = MlpRegConfig(hidden_layers=(16,), max_iter=300, seed=2)
        pred = reg.predict(reg.fit("mlp", X, y, cfg), X)
        scaled = reg.predict(reg.fit("mlp", X, 10 * y - 2, cfg), X)
        np.testing.assert_allclose(scaled, 10 * pred - 2, rtol=0, atol=1e-12)

    def test_constant_column_is_not_scaled_up(self):
        """A column fixed at 0.3 has a mean that rounds, so its std is
        5.6e-17, not 0. It gets scale 1, so 0.31 in that column moves a
        prediction by its first-layer weights times 0.01, not by 1.8e14
        times that (which predicted -3.3e11 m)."""
        X, y = linear_fixture(seed=20, n=50)
        X[:, 1] = 0.3
        assert X[:, 1].std() > 0
        model = reg.fit("mlp", X, 0.3 + 0.05 * y,
                        MlpRegConfig(hidden_layers=(8,), max_iter=50))
        assert model.payload["sigma"][1] == 1.0
        moved = X[:5].copy()
        moved[:, 1] = 0.31
        np.testing.assert_allclose(reg.predict(model, moved),
                                   reg.predict(model, X[:5]), rtol=0,
                                   atol=5e-3)

    def test_folded_checkpoint_round_trip_bit_identical(self, tmp_path):
        X, y = linear_fixture(seed=19, n=40)
        model = reg.fit("mlp", X, 0.3 + 0.05 * y,
                        MlpRegConfig(hidden_layers=(8,), max_iter=50))
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dataio.save_checkpoint(model, first)
        loaded = dataio.load_checkpoint(first, expect="regressor")
        dataio.save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        np.testing.assert_array_equal(reg.predict(loaded, X),
                                      reg.predict(model, X))

    def test_held_out_subject_error_on_default_dataset(self):
        """Default MLP, default seed-1 dataset: fit on 9 subjects, predict
        the tenth. Fit on raw heights for 8000 iterations it erred by
        0.039 m; on standardised heights for 500, by 0.016 m."""
        (X, y), (X_test, y_test) = default_tables()
        model = reg.fit("mlp", X, y, MlpRegConfig())
        rmse = np.sqrt(((reg.predict(model, X_test) - y_test) ** 2).mean())
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
        model = reg.fit("rf", X, X[:, 0], RfConfig(n_estimators=2, seed=0))

        def refuse(*args):
            raise AssertionError("predict called")
        monkeypatch.setattr(reg, "predict", refuse)
        with pytest.raises(ValueError, match="constant truth"):
            permutation_importance(model, X, y, repeats=2, seed=0)

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_rejected_before_predicting(self, repeats,
                                                          monkeypatch):
        X, y = linear_fixture(seed=15, n=20, p=3)
        model = reg.fit("rf", X, y, RfConfig(n_estimators=2, seed=0))

        def refuse(*args):
            raise AssertionError("predict called")
        monkeypatch.setattr(reg, "predict", refuse)
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            permutation_importance(model, X, y, repeats=repeats, seed=0)

    @pytest.mark.parametrize("kind", ["rf", "gbt"])
    def test_stacked_repeats_match_one_predict_per_repeat(self, kind,
                                                          gbt_shape):
        X, y = tied_fixture(seed=16, n=40)
        gbt_shape(10, max_depth=3)
        config = (RfConfig(n_estimators=5, seed=0) if kind == "rf"
                  else GbtConfig())
        model = reg.fit(kind, X, y, config)
        assert (permutation_importance(model, X, y, repeats=4, seed=2)
                == loop_permutation_importance(model, X, y, 4, 2))

    def test_stacked_repeats_match_for_mlp_within_rounding(self):
        # BLAS may block a taller matrix product differently, so the MLP's
        # predictions, unlike a tree's, can move in the last bits.
        X, y = tied_fixture(seed=17, n=40)
        model = reg.fit("mlp", X, y, MlpRegConfig(hidden_layers=(8,),
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

    def test_exact_dependence_ranked_first(self, gbt_shape):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(100, 5))
        y = X[:, 3].copy()
        gbt_shape(50, max_depth=3)
        model = reg.fit("gbt", X, y, GbtConfig())
        ranked = permutation_importance(model, X, y, repeats=5, seed=0)
        assert ranked[0][0] == 3

    def test_reproducible(self):
        X, y = linear_fixture(seed=14, n=50, p=3)
        model = reg.fit("rf", X, y, RfConfig(n_estimators=5, seed=0))
        a = permutation_importance(model, X, y, repeats=3, seed=1)
        b = permutation_importance(model, X, y, repeats=3, seed=1)
        assert a == b
        assert np.isfinite(sum(v for _, v in a))
