"""Jump-height regressors: random forest, gradient-boosted trees and a small
MLP, all fit on the 145-dimensional feature vectors, plus permutation-based
feature importance.

Trees are CART-style with the squared-error criterion: greedy best split by
sum-of-squared-error reduction, midpoint split candidates, best-first growth
under a leaf budget. The split search is exact and covers all candidate
features of a node in one vectorised pass. Permutation importance makes one
predict call per feature, over all its permuted repeats stacked together.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from . import nncore
from .features import CATALOG_VERSION
from .nncore import AdamState, DimensionError


RF_MAX_DEPTH = 10  # the shape of each forest tree
RF_MAX_LEAF_NODES = 15
MLP_LR = 1e-3  # the MLP's Adam step size


@dataclass
class RfConfig:
    n_estimators: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")


def _check_eta(eta) -> None:
    if not 0 < eta <= 1:
        raise ValueError("eta must be in (0, 1]")


@dataclass
class GbtConfig:
    eta: float = 0.1
    n_estimators: int = 100
    max_depth: int = 6

    def __post_init__(self):
        _check_eta(self.eta)


@dataclass
class MlpRegConfig:
    hidden_layers: tuple = (100,)
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class TrainedRegressor:
    kind: str  # "rf" | "gbt" | "mlp"
    payload: dict  # rf: trees; gbt: base, eta, trees (+ stage_mse from
    #                fit_gbt); mlp: layers, mu, sigma
    input_dim: int


# ---------------------------------------------------------------- trees

@dataclass
class Tree:
    """A regression tree as parallel per-node arrays. Node 0 is the root and
    children come after their parent, so every walk ends at a leaf."""
    feature: np.ndarray    # int64, -1 on leaves
    threshold: np.ndarray  # float64; a row goes left if x[feature] <= it
    left: np.ndarray       # int64 child index, -1 on leaves
    right: np.ndarray      # int64 child index, -1 on leaves
    value: np.ndarray      # float64 mean target of the node's rows


def _best_split(X, y, idx, features):
    """Best (gain, feature, threshold, order, cut) over candidate features,
    or None when no feature has two distinct values among the rows `idx`.

    Gain is the SSE reduction; split candidates are midpoints between
    consecutive distinct sorted values. `order` sorts `idx` by the chosen
    feature and its first `cut` rows go left. Ties break toward the earlier
    candidate feature, then the lower threshold.

    All candidate features are searched in one pass: gains[k, c] is the gain
    of sending the k + 1 smallest values of candidate c to the left.
    """
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
    # Sequential, so a later feature must beat the best so far by 1e-15.
    for c, (gain, has_cut) in enumerate(zip(col_gains,
                                            distinct.any(axis=0).tolist())):
        if has_cut and (best is None or gain > best + 1e-15):
            best, j = gain, c
    if j is None:
        return None
    k = cuts[j]
    thr = (xs[k, j] + xs[k + 1, j]) / 2.0
    return best, features[j], thr, order[:, j], k + 1


def fit_tree(
    X,
    y,
    max_depth: int | None = None,
    max_leaf_nodes: int | None = None,
    features_per_split: int | None = None,
    rng: np.random.Generator | None = None,
) -> Tree:
    """Fit one regression tree; best-first growth under the leaf budget."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a non-empty 2-D array")
    if y.shape != (X.shape[0],):
        raise DimensionError("y length must match X rows")
    p = X.shape[1]
    if rng is None:
        rng = np.random.default_rng(0)

    def candidate_features():
        if features_per_split is None or features_per_split >= p:
            return range(p)
        return np.sort(rng.choice(p, size=features_per_split, replace=False))

    # One row per node: feature, threshold, left, right, value.
    nodes = [[-1, 0.0, -1, -1, float(y.mean())]]
    heap = []  # equal gains pop in node order, the order of creation

    def consider(node, idx, depth):
        if max_depth is not None and depth >= max_depth:
            return
        if idx.size < 2 or np.ptp(y[idx]) == 0:
            return
        split = _best_split(X, y, idx, candidate_features())
        if split is None or split[0] <= 0.0:
            return
        heapq.heappush(heap, (-split[0], node, idx, depth, split))

    consider(0, np.arange(X.shape[0]), 0)
    while heap:
        # Each split adds one leaf, so n nodes hold n // 2 + 1 leaves.
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
    return Tree(*(np.array(col) for col in zip(*nodes)))


def _walk(tree: Tree, X: np.ndarray, node: np.ndarray,
          rows: np.ndarray) -> np.ndarray:
    """Advance each start `node[i]`, in place, to the leaf that row `rows[i]`
    of X reaches; all walks go down together, one level per step."""
    live = np.arange(node.size)
    while live.size:
        live = live[tree.feature[node[live]] >= 0]
        at = node[live]
        go_left = X[rows[live], tree.feature[at]] <= tree.threshold[at]
        node[live] = np.where(go_left, tree.left[at], tree.right[at])
    return node


# Walks per step of `_predict_trees`: one joined walk beats a walk per tree
# by 8x on 20 rows, but on thousands of rows the joined index arrays leave
# the cache, so rows go in blocks of about this many walks.
WALK_BLOCK = 16384


def _predict_trees(trees: list[Tree], X: np.ndarray) -> np.ndarray:
    """(trees, rows) leaf values: every tree walked at once over their node
    arrays joined in order, with child indexes shifted by each tree's
    offset."""
    n = X.shape[0]
    out = np.empty((len(trees), n))
    if not trees:
        return out
    sizes = [t.feature.size for t in trees]
    offsets = np.cumsum([0, *sizes[:-1]])
    shift = np.repeat(offsets, sizes)
    joined = Tree(*(np.concatenate([getattr(t, f.name) for t in trees])
                    for f in fields(Tree)))
    inner = joined.feature >= 0
    joined.left[inner] += shift[inner]
    joined.right[inner] += shift[inner]
    step = max(1, WALK_BLOCK // len(trees))
    for a in range(0, n, step):
        rows = np.arange(a, min(a + step, n))
        leaves = _walk(joined, X, np.repeat(offsets, rows.size),
                       np.tile(rows, len(trees)))
        out[:, rows] = joined.value[leaves].reshape(len(trees), rows.size)
    return out


def _check_input(model: TrainedRegressor, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != model.input_dim:
        raise DimensionError(
            f"expected {model.input_dim} features, got {X.shape[1]}"
        )
    return X, single


# --------------------------------------------------------------- forest

def fit_rf(X, y, config: RfConfig) -> TrainedRegressor:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = X.shape[1]
    fps = math.ceil(p / 3)
    master = np.random.default_rng(config.seed)
    trees = []
    for _ in range(config.n_estimators):
        tree_rng = np.random.default_rng(master.integers(0, 2**63))
        idx = tree_rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(
            fit_tree(
                X[idx], y[idx],
                max_depth=RF_MAX_DEPTH,
                max_leaf_nodes=RF_MAX_LEAF_NODES,
                features_per_split=fps,
                rng=tree_rng,
            )
        )
    return TrainedRegressor("rf", {"trees": trees}, p)


def predict_rf(model: TrainedRegressor, X):
    X, single = _check_input(model, X)
    preds = np.mean(_predict_trees(model.payload["trees"], X), axis=0)
    return float(preds[0]) if single else preds


# ------------------------------------------------------------- boosting

def fit_gbt(X, y, config: GbtConfig) -> TrainedRegressor:
    """Stagewise squared-error boosting: each tree fits the running residual."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    base = float(y.mean())
    current = np.full(y.shape, base)
    trees = []
    stage_mse = [float(((y - current) ** 2).mean())]
    for _ in range(config.n_estimators):
        tree = fit_tree(X, y - current, max_depth=config.max_depth)
        current = current + config.eta * _predict_trees([tree], X)[0]
        trees.append(tree)
        stage_mse.append(float(((y - current) ** 2).mean()))
    payload = {"base": base, "trees": trees, "eta": config.eta,
               "stage_mse": stage_mse}
    return TrainedRegressor("gbt", payload, X.shape[1])


def predict_gbt(model: TrainedRegressor, X):
    X, single = _check_input(model, X)
    preds = np.full(X.shape[0], model.payload["base"])
    eta = model.payload["eta"]
    for values in _predict_trees(model.payload["trees"], X):
        preds += eta * values  # in tree order, as fit_gbt adds them
    return float(preds[0]) if single else preds


# ------------------------------------------------------------------ mlp

# weights (in, out), bias (out,); a checkpoint stores weights as (1, in, out)
Dense = namedtuple("Dense", ["weights", "bias"])


def _init_dense(rng, cin, cout) -> Dense:
    bound = 1.0 / math.sqrt(cin)
    return Dense(rng.uniform(-bound, bound, size=(cin, cout)),
                 rng.uniform(-bound, bound, size=(cout,)))


def _mlp_forward(layers, X):
    """Dense layers over the (n, features) matrix."""
    caches = []
    h = X
    for i, layer in enumerate(layers):
        z = h @ layer.weights + layer.bias
        caches.append((h, z))
        h = nncore.relu(z) if i < len(layers) - 1 else z
    return h, caches


def _mlp_backward(layers, caches, grad_out):
    """Weight and bias gradients of each layer, first layer first. The
    gradient with respect to the input features is never formed."""
    flat = []
    g = grad_out
    for i in range(len(layers) - 1, -1, -1):
        h_in, z = caches[i]
        if i < len(layers) - 1:
            g = nncore.relu_backward(z, g)
        flat[:0] = [h_in.T @ g, g.sum(axis=0)]
        if i:
            g = g @ layers[i].weights.T
    return flat


def fit_mlp_regressor(X, y, config: MlpRegConfig) -> TrainedRegressor:
    """Single-hidden-layer ReLU net on z-scored features and z-scored
    targets, full-batch Adam. The target's mean and scale are folded into
    the output layer, so the net predicts heights directly."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mu = X.mean(axis=0)
    # ptp, not std, tells a constant column or target: one whose mean
    # rounds has std > 0 (5.6e-17 for a column of 0.3)
    sigma = np.where(np.ptp(X, axis=0) > 0, X.std(axis=0), 1.0)
    Xs = (X - mu) / sigma
    y_mean = y.mean()
    y_scale = y.std() if np.ptp(y) > 0 else 1.0
    rng = np.random.default_rng(config.seed)
    dims = [X.shape[1], *config.hidden_layers, 1]
    layers = [_init_dense(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    params = [p for layer in layers for p in layer]
    opt = AdamState(lr=MLP_LR)
    n = X.shape[0]
    yy = ((y - y_mean) / y_scale).reshape(-1, 1)
    for _ in range(config.max_iter):
        pred, caches = _mlp_forward(layers, Xs)
        grad_out = 2.0 * (pred - yy) / n
        grads = _mlp_backward(layers, caches, grad_out)
        nncore.adam_step(params, grads, opt)
    out = layers[-1]
    layers[-1] = Dense(out.weights * y_scale, out.bias * y_scale + y_mean)
    payload = {"layers": layers, "mu": mu, "sigma": sigma}
    return TrainedRegressor("mlp", payload, X.shape[1])


def predict_mlp(model: TrainedRegressor, X):
    X, single = _check_input(model, X)
    Xs = (X - model.payload["mu"]) / model.payload["sigma"]
    pred, _ = _mlp_forward(model.payload["layers"], Xs)
    return float(pred[0, 0]) if single else pred[:, 0]


_PREDICTORS = {"rf": predict_rf, "gbt": predict_gbt, "mlp": predict_mlp}
_FITTERS = {"rf": (fit_rf, RfConfig), "gbt": (fit_gbt, GbtConfig),
            "mlp": (fit_mlp_regressor, MlpRegConfig)}


def predict(model: TrainedRegressor, X):
    return _PREDICTORS[model.kind](model, X)


def fit(kind: str, X, y, config):
    """Fit a `kind` regressor; a `None` config means the kind's defaults."""
    fitter, default = _FITTERS[kind]
    return fitter(X, y, default() if config is None else config)


# ----------------------------------------------------- checkpoint body

# Field -> the JSON value types it accepts; the last one is its array dtype.
_TREE_FIELDS = {"feature": (int,), "threshold": (int, float),
                "left": (int,), "right": (int,), "value": (int, float)}


def _tree_from_doc(doc, input_dim: int, where: str) -> Tree:
    """Per-node arrays from a checkpoint, checked so that every walk from the
    root ends at a leaf."""
    nncore.doc_keys(doc, where, _TREE_FIELDS)
    n = len(doc["feature"]) if isinstance(doc["feature"], list) else 0
    for name, types in _TREE_FIELDS.items():
        col = doc[name]
        if not (n and isinstance(col, list) and len(col) == n
                and all(type(v) in types for v in col)):
            raise ValueError(f"{where}.{name} must be a list of "
                             f"{n or 'one or more'} {types[-1].__name__}s")
    tree = Tree(*(nncore.numbers_from_doc(doc[name], f"{where}.{name}",
                                          types[-1])
                  for name, types in _TREE_FIELDS.items()))
    if tree.feature.min() < -1 or tree.feature.max() >= input_dim:
        raise ValueError(f"{where}.feature must lie in [-1, {input_dim})")
    inner = np.flatnonzero(tree.feature >= 0)
    for name in ("left", "right"):
        child = getattr(tree, name)
        bad = inner[(child[inner] <= inner) | (child[inner] >= n)]
        if bad.size:
            raise ValueError(f"{where}.{name}[{bad[0]}] is {child[bad[0]]}; an "
                             f"inner node's child must lie in ({bad[0]}, {n})")
    return tree


def to_doc(model: TrainedRegressor) -> dict:
    """Checkpoint body: what prediction reads, plus the feature contract."""
    doc = {"input_dim": model.input_dim, "catalog_version": CATALOG_VERSION}
    pl = model.payload
    if model.kind in ("rf", "gbt"):
        if model.kind == "gbt":
            doc["base"] = pl["base"]
            doc["eta"] = pl["eta"]
        doc["trees"] = [{name: getattr(t, name).tolist() for name in _TREE_FIELDS}
                        for t in pl["trees"]]
    elif model.kind == "mlp":
        doc["mu"] = nncore.array_to_doc(pl["mu"])
        doc["sigma"] = nncore.array_to_doc(pl["sigma"])
        doc["layers"] = [
            {"w": nncore.array_to_doc(l.weights[None]),
             "b": nncore.array_to_doc(l.bias)}
            for l in pl["layers"]
        ]
    else:
        raise ValueError(f"unknown regressor kind {model.kind!r}")
    return doc


# The keys of each kind's checkpoint body, as `to_doc` writes them.
_DOC_KEYS = {"rf": ("input_dim", "catalog_version", "trees"),
             "gbt": ("input_dim", "catalog_version", "base", "eta", "trees"),
             "mlp": ("input_dim", "catalog_version", "mu", "sigma", "layers")}


def from_doc(kind, doc: dict) -> TrainedRegressor:
    """The regressor of a checkpoint body; any key that `to_doc` does not
    write, at any level, is refused."""
    if type(kind) is not str or kind not in _DOC_KEYS:
        raise ValueError(f"unknown regressor kind {kind!r}")
    nncore.doc_keys(doc, "", _DOC_KEYS[kind])
    version = nncore.doc_field(doc, "catalog_version", int)
    if version != CATALOG_VERSION:
        raise ValueError(
            f"regressor was fit on feature catalog version {version}, this "
            f"build extracts version {CATALOG_VERSION}")
    input_dim = nncore.doc_field(doc, "input_dim", int)
    if kind in ("rf", "gbt"):
        trees = doc["trees"]
        if not isinstance(trees, list) or (kind == "rf" and not trees):
            raise ValueError("field 'trees' must be a list of trees, one or "
                             "more for rf")
        payload = {"trees": [_tree_from_doc(t, input_dim, f"trees[{k}]")
                             for k, t in enumerate(trees)]}
        if kind == "gbt":
            eta = nncore.doc_field(doc, "eta", int, float)
            _check_eta(eta)
            payload.update(base=float(nncore.doc_field(doc, "base", int, float)),
                           eta=eta)
    else:
        payload = {k: nncore.array_from_doc(doc[k], k) for k in ("mu", "sigma")}
        widths = [payload["mu"].shape, payload["sigma"].shape]
        if widths != [(input_dim,)] * 2:
            raise ValueError(f"field 'input_dim' is {input_dim}, but mu and "
                             f"sigma have widths {widths}")
        bad = np.flatnonzero(payload["sigma"] <= 0)
        if bad.size:
            raise ValueError(f"field 'sigma[{bad[0]}]' is "
                             f"{payload['sigma'][bad[0]]}, not positive")
        payload["layers"], width = [], input_dim  # width: the next layer's input
        for k, layer in enumerate(nncore.doc_field(doc, "layers", list)):
            nncore.doc_keys(layer, f"layers[{k}]", ("w", "b"))
            w, b = (nncore.array_from_doc(layer[p], f"layers[{k}].{p}")
                    for p in "wb")
            if w.ndim != 3 or w.shape[:2] != (1, width) or b.shape != w.shape[2:]:
                raise ValueError(f"field 'layers[{k}]' has shapes w {w.shape} "
                                 f"and b {b.shape}, expected (1, {width}, n) "
                                 f"and (n,)")
            payload["layers"].append(Dense(w[0], b))
            width = w.shape[2]
        if not payload["layers"] or width != 1:
            raise ValueError("field 'layers' must end in one output")
    return TrainedRegressor(kind, payload, input_dim)


# --------------------------------------------------------- importance

def permutation_importance(
    model: TrainedRegressor, X, y, repeats: int, seed: int
) -> list[tuple[int, float]]:
    """Per-feature drop in R^2 when the feature column is shuffled.

    Returns (feature index, importance) pairs sorted by descending
    importance, ties broken by feature index.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if np.ptp(y) == 0:
        raise ValueError("permutation importance undefined for constant "
                         "targets (R^2 has no variance to explain)")

    def r2(pred):
        ss_tot = ((y - y.mean()) ** 2).sum()
        return 1.0 - ((y - pred) ** 2).sum() / ss_tot

    baseline = r2(predict(model, X))
    rng = np.random.default_rng(seed)
    # The repeats of one column are stacked and predicted together; stacking
    # every column too would hold repeats * rows * features**2 values.
    stacked = np.tile(X, (repeats, 1))
    importances = []
    for j in range(X.shape[1]):
        stacked[:, j] = np.concatenate([rng.permutation(X[:, j])
                                        for _ in range(repeats)])
        preds = predict(model, stacked).reshape(repeats, -1)
        stacked[:, j] = np.tile(X[:, j], repeats)
        drops = [baseline - r2(pred) for pred in preds]
        importances.append((j, float(np.mean(drops))))
    importances.sort(key=lambda t: (-t[1], t[0]))
    return importances
