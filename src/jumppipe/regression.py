"""Jump-height regressors: random forest, gradient-boosted trees and a small
MLP, all fit on the 145-dimensional feature vectors, plus permutation-based
feature importance.

Trees are CART-style with the squared-error criterion: greedy best split by
sum-of-squared-error reduction, midpoint split candidates, best-first growth
under a leaf budget.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import nncore
from .features import CATALOG_VERSION
from .nncore import AdamState, DimensionError


@dataclass
class RfConfig:
    n_estimators: int = 50
    max_depth: int = 10
    max_leaf_nodes: int = 15
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1 or self.max_depth < 1:
            raise ValueError("n_estimators and max_depth must be >= 1")


def _check_eta(eta) -> None:
    if not 0 < eta <= 1:
        raise ValueError("eta must be in (0, 1]")


@dataclass
class GbtConfig:
    eta: float = 0.1
    n_estimators: int = 100
    max_depth: int = 6
    gamma: float = 0.0  # minimum split gain
    seed: int = 0

    def __post_init__(self):
        _check_eta(self.eta)
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")


@dataclass
class MlpRegConfig:
    hidden_layers: tuple = (100,)
    max_iter: int = 8000
    lr: float = 1e-3
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
    catalog_version: int = CATALOG_VERSION


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
    """Best (gain, feature, threshold) over candidate features.

    Gain is the SSE reduction; split candidates are midpoints between
    consecutive distinct sorted values. Ties break toward the lower feature
    index, then the lower threshold.
    """
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


def fit_tree(
    X,
    y,
    max_depth: int | None = None,
    max_leaf_nodes: int | None = None,
    min_gain: float = 0.0,
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
        if split is None or split[0] <= min_gain:
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


def predict_tree(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Walk all rows down the tree together, one level per step."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])
    while rows.size:
        rows = rows[tree.feature[node[rows]] >= 0]
        at = node[rows]
        go_left = X[rows, tree.feature[at]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
    return tree.value[node]


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

def fit_rf(X, y, config: RfConfig = RfConfig()) -> TrainedRegressor:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = X.shape[1]
    fps = math.ceil(p / 3)
    master = np.random.default_rng(config.seed)
    trees = []
    for _ in range(config.n_estimators):
        tree_rng = np.random.default_rng(master.integers(0, 2**63))
        if config.bootstrap:
            idx = tree_rng.integers(0, X.shape[0], size=X.shape[0])
        else:
            idx = np.arange(X.shape[0])
        trees.append(
            fit_tree(
                X[idx], y[idx],
                max_depth=config.max_depth,
                max_leaf_nodes=config.max_leaf_nodes,
                features_per_split=fps,
                rng=tree_rng,
            )
        )
    return TrainedRegressor("rf", {"trees": trees}, p)


def predict_rf(model: TrainedRegressor, X):
    X, single = _check_input(model, X)
    preds = np.mean([predict_tree(t, X) for t in model.payload["trees"]], axis=0)
    return float(preds[0]) if single else preds


# ------------------------------------------------------------- boosting

def fit_gbt(X, y, config: GbtConfig = GbtConfig()) -> TrainedRegressor:
    """Stagewise squared-error boosting: each tree fits the running residual."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    base = float(y.mean())
    current = np.full(y.shape, base)
    trees = []
    stage_mse = [float(((y - current) ** 2).mean())]
    for _ in range(config.n_estimators):
        tree = fit_tree(X, y - current, max_depth=config.max_depth,
                        min_gain=config.gamma)
        current = current + config.eta * predict_tree(tree, X)
        trees.append(tree)
        stage_mse.append(float(((y - current) ** 2).mean()))
    payload = {"base": base, "trees": trees, "eta": config.eta,
               "stage_mse": stage_mse}
    return TrainedRegressor("gbt", payload, X.shape[1])


def predict_gbt(model: TrainedRegressor, X):
    X, single = _check_input(model, X)
    preds = np.full(X.shape[0], model.payload["base"])
    eta = model.payload["eta"]
    for tree in model.payload["trees"]:
        preds += eta * predict_tree(tree, X)
    return float(preds[0]) if single else preds


# ------------------------------------------------------------------ mlp

def _init_dense(rng, cin, cout) -> nncore.ConvKernel:
    bound = 1.0 / math.sqrt(cin)
    return nncore.ConvKernel(
        weights=rng.uniform(-bound, bound, size=(1, cin, cout)),
        bias=rng.uniform(-bound, bound, size=(cout,)),
    )


def _mlp_forward(layers, X):
    """Dense layers are 1x1 convolutions over the (n, features) matrix."""
    caches = []
    h = X
    for i, layer in enumerate(layers):
        z = nncore.conv1d_dilated(h, layer)
        caches.append((h, z))
        h = nncore.relu(z) if i < len(layers) - 1 else z
    return h, caches


def _mlp_backward(layers, caches, grad_out):
    grads = []
    g = grad_out
    for i in range(len(layers) - 1, -1, -1):
        h_in, z = caches[i]
        if i < len(layers) - 1:
            g = nncore.relu_backward(z, g)
        g, gw, gb = nncore.conv1d_backward(h_in, layers[i], g)
        grads.append((gw, gb))
    flat = []
    for gw, gb in reversed(grads):
        flat.extend([gw, gb])
    return flat


def fit_mlp_regressor(X, y, config: MlpRegConfig = MlpRegConfig()) -> TrainedRegressor:
    """Single-hidden-layer ReLU net on z-scored features, full-batch Adam."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma = np.where(sigma > 0, sigma, 1.0)
    Xs = (X - mu) / sigma
    rng = np.random.default_rng(config.seed)
    dims = [X.shape[1], *config.hidden_layers, 1]
    layers = [_init_dense(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    params = []
    for layer in layers:
        params.extend([layer.weights, layer.bias])
    opt = AdamState(lr=config.lr)
    n = X.shape[0]
    yy = y.reshape(-1, 1)
    for _ in range(config.max_iter):
        pred, caches = _mlp_forward(layers, Xs)
        grad_out = 2.0 * (pred - yy) / n
        grads = _mlp_backward(layers, caches, grad_out)
        nncore.adam_step(params, grads, opt)
    payload = {"layers": layers, "mu": mu, "sigma": sigma}
    return TrainedRegressor("mlp", payload, X.shape[1])


def predict_mlp(model: TrainedRegressor, X):
    X, single = _check_input(model, X)
    Xs = (X - model.payload["mu"]) / model.payload["sigma"]
    pred, _ = _mlp_forward(model.payload["layers"], Xs)
    return float(pred[0, 0]) if single else pred[:, 0]


_PREDICTORS = {"rf": predict_rf, "gbt": predict_gbt, "mlp": predict_mlp}
_FITTERS = {"rf": fit_rf, "gbt": fit_gbt, "mlp": fit_mlp_regressor}


def predict(model: TrainedRegressor, X):
    return _PREDICTORS[model.kind](model, X)


def fit(kind: str, X, y, config=None):
    fitter = _FITTERS[kind]
    return fitter(X, y) if config is None else fitter(X, y, config)


# ----------------------------------------------------- checkpoint body

# Field -> the JSON value types it accepts; the last one is its array dtype.
_TREE_FIELDS = {"feature": (int,), "threshold": (int, float),
                "left": (int,), "right": (int,), "value": (int, float)}


def _tree_from_doc(doc, input_dim: int, where: str) -> Tree:
    """Per-node arrays from a checkpoint, checked so that every walk from the
    root ends at a leaf."""
    n = len(doc["feature"]) if isinstance(doc["feature"], list) else 0
    for name, types in _TREE_FIELDS.items():
        col = doc[name]
        if not (n and isinstance(col, list) and len(col) == n
                and all(type(v) in types for v in col)):
            raise ValueError(f"{where}.{name} must be a list of "
                             f"{n or 'one or more'} {types[-1].__name__}s")
    tree = Tree(*(np.array(doc[name], dtype=types[-1])
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
    doc = {"input_dim": model.input_dim,
           "catalog_version": model.catalog_version}
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
            {"w": nncore.array_to_doc(l.weights),
             "b": nncore.array_to_doc(l.bias)}
            for l in pl["layers"]
        ]
    else:
        raise ValueError(f"unknown regressor kind {model.kind!r}")
    return doc


def from_doc(kind: str, doc) -> TrainedRegressor:
    if doc["catalog_version"] != CATALOG_VERSION:
        raise ValueError(
            f"regressor was fit on feature catalog version "
            f"{doc['catalog_version']}, this build extracts version "
            f"{CATALOG_VERSION}")
    input_dim = doc["input_dim"]
    if kind in ("rf", "gbt"):
        trees = doc["trees"]
        if not isinstance(trees, list) or (kind == "rf" and not trees):
            raise ValueError("field 'trees' must be a list of trees, one or "
                             "more for rf")
        payload = {"trees": [_tree_from_doc(t, input_dim, f"trees[{k}]")
                             for k, t in enumerate(trees)]}
        if kind == "gbt":
            _check_eta(doc["eta"])
            payload.update(base=doc["base"], eta=doc["eta"])
    elif kind == "mlp":
        payload = {
            "mu": nncore.array_from_doc(doc["mu"]),
            "sigma": nncore.array_from_doc(doc["sigma"]),
            "layers": [
                nncore.ConvKernel(weights=nncore.array_from_doc(l["w"]),
                                  bias=nncore.array_from_doc(l["b"]))
                for l in doc["layers"]
            ],
        }
        widths = [payload["mu"].shape, payload["sigma"].shape,
                  tuple(l.in_channels for l in payload["layers"][:1])]
        if widths != [(input_dim,)] * 3:
            raise ValueError(f"field 'input_dim' is {input_dim}, but mu, sigma "
                             f"and the first layer have widths {widths}")
    else:
        raise ValueError(f"unknown regressor kind {kind!r}")
    return TrainedRegressor(kind, payload, input_dim, doc["catalog_version"])


# --------------------------------------------------------- importance

def permutation_importance(
    model: TrainedRegressor, X, y, repeats: int = 10, seed: int = 0
) -> list[tuple[int, float]]:
    """Per-feature drop in R^2 when the feature column is shuffled.

    Returns (feature index, importance) pairs sorted by descending
    importance, ties broken by feature index.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def r2(pred):
        ss_tot = ((y - y.mean()) ** 2).sum()
        return 1.0 - ((y - pred) ** 2).sum() / ss_tot

    baseline = r2(predict(model, X))
    rng = np.random.default_rng(seed)
    importances = []
    for j in range(X.shape[1]):
        drops = []
        for _ in range(repeats):
            Xp = X.copy()
            Xp[:, j] = rng.permutation(Xp[:, j])
            drops.append(baseline - r2(predict(model, Xp)))
        importances.append((j, float(np.mean(drops))))
    importances.sort(key=lambda t: (-t[1], t[0]))
    return importances
