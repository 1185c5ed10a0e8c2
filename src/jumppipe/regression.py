"""Jump-height regressors: random forest, gradient-boosted trees and a small
MLP, all fit on the 145-dimensional feature vectors.

Trees are CART-style with the squared-error criterion: greedy best split by
sum-of-squared-error reduction, midpoint split candidates, best-first growth
under a leaf budget. The split search is exact and covers all candidate
features of a node in one vectorised pass. It sorts integer keys, not
floats: a fit ranks every column of X once (an ensemble once for all its
trees, in int32 while the keys fit), and a node sorts keys that pack each
row's rank above its position in the node, which orders the rows as a
stable argsort of the values would. Between features, a later one must beat
the best so far by more than TIE_MARGIN; that scan is vectorised too.
`fit` and `predict` are the one way in: each checks its input once and finds
the kind's code in one table, `KINDS`.
"""

from __future__ import annotations

import heapq
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from . import nncore
from .features import CATALOG_VERSION
from .nncore import AdamState, DimensionError


RF_MAX_DEPTH = 10  # the shape of each forest tree
RF_MAX_LEAF_NODES = 15
GBT_ETA = 0.1  # boosting's step, stage count and tree depth
GBT_N_ESTIMATORS = 100
GBT_MAX_DEPTH = 6
MLP_LR = 1e-3  # the MLP's Adam step size


@dataclass
class RfConfig:
    n_estimators: int = 50
    seed: int = 0

    def __post_init__(self):
        nncore.check_ints(self, 1, "n_estimators")
        nncore.check_ints(self, 0, "seed")


@dataclass
class GbtConfig:
    """No fields: boosting's settings are the GBT_* constants."""


@dataclass
class MlpRegConfig:
    hidden_layers: tuple = (100,)
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self):
        widths = self.hidden_layers
        if not (isinstance(widths, tuple) and widths and all(
                isinstance(w, numbers.Integral) and w >= 1 for w in widths)):
            raise ValueError(f"hidden_layers must be a tuple of one or more "
                             f"widths >= 1, got {widths!r}")
        nncore.check_ints(self, 1, "max_iter")
        nncore.check_ints(self, 0, "seed")


@dataclass
class TrainedRegressor:
    kind: str  # a key of KINDS
    payload: dict  # rf: trees; gbt: base, eta, trees (+ stage_mse from
    #                _fit_gbt); mlp: layers, mu, sigma
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


def _fit_input(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float64, refused before any fitting unless X is a
    non-empty, finite 2-D table and y holds one finite target per row."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.size == 0:
        raise ValueError(f"X must be a non-empty 2-D array, got shape "
                         f"{X.shape}")
    if y.shape != (X.shape[0],):
        raise DimensionError(f"y must hold one target per row of X: y has "
                             f"shape {y.shape}, X has {X.shape[0]} rows")
    for name, a in (("X", X), ("y", y)):
        bad = np.argwhere(~np.isfinite(a))
        if bad.size:
            at = tuple(bad[0].tolist())
            raise ValueError(f"{name}{list(at)} is {a[at]}, not finite")
    return X, y


def _rank_columns(X) -> np.ndarray:
    """(features, rows) rank of each value of X within its column: equal
    values share a rank (-0.0 == 0.0) and ranks keep the values' order, so a
    node can sort integer keys instead of floats. A key packs a rank above a
    position, each below 2**b for b = rows.bit_length(), so the ranks are
    int32, which sorts faster, while 2 b < 31, and int64 otherwise."""
    rows = X.shape[0]
    dtype = np.int32 if 2 * rows.bit_length() < 31 else np.int64
    order = np.argsort(X.T, axis=1, kind="stable")
    xs = np.take_along_axis(X.T, order, axis=1)
    steps = np.zeros(xs.shape, dtype=dtype)
    steps[:, 1:] = xs[:, 1:] != xs[:, :-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps.cumsum(axis=1, dtype=dtype), axis=1)
    return ranks


# A later candidate feature must beat the best so far by more than this.
TIE_MARGIN = 1e-15


def _tie_break(col_gains: np.ndarray):
    """The index of `col_gains` that an in-order scan keeps, where an entry
    replaces the best so far only if it beats it by more than TIE_MARGIN;
    None if every entry is -inf (no cut).

    The scan keeps the first maximum unless an earlier entry plus the margin
    reaches it. Then it ends on a record at or before that maximum: its
    chain of records restarts at the last entry that beats every earlier one
    by more than the margin, and each step finds the next record by a search
    of the running maximum."""
    m = int(col_gains.argmax())
    top = col_gains[m]
    if top == -np.inf:
        return None
    peak = np.maximum.accumulate(col_gains)
    if m == 0 or top > peak[m - 1] + TIE_MARGIN:
        return m
    clear = np.flatnonzero(col_gains[1:m] > peak[:m - 1] + TIE_MARGIN)
    r = int(clear[-1]) + 1 if clear.size else 0
    while True:
        nxt = int(peak.searchsorted(col_gains[r] + TIE_MARGIN, "right"))
        if nxt > m:
            return r
        r = nxt


def _best_split(X, ranks, y, idx, features):
    """Best (gain, feature, threshold, order, cut) over candidate features,
    or None when no feature has two distinct values among the rows `idx`.

    Gain is the SSE reduction; split candidates are midpoints between
    consecutive distinct sorted values. `order` sorts `idx` by the chosen
    feature and its first `cut` rows go left. Ties break toward the earlier
    candidate feature, then the lower threshold: a later feature must beat
    the best so far by more than TIE_MARGIN (`_tie_break`).

    All candidate features are searched in one pass: gains[c, k] is the gain
    of sending the k + 1 smallest values of candidate c to the left. Each
    row's key packs its column rank (`_rank_columns(X)`) above its position
    in `idx`. The keys are unique, so sorting them orders the rows by value
    with ties in node order, as a stable argsort of the values would.
    """
    features = np.asarray(features, dtype=np.int64)
    yi = y[idx]
    n = idx.size
    total_sum = yi.sum()
    total_sq = (yi**2).sum()
    parent_sse = total_sq - total_sum**2 / n
    shift = n.bit_length()
    # every column in order: gather the node's columns from `ranks` itself
    every = features.tobytes() == np.arange(ranks.shape[0]).tobytes()
    keys = (ranks if every else ranks[features]).take(idx, axis=1)
    keys <<= shift
    keys |= np.arange(n, dtype=keys.dtype)
    keys.sort()
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    tied = keys[:, 1:] == keys[:, :-1]  # no cut between equal values
    sl = yi[order[:, :-1]]
    np.cumsum(sl, axis=1, out=sl)
    nl = np.arange(1, n)
    # parent_sse - (total_sq - sl**2 / nl - sr**2 / (n - nl)), in place
    sr = np.subtract(total_sum, sl)
    gains = np.square(sl)
    gains /= nl
    np.square(sr, out=sr)
    sr /= n - nl
    np.subtract(total_sq, gains, out=gains)
    gains -= sr
    np.subtract(parent_sse, gains, out=gains)
    np.putmask(gains, tied, -np.inf)
    cuts = gains.argmax(axis=1)
    col_gains = gains[np.arange(features.size), cuts]
    j = _tie_break(col_gains)
    if j is None:
        return None
    k = cuts[j]
    f = features[j]
    lo, hi = idx[order[j, k:k + 2]]
    thr = (X[lo, f] + X[hi, f]) / 2.0
    return float(col_gains[j]), f, thr, order[j], k + 1


def _grow(X, ranks, y, rows, max_depth, max_leaf_nodes, features_per_split,
          rng) -> Tree:
    """One tree on the rows `rows` of X (repeats allowed), with `ranks` from
    `_rank_columns(X)`; best-first growth under the leaf budget."""
    p = X.shape[1]
    every = np.arange(p)

    def candidate_features():
        if features_per_split is None or features_per_split >= p:
            return every
        return np.sort(rng.choice(p, size=features_per_split, replace=False))

    def mean(i):  # np.mean's arithmetic without its wrapper
        return float(y[i].sum() / i.size)

    # One row per node: feature, threshold, left, right, value.
    nodes = [[-1, 0.0, -1, -1, mean(rows)]]
    heap = []  # equal gains pop in node order, the order of creation

    def consider(node, idx, depth):
        if max_depth is not None and depth >= max_depth:
            return
        if idx.size < 2 or np.ptp(y[idx]) == 0:
            return
        split = _best_split(X, ranks, y, idx, candidate_features())
        if split is None or split[0] <= 0.0:
            return
        heapq.heappush(heap, (-split[0], node, idx, depth, split))

    consider(0, rows, 0)
    while heap:
        # Each split adds one leaf, so n nodes hold n // 2 + 1 leaves.
        if max_leaf_nodes is not None and len(nodes) // 2 + 1 >= max_leaf_nodes:
            break
        _, node, idx, depth, (gain, f, thr, order, cut) = heapq.heappop(heap)
        left_idx = idx[order[:cut]]
        right_idx = idx[order[cut:]]
        nodes[node][:4] = f, thr, len(nodes), len(nodes) + 1
        nodes += [[-1, 0.0, -1, -1, mean(i)] for i in (left_idx, right_idx)]
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


# --------------------------------------------------------------- forest

def _fit_rf(X, y, config: RfConfig) -> dict:
    """Bagged trees, each grown on its bootstrap's row indexes over one
    ranking of X."""
    ranks = _rank_columns(X)
    fps = math.ceil(X.shape[1] / 3)
    master = np.random.default_rng(config.seed)
    trees = []
    for _ in range(config.n_estimators):
        tree_rng = np.random.default_rng(master.integers(0, 2**63))
        idx = tree_rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(_grow(X, ranks, y, idx, RF_MAX_DEPTH, RF_MAX_LEAF_NODES,
                           fps, tree_rng))
    return {"trees": trees}


def _predict_rf(payload: dict, X) -> np.ndarray:
    return np.mean(_predict_trees(payload["trees"], X), axis=0)


# ------------------------------------------------------------- boosting

def _fit_gbt(X, y, config: GbtConfig) -> dict:
    """Stagewise squared-error boosting: each tree fits the running residual.
    X is ranked once for all the trees. The shape is the module's GBT_*
    constants, read on each call."""
    ranks, rows = _rank_columns(X), np.arange(X.shape[0])
    base = float(y.mean())
    current = np.full(y.shape, base)
    trees = []
    stage_mse = [float(((y - current) ** 2).mean())]
    for _ in range(GBT_N_ESTIMATORS):
        tree = _grow(X, ranks, y - current, rows, GBT_MAX_DEPTH,
                     max_leaf_nodes=None, features_per_split=None, rng=None)
        current = current + GBT_ETA * _predict_trees([tree], X)[0]
        trees.append(tree)
        stage_mse.append(float(((y - current) ** 2).mean()))
    return {"base": base, "trees": trees, "eta": GBT_ETA,
            "stage_mse": stage_mse}


def _predict_gbt(payload: dict, X) -> np.ndarray:
    preds = np.full(X.shape[0], payload["base"])
    for values in _predict_trees(payload["trees"], X):
        preds += payload["eta"] * values  # in tree order, as fitted
    return preds


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


def _fit_mlp(X, y, config: MlpRegConfig) -> dict:
    """Single-hidden-layer ReLU net on z-scored features and z-scored
    targets, full-batch Adam. The target's mean and scale are folded into
    the output layer, so the net predicts heights directly."""
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
    return {"layers": layers, "mu": mu, "sigma": sigma}


def _predict_mlp(payload: dict, X) -> np.ndarray:
    pred, _ = _mlp_forward(payload["layers"],
                           (X - payload["mu"]) / payload["sigma"])
    return pred[:, 0]


# ----------------------------------------------------------- front door

# A kind's fitter takes X and y as `_fit_input` returns them and gives the
# payload; its predictor takes the payload and a 2-D X of `input_dim`
# columns; `doc_keys` are the keys its checkpoint body holds beside
# input_dim and catalog_version, as `to_doc` writes them.
Kind = namedtuple("Kind", ["fit", "predict", "config", "doc_keys"])
KINDS = {"rf": Kind(_fit_rf, _predict_rf, RfConfig, ("trees",)),
         "gbt": Kind(_fit_gbt, _predict_gbt, GbtConfig,
                     ("base", "eta", "trees")),
         "mlp": Kind(_fit_mlp, _predict_mlp, MlpRegConfig,
                     ("mu", "sigma", "layers"))}


def _kind(kind) -> Kind:
    if type(kind) is not str or kind not in KINDS:
        raise ValueError(f"unknown regressor kind {kind!r}; the kinds are "
                         f"{', '.join(KINDS)}")
    return KINDS[kind]


def fit(kind: str, X, y, config) -> TrainedRegressor:
    """Fit a `kind` regressor; a `None` config means the kind's defaults.
    X and y are checked once, before any work (`_fit_input`)."""
    entry = _kind(kind)
    X, y = _fit_input(X, y)
    payload = entry.fit(X, y, entry.config() if config is None else config)
    return TrainedRegressor(kind, payload, X.shape[1])


def predict(model: TrainedRegressor, X):
    """The height of each row of X, or a float for a 1-D X of one row."""
    X = np.asarray(X, dtype=np.float64)
    rows = np.atleast_2d(X)
    if rows.ndim != 2 or rows.shape[1] != model.input_dim:
        raise DimensionError(f"expected rows of {model.input_dim} features, "
                             f"got an array of shape {X.shape}")
    preds = _kind(model.kind).predict(model.payload, rows)
    return float(preds[0]) if X.ndim == 1 else preds


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
    _kind(model.kind)  # refuses an unknown kind
    doc = {"input_dim": model.input_dim, "catalog_version": CATALOG_VERSION}
    pl = model.payload
    if model.kind in ("rf", "gbt"):
        if model.kind == "gbt":
            doc["base"] = pl["base"]
            doc["eta"] = pl["eta"]
        doc["trees"] = [{name: getattr(t, name).tolist() for name in _TREE_FIELDS}
                        for t in pl["trees"]]
    else:
        doc["mu"] = nncore.array_to_doc(pl["mu"])
        doc["sigma"] = nncore.array_to_doc(pl["sigma"])
        doc["layers"] = [
            {"w": nncore.array_to_doc(l.weights[None]),
             "b": nncore.array_to_doc(l.bias)}
            for l in pl["layers"]
        ]
    return doc


def from_doc(kind, doc: dict) -> TrainedRegressor:
    """The regressor of a checkpoint body; any key that `to_doc` does not
    write, at any level, is refused."""
    nncore.doc_keys(doc, "", ("input_dim", "catalog_version",
                              *_kind(kind).doc_keys))
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
            if not 0 < eta <= 1:
                raise ValueError("eta must be in (0, 1]")
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
