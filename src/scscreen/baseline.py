"""Aggregated element-property features and a from-scratch random forest.

The feature stage turns a composition into a fixed 256-vector: 8 aggregators
over 32 per-element basic properties. The classifier is a seeded bagging
forest of Gini-split decision trees, used to compare composition-vector
screening against the grid-encoding network on the same label tasks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import csv_rows, write_csv
from .errors import ShapeMismatchError
from .ptable import ATOMIC_NUMBER, ELEMENTS

# Basic per-element properties, in the fixed column order of the feature CSV.
# The table itself ships empty (values come from the user's property source);
# the names — including the "NValance" / "FirstIonizationEnergy(ies)" pair —
# are kept verbatim so populated files line up column-for-column.
FEATURE_NAMES = (
    "AtomicWeight",
    "Column",
    "DipolePolarizability",
    "FirstIonizationEnergy",
    "GSbandgap",
    "GSenergy-pa",
    "GSestBCClatcnt",
    "GSestFCClatcnt",
    "GSmagmom",
    "GSvolume-pa",
    "ICSDVolume",
    "IsAlkali",
    "IsDBlock",
    "IsFBlock",
    "IsMetal",
    "IsMetalloid",
    "IsNonmetal",
    "MendeleevNumber",
    "NdUnfilled",
    "NdValence",
    "NfUnfilled",
    "NfValence",
    "NpUnfilled",
    "NpValence",
    "NsUnfilled",
    "NsValence",
    "Number",
    "NUnfilled",
    "NValance",
    "Polarizability",
    "Row",
    "FirstIonizationEnergies",
)
N_BASIC = len(FEATURE_NAMES)  # 32

# Aggregators, in output order: block a of the 256-vector holds aggregator a
# applied to every basic feature, so index = a * 32 + feature_index.
AGGREGATOR_NAMES = (
    "weighted_average",
    "weighted_variance",
    "maximum",
    "minimum",
    "range",
    "mode",
    "weighted_median",
    "mean_absolute_difference",
)
N_AGGREGATED = len(AGGREGATOR_NAMES) * N_BASIC  # 256


class MissingElementFeaturesError(ValueError):
    """A composition references an element with no (complete) feature row."""


class SingleClassInputError(ValueError):
    """Classifier training requires both classes to be present."""


# ---------------------------------------------------------------------------
# element feature table


def write_feature_template(path) -> None:
    """Write an empty feature CSV: header plus one blank row per element, in
    atomic-number order."""
    write_csv(path, ("symbol",) + FEATURE_NAMES,
              ([e.symbol] + [None] * N_BASIC for e in ELEMENTS))


def load_element_features(path) -> dict[str, np.ndarray]:
    """Read a populated feature CSV (by `dataset.csv_rows`) into {symbol: 32-vector}.

    Rows with any blank cell are treated as not yet populated and skipped;
    compositions touching them fail later with MissingElementFeaturesError.
    Read errors are `csv_rows`' SchemaMismatchError (a ValueError); a wrong
    header, row width or symbol, or a cell that is not a finite number, is a
    ValueError naming its line.
    """
    table: dict[str, np.ndarray] = {}
    rows = list(csv_rows(path))
    if not rows or tuple(rows[0][1]) != ("symbol",) + FEATURE_NAMES:
        raise ValueError(f"{path}: header does not match the 32 feature names")
    for line, row in rows[1:]:
        if not any(row):
            continue
        if len(row) != N_BASIC + 1:
            raise ValueError(f"{path}:{line}: expected {N_BASIC + 1} cells, got {len(row)}")
        symbol = row[0]
        if symbol not in ATOMIC_NUMBER:
            raise ValueError(f"{path}:{line}: unknown element {symbol!r}")
        if any(cell.strip() == "" for cell in row[1:]):
            continue
        try:
            vec = np.array([float(c) for c in row[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: {exc}") from None
        bad = np.flatnonzero(~np.isfinite(vec))
        if bad.size:
            j = int(bad[0])
            raise ValueError(
                f"{path}:{line}: {FEATURE_NAMES[j]} must be finite, got {row[j + 1].strip()}"
            )
        table[symbol] = vec
    return table


def aggregate_features(
    composition: Mapping[str, float], table: Mapping[str, np.ndarray]
) -> np.ndarray:
    """The 256-vector of one composition; see `aggregate_features_batch`."""
    return aggregate_features_batch([composition], table)[0]


def aggregate_features_batch(
    compositions: Sequence[Mapping[str, float]], table: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Collapse each composition to the 256-vector of aggregated properties.

    Per basic feature f over the constituent elements (weights = molar
    fractions w): weighted average Σwf; weighted variance Σw(f−avg)²; max;
    min; range; mode = the value from the largest-fraction element (ties
    break toward the smaller atomic number); weighted median = smallest
    value whose cumulative weight reaches 0.5; mean absolute difference
    Σw|f−avg|.

    Rows are aggregated together by element count. An empty composition, a
    missing element or a feature row of the wrong width raises for the
    first such composition in input order. A missing element error names
    every element, in any of the compositions, that has no feature row:
    each once, by atomic number.
    """
    slot: dict[str, int] = {}  # symbol -> its row in `vectors`
    vectors: list[np.ndarray] = []
    groups: dict[int, tuple[list, list, list]] = {}  # element count -> (rows, slots, weights)
    for i, composition in enumerate(compositions):
        if not composition:
            raise ValueError("empty composition")
        symbols = sorted(composition, key=lambda s: ATOMIC_NUMBER.get(s, 0))
        if any(s not in table for s in symbols):
            missing = {s for c in compositions for s in c if s not in table}
            names = sorted(missing, key=lambda s: (ATOMIC_NUMBER.get(s, 0), s))
            raise MissingElementFeaturesError(f"no feature rows for: {', '.join(names)}")
        for s in symbols:
            if s not in slot:
                vec = np.asarray(table[s], dtype=np.float64)
                if vec.shape != (N_BASIC,):
                    raise ShapeMismatchError(
                        f"feature rows must have {N_BASIC} values, got {vec.size}"
                    )
                slot[s] = len(vectors)
                vectors.append(vec)
        rows, slots, weights = groups.setdefault(len(symbols), ([], [], []))
        rows.append(i)
        slots.append([slot[s] for s in symbols])
        weights.append([composition[s] for s in symbols])

    out = np.empty((len(compositions), N_AGGREGATED))
    if vectors:
        stacked = np.stack(vectors)
        for rows, slots, weights in groups.values():
            out[rows] = _aggregate(np.array(weights, dtype=np.float64), stacked[np.array(slots)])
    return out


def _aggregate(w: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """(g, 256) aggregates of g compositions with k elements each: weights
    `w` (g, k) and feature rows `feats` (g, k, 32), elements in atomic-number
    order."""
    g = w.shape[0]
    wv = w[:, None, :]  # one (1, k) @ (k, 32) product per row: the BLAS call of a lone row
    avg = (wv @ feats)[:, 0]
    dev = feats - avg[:, None, :]
    var = (wv @ (dev * dev))[:, 0]
    mad = (wv @ np.abs(dev))[:, 0]
    mx = feats.max(axis=1)
    mn = feats.min(axis=1)
    # elements are in atomic-number order and argmax keeps the first maximum,
    # so equal fractions resolve to the smaller atomic number
    mode = feats[np.arange(g), np.argmax(w, axis=1)]

    # stable: within a run of equal values the running weight sum must add
    # up in element order, or rounding can move where it reaches 0.5
    order = np.argsort(feats, axis=1, kind="stable")
    sorted_w = np.take_along_axis(np.broadcast_to(w[:, :, None], feats.shape), order, axis=1)
    cum = np.cumsum(sorted_w, axis=1)
    first = np.argmax(cum >= 0.5, axis=1)
    median = np.take_along_axis(
        np.take_along_axis(feats, order, axis=1), first[:, None, :], axis=1
    )[:, 0]

    return np.concatenate([avg, var, mx, mn, mx - mn, mode, median, mad], axis=1)


# ---------------------------------------------------------------------------
# decision trees


@dataclass
class _Tree:
    """Flat node arrays; node 0 is the root, feature -1 marks a leaf."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    leaf_class: np.ndarray  # int8, valid where feature == -1


@dataclass
class ForestModel:
    trees: list[_Tree]
    n_features: int
    n_trees: int
    seed: int


def _best_split(cols: np.ndarray, y: np.ndarray, feature_ids: np.ndarray):
    """Lowest weighted-Gini split over the candidate columns, one per row of
    `cols` (m, n), for the node's labels `y` (n,).

    Returns (feature, threshold, score) or None when every candidate column
    is constant on this node. Ties go to the first column in `feature_ids`
    order, then to the smallest threshold.
    """
    n = y.shape[0]
    # A cut only falls between distinct values, and what it reads there (the
    # positives at or below it, the midpoint to the next value) does not
    # depend on the order inside a run of equal values: no stable sort needed.
    order = np.argsort(cols, axis=1)
    vs = np.take_along_axis(cols, order, axis=1)
    cum_pos = np.cumsum(y[order], axis=1)
    col, cut = np.nonzero(vs[:, :-1] < vs[:, 1:])
    if cut.size == 0:
        return None
    n_l = cut + 1.0
    n_r = n - n_l
    pos_l = cum_pos[col, cut]
    pos_r = cum_pos[0, -1] - pos_l
    gini_l = 1.0 - (pos_l / n_l) ** 2 - ((n_l - pos_l) / n_l) ** 2
    gini_r = 1.0 - (pos_r / n_r) ** 2 - ((n_r - pos_r) / n_r) ** 2
    score = (n_l * gini_l + n_r * gini_r) / n
    k = int(np.argmin(score))  # row-major: first column, then smallest cut
    c, i = col[k], cut[k]
    return int(feature_ids[c]), float((vs[c, i] + vs[c, i + 1]) / 2.0), float(score[k])


def _grow_tree(
    xt: np.ndarray, y: np.ndarray, rows: np.ndarray, rng: np.random.Generator
) -> _Tree:
    """CART to purity (min leaf 1) on the sample `rows` (repeats allowed) of
    the feature-major matrix `xt` (d, N) and labels `y` (N,), sampling
    sqrt(d) candidate features per split and falling back to the full
    feature set when the sample is uninformative; leaves take the majority
    class, ties to 0."""
    d = xt.shape[0]
    m = max(1, int(round(np.sqrt(d))))
    feature, threshold, left, right, leaf_class = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_class.append(0)
        return len(feature) - 1

    root = new_node()
    stack = [(rows, root)]
    while stack:
        idx, node = stack.pop()
        ys = y[idx]
        pos = int(ys.sum())
        if pos == 0 or pos == len(idx):
            leaf_class[node] = 1 if pos else 0
            continue
        cand = rng.choice(d, size=m, replace=False) if m < d else np.arange(d)
        split = _best_split(xt[np.ix_(cand, idx)], ys, cand)
        if split is None and m < d:
            split = _best_split(xt[:, idx], ys, np.arange(d))
        if split is None:  # duplicate rows with conflicting labels
            leaf_class[node] = 1 if 2 * pos > len(idx) else 0
            continue
        j, thr, _ = split
        go_left = xt[j, idx] <= thr
        feature[node] = j
        threshold[node] = thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((idx[go_left], left[node]))
        stack.append((idx[~go_left], right[node]))

    return _Tree(
        np.array(feature, dtype=np.int32),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int32),
        np.array(right, dtype=np.int32),
        np.array(leaf_class, dtype=np.int8),
    )


def _tree_votes(tree: _Tree, x: np.ndarray) -> np.ndarray:
    out = np.zeros(x.shape[0], dtype=np.int64)
    stack = [(np.arange(x.shape[0]), 0)]
    while stack:
        idx, node = stack.pop()
        if idx.size == 0:
            continue
        j = tree.feature[node]
        if j < 0:
            out[idx] = tree.leaf_class[node]
            continue
        go_left = x[idx, j] <= tree.threshold[node]
        stack.append((idx[go_left], tree.left[node]))
        stack.append((idx[~go_left], tree.right[node]))
    return out


def train_forest(
    features, labels, n_trees: int = 100, seed: int = 0, jobs: int = 1
) -> ForestModel:
    """Bagging forest: each tree sees its own bootstrap resample and its own
    generator spawned from the seed, so results do not depend on build order
    (or on `jobs`)."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ShapeMismatchError(f"bad shapes {x.shape} / {y.shape}")
    if x.shape[0] < 2:
        raise SingleClassInputError("need at least 2 samples")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    y = y.astype(np.int8)
    if y.min() == y.max():
        raise SingleClassInputError("training labels contain a single class")
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_trees)]
    xt = np.ascontiguousarray(x.T)  # one feature-major copy that every tree samples from

    def build(rng):
        return _grow_tree(xt, y, rng.integers(0, x.shape[0], size=x.shape[0]), rng)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            trees = list(pool.map(build, rngs))
    else:
        trees = [build(rng) for rng in rngs]
    return ForestModel(trees, x.shape[1], n_trees, seed)


def predict_forest(model: ForestModel, features):
    """(classes, positive-vote fractions) for a (n, d) batch. A tied vote
    goes to the negative class."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ShapeMismatchError(
            f"expected (n, {model.n_features}) features, got {np.asarray(features).shape}"
        )
    votes = np.zeros(x.shape[0], dtype=np.int64)
    for tree in model.trees:
        votes += _tree_votes(tree, x)
    frac = votes / model.n_trees
    classes = (frac > 0.5).astype(np.int8)
    return classes, frac
