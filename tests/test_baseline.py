"""Feature aggregation arithmetic and forest behavior."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scscreen.baseline import (
    AGGREGATOR_NAMES,
    FEATURE_NAMES,
    ForestModel,
    MissingElementFeaturesError,
    N_AGGREGATED,
    N_BASIC,
    ShapeMismatchError,
    SingleClassInputError,
    _AGGREGATE_ROWS,
    _best_split,
    _grow_tree,
    _tree_votes,
    aggregate_features_batch,
    load_element_features,
    predict_forest,
    train_forest,
    write_feature_template,
)
from scscreen.dataset import SchemaMismatchError
from scscreen.formula import normalize
from scscreen.ptable import ATOMIC_NUMBER, ELEMENTS, SYMBOLS


def table_for(values_by_symbol):
    """Constant 32-vectors: every basic feature of an element equals one value."""
    return {s: np.full(N_BASIC, float(v)) for s, v in values_by_symbol.items()}


class TestFeatureNames:
    def test_exactly_32_with_verbatim_oddities(self):
        assert len(FEATURE_NAMES) == 32
        assert len(set(FEATURE_NAMES)) == 32
        # the list keeps both near-duplicate ionization labels and the
        # historical "NValance" spelling
        assert "FirstIonizationEnergy" in FEATURE_NAMES
        assert "FirstIonizationEnergies" in FEATURE_NAMES
        assert "NValance" in FEATURE_NAMES
        assert FEATURE_NAMES[0] == "AtomicWeight"
        assert FEATURE_NAMES[-1] == "FirstIonizationEnergies"

    def test_aggregated_size(self):
        assert len(AGGREGATOR_NAMES) == 8
        assert N_AGGREGATED == 256


def reference_aggregate(composition, table):
    """The per-row aggregation body that `aggregate_features_batch` replaced,
    kept as its byte-for-byte reference."""
    symbols = sorted(composition, key=lambda s: ATOMIC_NUMBER.get(s, 0))
    w = np.array([composition[s] for s in symbols], dtype=np.float64)
    feats = np.stack([np.asarray(table[s], dtype=np.float64) for s in symbols])
    avg = w @ feats
    dev = feats - avg
    var = w @ (dev * dev)
    mad = w @ np.abs(dev)
    mx = feats.max(axis=0)
    mn = feats.min(axis=0)
    mode = feats[int(np.argmax(w))]
    order = np.argsort(feats, axis=0, kind="stable")
    sorted_w = np.take_along_axis(np.broadcast_to(w[:, None], feats.shape), order, axis=0)
    cum = np.cumsum(sorted_w, axis=0)
    first = np.argmax(cum >= 0.5, axis=0)
    median = np.take_along_axis(
        np.take_along_axis(feats, order, axis=0), first[None, :], axis=0
    )[0]
    return np.concatenate([avg, var, mx, mn, mx - mn, mode, median, mad])


class TestAggregate:
    def test_even_split_hand_arithmetic(self):
        comp = normalize({"Al": 1.0, "Cu": 1.0})  # 0.5 / 0.5
        table = table_for({"Al": 0.0, "Cu": 10.0})
        out = aggregate_features_batch([comp], table)[0]
        assert out.shape == (256,)
        avg, var, mx, mn, rng_, mode, med, mad = out.reshape(8, 32)
        assert np.allclose(avg, 5.0)
        assert np.allclose(var, 25.0)
        assert np.allclose(mx, 10.0)
        assert np.allclose(mn, 0.0)
        assert np.allclose(rng_, 10.0)
        assert np.allclose(mad, 5.0)
        # equal fractions: mode falls to the smaller atomic number (Al=13)
        assert np.allclose(mode, 0.0)
        # cumulative weight reaches 0.5 already at the smaller value
        assert np.allclose(med, 0.0)

    def test_single_element_degenerate(self):
        out = aggregate_features_batch([normalize({"Nb": 2.0})], table_for({"Nb": 7.5}))[0]
        avg, var, mx, mn, rng_, mode, med, mad = out.reshape(8, 32)
        for block in (avg, mx, mn, mode, med):
            assert np.allclose(block, 7.5)
        for block in (var, rng_, mad):
            assert np.allclose(block, 0.0)

    def test_mode_follows_largest_fraction(self):
        comp = normalize({"Al": 1.0, "Cu": 3.0})
        out = aggregate_features_batch([comp], table_for({"Al": 0.0, "Cu": 10.0}))[0]
        mode = out.reshape(8, 32)[5]
        assert np.allclose(mode, 10.0)

    def test_weighted_median_majority_side(self):
        comp = normalize({"Al": 1.0, "Cu": 3.0})  # 0.25 / 0.75
        out = aggregate_features_batch([comp], table_for({"Al": 0.0, "Cu": 10.0}))[0]
        med = out.reshape(8, 32)[6]
        assert np.allclose(med, 10.0)

    def test_aggregator_major_layout(self):
        # distinct per-feature values: j-th basic feature of the only element
        # is j, so the weighted-average block must read 0..31 in order
        table = {"Nb": np.arange(32, dtype=float)}
        out = aggregate_features_batch([normalize({"Nb": 1.0})], table)[0]
        assert np.array_equal(out[:32], np.arange(32))
        assert np.array_equal(out[2 * 32 : 3 * 32], np.arange(32))  # maxima too

    def test_three_element_weighted_average(self):
        comp = normalize({"H": 1.0, "O": 2.0, "Fe": 1.0})
        table = table_for({"H": 4.0, "O": 1.0, "Fe": 10.0})
        out = aggregate_features_batch([comp], table)[0]
        assert np.allclose(out[:32], 0.25 * 4 + 0.5 * 1 + 0.25 * 10)

    def test_missing_element(self):
        with pytest.raises(MissingElementFeaturesError):
            aggregate_features_batch([normalize({"Nb": 1.0, "Ti": 1.0})], table_for({"Nb": 1.0}))

    def test_every_missing_element_named_once_by_atomic_number(self):
        table = table_for({"Nb": 1.0, "Sn": 2.0})
        comps = [normalize({"Nb": 1.0, "Sn": 3.0}), normalize({"Nb": 1.0, "H": 1.0}),
                 normalize({"Nb": 1.0, "O": 1.0}), normalize({"H": 2.0, "O": 1.0})]
        with pytest.raises(MissingElementFeaturesError) as err:
            aggregate_features_batch(comps, table)
        assert err.value.args[0] == "no feature rows for: H, O"
        with pytest.raises(MissingElementFeaturesError) as err:
            aggregate_features_batch(comps[:2], table)
        assert err.value.args[0] == "no feature rows for: H"

    def test_batch_stacks_rows(self):
        table = table_for({"Nb": 1.0, "Ti": 2.0})
        comps = [normalize({"Nb": 1.0}), normalize({"Ti": 1.0})]
        batch = aggregate_features_batch(comps, table)
        assert batch.shape == (2, 256)
        assert np.array_equal(batch[0], aggregate_features_batch(comps[:1], table)[0])

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_order_invariants(self, seed):
        rng = np.random.default_rng(seed)
        pool = ["H", "C", "O", "Al", "Fe", "Cu", "Nb", "Ba"]
        k = int(rng.integers(1, 5))
        symbols = list(rng.choice(pool, size=k, replace=False))
        comp = normalize({s: float(w) for s, w in zip(symbols, rng.random(k) + 0.05)})
        table = {s: rng.normal(0, 10, N_BASIC) for s in symbols}
        out = aggregate_features_batch([comp], table)[0]
        assert out.shape == (256,) and np.isfinite(out).all()
        avg, var, mx, mn, rng_, mode, med, mad = out.reshape(8, 32)
        assert np.all(mn <= med) and np.all(med <= mx)
        assert np.all(mn <= avg) and np.all(avg <= mx)
        assert np.allclose(rng_, mx - mn)
        assert np.all(var >= 0) and np.all(mad >= 0)

    def test_batch_raises_for_first_bad_row_in_input_order(self):
        table = table_for({"Nb": 1.0, "Ti": 2.0})
        table["Sn"] = np.zeros(31)  # wrong width
        ok, missing = normalize({"Nb": 1.0}), normalize({"Ti": 1.0, "H": 1.0, "O": 1.0})
        wide = normalize({"Nb": 1.0, "Sn": 1.0})
        with pytest.raises(ValueError, match="empty composition"):
            aggregate_features_batch([ok, {}, missing, wide], table)
        with pytest.raises(MissingElementFeaturesError) as err:
            aggregate_features_batch([ok, missing, {}, wide], table)
        assert err.value.args[0] == "no feature rows for: H, O"  # atomic-number order
        with pytest.raises(ShapeMismatchError, match="32 values, got 31"):
            aggregate_features_batch([ok, wide, missing], table)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.booleans())
    def test_batch_is_byte_equal_to_per_row_reference(self, seed, ties):
        # 1-6 elements per row; integer counts and integer feature levels make
        # tied fractions and tied feature values common
        rng = np.random.default_rng(seed)
        pool = ["H", "Li", "C", "O", "Al", "Fe", "Cu", "Nb", "Sn", "Ba"]
        if ties:
            table = {s: rng.integers(0, 3, N_BASIC).astype(float) for s in pool}
        else:
            table = {s: rng.normal(0, 10, N_BASIC) for s in pool}
        comps = []
        for _ in range(int(rng.integers(1, 30))):
            k = int(rng.integers(1, 7))
            symbols = rng.choice(pool, size=k, replace=False)
            counts = rng.integers(1, 4, k) if ties else rng.random(k) + 0.05
            comps.append(normalize({str(s): float(c) for s, c in zip(symbols, counts)}))
        expected = np.stack([reference_aggregate(c, table) for c in comps])
        assert aggregate_features_batch(comps, table).tobytes() == expected.tobytes()


def random_batch(rng, n, sizes=(1, 2, 3, 4, 5, 6)):
    """`n` compositions over a 10-element pool, element counts drawn from
    `sizes`, and a table of normal 32-vectors for the pool."""
    pool = ["H", "Li", "C", "O", "Al", "Fe", "Cu", "Nb", "Sn", "Ba"]
    table = {s: rng.normal(0, 10, N_BASIC) for s in pool}
    comps = []
    for k in rng.choice(sizes, size=n):
        symbols = rng.choice(pool, size=k, replace=False)
        comps.append(normalize({str(s): float(c) for s, c in zip(symbols, rng.random(k) + 0.05)}))
    return comps, table


class TestAggregateLayout:
    def test_result_is_a_feature_major_view(self):
        comps, table = random_batch(np.random.default_rng(0), 5)
        out = aggregate_features_batch(comps, table)
        assert out.shape == (5, N_AGGREGATED) and out.T.flags.c_contiguous

    def test_groups_larger_than_a_chunk_match_the_reference(self):
        # 549 three-element rows, more than two chunks' worth, with 40 others
        # interleaved at the start: the first input chunk splits into four
        # element-count groups, and the three-element rows are aggregated in
        # three chunks, the last one partial
        rng = np.random.default_rng(1)
        comps, table = random_batch(rng, 2 * _AGGREGATE_ROWS + 37, sizes=(3,))
        extra, _ = random_batch(rng, 40, sizes=(1, 2, 5))
        comps = [c for pair in zip(comps, extra) for c in pair] + comps[len(extra):]
        assert len(comps) > 2 * _AGGREGATE_ROWS + 40
        expected = np.stack([reference_aggregate(c, table) for c in comps])
        assert aggregate_features_batch(comps, table).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuting_the_input_permutes_the_rows(self, seed):
        rng = np.random.default_rng(seed)
        comps, table = random_batch(rng, _AGGREGATE_ROWS + 100)
        perm = rng.permutation(len(comps))
        out = aggregate_features_batch(comps, table)
        permuted = aggregate_features_batch([comps[i] for i in perm], table)
        assert permuted.tobytes() == out[perm].tobytes()

    def test_scratch_above_the_result_is_bounded(self):
        # 6,144 rows of 4 elements make a 12.6 MB result, 24,576 rows 50.3 MB.
        # The scratch above either should be one input chunk's lists and
        # arrays, about 2.3 MB; group lists kept over the whole input add
        # about 300 B a row (5.6 MB between the two sizes).
        above = []
        for n in (6144, 4 * 6144):
            comps, table = random_batch(np.random.default_rng(2), n, sizes=(4,))
            tracemalloc.start()
            try:
                out = aggregate_features_batch(comps, table)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            above.append(peak - out.nbytes)
            assert above[-1] < out.nbytes / 2, f"{above[-1] / 1e6:.2f} MB above the result"
            del comps, out
        grown = above[1] - above[0]
        assert grown < 2**17, f"{grown / 1e6:.2f} MB more scratch at 4x the rows"


class TestFeatureCsv:
    def test_template_and_load_round_trip(self, tmp_path):
        path = tmp_path / "features.csv"
        write_feature_template(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "symbol," + ",".join(FEATURE_NAMES)
        assert len(lines) == 1 + len(SYMBOLS)
        # an unpopulated template yields an empty table: every row is read
        # and skipped as not yet populated
        assert load_element_features(path) == (len(SYMBOLS), len(SYMBOLS), {})

        rows = [lines[0]]
        rows.append("Nb," + ",".join(str(float(i)) for i in range(32)))
        rows.append("Ti," + "," * 31)  # untouched template row: skipped
        path.write_text("\n".join(rows) + "\n")
        n_rows, n_unfilled, table = load_element_features(path)
        assert (n_rows, n_unfilled, set(table)) == (2, 1, {"Nb"})
        assert np.array_equal(table["Nb"], np.arange(32.0))

    def test_template_rows_in_atomic_number_order(self, tmp_path):
        # the same file from every process, whatever the string-hash seed
        path = tmp_path / "features.csv"
        write_feature_template(path)
        symbols = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert symbols == [e.symbol for e in ELEMENTS]

    def test_header_must_match(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("symbol,Weight\nNb,1\n")
        message = f"{path}: header does not match the 32 feature names"
        with pytest.raises(SchemaMismatchError, match=re.escape(message)):
            load_element_features(path)

    def test_row_width_must_match(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("symbol," + ",".join(FEATURE_NAMES) + "\nNb,1,2\n")
        with pytest.raises(SchemaMismatchError, match=re.escape(f"{path}:2: expected 33 cells, got 3")):
            load_element_features(path)

    def test_byte_order_mark_is_accepted(self, tmp_path):
        path = tmp_path / "features.csv"
        header = "symbol," + ",".join(FEATURE_NAMES)
        path.write_bytes(("\ufeff" + header + "\nNb," + ",".join(["1"] * 32) + "\n").encode())
        assert set(load_element_features(path)[2]) == {"Nb"}

    def test_non_utf8_file_rejected_naming_it(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_bytes(("symbol," + ",".join(FEATURE_NAMES) + "\n").encode() + b"\xff\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8 text")):
            load_element_features(path)

    def test_unknown_symbol_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "symbol," + ",".join(FEATURE_NAMES) + "\nQQ," + ",".join(["1"] * 32) + "\n"
        )
        with pytest.raises(SchemaMismatchError, match=re.escape(f"{path}:2: unknown element 'QQ'")):
            load_element_features(path)

    def test_bad_number_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "symbol," + ",".join(FEATURE_NAMES) + "\nNb," + ",".join(["x"] * 32) + "\n"
        )
        message = f"{path}:2: could not convert string to float: 'x'"
        with pytest.raises(SchemaMismatchError, match=re.escape(message)):
            load_element_features(path)

    @pytest.mark.parametrize("first", ["1", ""], ids=["filled", "unfilled"])
    def test_symbol_listed_twice_rejected(self, tmp_path, first):
        # the second row used to replace the first without a word
        path = tmp_path / "bad.csv"
        path.write_text(
            "symbol," + ",".join(FEATURE_NAMES) + "\nNb," + ",".join([first] * 32)
            + "\nTi," + ",".join(["1"] * 32) + "\n\nNb," + ",".join(["2"] * 32) + "\n"
        )
        with pytest.raises(SchemaMismatchError) as err:
            load_element_features(path)
        assert str(err.value) == f"{path}:5: Nb is listed again (first on line 2)"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        cells = ["1"] * 32
        cells[4] = cell
        path.write_text(
            "symbol," + ",".join(FEATURE_NAMES) + "\nNb," + ",".join(["2"] * 32)
            + "\nTi," + ",".join(cells) + "\n"
        )
        with pytest.raises(SchemaMismatchError) as err:
            load_element_features(path)
        assert str(err.value) == f"{path}:3: GSbandgap must be finite, got {cell}"


def separable_set(n=40, d=2, seed=0, gap_feature=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, d))
    y = (np.arange(n) % 2).astype(np.int8)
    x[y == 0, gap_feature] = rng.uniform(0.0, 1.0, (y == 0).sum())
    x[y == 1, gap_feature] = rng.uniform(3.0, 4.0, (y == 1).sum())
    return x, y


def reference_best_split(x_cols, y, feature_ids):
    """The per-column stable-argsort loop that `_best_split` replaced, kept
    as its reference; `x_cols` is (n, m)."""
    n = y.shape[0]
    total_pos = int(y.sum())
    best = None
    for j, col in zip(feature_ids, x_cols.T):
        order = np.argsort(col, kind="stable")
        vs = col[order]
        cum_pos = np.cumsum(y[order])
        cut = np.flatnonzero(vs[:-1] < vs[1:])
        if cut.size == 0:
            continue
        n_l = cut + 1.0
        n_r = n - n_l
        pos_l = cum_pos[cut]
        pos_r = total_pos - pos_l
        gini_l = 1.0 - (pos_l / n_l) ** 2 - ((n_l - pos_l) / n_l) ** 2
        gini_r = 1.0 - (pos_r / n_r) ** 2 - ((n_r - pos_r) / n_r) ** 2
        score = (n_l * gini_l + n_r * gini_r) / n
        k = int(np.argmin(score))
        if best is None or score[k] < best[2]:
            i = cut[k]
            best = (int(j), float((vs[i] + vs[i + 1]) / 2.0), float(score[k]))
    return best


def tie_heavy_matrix():
    rng = np.random.default_rng(2024)
    x = rng.integers(0, 4, (300, 12)).astype(np.float64)
    x[:, 3] = 1.5  # a constant column
    x[:, 7] = rng.integers(0, 2, 300)
    x[200:260] = x[140:200]  # duplicate rows ...
    y = rng.integers(0, 2, 300).astype(np.int8)
    y[200:260] = 1 - y[140:200]  # ... with conflicting labels
    return x, y


class TestForest:
    def test_separable_training_accuracy(self):
        x, y = separable_set()
        model = train_forest(x, y, n_trees=25, seed=1)
        classes, frac = predict_forest(model, x)
        assert np.array_equal(classes, y)
        assert np.all((frac >= 0) & (frac <= 1))

    def test_single_tree_memorizes_pure_split(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        model = train_forest(x, y, n_trees=1, seed=0)
        classes, frac = predict_forest(model, x)
        assert np.array_equal(classes, y)
        assert set(frac.tolist()) <= {0.0, 1.0}

    def test_deterministic_and_job_count_irrelevant(self):
        x, y = separable_set(n=60, d=8, seed=5)
        probe = np.random.default_rng(9).normal(0, 2, (20, 8))
        a = predict_forest(train_forest(x, y, n_trees=15, seed=42), probe)
        b = predict_forest(train_forest(x, y, n_trees=15, seed=42), probe)
        c = predict_forest(train_forest(x, y, n_trees=15, seed=42, jobs=3), probe)
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[1], c[1])
        d = predict_forest(train_forest(x, y, n_trees=15, seed=43), probe)
        assert not np.array_equal(a[1], d[1])

    def test_tie_vote_is_negative(self):
        x, y = separable_set(n=20)
        model = train_forest(x, y, n_trees=2, seed=0)
        # stitch a 2-tree model whose trees always disagree
        leaf_pos = _grow_tree(np.array([[0.0, 0.0]]), np.array([1, 1], dtype=np.int8),
                              np.arange(2), np.random.default_rng(0))
        leaf_neg = _grow_tree(np.array([[0.0, 0.0]]), np.array([0, 0], dtype=np.int8),
                              np.arange(2), np.random.default_rng(0))
        tied = ForestModel([leaf_pos, leaf_neg], n_features=1, seed=0)
        cls, frac = predict_forest(tied, np.array([[5.0]]))
        assert frac[0] == 0.5 and cls[0] == 0

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassInputError):
            train_forest(np.zeros((4, 2)), np.ones(4), n_trees=3, seed=0)
        with pytest.raises(SingleClassInputError):
            train_forest(np.zeros((1, 2)), np.zeros(1), n_trees=3, seed=0)

    def test_shape_errors(self):
        x, y = separable_set(d=3)
        model = train_forest(x, y, n_trees=3, seed=0)
        with pytest.raises(ShapeMismatchError):
            predict_forest(model, np.zeros((4, 7)))
        with pytest.raises(ShapeMismatchError):
            train_forest(np.zeros((4, 2)), np.zeros((4, 2)), n_trees=1, seed=0)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            train_forest(np.zeros((4, 2)), np.array([0, 1, 2, 1]), n_trees=1, seed=0)

    def test_wide_feature_space_accuracy(self):
        # the realistic width: 256 columns, one informative
        x, y = separable_set(n=80, d=256, seed=7, gap_feature=31)
        model = train_forest(x, y, n_trees=40, seed=11)
        classes, _ = predict_forest(model, x)
        assert np.mean(classes == y) >= 0.95

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_unrestricted_tree_memorizes(self, seed):
        # tree-level invariant: grown to purity, a single tree reproduces any
        # conflict-free training labels exactly
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        x = rng.normal(0, 1, (n, 3))
        y = rng.integers(0, 2, n).astype(np.int8)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        tree = _grow_tree(np.ascontiguousarray(x.T), y, np.arange(n), rng)
        assert np.array_equal(_tree_votes(tree, x), y)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        levels=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6),
        n_dup=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_best_split_matches_per_column_reference(self, n, levels, n_dup, seed):
        # tie-heavy nodes: each column has 1-4 integer levels (1 = constant),
        # and duplicated rows carry the opposite label
        rng = np.random.default_rng(seed)
        x = np.stack([rng.integers(0, lv, n) * 0.5 for lv in levels], axis=1)
        y = rng.integers(0, 2, n).astype(np.int8)
        dup = rng.integers(0, n, n_dup)
        x, y = np.concatenate([x, x[dup]]), np.concatenate([y, 1 - y[dup]])
        feature_ids = rng.permutation(40)[: len(levels)]
        xt = np.zeros((40, len(x)))
        xt[feature_ids] = x.T
        got = _best_split(xt, np.arange(len(x)), y, feature_ids, len(feature_ids))
        want = reference_best_split(x, y, feature_ids)
        if want is None:
            assert got is None
        else:
            assert got[0] == want[0]
            assert got[1].hex() == want[1].hex() and got[2].hex() == want[2].hex()

    def test_tie_heavy_forest_golden(self):
        # sha256 of every tree array, recorded before the split search and
        # the sample layout were vectorised
        x, y = tie_heavy_matrix()
        for jobs in (1, 2):
            model = train_forest(x, y, n_trees=6, seed=3, jobs=jobs)
            digest = hashlib.sha256()
            for t in model.trees:
                for a in (t.feature, t.threshold, t.left, t.right, t.leaf_class):
                    digest.update(a.tobytes())
            assert sum(len(t.feature) for t in model.trees) == 1264
            assert digest.hexdigest() == (
                "6b84b0749a5a15bea1be2f3e28fe3820e5c55f88478c2afb7f3bd1bd9d155f69"
            )

    def test_trees_do_not_depend_on_the_input_layout(self):
        # C order is copied once; F order and a row slice of a feature-major
        # matrix (what the CLI passes) are read in place
        x, y = tie_heavy_matrix()
        feature_major = np.ascontiguousarray(np.concatenate([x, x[:50]]).T).T
        inputs = [x, np.asfortranarray(x), feature_major[: len(x)]]
        assert inputs[2].strides[0] == 8 and not inputs[2].T.flags.c_contiguous
        digests = []
        for features in inputs:
            digest = hashlib.sha256()
            for t in train_forest(features, y, n_trees=4, seed=3).trees:
                for a in (t.feature, t.threshold, t.left, t.right, t.leaf_class):
                    digest.update(a.tobytes())
            digests.append(digest.hexdigest())
        assert digests[0] == digests[1] == digests[2]

    def test_row_slice_of_a_feature_major_matrix_is_not_copied(self):
        # the 4.1 MB fit slice: copied feature-major, the peak above it read
        # 5.5 MB; in place, the trees' own scratch is about 1.4 MB
        rng = np.random.default_rng(4)
        x = np.asfortranarray(rng.integers(0, 4, (2400, 256)).astype(np.float64))
        fit = x[:2000]
        y = (fit[:, 5] + rng.integers(0, 2, 2000) > 2).astype(np.int8)
        tracemalloc.start()
        try:
            train_forest(fit, y, n_trees=2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < fit.nbytes / 2, f"{peak / 1e6:.2f} MB above a {fit.nbytes / 1e6:.1f} MB input"

    @settings(max_examples=200, deadline=None)
    @given(
        levels=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=12),
        n=st.integers(min_value=2, max_value=30),
        block=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_blocked_search_matches_the_whole_matrix(self, levels, n, block, seed):
        # tie-heavy nodes: most columns take 1 or 2 levels, rows repeat in
        # the sample, and equal scores across blocks are common
        rng = np.random.default_rng(seed)
        xt = np.stack([rng.integers(0, lv, 3 * n) * 0.5 for lv in levels])
        y = rng.integers(0, 2, 3 * n).astype(np.int8)
        idx = rng.integers(0, 3 * n, n)
        features = np.arange(len(levels))
        got = _best_split(xt, idx, y[idx], features, block)
        want = _best_split(xt, idx, y[idx], features, len(levels))
        if want is None:
            assert got is None
        else:
            assert got[0] == want[0]
            assert got[1].hex() == want[1].hex() and got[2].hex() == want[2].hex()
