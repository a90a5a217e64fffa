"""Release gates for the screening pipeline, one test per shipped guarantee.

Each test (test_c01 .. test_c11) exercises the public surface end to end
against planted or hand-computed references and asserts both the behaviour
and a wall-clock ceiling. They repeat a little of what the unit suites
cover, on purpose: this file is the checklist that has to stay green for a
release, so every input is spelled out here rather than shared through
fixtures that might drift.
"""

import csv
import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from scscreen.baseline import (
    N_BASIC,
    aggregate_features,
    predict_forest,
    train_forest,
)
from scscreen.cli import main as cli_main
from scscreen.dataset import (
    FamilyLabel,
    Source,
    classify_family,
    garbage_in,
    make_record,
)
from scscreen.formula import normalize, parse_composition
from scscreen.metrics import confusion_at_threshold, confusion_counts, r_squared, write_reports_csv
from scscreen.nn import Head, Loss, ModelConfig, TcTransform, TrainConfig, predict, train
from scscreen.ptable import ELEMENTS, encode_ptable
from scscreen.screen import (
    ExperimentSpec,
    build_training_filter,
    run_candidate_screen,
    run_family_discovery,
)

from test_cli import write_config, write_features_csv, write_input_csv
from test_nn import _gradcheck
from test_screen import COLD as TOY_COLD
from test_screen import eval_list_rows, sc_world, screen_cod


def rec(formula, tc=None, year=None, source=Source.SUPERCON):
    return make_record(formula, tc, year, source)


# ---------------------------------------------------------------------------
# c1: the formula parser survives a 200-formula gauntlet


_TRIOS = [
    ("Y", "Ba", "Cu"),
    ("La", "Sr", "Mn"),
    ("Mg", "B", "N"),
    ("Ca", "Ti", "O"),
    ("K", "Fe", "Se"),
    ("Ba", "Pb", "Bi"),
    ("Li", "Nb", "O"),
    ("Sm", "Co", "P"),
    ("Gd", "Ni", "Si"),
    ("Cs", "W", "F"),
]

_VARIABLE_PAIRS = [
    ("La", "Sr"),
    ("Nd", "Ce"),
    ("Ba", "K"),
    ("Sm", "Th"),
    ("Pr", "Ca"),
    ("Y", "Ca"),
    ("Bi", "Pb"),
    ("Tl", "Hg"),
    ("Sr", "Na"),
    ("Eu", "Gd"),
]


def _formula_gauntlet():
    """200 formulas: 60 plain, 40 parenthesized, 40 decimal, 30 with
    stoichiometry variables, 30 assorted edge cases."""
    pool = ["Nb", "Ti", "V", "Zr", "Mo", "Pb", "Sn", "In", "Ta", "Al", "Ga", "Hf"]
    plain = []
    for i, a in enumerate(pool):
        b = pool[(i + 1) % len(pool)]
        for k in range(1, 6):
            plain.append(f"{a}{k}{b}{6 - k}")

    grouped, decimal = [], []
    for a, b, c in _TRIOS:
        grouped += [
            f"({a}2{b})3{c}4",
            f"{a}({b}{c}2)2",
            f"(({a}{b})2{c})3",
            f"{a}2({b}({c}3)2)2",
        ]
        decimal += [
            f"{a}0.5{b}0.5",
            f"{a}1.85{b}0.15{c}4",
            f"{a}2.5{b}0.75{c}0.25",
            f"{a}0.925{b}3.075{c}",
        ]

    variables = []
    for a, b in _VARIABLE_PAIRS:
        variables += [
            f"{a}2-x{b}xCuO4",
            f"{a}{b}2O1-x",
            f"{a}1-y{b}yFe2As2",
        ]

    assorted = (
        ["H", "He", "Nb", "Fe", "Og", "U", "W", "K", "Y", "C", "N", "O"]
        + ["C60", "B12", "Ti3Al21", "Nb3Sn", "V3Si", "Nb3Ge", "MgB2", "UPt3",
           "CeCu2Si2", "YNi2B2C"]
        + ["H2He3", "Mg B2", "Y·Ba2Cu3O7", "La 1.85 Sr 0.15 Cu O 4",
           "(MgB2)", "((H))2", "Ca(OH)2", "Sr(NO3)2"]
    )
    corpus = plain + grouped + decimal + variables + assorted
    assert len(corpus) == 200
    return corpus, len(variables)


def test_c01_parser_survives_formula_gauntlet():
    corpus, n_variable = _formula_gauntlet()
    t0 = time.monotonic()
    records = [rec(f) for f in corpus]
    elapsed = time.monotonic() - t0

    flagged = [r for r in records if r.flagged_reason is not None]
    assert len(flagged) == n_variable
    assert all(r.flagged_reason == "unresolved_variable" for r in flagged)
    solid = [r for r in records if r.flagged_reason is None]
    assert len(solid) == 200 - n_variable
    for r in solid:
        assert r.composition is not None
        assert abs(sum(r.composition.values()) - 1.0) < 1e-12

    worked = parse_composition("H2He3")
    assert worked["H"] == 0.4
    assert worked["He"] == 0.6
    assert dict(worked) == {"H": 0.4, "He": 0.6}

    assert elapsed < 1.0, f"parsing 200 formulas took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# c2: grid-encoding invariants in bulk


def test_c02_tensor_invariants_hold_in_bulk():
    rng = np.random.default_rng(20260818)
    symbols = [e.symbol for e in ELEMENTS]
    t0 = time.monotonic()
    for _ in range(10_000):
        k = int(rng.integers(1, 7))
        chosen = rng.choice(symbols, size=k, replace=False)
        comp = normalize({s: float(w) for s, w in zip(chosen, rng.random(k) + 1e-3)})
        tensor = encode_ptable(comp)
        assert abs(tensor.sum() - 1.0) <= 1e-9
        # every grid cell belongs to exactly one orbital-block channel
        assert int((tensor != 0).sum(axis=0).max()) <= 1

    for s in symbols:
        tensor = encode_ptable(normalize({s: 3.0}))
        hits = np.argwhere(tensor != 0)
        assert hits.shape == (1, 3), f"{s} wrote {hits.shape[0]} cells"
        assert tensor[tuple(hits[0])] == 1.0

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"10k encodings took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# c3: analytic gradients vs central differences on random configurations


def test_c03_gradients_match_finite_differences():
    rng = np.random.default_rng(18)
    t0 = time.monotonic()
    for _ in range(20):
        if int(rng.integers(0, 2)):
            head, loss_kind = Head.REGRESSION, Loss.SMOOTH_L1
        else:
            head, loss_kind = Head.BINARY_LOGIT, Loss.BCE_LOGIT
        cfg = ModelConfig(
            conv_layers=int(rng.integers(1, 4)),
            channels_per_layer=int(rng.integers(1, 5)),
            dense_hidden=int(rng.choice([0, 3, 5])),
            head=head,
            seed=int(rng.integers(0, 2**31)),
            dtype="float64",
        )
        # asserts max relative error < 1e-4 at h = 1e-4 over every parameter
        _gradcheck(cfg, head, loss_kind, n_batch=int(rng.integers(1, 4)),
                   seed=int(rng.integers(0, 2**31)))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"20 gradient checks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# c4: the default model learns a planted fraction rule


HOT_TEN = ("Nb", "Ti", "V", "Zr", "Mo", "Pb", "Sn", "In", "Ta", "Tc")
COLD_TEN = ("Cu", "Ag", "Au", "Fe", "Ni", "Co", "Al", "Si", "Ge", "Ba")


def _fraction_rule_corpus(n=5000, seed=42):
    """Tc := 30 * (total molar fraction drawn from the hot ten)."""
    rng = np.random.default_rng(seed)
    hot_set = set(HOT_TEN)
    samples = []
    for _ in range(n):
        k = int(rng.integers(2, 4))
        h = int(rng.integers(1, k + 1))
        chosen = [str(s) for s in rng.choice(HOT_TEN, size=h, replace=False)]
        chosen += [str(s) for s in rng.choice(COLD_TEN, size=k - h, replace=False)]
        comp = normalize(dict(zip(chosen, rng.random(k) + 0.05)))
        tc = 30.0 * sum(f for s, f in comp.items() if s in hot_set)
        samples.append((comp, tc))
    return samples


@pytest.mark.slow
def test_c04_default_model_learns_planted_rule():
    samples = _fraction_rule_corpus()
    train_set, held = samples[:4500], samples[4500:]
    held_x = [c for c, _ in held]
    held_y = np.asarray([t for _, t in held])

    model_cfg = ModelConfig()
    train_cfg = TrainConfig(epochs=200)
    assert model_cfg.conv_layers == 9
    assert train_cfg.learning_rate == 1e-4
    assert train_cfg.batch_size == 32

    crossings = []

    def stop_when_learned(epoch, params, _mean_loss):
        score = r_squared(predict(params, held_x), held_y)
        if score >= 0.9:
            crossings.append((epoch, score))
            return True
        return False

    t0 = time.monotonic()
    train(train_set, model_cfg, train_cfg, on_epoch=stop_when_learned)
    elapsed = time.monotonic() - t0

    assert crossings, "held-out R^2 never reached 0.9 within 200 epochs"
    epoch, score = crossings[0]
    assert epoch < 200
    assert score >= 0.9
    assert elapsed < 600.0, f"rule learning took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# c5: confusion metrics equal an independent recount


def test_c05_confusion_matches_brute_force():
    rng = np.random.default_rng(55)
    n = 1000
    true = np.where(rng.random(n) < 0.4, 0.0, rng.gamma(2.0, 6.0, n))
    true[rng.integers(0, n, 25)] = 4.0  # land exactly on a threshold
    true[rng.integers(0, n, 25)] = 10.0
    pred = np.clip(true + rng.normal(0.0, 6.0, n), 0.0, None)
    pred[rng.integers(0, n, 40)] = 0.0

    for t in (0.0, 4.0, 10.0):
        rep = confusion_at_threshold(pred, true, t)
        tp = fp = tn = fn = 0
        for p, y in zip(pred.tolist(), true.tolist()):
            if p > t and y > t:
                tp += 1
            elif p > t:
                fp += 1
            elif y > t:
                fn += 1
            else:
                tn += 1
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (tp, fp, tn, fn)
        assert rep.precision == (tp / (tp + fp) if tp + fp else None)
        assert rep.recall == (tp / (tp + fn) if tp + fn else None)
        p, r = rep.precision, rep.recall
        assert rep.f1 == (2.0 * p * r / (p + r) if p is not None and r is not None and p + r else None)
        assert rep.accuracy == (tp + tn) / n

    # the screening-test analogy: 10,000 people, 100 of them sick
    sick = np.zeros(10_000, dtype=bool)
    sick[:100] = True
    alarm_everyone = confusion_counts(np.ones(10_000, dtype=bool), sick, 0.0)
    assert alarm_everyone.precision == 0.01
    assert alarm_everyone.recall == 1.0
    flag_one = np.zeros(10_000, dtype=bool)
    flag_one[0] = True  # person 0 really is sick
    alarm_one = confusion_counts(flag_one, sick, 0.0)
    assert alarm_one.precision == 1.0
    assert alarm_one.recall == 0.01


# ---------------------------------------------------------------------------
# c6: report files reproduce hand arithmetic to 12 decimals


# (tp, fp, fn) chosen so precision/recall/f1 have short decimal expansions
# that survive the 9-significant-digit CSV format unchanged
_RATIO_CASES = [
    (3, 1, 9),     # 0.75 / 0.25 / 0.375
    (30, 10, 10),  # 0.75 / 0.75 / 0.75
    (9, 1, 21),    # 0.9  / 0.3  / 0.45
    (50, 50, 50),  # 0.5  / 0.5  / 0.5
    (10, 0, 0),    # 1    / 1    / 1
]


def _report_from_counts(tp, fp, fn, tn=20, threshold=4.0):
    pred = [10.0] * tp + [10.0] * fp + [0.0] * fn + [0.0] * tn
    true = [10.0] * tp + [0.0] * fp + [10.0] * fn + [0.0] * tn
    return confusion_at_threshold(pred, true, threshold)


def test_c06_report_file_arithmetic_to_twelve_decimals(tmp_path):
    reports = [_report_from_counts(*case) for case in _RATIO_CASES]
    path = tmp_path / "reports.csv"
    write_reports_csv(reports, path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(_RATIO_CASES)

    tol = Fraction(1, 10**12)
    for row, (tp, fp, fn) in zip(rows, _RATIO_CASES):
        assert (int(row["tp"]), int(row["fp"]), int(row["fn"])) == (tp, fp, fn)
        p = Fraction(float(row["precision"]))
        r = Fraction(float(row["recall"]))
        f1 = Fraction(float(row["f1"]))
        assert abs(p - Fraction(tp, tp + fp)) < tol
        assert abs(r - Fraction(tp, tp + fn)) < tol
        assert abs(f1 - 2 * p * r / (p + r)) < tol  # harmonic-mean identity


# ---------------------------------------------------------------------------
# c7: synthesized negatives are disjoint from everything known


def test_c07_synthetic_negatives_disjoint_and_zero():
    rng = np.random.default_rng(7)
    pool = ["Al", "Si", "Ge", "Sn", "Pb", "Ga", "In", "Zn"]

    def draw(n, source):
        rows = []
        for _ in range(n):
            a, b = rng.choice(pool, size=2, replace=False)
            i, j = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            rows.append(rec(f"{a}{i}{b}{j}", None, None, source))
        return rows

    for _ in range(20):
        cod = draw(40, Source.COD) + [rec("Zq9", None, None, Source.COD)]
        sc = draw(12, Source.SUPERCON)
        ev = draw(6, Source.EVAL_LIST)
        negatives = garbage_in(cod, sc, ev)

        neg_keys = {r.composition.key() for r in negatives}
        sc_keys = {r.composition.key() for r in sc}
        ev_keys = {r.composition.key() for r in ev}
        usable = {r.composition.key() for r in cod if r.composition is not None}
        assert neg_keys == usable - sc_keys - ev_keys
        assert neg_keys.isdisjoint(sc_keys)
        assert neg_keys.isdisjoint(ev_keys)
        assert all(r.tc_kelvin == 0.0 for r in negatives)
        assert all(r.source is Source.SYNTHETIC_NEGATIVE for r in negatives)


# ---------------------------------------------------------------------------
# c8: two bridge rows pull an excluded family's predictions up


_P_COLD = ("Al", "Si", "Ge", "Sn", "Pb", "Ga", "In")
_D_COLD = ("Zn", "Ti", "Mn", "Ni")

_FE_TEST = ("FeAs", "FeSe", "Fe2As", "FeSe2", "Fe3Se4", "Fe5As3",
            "Fe4Se5", "FeAs2", "Fe2Se", "Fe3As2", "Fe2As3", "Fe5Se3")
_BRIDGES = (("Fe3Al", 20.0), ("Fe2Ge", 16.0))


def _bridge_world():
    """Hot rule on an s-block element (Ba), iron untouched by training.

    The d-block zero evidence stays at low fractions (0.4) so that two
    bridge rows with iron fractions of 0.75 and 0.667 remain linearly
    separable from it.
    """
    sc = []
    for i, c in enumerate(_P_COLD):
        for k in (2, 4, 6):
            sc.append(rec(f"Ba{k}{c}{8 - k}", 25.0 * k / 8.0, 2000 + i))
    for i in range(len(_P_COLD)):
        sc.append(rec(f"{_P_COLD[i]}{_P_COLD[(i + 1) % len(_P_COLD)]}", 0.0, 2001 + i % 7))
    for i, d in enumerate(_D_COLD):
        sc.append(rec(f"{d}2{_P_COLD[i]}3", 0.0, 2002 + i))
    sc += [rec(f, 0.0, 2004) for f in
           ("As2Se3", "GaAs", "InAs", "SnSe", "PbSe", "GeAs2")]
    sc += [rec(f, 20.0, 2008) for f in _FE_TEST]

    cod = []
    for i in range(len(_P_COLD)):
        for j in range(i + 1, len(_P_COLD)):
            cod.append(rec(f"{_P_COLD[i]}2{_P_COLD[j]}3", None, 2005, Source.COD))
    cod += [rec(f"{d}{p}3", None, 2005, Source.COD) for d, p in zip(_D_COLD, _P_COLD)]
    return sc, cod


def test_c08_bridge_rows_pull_excluded_family_up():
    sc_plain, cod = _bridge_world()
    bridges = [rec(f, tc, 2004) for f, tc in _BRIDGES]
    sc_bridged = sc_plain + bridges
    # the two worlds differ by exactly the two bridge rows, both of which
    # carry the held-out family's signature element without its label
    assert [r.raw_formula for r in sc_bridged[len(sc_plain):]] == [f for f, _ in _BRIDGES]
    for r in bridges:
        assert "Fe" in r.composition
        assert classify_family(r.composition).name == "CONVENTIONAL"

    spec = ExperimentSpec(
        name="planted-family",
        training_filter=build_training_filter({"exclude_families": ["FESC"]}),
        test_set=FamilyLabel.FESC,
        model=ModelConfig(conv_layers=1, channels_per_layer=8, dense_hidden=0,
                          head=Head.BINARY_LOGIT, seed=11),
        train=TrainConfig(learning_rate=3e-2, batch_size=8, epochs=200, shuffle_seed=2),
        repeats=10,
    )
    t0 = time.monotonic()
    plain = run_family_discovery(sc_plain, cod, spec)
    bridged = run_family_discovery(sc_bridged, cod, spec)
    elapsed = time.monotonic() - t0

    assert plain.n_test == len(_FE_TEST)
    pairs = list(zip((r.n_positive for r in plain.runs),
                     (r.n_positive for r in bridged.runs)))
    assert len(pairs) == 10
    increases = sum(1 for a, b in pairs if b > a)
    assert increases >= 8, f"bridged runs rose in only {increases}/10 pairs: {pairs}"
    assert elapsed < 1200.0, f"paired discovery took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# c9: rotating-fold screening recovers planted candidates


_SCREEN_COLD = ("Al", "Si", "Ge", "Sn", "Pb", "Ga", "In", "Sb", "Te", "Bi")
_SCREEN_RATIOS = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1),
                  (3, 4), (4, 3), (1, 5), (5, 1), (2, 5), (5, 2), (4, 5), (5, 4),
                  (3, 5), (5, 3), (1, 6), (6, 1), (5, 6), (6, 5))
_SCREEN_PLANTED = tuple(f"Nb7{c}3" for c in _SCREEN_COLD) + tuple(
    f"Nb9{c}1" for c in _SCREEN_COLD
)
_SCREEN_CUPRATES = ("YBa2Cu3O7", "La2CuO4", "Bi2Sr2CaCu2O8", "Tl2Ba2CuO6",
                    "HgBa2CuO4", "YBa2Cu4O8", "La1.85Sr0.15CuO4", "Nd2CuO4",
                    "Bi2Sr2CuO6", "Ca2CuO3")
_SCREEN_FESC = ("LaFeAsO", "SmFeAsO", "BaFe2As2", "FeSe", "LiFeAs", "NaFeAs",
                "SrFe2As2", "CaFe2As2", "FeSe4Te4", "KFe2As2")


def _screen_world():
    sc = []
    for i, c in enumerate(_SCREEN_COLD):
        for k in (2, 4, 6):
            sc.append(rec(f"Nb{k}{c}{8 - k}", 25.0 * k / 8.0, 2000 + i % 8))
    for i in range(len(_SCREEN_COLD)):
        sc.append(rec(f"{_SCREEN_COLD[i]}{_SCREEN_COLD[(i + 1) % len(_SCREEN_COLD)]}", 0.0, 2003))

    cold = [
        f"{a}{i}{b}{j}"
        for a, b in itertools.combinations(_SCREEN_COLD, 2)
        for i, j in _SCREEN_RATIOS
    ]
    formulas = cold[:960] + list(_SCREEN_PLANTED + _SCREEN_CUPRATES + _SCREEN_FESC)
    assert len(formulas) == 1000
    assert len({parse_composition(f).formula() for f in formulas}) == 1000
    cod = [rec(f, None, 2005, Source.COD) for f in formulas]
    return sc, cod


def test_c09_screen_recovers_planted_candidates():
    sc, cod = _screen_world()
    spec = ExperimentSpec(
        name="planted-screen",
        model=ModelConfig(conv_layers=1, channels_per_layer=4, dense_hidden=0,
                          tc_transform=TcTransform.LINEAR, seed=7),
        train=TrainConfig(learning_rate=5e-2, batch_size=8, epochs=60, shuffle_seed=3),
        fold_size=100,
    )
    t0 = time.monotonic()
    result = run_candidate_screen(sc, cod, spec)
    elapsed = time.monotonic() - t0

    predicted = {r.formula: r.predicted_tc_kelvin for r in result.rows}
    planted = {parse_composition(f).formula() for f in _SCREEN_PLANTED}
    labeled = {parse_composition(f).formula() for f in _SCREEN_CUPRATES + _SCREEN_FESC}

    recovered = sum(1 for f in planted if predicted.get(f, 0.0) > 0.0)
    assert recovered >= 15, f"only {recovered}/20 planted rows predicted above 0 K"
    assert labeled.isdisjoint(predicted), "labeled family rows leaked into the list"
    assert result.n_excluded == len(labeled)
    assert len(result.rows) == 1000 - len(labeled)
    assert elapsed < 900.0, f"screening took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# c10: forest baseline separates, and aggregation is exact


def test_c10_forest_separates_and_aggregation_is_exact():
    rng = np.random.default_rng(10)
    y = (np.arange(80) % 2).astype(np.int8)
    x = rng.normal(0.0, 1.0, (80, 256))
    x[:, :4] += np.where(y[:, None] == 1, 2.5, -2.5)  # linearly separable
    model = train_forest(x[:60], y[:60])
    classes, _votes = predict_forest(model, x[60:])
    accuracy = float((classes == y[60:]).mean())
    assert accuracy >= 0.95

    table = {"Al": np.zeros(N_BASIC), "Cu": np.full(N_BASIC, 10.0)}
    vec = aggregate_features(normalize({"Al": 1.0, "Cu": 1.0}), table)
    n = N_BASIC
    assert np.array_equal(vec[0 * n:1 * n], np.full(n, 5.0))   # weighted average
    assert np.array_equal(vec[1 * n:2 * n], np.full(n, 25.0))  # weighted variance
    assert np.array_equal(vec[4 * n:5 * n], np.full(n, 10.0))  # range
    assert np.array_equal(vec[7 * n:8 * n], np.full(n, 5.0))   # mean abs deviation


# ---------------------------------------------------------------------------
# c11: identical seeds give byte-identical output files


def _assert_dirs_byte_identical(a, b):
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b
    compared = 0
    for name in names_a:
        if name == "manifest.json":  # carries wall-clock timestamps
            continue
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
        compared += 1
    assert compared > 0


def test_c11_reruns_are_byte_identical(tmp_path):
    sc_csv = tmp_path / "sc.csv"
    fesc_extra = [rec("LaFeAsO", 26.0, 2008), rec("FeSe", 8.0, 2008)]
    write_input_csv(sc_csv, sc_world() + fesc_extra)
    cod_csv = tmp_path / "cod.csv"
    write_input_csv(cod_csv, screen_cod())
    eval_csv = tmp_path / "eval.csv"
    write_input_csv(eval_csv, eval_list_rows())
    features_csv = tmp_path / "features.csv"
    write_features_csv(features_csv, ["Nb", *TOY_COLD, "Y", "Ba", "Cu", "O", "La", "Fe", "As", "Se"])

    cfg_train = write_config(tmp_path / "train.json")
    cfg_eval = write_config(tmp_path / "eval.json",
                            training_filter={"year_before": 2008}, thresholds=[0, 4, 10])
    cfg_screen = write_config(tmp_path / "screen.json",
                              training_filter={"year_before": 2008}, fold_size=12)
    cfg_disc = write_config(tmp_path / "disc.json",
                            training_filter={"year_before": 2008},
                            test_set="FESC", repeats=2)

    commands = {
        "encode": lambda out: ["encode", "--formula", "MgB2", "--out", out],
        "dataset-build": lambda out: [
            "dataset-build", "--sc", str(sc_csv), "--cod", str(cod_csv),
            "--eval", str(eval_csv), "--out", out],
        "train": lambda out: [
            "train", "--config", cfg_train, "--data", str(sc_csv), "--out", out],
        "evaluate": lambda out: [
            "evaluate", "--config", cfg_eval, "--sc", str(sc_csv),
            "--cod", str(cod_csv), "--eval", str(eval_csv), "--out", out],
        "screen": lambda out: [
            "screen", "--config", cfg_screen, "--sc", str(sc_csv),
            "--cod", str(cod_csv), "--out", out],
        "discover": lambda out: [
            "discover", "--config", cfg_disc, "--sc", str(sc_csv),
            "--cod", str(cod_csv), "--out", out],
        "baseline": lambda out: [
            "baseline", "--sc", str(sc_csv), "--cod", str(cod_csv),
            "--features", str(features_csv), "--trees", "10", "--out", out],
    }
    for name, args_for in commands.items():
        a = tmp_path / name / "a"
        b = tmp_path / name / "b"
        for out in (a, b):
            code = cli_main(args_for(str(out)))
            assert code == 0, f"{name} exited {code}"
        _assert_dirs_byte_identical(a, b)
