import csv
import json
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scscreen import nn, screen
from scscreen.dataset import FamilyLabel, Source, classify_family, garbage_in, make_record
from scscreen.errors import UnknownFieldError, UnknownValueError
from scscreen.formula import parse_composition
from scscreen.metrics import EvalReport
from scscreen.nn import (
    EmptyDatasetError,
    Head,
    ModelConfig,
    TcTransform,
    TrainConfig,
    config_echo,
)
from scscreen.screen import (
    CandidateList,
    ExperimentSpec,
    LeakageError,
    TrainingFilter,
    build_training_filter,
    load_experiment_spec,
    run_candidate_screen,
    run_family_discovery,
    run_temporal_eval,
    spec_from_dict,
    write_candidates_csv,
    write_runs_csv,
    write_threshold_counts_csv,
)

COLD = ["Al", "Si", "Ge", "Sn", "Pb", "Ga", "In", "Zn"]

# (spec fragment, dotted path its error names): values of the wrong JSON
# type, each once read into a traceback or a silently different spec
WRONGLY_TYPED = [
    ({"model": {"conv_layers": "2"}}, "experiment.model.conv_layers"),
    ({"train": {"batch_size": "32"}}, "experiment.train.batch_size"),
    ({"fold_size": "8000"}, "experiment.fold_size"),
    ({"model": None}, "experiment.model"),
    ({"thresholds": 5}, "experiment.thresholds"),
    ({"training_filter": []}, "experiment.training_filter"),
    ({"thresholds": "045"}, "experiment.thresholds"),
    ({"repeats": True}, "experiment.repeats"),
    ({"fold_size": True}, "experiment.fold_size"),
    ({"train": {"epochs": 1.5}}, "experiment.train.epochs"),
    ({"training_filter": {"remove": "NbN"}}, "experiment.training_filter.remove"),
    ({"training_filter": {"year_before": 2008.7}}, "experiment.training_filter.year_before"),
    ({"name": 5}, "experiment.name"),
    ({"train": {"learning_rate": 10**400}}, "experiment.train.learning_rate"),
]


def sc_world():
    """Measured rows following tc = 25 * fraction(Nb), years 2000-2007."""
    rows = []
    for i, c in enumerate(COLD):
        for k in (2, 4, 6):
            rows.append(
                make_record(f"Nb{k}{c}{8 - k}", 25.0 * k / 8.0, 2000 + i % 8, Source.SUPERCON)
            )
    for i in range(len(COLD)):
        a, b = COLD[i], COLD[(i + 1) % len(COLD)]
        rows.append(make_record(f"{a}{b}", 0.0, 2000 + i % 8, Source.SUPERCON))
    return rows


def cod_world():
    """Catalogue of cold-only pairs, compositions distinct from sc_world."""
    rows = []
    for i in range(len(COLD)):
        for j in range(i + 1, len(COLD)):
            rows.append(make_record(f"{COLD[i]}2{COLD[j]}3", None, 2005, Source.COD))
    return rows


PLANTED = [f"Nb7{c}3" for c in COLD[:6]]  # Nb fraction 0.7: absent from training
PLANTED_CANON = {parse_composition(f).formula() for f in PLANTED}


def tiny_model(**kw):
    base = dict(
        conv_layers=1,
        channels_per_layer=4,
        dense_hidden=0,
        tc_transform=TcTransform.LINEAR,
        seed=7,
    )
    base.update(kw)
    return ModelConfig(**base)


def quick_train(**kw):
    base = dict(learning_rate=2e-2, batch_size=8, epochs=3, shuffle_seed=3)
    base.update(kw)
    return TrainConfig(**base)


def rec(formula, tc=None, year=None, source=Source.SUPERCON):
    return make_record(formula, tc, year, source)


# ---------------------------------------------------------------------------
# training filter


class TestTrainingFilter:
    def test_empty_filter_keeps_everything(self):
        f = build_training_filter({})
        records = sc_world() + [rec("XqZz3"), rec("NbTi", 9.0, None)]
        assert f.apply(records) == records

    def test_year_bound_is_strict_and_drops_undated(self):
        f = build_training_filter({"year_before": 2005})
        assert f(rec("NbTi", 9.0, 2004))
        assert not f(rec("NbTi", 9.0, 2005))
        assert not f(rec("NbTi", 9.0, None))

    def test_family_exclusion(self):
        f = build_training_filter({"exclude_families": ["CUPRATE", "FESC"]})
        assert f(rec("NbTi", 9.0, 2000))
        assert not f(rec("YBa2Cu3O7", 92.0, 1987))
        assert not f(rec("FeSe", 8.0, 2008))

    def test_family_rules_drop_unparsed_records(self):
        f = build_training_filter({"exclude_families": ["CUPRATE"]})
        assert not f(rec("XqZz3"))  # cannot be classified, cannot be cleared

    def test_unparsed_records_pass_without_family_rules(self):
        f = build_training_filter({"remove": ["NbTi"]})
        assert f(rec("XqZz3"))

    def test_remove_matches_spelling_variants(self):
        f = build_training_filter({"remove": ["NbTi"]})
        assert not f(rec("NbTi", 9.0, 2000))
        assert not f(rec("Nb0.5Ti0.5", 9.0, 2000))
        assert not f(rec("Nb2Ti2", 9.0, 2000))
        assert f(rec("Nb2Ti", 9.0, 2000))

    def test_rules_compose(self):
        f = build_training_filter(
            {"year_before": 2008, "remove": ["LaFePO", "LaFeP0.9F0.1O"]}
        )
        assert f(rec("NbTi", 9.0, 2000))
        assert not f(rec("LaFePO", 4.0, 2006))
        assert not f(rec("NbTi", 9.0, 2009))

    def test_unknown_field_rejected(self):
        with pytest.raises(UnknownFieldError, match="year_b4"):
            build_training_filter({"year_b4": 2008})

    def test_unknown_family_rejected(self):
        with pytest.raises(UnknownValueError, match="HEAVY_FERMION"):
            build_training_filter({"exclude_families": ["HEAVY_FERMION"]})

    def test_bad_removal_formula_rejected(self):
        with pytest.raises(ValueError, match="removal target"):
            build_training_filter({"remove": ["Xq9"]})

    def test_describe_round_trips(self):
        frag = {
            "year_before": 2010,
            "exclude_families": ["CUPRATE"],
            "remove": ["LaFePO"],
        }
        f = build_training_filter(frag)
        assert build_training_filter(config_echo(f)) == f


# ---------------------------------------------------------------------------
# experiment spec


class TestExperimentSpec:
    def test_defaults(self):
        s = ExperimentSpec(name="x")
        assert s.repeats == 1
        assert s.thresholds == (0.0, 4.0, 10.0)
        assert s.model == ModelConfig()
        assert s.training_filter == TrainingFilter()

    def test_thresholds_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", thresholds=(4.0, 0.0))
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", thresholds=(-1.0,))
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", thresholds=())

    def test_repeats_and_fold_size_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", repeats=0)
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", fold_size=0)
        with pytest.raises(ValueError):
            ExperimentSpec(name="")

    def test_from_dict_full(self):
        s = spec_from_dict(
            {
                "name": "eval-2010",
                "training_filter": {"year_before": 2010},
                "test_set": "fesc",
                "model": {"conv_layers": 2, "head": "binary_logit", "dtype": "float64"},
                "train": {"epochs": 5},
                "repeats": 4,
                "thresholds": [0, 10],
                "fold_size": 50,
            }
        )
        assert s.model.conv_layers == 2
        assert s.model.head is Head.BINARY_LOGIT
        assert s.test_set is FamilyLabel.FESC
        assert s.thresholds == (0.0, 10.0)
        assert s.fold_size == 50
        assert s.training_filter.year_before == 2010
        assert spec_from_dict(config_echo(s)) == s

    def test_from_dict_unknown_keys(self):
        with pytest.raises(UnknownFieldError, match="folds"):
            spec_from_dict({"name": "x", "folds": 3})
        with pytest.raises(UnknownFieldError, match="layers"):
            spec_from_dict({"name": "x", "model": {"layers": 3}})
        with pytest.raises(UnknownFieldError, match="lr"):
            spec_from_dict({"name": "x", "train": {"lr": 0.1}})

    def test_from_dict_bad_enum(self):
        with pytest.raises(ValueError, match="head"):
            spec_from_dict({"name": "x", "model": {"head": "softmax"}})

    def test_from_dict_needs_name(self):
        with pytest.raises(UnknownFieldError, match="name"):
            spec_from_dict({})

    @pytest.mark.parametrize("fragment, path", WRONGLY_TYPED, ids=[p for _, p in WRONGLY_TYPED])
    def test_wrongly_typed_value_names_its_field(self, fragment, path):
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected")):
            spec_from_dict({"name": "x", **fragment})

    @pytest.mark.parametrize("thresholds", [[float("nan")], [0, float("inf")]])
    def test_non_finite_threshold_rejected(self, thresholds):
        # every count "above NaN" was 0
        with pytest.raises(ValueError, match="thresholds must be finite, >= 0"):
            spec_from_dict({"name": "x", "thresholds": thresholds})

    def test_valid_values_read_as_before(self):
        s = spec_from_dict({"name": "x", "train": {"learning_rate": 1}, "thresholds": [0, 4],
                            "fold_size": None, "training_filter": {"exclude_families": ["fesc"]}})
        assert s.train.learning_rate == 1.0 and type(s.train.learning_rate) is float
        assert s.thresholds == (0.0, 4.0)
        assert s.fold_size is None
        assert s.training_filter.exclude_families == frozenset({FamilyLabel.FESC})

    def test_readme_example_reads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        s = spec_from_dict(json.loads(block))
        assert s.name == "screen-2026"
        assert spec_from_dict(config_echo(s)) == s

    def test_readme_table_lists_every_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = re.search(r"\| field \| JSON type \|\n\| --- \| --- \|\n((?:\|.*\n)+)", readme)
        documented = [path for row in table.group(1).splitlines()
                      for path in re.findall(r"`([a-z_.]+)`", row.split("|")[1])]

        def leaves(echo, prefix=""):
            for k, v in echo.items():
                yield from leaves(v, f"{prefix}{k}.") if isinstance(v, dict) else [prefix + k]

        assert sorted(documented) == sorted(leaves(config_echo(ExperimentSpec(name="x"))))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "file-exp", "repeats": 2}))
        s = load_experiment_spec(path)
        assert s.name == "file-exp"
        assert s.repeats == 2

    def test_load_accepts_byte_order_mark(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"name": "bom"}).encode())
        assert load_experiment_spec(path).name == "bom"

    def test_load_rejects_non_utf8_naming_the_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8")):
            load_experiment_spec(path)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="JSON"):
            load_experiment_spec(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            load_experiment_spec(path)

    def test_describe_is_json_ready(self):
        s = spec_from_dict({"name": "x", "training_filter": {"year_before": 2010}})
        echo = json.loads(json.dumps(config_echo(s)))
        assert echo["name"] == "x"
        assert echo["training_filter"] == {"year_before": 2010, "exclude_families": [],
                                           "remove": []}
        assert echo["model"]["head"] == "REGRESSION"


_ints = st.integers(min_value=0, max_value=2**40)
_model_configs = st.builds(
    ModelConfig,
    conv_layers=st.integers(1, 12),
    channels_per_layer=st.integers(1, 64),
    dense_hidden=st.integers(0, 128),
    head=st.sampled_from(Head),
    tc_transform=st.sampled_from(TcTransform),
    seed=_ints,
    dtype=st.sampled_from(["float32", "float64"]),
)
_train_configs = st.builds(
    TrainConfig,
    learning_rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    batch_size=st.integers(1, 1024),
    epochs=_ints,
    shuffle_seed=_ints,
)
_families = st.frozensets(st.sampled_from(FamilyLabel))
_training_filters = st.builds(
    TrainingFilter,
    year_before=st.none() | st.integers(-3000, 3000),
    exclude_families=_families,
    remove=st.lists(st.sampled_from(["LaFePO", "Nb3Sn", "CaBi2", "MgB2", "La1.85Sr0.15CuO4",
                                     "YBa2Cu3O7", "Ba(Fe0.92Co0.08)2As2"]), max_size=4).map(tuple),
)
_specs = st.builds(
    ExperimentSpec,
    name=st.text(min_size=1),
    training_filter=_training_filters,
    test_set=st.none() | st.sampled_from(FamilyLabel),
    model=_model_configs,
    train=_train_configs,
    repeats=st.integers(1, 50),
    thresholds=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=5).map(sorted).map(tuple),
    fold_size=st.none() | st.integers(1, 10**6),
)


@settings(max_examples=300)
@given(st.one_of(_model_configs, _train_configs, _training_filters, _specs))
def test_echo_round_trips_through_json(cfg):
    # config_echo is the exact inverse of the reader, nested configs included
    echo = json.loads(json.dumps(config_echo(cfg)))
    assert nn.config_from_dict(type(cfg), echo, "cfg") == cfg


@settings(max_examples=100)
@given(_families)
def test_frozensets_echo_as_sorted_names(excluded):
    # a frozenset of enums iterates in a different order in each process
    echo = config_echo(TrainingFilter(exclude_families=excluded))
    assert echo["exclude_families"] == sorted(f.name for f in excluded)
    assert "_removals" not in echo


# ---------------------------------------------------------------------------
# candidate screening


def screen_spec(**kw):
    base = dict(
        name="screen-toy",
        model=tiny_model(),
        train=quick_train(learning_rate=5e-2, epochs=150),
        thresholds=(0.0, 4.0, 10.0),
        fold_size=12,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def screen_cod():
    planted = [make_record(f, None, 2006, Source.COD) for f in PLANTED]
    known_families = [
        make_record("YBa2Cu3O7", None, 2006, Source.COD),
        make_record("LaFeAsO", None, 2006, Source.COD),
    ]
    return cod_world() + planted + known_families


@pytest.fixture(scope="module")
def result():
    return run_candidate_screen(sc_world(), screen_cod(), screen_spec())


class TestCandidateScreen:
    def test_every_catalogue_row_scored_once(self, result):
        # 28 cold + 6 planted survive; the cuprate and the FeSC are excluded
        assert len(result.rows) == 34
        assert result.n_excluded == 2
        assert len({r.formula for r in result.rows}) == 34
        assert result.n_folds == 3

    def test_known_families_excluded(self, result):
        assert all(
            r.family not in (FamilyLabel.CUPRATE, FamilyLabel.FESC) for r in result.rows
        )
        listed = {r.formula for r in result.rows}
        assert parse_composition("YBa2Cu3O7").formula() not in listed
        assert parse_composition("LaFeAsO").formula() not in listed

    def test_sorted_by_predicted_tc_descending(self, result):
        preds = [r.predicted_tc_kelvin for r in result.rows]
        assert preds == sorted(preds, reverse=True)

    def test_planted_rows_rise_to_the_top(self, result):
        top = {r.formula for r in result.rows[: len(PLANTED)]}
        assert top == PLANTED_CANON

    def test_threshold_counts_match_rows_and_decrease(self, result):
        for threshold, count in result.threshold_counts:
            assert count == sum(1 for r in result.rows if r.predicted_tc_kelvin > threshold)
        counts = [c for _, c in result.threshold_counts]
        assert counts == sorted(counts, reverse=True)

    def test_fold_ids_cover_all_folds(self, result):
        assert {r.fold_id for r in result.rows} == {0, 1, 2}

    def test_seeds_recorded(self, result):
        assert result.fold_seed == 7
        assert result.model_seeds == [7, 8, 9]

    def test_deterministic(self, result):
        again = run_candidate_screen(sc_world(), screen_cod(), screen_spec())
        assert again.rows == result.rows
        assert again.threshold_counts == result.threshold_counts

    def test_thread_invariant(self, result):
        # folds train in threads, each on its own workspace
        threaded = run_candidate_screen(sc_world(), screen_cod(), screen_spec(), jobs=2)
        assert threaded.rows == result.rows
        assert threaded.threshold_counts == result.threshold_counts

    def test_duplicate_catalogue_composition_is_leakage(self):
        # the second pair is one material to within 1e-6 in every fraction;
        # the message names the collision by its canonical formula. At fold
        # size 3 both copies share the one fold: no fold trains on the
        # other copy, yet the material would be ranked twice.
        for pair, name in (
            (("Si", "Si"), "e.g. 'Si'"),
            (("NbSn2", "Nb0.3333333Sn0.6666667"), "e.g. 'Nb0.333"),
        ):
            cod = [rec(f, source=Source.COD) for f in (*pair, "Ge")]
            for fold_size in (1, len(cod)):
                spec = screen_spec(train=quick_train(epochs=2), fold_size=fold_size)
                with pytest.raises(LeakageError, match=name):
                    run_candidate_screen(sc_world(), cod, spec)

    def test_needs_fold_size(self):
        with pytest.raises(ValueError, match="fold_size"):
            run_candidate_screen(sc_world(), screen_cod(), screen_spec(fold_size=None))

    def test_needs_kelvin_head(self):
        # ranking and kelvin thresholds are meaningless for probabilities
        spec = screen_spec(
            model=tiny_model(head=Head.BINARY_LOGIT),
            train=quick_train(epochs=2),
        )
        with pytest.raises(ValueError, match="REGRESSION"):
            run_candidate_screen(sc_world(), screen_cod(), spec)

    def test_empty_training_after_filter(self):
        spec = screen_spec(
            training_filter=build_training_filter({"year_before": 1900}),
            train=quick_train(epochs=2),
        )
        with pytest.raises(EmptyDatasetError):
            run_candidate_screen(sc_world(), screen_cod(), spec)

    def test_csv_outputs(self, result, tmp_path):
        cand = tmp_path / "candidates.csv"
        counts = tmp_path / "counts.csv"
        write_candidates_csv(result, cand)
        write_threshold_counts_csv(result, counts)
        with open(cand, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["formula", "predicted_tc_K", "fold_id", "family"]
        assert len(rows) == 1 + len(result.rows)
        assert rows[1][0] == result.rows[0].formula
        assert float(rows[1][1]) == pytest.approx(result.rows[0].predicted_tc_kelvin, rel=1e-8)
        with open(counts, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["threshold_K", "count"]
        assert [int(r[1]) for r in rows[1:]] == [c for _, c in result.threshold_counts]


# ---------------------------------------------------------------------------
# temporally separated evaluation


def eval_list_rows():
    return [
        rec("Nb9Al", 22.5, 2012, Source.EVAL_LIST),
        rec("Nb9Si", 22.5, 2012, Source.EVAL_LIST),
        rec("Nb9Ge", 22.5, 2013, Source.EVAL_LIST),
        rec("NbAl9", 2.5, 2012, Source.EVAL_LIST),
        rec("Al3Zn7", 0.0, 2012, Source.EVAL_LIST),
        rec("Ga3In7", 0.0, 2013, Source.EVAL_LIST),
    ]


def eval_spec(**kw):
    base = dict(
        name="eval-toy",
        training_filter=build_training_filter({"year_before": 2010}),
        model=tiny_model(),
        train=quick_train(epochs=4),
        thresholds=(0.0, 4.0, 10.0),
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestTemporalEval:
    def test_one_report_per_threshold(self):
        reports = run_temporal_eval(sc_world(), cod_world(), eval_list_rows(), eval_spec())
        assert [r.threshold_kelvin for r in reports] == [0.0, 4.0, 10.0]
        assert all(isinstance(r, EvalReport) for r in reports)
        assert all(r.n == len(eval_list_rows()) for r in reports)

    def test_baseline_precision_reflects_eval_truth(self):
        reports = run_temporal_eval(sc_world(), cod_world(), eval_list_rows(), eval_spec())
        assert reports[0].baseline_precision == pytest.approx(4 / 6)
        assert reports[1].baseline_precision == pytest.approx(3 / 6)
        assert reports[2].baseline_precision == pytest.approx(3 / 6)

    def test_training_overlap_removed_from_eval_side(self):
        # Nb4Al4 is a training composition (Nb fraction 0.5); it must be
        # scored by nobody rather than answered from memory.
        extra = eval_list_rows() + [rec("Nb4Al4", 12.5, 2012, Source.EVAL_LIST)]
        reports = run_temporal_eval(sc_world(), cod_world(), extra, eval_spec())
        assert reports[0].n == len(eval_list_rows())

    def test_classification_head_trains_per_threshold(self):
        spec = eval_spec(
            model=tiny_model(head=Head.BINARY_LOGIT),
            train=quick_train(epochs=3),
            thresholds=(0.0, 10.0),
        )
        reports = run_temporal_eval(sc_world(), cod_world(), eval_list_rows(), spec)
        assert [r.threshold_kelvin for r in reports] == [0.0, 10.0]
        assert all(0.0 <= r.accuracy <= 1.0 for r in reports)
        assert reports[0].baseline_precision == pytest.approx(4 / 6)

    def test_deterministic(self):
        a = run_temporal_eval(sc_world(), cod_world(), eval_list_rows(), eval_spec())
        b = run_temporal_eval(sc_world(), cod_world(), eval_list_rows(), eval_spec())
        assert a == b

    def test_requires_year_bound(self):
        spec = eval_spec(training_filter=TrainingFilter())
        with pytest.raises(ValueError, match="year_before"):
            run_temporal_eval(sc_world(), cod_world(), eval_list_rows(), spec)

    def test_empty_eval_list(self):
        with pytest.raises(EmptyDatasetError):
            run_temporal_eval(sc_world(), cod_world(), [], eval_spec())

    def test_unresolved_eval_formula_rejected(self):
        rows = eval_list_rows() + [rec("LaFeAsO1-xFx", 26.0, 2012, Source.EVAL_LIST)]
        with pytest.raises(ValueError, match="non-numeric"):
            run_temporal_eval(sc_world(), cod_world(), rows, eval_spec())

    def test_eval_row_without_tc_rejected(self):
        rows = eval_list_rows() + [rec("Ga2Zn8", None, 2012, Source.EVAL_LIST)]
        with pytest.raises(ValueError, match="without a known Tc"):
            run_temporal_eval(sc_world(), cod_world(), rows, eval_spec())


# ---------------------------------------------------------------------------
# family discovery


FESC_ROWS = [
    ("LaFeAsO", 26.0, 2008),
    ("SmFeAsO", 43.0, 2008),
    ("FeSe", 8.0, 2008),
    ("BaFe2As2", 2.0, 2009),
]


def discovery_world():
    sc = sc_world() + [rec(f, tc, y) for f, tc, y in FESC_ROWS]
    return sc, cod_world()


def discovery_spec(**kw):
    base = dict(
        name="discover-toy",
        training_filter=build_training_filter({"year_before": 2008}),
        test_set=FamilyLabel.FESC,
        model=tiny_model(),
        train=quick_train(epochs=3),
        repeats=3,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestFamilyDiscovery:
    def test_histogram_conserves_runs(self):
        sc, cod = discovery_world()
        res = run_family_discovery(sc, cod, discovery_spec())
        assert res.family is FamilyLabel.FESC
        assert res.n_test == len(FESC_ROWS)
        assert len(res.runs) == 3
        assert int(res.histogram.counts.sum()) == 3
        assert all(0 <= r.n_positive <= res.n_test for r in res.runs)

    def test_per_run_seed_derivation(self):
        sc, cod = discovery_world()
        res = run_family_discovery(sc, cod, discovery_spec())
        assert [r.model_seed for r in res.runs] == [7, 8, 9]
        assert [r.shuffle_seed for r in res.runs] == [3, 4, 5]

    def test_validity_unchecked_without_reference_list(self):
        sc, cod = discovery_world()
        res = run_family_discovery(sc, cod, discovery_spec())
        assert all(r.eval_report is None and r.valid is None for r in res.runs)

    def test_validity_checked_against_reference_list(self):
        # Nb2Al6 is a pre-2008 training row: it is scored by nobody, as in
        # the temporal evaluation
        sc, cod = discovery_world()
        ref = eval_list_rows() + [rec("Nb2Al6", 6.25, 2012, Source.EVAL_LIST)]
        res = run_family_discovery(sc, cod, discovery_spec(repeats=2), eval_list=ref)
        for r in res.runs:
            assert r.eval_report is not None
            assert r.eval_report.n == len(eval_list_rows())
            assert r.eval_report.baseline_precision == pytest.approx(4 / 6)
            assert isinstance(r.valid, bool)

    def test_reference_list_with_nothing_to_score_rejected(self):
        # both rows are pre-2008 training rows, so no run could be checked
        sc, cod = discovery_world()
        ref = [rec("Nb2Al6", 6.25, 2012, Source.EVAL_LIST),
               rec("Nb4Si4", 12.5, 2012, Source.EVAL_LIST)]
        with pytest.raises(EmptyDatasetError, match="reference list"):
            run_family_discovery(sc, cod, discovery_spec(), eval_list=ref)

    def test_empty_reference_list_rejected(self):
        sc, cod = discovery_world()
        with pytest.raises(EmptyDatasetError, match="^reference list is empty$"):
            run_family_discovery(sc, cod, discovery_spec(), eval_list=[])

    def test_unresolved_reference_formula_rejected(self):
        # held to run_temporal_eval's rule, not dropped before the check
        sc, cod = discovery_world()
        ref = eval_list_rows() + [rec("LaFeAsO1-xFx", 26.0, 2012, Source.EVAL_LIST)]
        with pytest.raises(ValueError, match="reference list has 1 non-numeric"):
            run_family_discovery(sc, cod, discovery_spec(), eval_list=ref)

    def test_reference_row_without_tc_rejected(self):
        sc, cod = discovery_world()
        ref = eval_list_rows() + [rec("Ga2Zn8", None, 2012, Source.EVAL_LIST)]
        with pytest.raises(ValueError, match="reference list has 1 row.* without a known Tc"):
            run_family_discovery(sc, cod, discovery_spec(), eval_list=ref)

    def test_family_exclusion_rule_works_like_year_bound(self):
        sc, cod = discovery_world()
        spec = discovery_spec(
            training_filter=build_training_filter({"exclude_families": ["FESC"]})
        )
        res = run_family_discovery(sc, cod, spec)
        assert res.n_test == len(FESC_ROWS)

    def test_filter_leaving_family_in_training_rejected(self):
        sc, cod = discovery_world()
        spec = discovery_spec(training_filter=TrainingFilter())
        with pytest.raises(ValueError, match="FESC"):
            run_family_discovery(sc, cod, spec)

    def test_missing_family_is_empty_test(self):
        with pytest.raises(EmptyDatasetError, match="FESC"):
            run_family_discovery(sc_world(), cod_world(), discovery_spec())

    def test_unknown_target_family(self):
        with pytest.raises(UnknownValueError, match=r"experiment\.test_set: unknown value 'NOBLE_GAS'"):
            spec_from_dict({"name": "x", "test_set": "NOBLE_GAS"})
        with pytest.raises(ValueError, match="test_set must be a FamilyLabel"):
            discovery_spec(test_set="FESC")

    def test_no_target_family(self):
        sc, cod = discovery_world()
        with pytest.raises(ValueError, match="needs spec.test_set"):
            run_family_discovery(sc, cod, discovery_spec(test_set=None))

    def test_counting_rule_depends_on_head(self):
        # A barely-trained kelvin regressor predicts near the training mean,
        # so every test composition clears 0 K and the count saturates.  The
        # probability head only counts mass above one half, which an
        # undertrained model does not reach.
        sc, cod = discovery_world()
        reg = run_family_discovery(sc, cod, discovery_spec())
        assert [r.n_positive for r in reg.runs] == [4, 4, 4]
        spec = discovery_spec(
            model=tiny_model(head=Head.BINARY_LOGIT),
            train=quick_train(epochs=3),
        )
        prob = run_family_discovery(sc, cod, spec)
        assert [r.n_positive for r in prob.runs] == [0, 0, 0]

    def test_deterministic_and_thread_invariant(self):
        sc, cod = discovery_world()
        a, b, c = (run_family_discovery(sc, cod, discovery_spec(), eval_list=eval_list_rows(),
                                        jobs=jobs) for jobs in (1, 1, 2))
        assert all(r.eval_report is not None for r in a.runs)
        assert a.runs == b.runs == c.runs
        assert a.histogram.counts.tolist() == c.histogram.counts.tolist()

    def test_runs_csv(self, tmp_path):
        sc, cod = discovery_world()
        res = run_family_discovery(
            sc, cod, discovery_spec(repeats=2), eval_list=eval_list_rows()
        )
        path = tmp_path / "runs.csv"
        write_runs_csv(res, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][:4] == ["run_index", "model_seed", "shuffle_seed", "n_positive"]
        assert len(rows) == 3
        assert rows[1][6] in ("true", "false")


# ---------------------------------------------------------------------------
# one runner: every model is a _Fit that _fit_all trains and predicts


def test_fit_survives_pickle():
    # a fit is plain data, so it can be shipped to another process as is
    fit = screen._Fit(
        tiny_model(head=Head.BINARY_LOGIT), quick_train(), 4.0,
        np.arange(5), (np.array([7, 9]), np.arange(3)),
    )
    back = pickle.loads(pickle.dumps(fit))
    assert (back.model, back.train, back.label_threshold) == (fit.model, fit.train, 4.0)
    assert np.array_equal(back.train_idx, fit.train_idx)
    assert len(back.scored) == 2
    assert all(np.array_equal(a, b) for a, b in zip(back.scored, fit.scored))


@pytest.fixture
def trained_thresholds(monkeypatch):
    """The label threshold of every model `screen.train` trains, in order."""
    seen = []
    fit = screen.train

    def recorded(*args, **kwargs):
        seen.append(kwargs["label_threshold"])
        return fit(*args, **kwargs)

    monkeypatch.setattr(screen, "train", recorded)
    return seen


@pytest.mark.parametrize("head, trained", [(Head.REGRESSION, [0.0]),
                                           (Head.BINARY_LOGIT, [0.0, 4.0, 10.0])],
                         ids=["regression", "binary_logit"])
def test_temporal_eval_models_per_head(trained_thresholds, head, trained):
    # one kelvin regressor serves every threshold; a classifier is trained
    # per threshold, in threshold order
    spec = eval_spec(model=tiny_model(head=head), train=quick_train(epochs=1))
    assert spec.thresholds == (0.0, 4.0, 10.0)
    reports = run_temporal_eval(sc_world(), cod_world(), eval_list_rows(), spec)
    assert trained_thresholds == trained
    assert [r.threshold_kelvin for r in reports] == [0.0, 4.0, 10.0]


# ---------------------------------------------------------------------------
# each experiment encodes its rows once


@pytest.fixture
def encoded_rows(monkeypatch):
    """Every composition nn.encode_ptable_batch is handed, in call order."""
    seen = []
    encode = nn.encode_ptable_batch

    def recorded(comps):
        comps = list(comps)
        seen.extend(comps)
        return encode(comps)

    monkeypatch.setattr(nn, "encode_ptable_batch", recorded)
    return seen


def assert_each_once(seen, rows):
    """`seen` holds each of `rows`' compositions exactly once (records keep
    their composition objects alive, so ids are distinct)."""
    assert len(seen) == len(rows)
    assert sorted(map(id, seen)) == sorted(id(r.composition) for r in rows)


class TestEncodeOnce:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_screen_encodes_training_and_corpus_rows_once(self, encoded_rows, jobs):
        sc, cod, spec = sc_world(), screen_cod(), screen_spec(train=quick_train(epochs=1))
        result = run_candidate_screen(sc, cod, spec, jobs=jobs)
        sc_train = screen._training_sc(sc, spec)
        corpus = garbage_in(cod, sc_train)
        assert result.n_folds == 3
        assert_each_once(encoded_rows, sc_train + corpus)

    def test_temporal_eval_encodes_once_for_every_threshold(self, encoded_rows):
        # a BINARY_LOGIT head trains one model per threshold
        sc, cod, evals = sc_world(), cod_world(), eval_list_rows()
        spec = eval_spec(
            model=tiny_model(head=Head.BINARY_LOGIT),
            train=quick_train(epochs=1),
        )
        assert len(spec.thresholds) == 3
        run_temporal_eval(sc, cod, evals, spec)
        train_rows, (eval_rows,) = screen._hold_out(
            screen._training_sc(sc, spec), cod, spec, [evals], "check"
        )
        assert_each_once(encoded_rows, train_rows + eval_rows)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_discovery_encodes_once_for_every_repeat(self, encoded_rows, jobs):
        (sc, cod), evals = discovery_world(), eval_list_rows()
        spec = discovery_spec(repeats=3)
        res = run_family_discovery(sc, cod, spec, eval_list=evals, jobs=jobs)
        assert len(res.runs) == 3
        fesc = [r for r in sc if classify_family(r.composition) is FamilyLabel.FESC]
        assert len(fesc) == len(FESC_ROWS)
        train_rows, (test_rows, eval_rows) = screen._hold_out(
            screen._training_sc(sc, spec), cod, spec, [fesc, evals], "check"
        )
        assert_each_once(encoded_rows, train_rows + test_rows + eval_rows)
