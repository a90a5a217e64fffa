"""Cleaning rules, negatives, families, and folds."""

import csv
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scscreen import dataset as ds
from scscreen.baseline import (
    FEATURE_NAMES,
    N_BASIC,
    load_element_features,
    write_feature_template,
)
from scscreen.dataset import (
    FamilyLabel,
    FoldTooLargeError,
    MaterialRecord,
    SchemaMismatchError,
    Source,
    classify_family,
    clean_catalogue,
    clean_sc,
    dataset_fingerprint,
    dedup_median_tc,
    drop_missing_tc,
    filter_inorganic,
    garbage_in,
    ingest_csv,
    make_record,
    remove_overlap,
    rotating_folds,
    write_records_csv,
)
from scscreen.formula import parse_composition
from scscreen.metrics import EvalReport, Histogram, write_histogram_csv, write_reports_csv
from scscreen.ptable import ELEMENTS
from scscreen.screen import (
    CandidateList,
    CandidateRow,
    DiscoveryResult,
    RunReport,
    build_training_filter,
    write_candidates_csv,
    write_runs_csv,
    write_threshold_counts_csv,
)


def rec(formula, tc=None, year=None, source=Source.SUPERCON):
    return make_record(formula, tc, year, source)


def _ingest_outcome(path):
    try:
        report = ingest_csv(path, Source.COD)
    except SchemaMismatchError as err:
        return str(err)
    return [(r.raw_formula, r.tc_kelvin, r.year, r.flagged_reason) for r in report.records]


def _dict_reader_outcome(path):
    """What ingest_csv returns for `path`, from cells read by name."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.DictReader(f)
        if "formula" not in (reader.fieldnames or []):
            return f"{path}: need a 'formula' column, got {reader.fieldnames}"
        out = []
        for row in reader:
            raw, tc, year = ((row.get(k) or "").strip() for k in ("formula", "tc_K", "year"))
            try:
                r = make_record(raw, float(tc) if tc else None, int(year) if year else None,
                                Source.COD)
            except ValueError as err:
                return f"{path}:{reader.line_num}: {err}"
            out.append((r.raw_formula, r.tc_kelvin, r.year, r.flagged_reason))
        return out


class TestIngest:
    def test_reads_csv(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text(
            "formula,tc_K,year\n"
            "NbN,16.0,1941\n"
            "MgB2,39,2001\n"
            "La2-xSrxCuO4,38,1986\n"
            "Qq7,,\n"
            "H2O,,\n"
            "Yy1La,,\n"
        )
        report = ingest_csv(p, Source.SUPERCON)
        assert report.n_rows == 6
        assert report.n_parsed == 3
        assert report.n_flagged == 3
        flagged = {r.raw_formula: r.flagged_reason for r in report.records if r.flagged_reason}
        assert flagged["La2-xSrxCuO4"] == "unresolved_variable"
        # fails to parse on its syntax, but the variable is what gets named
        assert flagged["Yy1La"] == "unresolved_variable"
        assert "Qq7" in flagged
        nbn = report.records[0]
        assert nbn.tc_kelvin == 16.0 and nbn.year == 1941
        assert nbn.composition == parse_composition("NbN")

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("formula,tc_K,year,note\nNbN,16,,hello\n")
        assert ingest_csv(p, Source.COD).n_parsed == 1

    def test_missing_formula_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("name,tc_K\nNbN,16\n")
        with pytest.raises(SchemaMismatchError):
            ingest_csv(p, Source.SUPERCON)

    def test_bad_number_is_schema_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("formula,tc_K,year\nNbN,sixteen,\n")
        with pytest.raises(SchemaMismatchError):
            ingest_csv(p, Source.SUPERCON)

    @pytest.mark.parametrize("tc", ["-5", "nan", "inf"])
    def test_bad_tc_is_schema_error_naming_the_line(self, tmp_path, tc):
        p = tmp_path / "bad.csv"
        p.write_text(f"formula,tc_K,year\nNbN,16,\nNb3Sn,{tc},\n")
        with pytest.raises(SchemaMismatchError, match=f"^{re.escape(str(p))}:3: tc_kelvin"):
            ingest_csv(p, Source.SUPERCON)

    @pytest.mark.parametrize("text, line", [
        ("formula,tc_K,year\nNb3Sn,18,1954\n\n\nNbN,abc,1960\n", 5),
        ('formula,tc_K,year\n"Nb3\nSn",18,1954\nNbN,abc,1960\n', 4),
        ('formula,tc_K,year\nNb3Sn,18,1954\n"Nb\nN",abc,1960\n', 4),
    ], ids=["blank-lines", "two-line-cell-before", "two-line-cell-in-the-row"])
    def test_bad_cell_names_the_file_line_its_row_ends_on(self, tmp_path, text, line):
        # blank lines and line breaks inside quoted cells are lines too
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(SchemaMismatchError, match=f"^{re.escape(str(p))}:{line}: "):
            ingest_csv(p, Source.SUPERCON)

    def test_count_overflow_is_flagged_and_ingest_goes_on(self, tmp_path):
        p = tmp_path / "in.csv"
        huge = "H" + "9" * 308 + "O" + "9" * 308  # each count finite, their sum is not
        p.write_text(f"formula,tc_K,year\n{huge},,\nH{'9' * 400},,\nNbN,16,\n")
        report = ingest_csv(p, Source.COD)
        assert report.n_rows == 3 and report.n_parsed == 1 and report.n_flagged == 2
        assert [r.flagged_reason for r in report.records] == ["FormulaError", "FormulaError", None]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cells_are_read_as_dict_reader_reads_them(self, data):
        # ingest reads cells by column index; the reference reads them by
        # name through csv.DictReader: blank lines, short and long rows, a
        # repeated or missing column and a bad number must all come out alike
        names = ["formula", "tc_K", "year", "note"]
        header = data.draw(st.lists(st.sampled_from(names), max_size=5)
                           .filter(lambda h: "formula" in h))
        cell = {"formula": st.sampled_from(["Nb3Sn", " MgB2 ", "", "Qq7", "H2O\n", "(Nb"]),
                "tc_K": st.sampled_from(["", "9.2", " 0 ", "1e1", "x"]),
                "year": st.sampled_from(["", "2001", " 1986", "19.5"])}
        other = st.sampled_from(["", "note", "7"])
        rows = data.draw(st.lists(st.integers(0, len(header) + 2).flatmap(
            lambda n: st.tuples(*[cell.get(header[i] if i < len(header) else "", other)
                                  for i in range(n)])), max_size=8))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.csv")
            with open(path, "w", newline="") as f:
                csv.writer(f).writerows([header, *rows])
            assert _ingest_outcome(path) == _dict_reader_outcome(path)

    def test_negative_tc_rejected_at_record_level(self):
        with pytest.raises(ValueError):
            MaterialRecord("X", None, -1.0, None, Source.SUPERCON)


def _feature_row(symbol, first="1"):
    return ",".join([symbol, first, *["1"] * (N_BASIC - 1)])


# each table: its reader, header, a good row, a good row with a two-line
# quoted cell, and a row with a bad number
_TABLES = {
    "records": (lambda path: ingest_csv(path, Source.SUPERCON),
                ["formula,tc_K,year", "NbN,16,1941", '"Nb\nN",16,1941', "NbN,abc,1941"]),
    "features": (load_element_features,
                 [",".join(["symbol", *FEATURE_NAMES]), _feature_row("Nb"),
                  _feature_row("Nb", '"1\n"'), _feature_row("Ta", "abc")]),
}


@pytest.mark.parametrize("table", sorted(_TABLES))
@pytest.mark.parametrize("case, expected", [
    ("field-limit", ":3: field larger than field limit (131072)"),
    ("not-utf8", ": not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    ("after-two-line-cell", ":4: could not convert string to float: 'abc'"),
])
def test_both_readers_name_the_same_file_line(tmp_path, table, case, expected):
    # the feature table used to count rows, not lines, and say :3 for the last case
    read, (header, good, two_line, bad) = _TABLES[table]
    path = tmp_path / "table.csv"
    path.write_bytes({
        "field-limit": f"{header}\n{good}\n{'x' * 140_000}\n".encode(),
        "not-utf8": f"{header}\n{good}\n".encode() + b"\xff\n",
        "after-two-line-cell": f"{header}\n{two_line}\n{bad}\n".encode(),
    }[case])
    with pytest.raises(ValueError) as caught:
        read(path)
    assert str(caught.value).startswith(f"{path}{expected}")


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_open_quoted_cell_fails_naming_the_line_its_row_began_on(tmp_path, table):
    # the quote opened on line 3 used to swallow the rest of the file into one cell
    read, (header, good, _, _) = _TABLES[table]
    path = tmp_path / "table.csv"
    path.write_text(f"{header}\n{good}\n\"{good}\n" + f"{good}\n" * 500)
    with pytest.raises(SchemaMismatchError) as caught:
        read(path)
    assert str(caught.value) == f"{path}:3: quoted cell is never closed"


def test_field_limit_in_an_open_quoted_cell_names_the_line_its_row_began_on(tmp_path):
    # the swallowed tail passes the csv module's field limit thousands of
    # lines after the quote opened, and long before the file ends
    path = tmp_path / "sc.csv"
    path.write_text('formula,tc_K,year\nMgB2,39,2001\n"NbN,16,1941\n' + "MgB2,39,2001\n" * 12_000)
    with pytest.raises(SchemaMismatchError) as caught:
        ingest_csv(path, Source.SUPERCON)
    assert str(caught.value) == f"{path}:3: field larger than field limit (131072)"


def test_text_after_a_closing_quote_still_joins_the_cell(tmp_path):
    path = tmp_path / "sc.csv"
    path.write_text('formula,tc_K,year\n"Nb"Ti,9,1962\n"Nb""x",1,\n')
    got = [r.raw_formula for r in ingest_csv(path, Source.SUPERCON).records]
    assert got == ["NbTi", 'Nb"x']


class TestDedup:
    def test_odd_median(self):
        rows = [rec("NbN", 10.0, 1950), rec("NbN", 12.0, 1941), rec("NbN", 20.0, 1960)]
        out = dedup_median_tc(rows)
        assert len(out) == 1
        assert out[0].tc_kelvin == 12.0
        assert out[0].year == 1941

    def test_even_count_takes_lower_middle(self):
        rows = [rec("NbN", 8.0), rec("NbN", 4.0)]
        out = dedup_median_tc(rows)
        assert out[0].tc_kelvin == 4.0

    def test_spelling_variants_merge(self):
        rows = [rec("NbN", 10.0), rec("Nb1N1", 20.0), rec("Nb0.5N0.5", 30.0)]
        out = dedup_median_tc(rows)
        assert len(out) == 1
        assert out[0].tc_kelvin == 20.0

    def test_no_duplicates_identity(self):
        rows = [rec("NbN", 10.0), rec("MgB2", 39.0)]
        assert dedup_median_tc(rows) == rows

    def test_idempotent(self):
        rows = [rec("NbN", 10.0), rec("NbN", 12.0), rec("MgB2", 39.0)]
        once = dedup_median_tc(rows)
        assert dedup_median_tc(once) == once

    def test_unparsed_pass_through(self):
        rows = [rec("Qq", 5.0), rec("NbN", 10.0)]
        out = dedup_median_tc(rows)
        assert len(out) == 2
        assert out[0].flagged_reason is not None

    def test_flagged_twins_stay_apart_and_groups_keep_first_places(self):
        flagged = rec("Qq", 5.0)
        rows = [rec("NbN", 10.0), flagged, rec("MgB2", 39.0), rec("Nb1N1", 20.0),
                rec("Qq", 5.0), rec("MgB2", 30.0), rec("NbN", 30.0)]
        assert rows[1] == rows[4]
        out = dedup_median_tc(rows)
        assert [r.raw_formula for r in out] == ["NbN", "Qq", "MgB2", "Qq"]
        assert out[1] is flagged and out[3] is rows[4]
        assert [r.tc_kelvin for r in out] == [20.0, 5.0, 30.0, 5.0]


class TestDropMissingTc:
    def test_drops_only_supercon_rows(self):
        rows = [
            rec("NbN", None, source=Source.SUPERCON),
            rec("MgB2", 39.0, source=Source.SUPERCON),
            rec("SiO2", None, source=Source.COD),
        ]
        out = drop_missing_tc(rows)
        assert [r.raw_formula for r in out] == ["MgB2", "SiO2"]

    def test_identity_when_all_present(self):
        rows = [rec("NbN", 16.0), rec("MgB2", 39.0)]
        assert drop_missing_tc(rows) == rows


class TestFamilies:
    def test_pinned_examples(self):
        assert classify_family(parse_composition("YBa2Cu3O7")) is FamilyLabel.CUPRATE
        assert classify_family(parse_composition("LaFeAsO")) is FamilyLabel.FESC
        assert classify_family(parse_composition("MgB2")) is FamilyLabel.CONVENTIONAL
        assert classify_family(parse_composition("FeSe")) is FamilyLabel.FESC
        assert classify_family(parse_composition("NbN")) is FamilyLabel.CONVENTIONAL

    def test_cu_o_alone_is_not_cuprate(self):
        assert classify_family(parse_composition("CuO")) is FamilyLabel.CONVENTIONAL
        assert classify_family(parse_composition("Cu2O")) is FamilyLabel.CONVENTIONAL

    def test_cuprate_precedence_over_fesc(self):
        # satisfies both written rules; exactly one label comes back
        assert classify_family(parse_composition("FeCuAsO2")) is FamilyLabel.CUPRATE

    @given(
        st.dictionaries(
            st.sampled_from(["Cu", "O", "Fe", "As", "Se", "Ba", "Y", "Nb", "S", "P"]),
            st.floats(min_value=0.01, max_value=1.0),
            min_size=1,
            max_size=5,
        )
    )
    def test_totality(self, counts):
        from scscreen.formula import normalize

        label = classify_family(normalize(counts))
        assert label in (FamilyLabel.CUPRATE, FamilyLabel.FESC, FamilyLabel.CONVENTIONAL)


class TestOverlap:
    def test_exact_match_removed(self):
        cod = [rec("NbN", source=Source.COD), rec("SiO2", source=Source.COD)]
        sc = [rec("NbN", 16.0)]
        out = remove_overlap(cod, sc)
        assert [r.raw_formula for r in out] == ["SiO2"]

    def test_spelling_variant_removed(self):
        cod = [rec("Nb0.5N0.5", source=Source.COD)]
        sc = [rec("NbN", 16.0)]
        assert remove_overlap(cod, sc) == []

    def test_tolerance(self):
        cod = [rec("Nb0.5000001N0.4999999", source=Source.COD)]
        sc = [rec("NbN", 16.0)]
        assert remove_overlap(cod, sc) == []

    def test_disjoint_identity(self):
        cod = [rec("SiO2", source=Source.COD)]
        assert remove_overlap(cod, [rec("NbN", 16.0)]) == cod


class TestGarbageIn:
    def test_basic(self):
        cod = [rec("Al2O3", source=Source.COD), rec("SiO2", source=Source.COD), rec("NbN", source=Source.COD)]
        sc = [rec("NbN", 16.0)]
        negs = garbage_in(cod, sc)
        assert {r.raw_formula for r in negs} == {"Al2O3", "SiO2"}
        assert all(r.tc_kelvin == 0.0 for r in negs)
        assert all(r.source is Source.SYNTHETIC_NEGATIVE for r in negs)

    def test_subset_gives_empty(self):
        cod = [rec("NbN", source=Source.COD)]
        sc = [rec("NbN", 16.0), rec("MgB2", 39.0)]
        assert garbage_in(cod, sc) == []

    def test_eval_list_also_excluded(self):
        cod = [rec("Al2O3", source=Source.COD), rec("LaFePO", source=Source.COD)]
        ev = [rec("LaFePO", 5.0, source=Source.EVAL_LIST)]
        negs = garbage_in(cod, [], ev)
        assert {r.raw_formula for r in negs} == {"Al2O3"}

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_disjointness_property(self, seed):
        rng = np.random.default_rng(seed)
        pool = ["NbN", "MgB2", "Al2O3", "SiO2", "TiO2", "Fe2O3", "CaCO3", "NaCl", "KCl", "ZnO"]
        cod = [rec(pool[i], source=Source.COD) for i in rng.integers(0, len(pool), 8)]
        sc = [rec(pool[i], 10.0) for i in rng.integers(0, len(pool), 4)]
        negs = garbage_in(cod, sc)
        neg_keys = {r.composition.key() for r in negs}
        sc_keys = {r.composition.key() for r in sc}
        assert neg_keys & sc_keys == set()
        assert all(r.tc_kelvin == 0.0 for r in negs)


class TestFilters:
    def test_inorganic_filter(self):
        rows = [rec("C2H6O", source=Source.COD), rec("SiC", source=Source.COD), rec("H2O", source=Source.COD)]
        out = filter_inorganic(rows)
        assert [r.raw_formula for r in out] == ["SiC", "H2O"]

    def test_remove_named(self):
        rows = [rec("LaFePO", 5.0), rec("LaFePFO", 7.0), rec("NbN", 16.0)]
        keep = build_training_filter({"remove": ["LaFePO", "LaFePFO"]})
        assert [r.raw_formula for r in rows if keep(r)] == ["NbN"]
        # spelling variant also matches
        assert not keep(rec("La1Fe1P1O1", 5.0))

    def test_remove_named_bad_formula(self):
        with pytest.raises(ValueError, match="removal target"):
            build_training_filter({"remove": ["NotAFormula((("]})


class TestFolds:
    def test_partition(self):
        records = list(range(10))
        folds = rotating_folds(records, 3, seed=0)
        assert len(folds) == 4  # ceil(10/3)
        all_test = [i for _, test in folds for i in test]
        assert sorted(all_test) == list(range(10))
        for train, test in folds:
            assert set(train) & set(test) == set()
            assert sorted(train + test) == list(range(10))

    def test_single_fold(self):
        folds = rotating_folds(list(range(5)), 5, seed=1)
        assert len(folds) == 1
        assert folds[0][0] == [] and sorted(folds[0][1]) == list(range(5))

    def test_deterministic(self):
        a = rotating_folds(list(range(20)), 7, seed=42)
        b = rotating_folds(list(range(20)), 7, seed=42)
        assert a == b
        c = rotating_folds(list(range(20)), 7, seed=43)
        assert a != c

    def test_fold_too_large(self):
        with pytest.raises(FoldTooLargeError):
            rotating_folds(list(range(3)), 4, seed=0)
        with pytest.raises(FoldTooLargeError):
            rotating_folds(list(range(3)), 0, seed=0)

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_property(self, n, fold_size, seed):
        if fold_size > n:
            return
        folds = rotating_folds(list(range(n)), fold_size, seed)
        assert len(folds) == -(-n // fold_size)
        covered = sorted(i for _, test in folds for i in test)
        assert covered == list(range(n))


class TestCleanPipelines:
    def test_clean_sc(self):
        rows = [
            rec("NbN", 10.0, 1950),
            rec("NbN", 12.0, 1941),
            rec("MgB2", None),
            rec("Qq", 5.0),
        ]
        out = clean_sc(rows)
        assert [r.raw_formula for r in out] == ["NbN"]
        assert out[0].tc_kelvin == 10.0

    def test_clean_catalogue(self):
        rows = [
            rec("C6H12O6", source=Source.COD),
            rec("SiO2", source=Source.COD),
            rec("SiO2", source=Source.COD),
            rec("bad((", source=Source.COD),
            # one material to within 1e-6 in every fraction: one row
            rec("NbSn2", source=Source.COD),
            rec("Nb0.3333333Sn0.6666667", source=Source.COD),
        ]
        out = clean_catalogue(rows)
        assert [r.raw_formula for r in out] == ["SiO2", "NbSn2"]


def test_fingerprint_order_independent():
    rows = [rec("NbN", 16.0, 1941), rec("MgB2", 39.0, 2001)]
    assert dataset_fingerprint(rows) == dataset_fingerprint(rows[::-1])
    assert dataset_fingerprint(rows) != dataset_fingerprint(rows[:1])


def test_records_csv_round_trip(tmp_path):
    rows = [rec("YBa2Cu3O7", 92.0, 1987), rec("Qq", None, None)]
    path = tmp_path / "out.csv"
    write_records_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "formula,tc_K,year,source,family,flagged_reason"
    assert "YBa2Cu3O7,92,1987,supercon,cuprate," in lines[1]
    report = ingest_csv(path, Source.SUPERCON)
    assert report.n_rows == 2
    assert report.records[0].composition == parse_composition("YBa2Cu3O7")


def test_result_tables_exact_bytes(tmp_path):
    """Every result-table writer, byte for byte: CRLF line ends, `.9g`
    floats, `--` for an undefined ratio in reports.csv, empty cells for a
    missing value, `true`/`false`, and enum columns by value."""
    full = EvalReport(4.0, 2, 1, 3, 0, 2 / 3, 1.0, 0.8, 5 / 6, 0.5)
    undefined = EvalReport(0.5, 0, 0, 4, 2, None, 0.0, None, 2 / 3, None)
    candidates = CandidateList(
        rows=[
            CandidateRow("Nb3Sn", float(np.float32(17.3)), 1, FamilyLabel.CONVENTIONAL),
            CandidateRow("MgB2", 1e-12, 0, FamilyLabel.CONVENTIONAL),
        ],
        threshold_counts=[(0.0, 2), (10.5, 1)],
        n_folds=2,
        fold_seed=7,
        model_seeds=[7, 8],
        n_excluded=1,
    )
    discovery = DiscoveryResult(
        family=FamilyLabel.FESC,
        histogram=Histogram(np.array([1]), np.array([0.5, 1.5])),
        runs=[
            RunReport(0, 7, 3, 4, full, True),
            RunReport(1, 8, 4, 0, None, None),
            RunReport(2, 9, 5, 1, undefined, False),
        ],
        n_test=4,
    )
    records = [
        rec("YBa2Cu3O7", 92.5, 1987),
        rec("Qq"),
        rec("LaFeAsO", None, 2008, Source.EVAL_LIST),
        rec("NbN", 0.0, None, Source.SYNTHETIC_NEGATIVE),
    ]
    write_reports_csv([full, undefined], tmp_path / "reports.csv")
    write_histogram_csv(
        Histogram(np.array([1, 0, 2], dtype=np.int64), np.arange(4) - 0.5),
        tmp_path / "histogram.csv",
    )
    write_candidates_csv(candidates, tmp_path / "candidates.csv")
    write_threshold_counts_csv(candidates, tmp_path / "threshold_counts.csv")
    write_runs_csv(discovery, tmp_path / "runs.csv")
    write_records_csv(records, tmp_path / "records.csv")
    write_feature_template(tmp_path / "template.csv")

    expected = {
        "reports.csv": b"threshold_K,tp,fp,tn,fn,precision,recall,f1,accuracy,baseline_precision\r\n"
        b"4,2,1,3,0,0.666666667,1,0.8,0.833333333,0.5\r\n"
        b"0.5,0,0,4,2,--,0,--,0.666666667,--\r\n",
        "histogram.csv": b"bin_left,bin_right,count\r\n"
        b"-0.5,0.5,1\r\n0.5,1.5,0\r\n1.5,2.5,2\r\n",
        "candidates.csv": b"formula,predicted_tc_K,fold_id,family\r\n"
        b"Nb3Sn,17.2999992,1,conventional\r\n"
        b"MgB2,1e-12,0,conventional\r\n",
        "threshold_counts.csv": b"threshold_K,count\r\n0,2\r\n10.5,1\r\n",
        "runs.csv": b"run_index,model_seed,shuffle_seed,n_positive,precision,baseline_precision,valid\r\n"
        b"0,7,3,4,0.666666667,0.5,true\r\n"
        b"1,8,4,0,,,\r\n"
        b"2,9,5,1,,,false\r\n",
        "records.csv": b"formula,tc_K,year,source,family,flagged_reason\r\n"
        b"YBa2Cu3O7,92.5,1987,supercon,cuprate,\r\n"
        b"Qq,,,supercon,,UnknownElementError\r\n"
        b"LaFeAsO,,2008,eval_list,fesc,\r\n"
        b"NbN,0,,synthetic_negative,conventional,\r\n",
    }
    for name, content in expected.items():
        assert (tmp_path / name).read_bytes() == content, name

    # the template's row order is pinned by test_baseline; here only its bytes
    header, *body = (tmp_path / "template.csv").read_bytes().split(b"\r\n")
    assert header == b",".join([b"symbol", *(n.encode() for n in FEATURE_NAMES)])
    assert body[-1] == b""
    assert sorted(body[:-1]) == sorted(e.symbol.encode() + b"," * N_BASIC for e in ELEMENTS)
