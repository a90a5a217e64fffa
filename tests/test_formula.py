"""Parser and normalization tests."""

import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scscreen import formula
from scscreen.dataset import Source, make_record
from scscreen.formula import (
    Composition,
    EmptyCountsError,
    MalformedSyntaxError,
    NonPositiveCountError,
    UnknownElementError,
    UnresolvedVariableError,
    has_unresolved_variables,
    normalize,
    parse_composition,
    parse_formula,
)
from scscreen.ptable import ATOMIC_NUMBER


class TestParse:
    def test_simple(self):
        assert parse_formula("H2O") == {"H": 2.0, "O": 1.0}
        assert parse_formula("NbN") == {"Nb": 1.0, "N": 1.0}
        assert parse_formula("MgB2") == {"Mg": 1.0, "B": 2.0}

    def test_real_subscripts(self):
        assert parse_formula("YBa2Cu3O6.93") == {
            "Y": 1.0,
            "Ba": 2.0,
            "Cu": 3.0,
            "O": 6.93,
        }
        assert parse_formula("Nb0.5Ti0.5") == {"Nb": 0.5, "Ti": 0.5}
        # concrete subscript arithmetic; a sign-led subscript has a base of 1
        assert parse_formula("Fe1+0.5Se1-0.25") == {"Fe": 1.5, "Se": 0.75}
        assert parse_formula("MoC-0.5") == {"Mo": 1.0, "C": 0.5}

    def test_greedy_two_letter_then_backtrack(self):
        # Sn is a symbol; "Sx" is not, so S then variable would apply -> but
        # here x follows a known two-letter symbol boundary cleanly
        assert parse_formula("SnTe") == {"Sn": 1.0, "Te": 1.0}
        # "Cs" exists, so CsI parses as Cs + I, not C + s + I
        assert parse_formula("CsI3") == {"Cs": 1.0, "I": 3.0}
        # "Nb" exists; "Np" exists; "No" exists: ambiguity resolved greedily
        assert parse_formula("NO2") == {"N": 1.0, "O": 2.0}
        assert parse_formula("No2") == {"No": 2.0}

    def test_repeated_element_accumulates(self):
        assert parse_formula("HOH") == {"H": 2.0, "O": 1.0}

    def test_groups(self):
        assert parse_formula("(NH4)2SO4") == {"N": 2.0, "H": 8.0, "S": 1.0, "O": 4.0}
        assert parse_formula("Ca(OH)2") == {"Ca": 1.0, "O": 2.0, "H": 2.0}

    def test_nested_groups(self):
        assert parse_formula("(Ca(OH)2)3") == {"Ca": 3.0, "O": 6.0, "H": 6.0}

    def test_group_fractional_multiplier(self):
        got = parse_formula("(SrTiO3)0.5(LaAlO3)0.5")
        assert got == {
            "Sr": 0.5,
            "Ti": 0.5,
            "O": 3.0,
            "La": 0.5,
            "Al": 0.5,
        }

    def test_group_expansion_identity(self):
        assert parse_formula("K(BC2)3") == parse_formula("KB3C6")

    def test_separators(self):
        assert parse_formula("Ba Cu O2") == {"Ba": 1.0, "Cu": 1.0, "O": 2.0}
        assert parse_formula("BaCl2·H2O") == parse_formula("BaCl2H2O")
        # a hydrate coefficient would start a group with a digit; the grammar
        # has no such production, so it is a structured syntax error
        with pytest.raises(MalformedSyntaxError):
            parse_formula("BaCl2·2H2O")

    def test_unknown_element(self):
        with pytest.raises(UnknownElementError):
            parse_formula("Xx2O")
        with pytest.raises(UnknownElementError):
            parse_formula("Q")

    def test_malformed(self):
        for bad in ["", "   ", "(", ")", "(H2O", "H2O)", "2H", "()", "H..2", "H2O!"]:
            with pytest.raises(MalformedSyntaxError):
                parse_formula(bad)

    def test_variable_rejected_with_names(self):
        with pytest.raises(UnresolvedVariableError) as exc:
            parse_formula("La2-xSrxCuO4")
        assert exc.value.variables == ("x",)
        with pytest.raises(UnresolvedVariableError) as exc:
            parse_formula("Fe1+xSe1-y")
        assert exc.value.variables == ("x", "y")

    def test_zero_count_rejected(self):
        with pytest.raises(NonPositiveCountError):
            parse_formula("Fe0O")
        with pytest.raises(NonPositiveCountError):
            parse_formula("H2-2O")

    def test_deep_nesting_is_malformed(self):
        # 100 nested groups parse; one more is a syntax error at its "(",
        # never a RecursionError, however deep the string goes
        assert parse_formula("(" * 100 + "H" + ")" * 100) == {"H": 1.0}
        for depth in (101, 2000, 100_000):
            with pytest.raises(MalformedSyntaxError, match="nested more than 100 deep") as exc:
                parse_formula("(" * depth + "H" + ")" * depth)
            assert exc.value.position == 100
        rec = make_record("(" * 2000 + "H" + ")" * 2000, None, None, Source.COD)
        assert rec.composition is None and rec.flagged_reason == "MalformedSyntaxError"

    @pytest.mark.parametrize(
        "raw, value",
        [
            ("H" + "9" * 400, "inf"),  # one count past the float range
            ("H" + "9" * 400 + "-" + "9" * 400, "nan"),  # inf - inf
            ("H" + "9" * 308 + "H" + "9" * 308, "inf"),  # finite parts, infinite sum
            ("(H" + "9" * 200 + ")" + "9" * 200, "inf"),  # through a group multiplier
        ],
        ids=["count", "inf-minus-inf", "sum", "group"],
    )
    def test_non_finite_count_rejected(self, raw, value):
        with pytest.raises(formula.FormulaError, match=f"element H has non-finite count {value}"):
            parse_formula(raw)

    def test_trailing_sign_is_malformed(self):
        with pytest.raises(MalformedSyntaxError):
            parse_formula("O2-")

    @pytest.mark.parametrize(
        "raw, error, attrs",
        [
            # the tokenizer runs first: the bad character wins over the variable
            ("Fex$", MalformedSyntaxError, {"position": 3}),
            # the whole string parses before variables are looked at
            ("Fe-x(", MalformedSyntaxError, {}),
            # variables are reported before any count is checked
            ("Fe0-x", UnresolvedVariableError, {"variables": ("x",)}),
            ("(Fe2)0-y", UnresolvedVariableError, {"variables": ("y",)}),
            # a variable that cancels out is still a variable
            ("O2+x-x", UnresolvedVariableError, {"variables": ("x",)}),
            # a group's multiplier is checked before its members
            ("(Fe0)0", NonPositiveCountError, {"symbol": "(group)", "value": 0.0}),
        ],
    )
    def test_error_precedence(self, raw, error, attrs):
        with pytest.raises(error) as exc:
            parse_formula(raw)
        assert type(exc.value) is error
        for name, value in attrs.items():
            assert getattr(exc.value, name) == value


class TestVariables:
    def test_detection(self):
        assert has_unresolved_variables("La2-xSrxCuO4")
        assert has_unresolved_variables("YBa2Cu3O7-d")
        assert has_unresolved_variables("Bi2Sr2CaCu2O8+x")
        assert not has_unresolved_variables("H2O")
        assert not has_unresolved_variables("YBa2Cu3O6.93")
        # never raises, even on garbage
        assert not has_unresolved_variables("((((")
        assert has_unresolved_variables("H2-x(((")
        assert not has_unresolved_variables("")

    @pytest.mark.parametrize(
        "raw, expected", [("H-B", True), ("+B", True), ("H-Bx", True), ("H-Ba", False)]
    )
    def test_one_letter_symbol_after_a_sign_is_a_variable(self, raw, expected):
        # a two-letter symbol after a sign stays an element (and fails to parse)
        assert has_unresolved_variables(raw) is expected

    @pytest.mark.parametrize(
        "raw, position", [("Nb3Sn1e-2", 6), ("Nb1e5Sn", 3), ("Nb3Sn1E2", 6), ("Nb3E+2", 3),
                          ("Nb.5e3", 4)]
    )
    def test_exponent_after_a_number_is_malformed(self, raw, position):
        # it used to read as a variable e (or an unknown element E)
        with pytest.raises(MalformedSyntaxError, match="exponent form") as exc:
            parse_formula(raw)
        assert exc.value.position == position
        assert not has_unresolved_variables(raw)
        rec = make_record(raw, None, None, Source.COD)
        assert rec.composition is None and rec.flagged_reason == "MalformedSyntaxError"

    @pytest.mark.parametrize(
        "raw, reason", [("Nb3Er2", None), ("Nb3Eu", None), ("Nb3Sn2x", "unresolved_variable"),
                        ("Cu2e", "unresolved_variable"), ("Cu2e+x", "unresolved_variable")]
    )
    def test_e_without_exponent_digits_reads_as_before(self, raw, reason):
        assert make_record(raw, None, None, Source.COD).flagged_reason == reason


class TestNormalize:
    def test_h2he3(self):
        c = parse_composition("H2He3")
        assert c["H"] == 0.4  # 2/5 is exact in binary
        assert c["He"] == 0.6
        assert math.fsum(c.values()) == pytest.approx(1.0, abs=1e-12)

    def test_single_element(self):
        c = parse_composition("Nb")
        assert c["Nb"] == 1.0
        assert c.formula() == "Nb"

    def test_empty(self):
        with pytest.raises(EmptyCountsError):
            normalize({})

    def test_nonpositive(self):
        with pytest.raises(NonPositiveCountError):
            normalize({"H": 0.0})
        with pytest.raises(NonPositiveCountError):
            normalize({"H": -1.0})

    def test_non_finite_count(self):
        for value in (math.inf, math.nan):
            with pytest.raises(formula.FormulaError, match="non-finite count"):
                normalize({"H": value, "O": 1.0})
        # a count too large for a float arrives as inf from the parser
        with pytest.raises(formula.FormulaError, match="non-finite count inf"):
            parse_composition("H" + "9" * 400)

    def test_count_sum_overflow(self):
        with pytest.raises(formula.FormulaError, match="sum of the counts overflows"):
            parse_composition("H" + "9" * 308 + "O" + "9" * 308)

    @pytest.mark.parametrize("counts, error, message", [
        ({"Xx": 1.0}, UnknownElementError, "unknown element 'Xx' at position 0 in 'Xx'"),
        # the count checks come first, then the sum, then symbol by symbol
        ({"Xx": 1.0, "H": -1.0}, NonPositiveCountError, "element H has non-positive count -1"),
        ({"Xx": 1e308, "H": 1e308}, formula.FormulaError, "sum of the counts overflows"),
        ({"H": 1, "O": 10**308, "Fe": 10**308}, formula.FormulaError,
         "overflows in {'H': 1, 'O': 1" + "0" * 308),
        ({"Xx": 2.0, "H": 5e-324}, UnknownElementError, "unknown element 'Xx'"),
        ({"H": 5e-324, "Xx": 2.0}, NonPositiveCountError, "element H has non-positive count 0"),
    ], ids=["unknown", "count-first", "sum-first", "sum-names-the-given-counts",
            "unknown-before-underflow", "underflow-before-unknown"])
    def test_normalize_check_order(self, counts, error, message):
        with pytest.raises(error) as info:
            normalize(counts)
        assert type(info.value) is error and message in str(info.value)

    def test_composition_validates_sum(self):
        # the restore path takes its fractions from a pickle, so it checks them
        with pytest.raises(ValueError, match="fractions sum to 0.6, not 1"):
            Composition._of({"H": 0.3, "O": 0.3})

    def test_composition_is_not_built_directly(self):
        # parse_composition and normalize are the ways in
        with pytest.raises(TypeError, match=r"Composition\(\) takes no arguments"):
            Composition({"H": 0.5, "O": 0.5})

    def test_canonical_order_is_atomic_number(self):
        c = parse_composition("OFeH")  # O(8), Fe(26), H(1)
        assert tuple(c) == ("H", "O", "Fe")
        assert c.formula().startswith("H")

    def test_items_follow_iteration_order(self):
        c = parse_composition("OFeH")
        assert list(c.items()) == [(s, c[s]) for s in c]
        assert [s for s, _ in c.items()] == ["H", "O", "Fe"]

    def test_equality_and_hash(self):
        a = parse_composition("H2O")
        b = parse_composition("OH2")
        assert a == b
        assert hash(a) == hash(b)
        assert a != parse_composition("H2O2")

    def test_key_identity(self):
        a = parse_composition("H2O")
        b = normalize({"H": 2.0 + 1e-9, "O": 1.0})
        assert a.key() == b.key() and a == b
        assert a.key() == ("H", 666667, "O", 333333)
        assert a.key() != parse_composition("H2Se").key()
        assert a.key() != parse_composition("HO").key()

    def test_immutable(self):
        c = parse_composition("H2O")
        with pytest.raises(AttributeError):
            c._fractions = {}
        with pytest.raises(TypeError):
            c["H"] = 0.5  # Mapping, not MutableMapping


elements = st.sampled_from(sorted(ATOMIC_NUMBER))
counts_strategy = st.dictionaries(
    elements,
    st.floats(min_value=0.001, max_value=500.0, allow_nan=False),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300)
@given(counts_strategy)
def test_canonical_formula_round_trip(counts):
    c = normalize(counts)
    back = parse_composition(c.formula())
    assert set(back) == set(c)
    for s in c:
        assert abs(back[s] - c[s]) <= 1e-12


@given(counts_strategy)
def test_normalize_sums_to_one(counts):
    c = normalize(counts)
    assert abs(math.fsum(c.values()) - 1.0) <= 1e-9
    assert all(v > 0 for v in c.values())


@given(counts_strategy, st.floats(min_value=0.1, max_value=50.0, allow_nan=False))
def test_normalize_scale_invariant(counts, scale):
    a = normalize(counts)
    b = normalize({k: v * scale for k, v in counts.items()})
    assert set(a) == set(b)
    for s in a:
        assert abs(a[s] - b[s]) <= 1e-9


# pieces that reach every branch of the tokenizer, the parser, _evaluate and
# normalize: two-letter symbols and their one-letter halves, "2."-style, zero
# and out-of-range counts, parentheses, signs, variables, separators and one
# stray character
_formula_pieces = st.sampled_from(
    ["Co", "CO", "C", "O", "Fe", "Nb", "Sn", "S", "N", "Xx", "Q",
     "2", "2.", "0", "0.5", ".", "9" * 308, "9" * 400,
     "(", ")", "+", "-", "x", "y", " ", "·", "$"]
)
formula_shaped = st.lists(_formula_pieces, max_size=12).map("".join)


@settings(max_examples=300)
@given(st.text(max_size=30) | formula_shaped)
def test_parser_is_total(raw):
    """Arbitrary input either parses or raises a structured error - never crashes."""
    try:
        counts = parse_formula(raw)
    except formula.FormulaError:
        pass
    else:
        assert counts
        assert all(s in ATOMIC_NUMBER for s in counts)
        assert all(math.isfinite(v) and v > 0 for v in counts.values())
    try:
        comp = parse_composition(raw)
    except formula.FormulaError:
        pass
    else:
        assert all(math.isfinite(v) and v > 0 for v in comp.values())
    # detection is total too
    has_unresolved_variables(raw)


def test_format_count_matches_numpy_positional():
    # repr is the fast path inside [1e-4, 1e16); outside it, and as the
    # reference everywhere, the count is numpy's shortest positional form
    rng = np.random.default_rng(20181205)
    n = 40_000
    edges = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e-3,
             np.nextafter(1e16, 0), 1e16, 1e15 + 0.5, 0.1, 1 / 3, 2 / 3, 0.5, 5e-324]
    values = np.concatenate([
        rng.random(n),  # [0, 1), the fractions formula() prints
        rng.uniform(1e-4, 1e-3, n),
        rng.uniform(1.0, 1e15, n),
        10.0 ** rng.uniform(-8, 17, n),
        edges,
    ])
    for v in values.tolist():
        for x in (v, -v):
            if x == int(x) and abs(x) < 1e16:
                want = str(int(x))
            else:
                want = np.format_float_positional(x, unique=True, trim="-")
            assert formula._format_count(x) == want, repr(x)


# ---------------------------------------------------------------------------
# the plain-formula fast path against the full parser


def _counts_or_error(parse, raw):
    try:
        return list(parse(raw).items())
    except formula.FormulaError as err:
        return type(err), str(err)


def _composition_or_error(parse, raw):
    try:
        c = parse(raw)
    except ValueError as err:
        return type(err), str(err)
    return list(c.items()), c.formula(), c.key()


# symbols, case pairs and two-letter non-symbols; counts with and without
# digits on either side of the point, zero, a subnormal, float-range edges
# and 400 digits; Unicode digits, separators, groups, signs and variables
_fast_path_pieces = st.sampled_from(
    ["Co", "CO", "C", "O", "Fe", "Nb", "Sn", "B", "Xq", "Bq", "Xx",
     "2", "2.", ".5", "0.25", "3.5", "0", "0.", ".0", "00", ".",
     "0." + "0" * 310 + "1", "9" * 308, "9" * 309, "1" + "0" * 399,
     "²", "٣", "１", " ", "\t", "·", "(", ")", "+", "-", "x", "$"]
)
# mostly plain runs, so the fast path is taken often, with a separator or
# other stray piece sometimes appended
_plain_runs = st.lists(
    st.tuples(st.sampled_from(["Co", "C", "O", "Fe", "Nb", "Sn", "B", "K", "Ba", "As"]),
              st.sampled_from(["", "1", "2", "2.", ".5", "0.6", "10", "0", "9" * 400])),
    min_size=1, max_size=6,
).map(lambda runs: "".join(s + n for s, n in runs))
fast_path_shaped = (
    st.lists(_fast_path_pieces, max_size=10).map("".join)
    | _plain_runs
    | st.tuples(_plain_runs, _fast_path_pieces).map("".join)
)


@settings(max_examples=1000)
@given(fast_path_shaped)
def test_fast_path_agrees_with_full_parser(raw):
    full = _counts_or_error(formula._parse_full, raw)
    fast = formula._plain_counts(raw)
    if fast is not None:
        assert list(fast.items()) == full
    assert _counts_or_error(parse_formula, raw) == full
    assert _composition_or_error(parse_composition, raw) == _composition_or_error(
        lambda r: normalize(formula._parse_full(r)), raw
    )


# what only the full parser reads: groups, separators, signs, variables,
# one-letter symbols after a sign ("H-B"), and counts that overflow or
# underflow once summed or divided
_full_path_pieces = st.sampled_from(
    ["Nb", "Sn", "B", "H", "Ba", "Bx", "O", "(", ")", " ", "·", "+", "-", "x",
     "2", "0.5", "3.", "0", "9" * 308, "1" + "0" * 400, "0." + "0" * 310 + "1"]
)
full_path_shaped = st.lists(_full_path_pieces, min_size=1, max_size=12).map("".join)


@settings(max_examples=1000)
@given(full_path_shaped)
def test_full_path_composition_agrees_with_normalize(raw):
    assert _composition_or_error(parse_composition, raw) == _composition_or_error(
        lambda r: normalize(formula._parse_full(r)), raw
    )


@settings(max_examples=500)
@given(st.text(max_size=30) | formula_shaped | full_path_shaped)
def test_detection_agrees_with_the_parser(raw):
    """has_unresolved_variables is True exactly when a string that parses
    up to its variables is rejected for them."""
    try:
        parse_formula(raw)
    except UnresolvedVariableError:
        assert has_unresolved_variables(raw)
    except formula.FormulaError:
        pass
    else:
        assert not has_unresolved_variables(raw)


@pytest.mark.parametrize("raw", ["Nb3Sn", "Ba0.6K0.4Fe2As2", "MgB2", "NbNb", "H2.O.5", "CO"])
def test_plain_formulas_take_the_fast_path(raw):
    assert formula._plain_counts(raw) == formula._parse_full(raw)


@pytest.mark.parametrize(
    "raw", ["Nb3 Sn", "(NbSn)2", "La2-xSrxCuO4", "Nb0Sn", "Xq2", "Nb²", "Nb3Sn ", "nb3sn",
            "Nb" + "9" * 309, "Nb" + "9" * 308 + "Nb" + "9" * 308]
)
def test_other_formulas_go_to_the_full_parser(raw):
    assert formula._plain_counts(raw) is None


@pytest.mark.parametrize(
    "raw, error",
    [("Nb" + "9" * 308 + "Sn" + "9" * 308, "the sum of the counts overflows in "),
     ("Nb0." + "0" * 310 + "1Sn" + "9" * 300, "element Nb has non-positive count 0 in 'Nb'")],
)
def test_fast_composition_raises_as_normalize(raw, error):
    with pytest.raises(formula.FormulaError) as fast:
        parse_composition(raw)
    with pytest.raises(formula.FormulaError) as full:
        normalize(formula._parse_full(raw))
    assert type(fast.value) is type(full.value)
    assert str(fast.value) == str(full.value)
    assert str(fast.value).startswith(error)


# ---------------------------------------------------------------------------
# identity: equality and hashing are the key's


def _parsed_or_none(raw):
    try:
        return parse_composition(raw)
    except formula.FormulaError:
        return None


_built = st.one_of(
    counts_strategy.map(normalize),
    _plain_runs.map(_parsed_or_none).filter(lambda c: c is not None),
)


def _near_copies(c):
    """Compositions that often share c's key, and sometimes miss it by one
    rounding step: its canonical formula reparsed, its fractions rescaled,
    and each fraction nudged by up to 1e-6."""
    fractions = dict(c.items())
    return st.one_of(
        st.just(parse_composition(c.formula())),
        st.floats(0.1, 50.0).map(lambda k: normalize({s: f * k for s, f in fractions.items()})),
        st.lists(st.floats(-1e-6, 1e-6), min_size=len(c), max_size=len(c)).map(
            lambda eps: normalize(
                {s: max(f + e, 1e-9) for (s, f), e in zip(fractions.items(), eps)}
            )
        ),
    )


@settings(max_examples=500)
@given(st.data())
def test_equality_and_hash_follow_the_key(data):
    a = data.draw(_built)
    b = data.draw(_built | _near_copies(a))
    for c in (a, b):
        assert hash(c) == hash(c.key())
    assert (a == b) is (a.key() == b.key())
    assert (a != b) is (a.key() != b.key())
    if a == b:
        assert hash(a) == hash(b)


def test_copy_deepcopy_and_pickle_rebuild_an_equal_composition():
    c = parse_composition("Ba(Fe0.92Co0.08)2As2")
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert twin == c and hash(twin) == hash(c)
        assert list(twin.items()) == list(c.items())
        assert twin.formula() == c.formula() and twin.key() == c.key()
    records = [make_record("Nb3Sn", 18.1, 1954, Source.SUPERCON),
               make_record("Qq", None, None, Source.COD)]
    assert copy.deepcopy(records) == records


def test_copy_deepcopy_and_pickle_restore_the_fractions_without_renormalizing():
    # these fractions fsum to 1.0000000000000002: dividing them by their sum
    # again moves a bit, so only an exact restore keeps every fraction
    c = parse_composition("Fe1.1Y3")
    assert math.fsum(c.values()) != 1.0
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert list(twin.items()) == list(c.items())
        assert twin.key() == c.key()


def test_unpickled_composition_hashes_in_the_loading_process():
    # string hashes differ between processes, so the hash must not travel
    env = dict(os.environ, PYTHONPATH=str(Path(formula.__file__).parents[1]))
    dump = ("import pickle, sys; from scscreen.formula import parse_composition; "
            "sys.stdout.buffer.write(pickle.dumps(parse_composition('Nb3Sn')))")
    load = ("import pickle, sys; from scscreen.formula import parse_composition; "
            "c = pickle.loads(sys.stdin.buffer.read()); "
            "assert c in {parse_composition('Nb3Sn'), parse_composition('MgB2')}")
    blob = subprocess.run([sys.executable, "-c", dump], env=dict(env, PYTHONHASHSEED="1"),
                          capture_output=True, check=True).stdout
    subprocess.run([sys.executable, "-c", load], env=dict(env, PYTHONHASHSEED="7"),
                   input=blob, capture_output=True, check=True)


@settings(max_examples=300)
@given(counts_strategy | st.dictionaries(
    elements, st.sampled_from([1.0, 1e-20, 3e-5, 1e-4, 0.5, 7.0]), min_size=2, max_size=4))
def test_formula_prints_each_fraction_by_format_count(counts):
    c = normalize(counts)
    if len(c) > 1:
        assert c.formula() == "".join(s + formula._format_count(f) for s, f in c.items())
