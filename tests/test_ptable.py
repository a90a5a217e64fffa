"""Geometry and encoder tests.

The layout oracle below regenerates every element's (block, row, col) from
period boundaries and block-width rules alone, independently of the literal
table shipped in the package, so a transcription slip in either one fails
the cross-check.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scscreen import ptable
from scscreen.cli import main
from scscreen.formula import normalize
from scscreen.ptable import (
    ELEMENTS,
    N_COLS,
    N_ELEMENTS,
    N_ROWS,
    TENSOR_SHAPE,
    TENSOR_SIZE,
    Block,
    decode_ptable,
    element_coordinates,
    encode_ptable,
    encode_ptable_batch,
)

_SYMBOLS_BY_Z = (
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni "
    "Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I "
    "Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt "
    "Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr "
    "Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og"
).split()

_PERIOD_END = [2, 10, 18, 36, 54, 86, 118]


def _oracle_layout():
    """Regenerate (symbol, z, block, row, col) from first principles.

    Rules: each period fills left to right; periods 1-3 have no d/f block so
    their p elements jump to the last six columns; periods 4-5 have no
    f block so their d elements jump to column 17; periods 6-7 are dense
    (columns 1..32 in order). Helium completes the 1s shell, so it is
    channelled S despite sitting in the far-right column.
    """
    table = {}
    start = 1
    for period, end in enumerate(_PERIOD_END, start=1):
        for z in range(start, end + 1):
            offset = z - start + 1  # 1-based position within the period
            if period == 1:
                col = 32 if offset == 2 else 1
            elif period <= 3:
                col = offset if offset <= 2 else offset + 24
            elif period <= 5:
                col = offset if offset <= 2 else offset + 14
            else:
                col = offset
            if col <= 2:
                block = "S"
            elif col <= 16:
                block = "F"
            elif col <= 26:
                block = "D"
            else:
                block = "P"
            if z == 2:
                block = "S"
            table[_SYMBOLS_BY_Z[z - 1]] = (z, block, period, col)
        start = end + 1
    return table


def test_layout_matches_first_principles_oracle():
    oracle = _oracle_layout()
    assert len(oracle) == N_ELEMENTS == len(ELEMENTS)
    for e in ELEMENTS:
        z, block, row, col = oracle[e.symbol]
        assert (e.atomic_number, e.block.name, e.row, e.col) == (z, block, row, col), e


def test_pinned_coordinates():
    # hand-checked spot values, frozen
    assert element_coordinates("H") == ptable.ElementInfo("H", 1, Block.S, 1, 1)
    assert element_coordinates("He") == ptable.ElementInfo("He", 2, Block.S, 1, 32)
    assert element_coordinates("Ce") == ptable.ElementInfo("Ce", 58, Block.F, 6, 4)
    assert element_coordinates("Fe") == ptable.ElementInfo("Fe", 26, Block.D, 4, 22)
    assert element_coordinates("La") == ptable.ElementInfo("La", 57, Block.F, 6, 3)
    assert element_coordinates("Lu") == ptable.ElementInfo("Lu", 71, Block.D, 6, 17)
    assert element_coordinates("Og") == ptable.ElementInfo("Og", 118, Block.P, 7, 32)
    assert element_coordinates("Cu") == ptable.ElementInfo("Cu", 29, Block.D, 4, 25)


def test_cells_are_unique_and_block_counts_add_up():
    cells = {(e.block.value, e.row, e.col) for e in ELEMENTS}
    assert len(cells) == N_ELEMENTS
    by_block = {b: sum(1 for e in ELEMENTS if e.block is b) for b in Block}
    assert by_block == {Block.S: 14, Block.P: 36, Block.D: 40, Block.F: 28}


def test_unknown_symbol_raises():
    with pytest.raises(KeyError):
        element_coordinates("Xx")


def test_encode_known_values():
    t = encode_ptable({"H": 0.4, "He": 0.6})
    assert t.shape == TENSOR_SHAPE
    assert t[0, 0, 0] == 0.4
    assert t[0, 0, 31] == 0.6
    assert t.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(t) == 2

    nb = encode_ptable({"Nb": 1.0})
    assert nb[2, 4, 18] == 1.0  # channel D, row 5, col 19
    assert np.count_nonzero(nb) == 1


comps = st.dictionaries(
    st.sampled_from(sorted(ptable.SYMBOLS)),
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=8,
).map(lambda d: {k: v / sum(d.values()) for k, v in d.items()})


@settings(max_examples=200)
@given(comps)
def test_encode_properties(c):
    t = encode_ptable(c)
    assert abs(t.sum() - 1.0) <= 1e-9
    assert np.count_nonzero(t) == len(c)
    # channel disjointness: every element's mass lands only in its block channel
    for ch in range(4):
        expected = sum(v for s, v in c.items() if ptable.INFO[s].block.value == ch)
        assert t[ch].sum() == pytest.approx(expected, abs=1e-12)
    assert decode_ptable(t) == pytest.approx(dict(c))


@given(comps)
def test_decode_inverts_encode_exactly(c):
    got = decode_ptable(encode_ptable(c))
    assert set(got) == set(c)
    for s in c:
        assert got[s] == float(c[s])  # write/read the same cell: bit-exact


def test_batch_encode_matches_single():
    cs = [{"Nb": 1.0}, {"H": 0.4, "He": 0.6}, {"Fe": 0.5, "Se": 0.5}]
    batch = encode_ptable_batch(cs)
    assert batch.shape == (3, *TENSOR_SHAPE)
    for i, c in enumerate(cs):
        assert np.array_equal(batch[i], encode_ptable(c))


def test_batch_encode_matches_cell_by_cell_reference():
    # the flat-index table writes each fraction where the element's
    # (block, row, col) says, byte for byte, for all 118 elements and for
    # mixed batches (Composition and plain-dict rows, an empty batch)
    rng = np.random.default_rng(11)
    comps = [{e.symbol: 1.0} for e in ELEMENTS]
    for _ in range(300):
        syms = rng.choice([e.symbol for e in ELEMENTS], size=rng.integers(1, 7), replace=False)
        comps.append(normalize({str(s): float(w) for s, w in zip(syms, rng.random(len(syms)) + 0.01)}))
    want = np.zeros((len(comps), *TENSOR_SHAPE))
    for i, c in enumerate(comps):
        for symbol, fraction in c.items():
            e = element_coordinates(symbol)
            want[i, e.block.value, e.row - 1, e.col - 1] = fraction
    got = encode_ptable_batch(comps)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert encode_ptable_batch([]).shape == (0, *TENSOR_SHAPE)
    with pytest.raises(KeyError):
        encode_ptable_batch([{"Xx": 1.0}])


def test_flat_csv_round_trip(tmp_path):
    # the one tensor-CSV format: the encode subcommand's channel,row,col,value
    t = encode_ptable({"Y": 0.1, "Ba": 0.2, "Cu": 0.3, "O": 0.4})
    flat = t.reshape(TENSOR_SIZE)
    # row-major (channel, row, col): O is channel P(1), row 2, col 30
    assert flat[1 * 224 + 1 * 32 + 29] == 0.4
    assert main(["encode", "--formula", "YBa2Cu3O4", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "tensor.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == TENSOR_SIZE
    back = np.zeros(TENSOR_SHAPE)
    for r in rows:
        back[Block[r["channel"]].value, int(r["row"]) - 1, int(r["col"]) - 1] = float(r["value"])
    assert np.allclose(back, t, atol=1e-9)


def test_geometry_csv():
    lines = [f"{e.symbol},{e.atomic_number},{e.block.name},{e.row},{e.col}" for e in ELEMENTS]
    assert len(set(lines)) == N_ELEMENTS
    assert [e.atomic_number for e in ELEMENTS] == list(range(1, N_ELEMENTS + 1))
    assert "Fe,26,D,4,22" in lines
    assert "He,2,S,1,32" in lines


def test_decode_shape_check():
    with pytest.raises(ValueError):
        decode_ptable(np.zeros((4, 32, 7)))
    assert (N_ROWS, N_COLS) == (7, 32)
