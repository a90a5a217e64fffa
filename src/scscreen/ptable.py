"""Periodic-table geometry and composition encoders.

The canonical layout is the 32-column long-form table: columns 1-2 hold the
s-block (groups 1-2), columns 3-16 the f-block (lanthanides in row 6,
actinides in row 7), columns 17-26 the d-block (groups 3-12), and columns
27-32 the p-block (groups 13-18). Two placements are fixed by convention
here: He sits at column 32 for visual fidelity but is channelled as s-block
(1s2 valence), and La/Ac open the f rows at column 3, which pushes Lu/Lr
into the d-block column 17 (the group-3 slot) and keeps all 15
lanthanides/actinides contiguous.

A composition is encoded as a 4x7x32 tensor (one channel per valence block,
channel order S, P, D, F).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

N_ELEMENTS = 118
N_CHANNELS = 4
N_ROWS = 7
N_COLS = 32
TENSOR_SHAPE = (N_CHANNELS, N_ROWS, N_COLS)
TENSOR_SIZE = N_CHANNELS * N_ROWS * N_COLS


class Block(Enum):
    """Valence-orbital block; the value is the tensor channel index."""

    S = 0
    P = 1
    D = 2
    F = 3


@dataclass(frozen=True)
class ElementInfo:
    symbol: str
    atomic_number: int
    block: Block
    row: int  # period, 1..7
    col: int  # 1..32


# symbol, block, row, col for Z = 1..118 (atomic number implied by position)
_LAYOUT = """
H S 1 1; He S 1 32; Li S 2 1; Be S 2 2; B P 2 27; C P 2 28;
N P 2 29; O P 2 30; F P 2 31; Ne P 2 32; Na S 3 1; Mg S 3 2;
Al P 3 27; Si P 3 28; P P 3 29; S P 3 30; Cl P 3 31; Ar P 3 32;
K S 4 1; Ca S 4 2; Sc D 4 17; Ti D 4 18; V D 4 19; Cr D 4 20;
Mn D 4 21; Fe D 4 22; Co D 4 23; Ni D 4 24; Cu D 4 25; Zn D 4 26;
Ga P 4 27; Ge P 4 28; As P 4 29; Se P 4 30; Br P 4 31; Kr P 4 32;
Rb S 5 1; Sr S 5 2; Y D 5 17; Zr D 5 18; Nb D 5 19; Mo D 5 20;
Tc D 5 21; Ru D 5 22; Rh D 5 23; Pd D 5 24; Ag D 5 25; Cd D 5 26;
In P 5 27; Sn P 5 28; Sb P 5 29; Te P 5 30; I P 5 31; Xe P 5 32;
Cs S 6 1; Ba S 6 2; La F 6 3; Ce F 6 4; Pr F 6 5; Nd F 6 6;
Pm F 6 7; Sm F 6 8; Eu F 6 9; Gd F 6 10; Tb F 6 11; Dy F 6 12;
Ho F 6 13; Er F 6 14; Tm F 6 15; Yb F 6 16; Lu D 6 17; Hf D 6 18;
Ta D 6 19; W D 6 20; Re D 6 21; Os D 6 22; Ir D 6 23; Pt D 6 24;
Au D 6 25; Hg D 6 26; Tl P 6 27; Pb P 6 28; Bi P 6 29; Po P 6 30;
At P 6 31; Rn P 6 32; Fr S 7 1; Ra S 7 2; Ac F 7 3; Th F 7 4;
Pa F 7 5; U F 7 6; Np F 7 7; Pu F 7 8; Am F 7 9; Cm F 7 10;
Bk F 7 11; Cf F 7 12; Es F 7 13; Fm F 7 14; Md F 7 15; No F 7 16;
Lr D 7 17; Rf D 7 18; Db D 7 19; Sg D 7 20; Bh D 7 21; Hs D 7 22;
Mt D 7 23; Ds D 7 24; Rg D 7 25; Cn D 7 26; Nh P 7 27; Fl P 7 28;
Mc P 7 29; Lv P 7 30; Ts P 7 31; Og P 7 32
"""


def _build_table() -> tuple[ElementInfo, ...]:
    rows = []
    for z, entry in enumerate(_LAYOUT.replace("\n", " ").split(";"), start=1):
        symbol, block, row, col = entry.split()
        rows.append(ElementInfo(symbol, z, Block[block], int(row), int(col)))
    if len(rows) != N_ELEMENTS:
        raise AssertionError("element layout table is corrupt")
    return tuple(rows)


ELEMENTS: tuple[ElementInfo, ...] = _build_table()
INFO: dict[str, ElementInfo] = {e.symbol: e for e in ELEMENTS}
SYMBOLS: frozenset[str] = frozenset(INFO)
ATOMIC_NUMBER: dict[str, int] = {e.symbol: e.atomic_number for e in ELEMENTS}
# each symbol's index into a flattened (4, 7, 32) tensor
_FLAT_CELL: dict[str, int] = {
    e.symbol: (e.block.value * N_ROWS + e.row - 1) * N_COLS + e.col - 1 for e in ELEMENTS
}


def element_coordinates(symbol: str) -> ElementInfo:
    """Fixed geometry of an element under the canonical 32-column layout.

    Raises KeyError for anything that is not one of the 118 symbols.
    """
    return INFO[symbol]


def encode_ptable(composition: Mapping[str, float]) -> np.ndarray:
    """Write a normalized composition into a (4, 7, 32) block tensor.

    Each element's molar fraction lands at its (channel, row-1, col-1) cell;
    every other cell is zero, so the tensor sums to 1 for a normalized input.
    """
    return encode_ptable_batch([composition])[0]


def encode_ptable_batch(compositions: Iterable[Mapping[str, float]]) -> np.ndarray:
    """Stack encode_ptable over many compositions into (n, 4, 7, 32).

    One table lookup per element and one fancy assignment for the batch;
    an unknown symbol raises KeyError.
    """
    comps = list(compositions)
    rows, cells, fractions = [], [], []
    for i, c in enumerate(comps):
        for symbol, fraction in c.items():
            rows.append(i)
            cells.append(_FLAT_CELL[symbol])
            fractions.append(fraction)
    out = np.zeros((len(comps), TENSOR_SIZE))
    out[rows, cells] = fractions
    return out.reshape(len(comps), *TENSOR_SHAPE)


def decode_ptable(tensor: np.ndarray) -> dict[str, float]:
    """Invert encode_ptable: recover {symbol: value} from the nonzero cells."""
    if tensor.shape != TENSOR_SHAPE:
        raise ValueError(f"expected tensor of shape {TENSOR_SHAPE}, got {tensor.shape}")
    out = {}
    for e in ELEMENTS:
        v = tensor[e.block.value, e.row - 1, e.col - 1]
        if v != 0.0:
            out[e.symbol] = float(v)
    return out

