"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed writes the
same bytes. The program under test only ever sees the files written here.
Generation uses the standard library only (`random.Random`), so the inputs
do not change with the NumPy version, and it never imports `scscreen`.

Besides the inputs, `write_inputs` records what the program should make of
them (`expect.json`): how many catalogue compositions survive cleaning and
overlap removal, how many of those are cuprate/FeSC rows, and so on. The
expectations come from how the rows were built - each generated row carries
its composition as a reduced integer key - not from running the program.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

SYMBOLS = (
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co "
    "Ni Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb "
    "Te I Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re "
    "Os Ir Pt Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es "
    "Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og"
).split()
assert len(SYMBOLS) == 118

# Column order of the element feature CSV the `baseline` command reads.
FEATURE_NAMES = (
    "AtomicWeight", "Column", "DipolePolarizability", "FirstIonizationEnergy",
    "GSbandgap", "GSenergy-pa", "GSestBCClatcnt", "GSestFCClatcnt", "GSmagmom",
    "GSvolume-pa", "ICSDVolume", "IsAlkali", "IsDBlock", "IsFBlock", "IsMetal",
    "IsMetalloid", "IsNonmetal", "MendeleevNumber", "NdUnfilled", "NdValence",
    "NfUnfilled", "NfValence", "NpUnfilled", "NpValence", "NsUnfilled",
    "NsValence", "Number", "NUnfilled", "NValance", "Polarizability", "Row",
    "FirstIonizationEnergies",
)

# fraction-rule corpus (the c04 acceptance world): Tc = 30 K x hot fraction
HOT_TEN = ("Nb", "Ti", "V", "Zr", "Mo", "Pb", "Sn", "In", "Ta", "Tc")
COLD_TEN = ("Cu", "Ag", "Au", "Fe", "Ni", "Co", "Al", "Si", "Ge", "Ba")

# screening worlds: Tc rises with the Nb share against p-block partners
SCREEN_COLD = ("Al", "Si", "Ge", "Sn", "Pb", "Ga", "In", "Sb", "Te", "Bi")
# ordinary catalogue elements: no H/C (organics), no Cu/Fe (families), no Nb
# (planted), no noble gases or short-lived heavy elements
CATALOGUE_POOL = tuple(
    s
    for s in SYMBOLS[:84]
    if s not in {"H", "C", "Cu", "Fe", "Nb", "He", "Ne", "Ar", "Kr", "Xe", "Tc", "Pm"}
)
_CUPRATE_A = ("Y", "La", "Nd", "Bi", "Tl", "Hg", "Sr", "Ca", "Ba", "Pr")
_FESC_A = ("La", "Sm", "Ba", "Sr", "Ca", "K", "Na", "Li", "Ce", "Nd")
_FESC_X = ("As", "Se", "S", "P")
_ORGANIC_X = ("N", "O", "S", "Cl", "Br", "Na", "K")
_UNKNOWN = ("Xq", "Zz", "Qa", "Jb", "Yy")


def element_key(counts: dict[str, int]) -> tuple:
    """Reduced integer stoichiometry, the identity of an integer formula.

    Two integer formulas normalize to the same molar fractions exactly when
    their reduced keys match (count/total is correctly rounded, so 1/3 and
    2/6 give the same float).
    """
    g = 0
    for v in counts.values():
        g = math.gcd(g, v)
    return tuple(sorted((s, v // g) for s, v in counts.items()))


def family(key: tuple) -> str:
    """The program's family rule, restated: CUPRATE needs Cu, O and a third
    element; FESC needs Fe with As, S, Se or P."""
    els = {s for s, _ in key}
    if "Cu" in els and "O" in els and len(els) >= 3:
        return "cuprate"
    if "Fe" in els and els & set(_FESC_X):
        return "fesc"
    return "conventional"


def write_formula(counts: dict[str, int], rng: random.Random, scale: int = 1) -> str:
    """One written form of a composition: element order shuffled, counts
    optionally multiplied, a count of 1 sometimes left implicit."""
    items = list(counts.items())
    rng.shuffle(items)
    parts = []
    for s, v in items:
        v *= scale
        parts.append(s if v == 1 and rng.random() < 0.5 else f"{s}{v}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# fit-default: the fraction-rule corpus


def fraction_rule_corpus(seed: int, n: int) -> list[tuple[str, float]]:
    """(formula, Tc) pairs with Tc = 30 K x the molar share of the hot ten.

    Two or three elements, at least one hot; weights are written with three
    decimals and Tc is computed from exactly those weights.
    """
    rng = random.Random(f"corpus-{seed}")
    hot = set(HOT_TEN)
    rows = []
    for _ in range(n):
        k = rng.randint(2, 3)
        h = rng.randint(1, k)
        chosen = rng.sample(HOT_TEN, h) + rng.sample(COLD_TEN, k - h)
        weights = [rng.randint(50, 1050) for _ in chosen]  # thousandths
        total = sum(weights)
        formula = "".join(f"{s}{w / 1000:.3f}" for s, w in zip(chosen, weights))
        tc = 30.0 * sum(w for s, w in zip(chosen, weights) if s in hot) / total
        rows.append((formula, round(tc, 9)))
    return rows


# ---------------------------------------------------------------------------
# infer-catalogue: plain catalogue compositions


def random_counts(rng: random.Random, pool, k_lo=2, k_hi=4, c_hi=6) -> dict[str, int]:
    k = rng.randint(k_lo, k_hi)
    return {s: rng.randint(1, c_hi) for s in rng.sample(pool, k)}


def catalogue_formulas(seed: int, n: int) -> list[str]:
    """n clean inorganic formulas of two to four elements."""
    rng = random.Random(f"catalogue-{seed}")
    pool = CATALOGUE_POOL + ("Nb", "Cu", "Fe")
    return [write_formula(random_counts(rng, pool), rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# screen-cli / forest-cli: a dirty superconductor table and catalogue


def _nb_rule_tc(counts: dict[str, int]) -> float:
    return 25.0 * counts.get("Nb", 0) / sum(counts.values())


def _plan(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """n row kinds in fixed proportions, shuffled: every seed gets the same
    mix, so the work a world costs does not swing with the seed."""
    counts = {kind: int(n * share) for kind, share in shares.items()}
    counts[next(iter(shares))] += n - sum(counts.values())
    plan = [kind for kind, c in counts.items() for _ in range(c)]
    rng.shuffle(plan)
    return plan


SC_MIX = {"nb_rule": 0.45, "cold": 0.20, "cuprate": 0.08, "fesc": 0.07,
          "duplicate": 0.10, "no_tc": 0.05, "unparseable": 0.05}
CATALOGUE_MIX = {"ordinary": 0.80, "planted": 0.02, "cuprate": 0.02, "fesc": 0.01,
                 "sc_overlap": 0.01, "duplicate": 0.07, "organic": 0.02,
                 "unparseable": 0.025, "variable": 0.025}


def sc_table(rng: random.Random, n: int) -> tuple[list[tuple[str, str, str]], dict]:
    """Raw measured-superconductor rows and the keys that survive cleaning.

    Mix (SC_MIX): Nb-rule rows, cold (Tc 0) pairs, cuprates and FeSC with
    high Tc, re-reported duplicates with scattered Tc, rows with no Tc, and
    rows whose formula does not parse.
    """
    rows: list[tuple[str, str, str]] = []
    tc_of: dict[tuple, list[float | None]] = {}

    def emit(counts, tc):
        key = element_key(counts)
        tc_of.setdefault(key, []).append(tc)
        year = str(rng.randint(1990, 2015)) if rng.random() < 0.9 else ""
        text = "" if tc is None else f"{tc:.6g}"
        rows.append((write_formula(counts, rng, rng.choice((1, 1, 2))), text, year))

    made: list[dict[str, int]] = []
    for kind in _plan(rng, n, SC_MIX):
        if kind == "duplicate" and not made:
            kind = "nb_rule"
        if kind == "nb_rule":
            c = rng.choice(SCREEN_COLD)
            counts = {"Nb": rng.randint(1, 9), c: rng.randint(1, 9)}
            tc = round(_nb_rule_tc(counts) + rng.uniform(-0.5, 0.5), 3)
            emit(counts, max(tc, 0.0))
            made.append(counts)
        elif kind == "cold":
            a, b = rng.sample(SCREEN_COLD, 2)
            counts = {a: rng.randint(1, 6), b: rng.randint(1, 6)}
            emit(counts, 0.0)
            made.append(counts)
        elif kind == "cuprate":
            a = rng.choice(_CUPRATE_A)
            counts = {a: rng.randint(1, 3), "Ba": rng.randint(1, 2), "Cu": rng.randint(1, 4),
                      "O": rng.randint(4, 8)}
            emit(counts, round(rng.uniform(30.0, 120.0), 2))
        elif kind == "fesc":
            counts = {rng.choice(_FESC_A): rng.randint(1, 2), "Fe": rng.randint(1, 2),
                      rng.choice(_FESC_X): rng.randint(1, 2)}
            emit(counts, round(rng.uniform(5.0, 55.0), 2))
        elif kind == "duplicate":
            # the same material reported again, with a different Tc
            counts = rng.choice(made)
            base = _nb_rule_tc(counts)
            emit(counts, max(round(base + rng.uniform(-2.0, 2.0), 3), 0.0))
        elif kind == "no_tc":
            counts = {rng.choice(SCREEN_COLD): rng.randint(1, 5), "Nb": rng.randint(1, 5),
                      "Zr": rng.randint(1, 3)}
            emit(counts, None)
        else:
            bad = rng.choice(_UNKNOWN) + f"{rng.randint(1, 4)}Nb{rng.randint(1, 4)}"
            rows.append((bad, f"{rng.uniform(1, 20):.3f}", "2001"))
    kept = {k for k, tcs in tc_of.items() if any(t is not None for t in tcs)}
    return rows, {"sc_keys": kept}


def catalogue_table(rng: random.Random, n: int, sc_keys: set) -> tuple[list, dict]:
    """Raw catalogue rows (Tc empty) and the compositions that should reach
    the screen.

    Mix (CATALOGUE_MIX): ordinary inorganic rows, planted Nb-rich rows
    absent from the SC table, cuprate/FeSC rows, rows repeating an SC
    composition, duplicates written differently, organics, unknown
    elements, malformed syntax and formulas with stoichiometry variables.
    """
    rows: list[tuple[str, str, str]] = []
    clean: set[tuple] = set()  # parseable, inorganic catalogue compositions
    made: list[dict[str, int]] = []
    sc_list = sorted(sc_keys)
    plan = _plan(rng, n, CATALOGUE_MIX)

    def emit(counts, scale=1):
        clean.add(element_key(counts))
        made.append(counts)
        year = str(rng.randint(1980, 2018)) if rng.random() < 0.8 else ""
        rows.append((write_formula(counts, rng, scale), "", year))

    for kind in plan:
        if kind == "duplicate" and not made:
            kind = "ordinary"
        if kind == "ordinary":
            emit(random_counts(rng, CATALOGUE_POOL))
        elif kind == "planted":
            # Nb-rich ternaries: the SC table's Nb rows are binary, so these
            # never collide with it
            a, b = rng.sample(SCREEN_COLD, 2)
            emit({"Nb": rng.randint(5, 9), a: 1, b: rng.randint(1, 2)})
        elif kind == "cuprate":
            emit({rng.choice(_CUPRATE_A): rng.randint(1, 3), "Cu": rng.randint(1, 3),
                  "O": rng.randint(3, 8)})
        elif kind == "fesc":
            emit({rng.choice(_FESC_A): rng.randint(1, 3), "Fe": rng.randint(1, 3),
                  rng.choice(_FESC_X): rng.randint(1, 3)})
        elif kind == "sc_overlap":
            emit(dict(rng.choice(sc_list)), scale=rng.choice((1, 2)))
        elif kind == "duplicate":
            emit(rng.choice(made), scale=rng.choice((1, 2, 3)))
        elif kind == "organic":
            counts = {"C": rng.randint(1, 12), "H": rng.randint(1, 24),
                      rng.choice(_ORGANIC_X): rng.randint(1, 4)}
            rows.append((write_formula(counts, rng), "", ""))
        elif kind == "unparseable":
            a, b = rng.sample(CATALOGUE_POOL, 2)
            bad = rng.choice((
                f"{rng.choice(_UNKNOWN)}{rng.randint(1, 4)}{a}",
                f"{a}2({b}3",
                f"{a}2){b}",
                f"{rng.randint(2, 5)}{a}{b}",
            ))
            rows.append((bad, "", "2010"))
        else:
            a, b = rng.sample(_CUPRATE_A, 2)
            rows.append((rng.choice((f"{a}2-x{b}xCuO4", f"{a}{b}2O1-x", f"{a}1-y{b}yFe2As2")),
                         "", ""))
    corpus = clean - sc_keys
    kept = {k for k in corpus if family(k) == "conventional"}
    return rows, {
        "corpus": len(corpus),
        "kept": len(kept),
        "excluded": len(corpus) - len(kept),
        "rows": {kind: plan.count(kind) for kind in CATALOGUE_MIX},
    }


def feature_table() -> list[list[str]]:
    """A complete 118-element table of 32 property values each. Like real
    element properties it is the same for every world (every seed)."""
    rng = random.Random("features")
    out = [["symbol", *FEATURE_NAMES]]
    for z, s in enumerate(SYMBOLS, start=1):
        out.append([s, *(f"{rng.gauss(z / 10.0, 1.0):.6g}" for _ in FEATURE_NAMES)])
    return out


# ---------------------------------------------------------------------------
# files


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        if header is not None:
            w.writerow(header)
        w.writerows(rows)


# input sizes per workload (rows); see workloads.py for why each one exists
FIT_CORPUS_ROWS = 1024
INFER_SLICES, INFER_SLICE_ROWS = 4, 500
WORLD_ROWS = {"screen-cli": (300, 30_000), "forest-cli": (300, 6_000)}  # (SC, catalogue)
WARM_WORLD_ROWS = (60, 600)
SCREEN_FOLDS = 3

SCREEN_CONFIG = {
    "name": "bench-screen",
    "model": {"conv_layers": 1, "channels_per_layer": 4, "dense_hidden": 0,
              "tc_transform": "linear", "seed": 7},
    "train": {"learning_rate": 2e-2, "batch_size": 32, "epochs": 1, "shuffle_seed": 3},
}


def _write_world(workload, rng, out_dir, n_sc, n_cod) -> dict:
    """SC and catalogue CSVs plus the workload's config or feature table."""
    os.makedirs(out_dir, exist_ok=True)
    p = lambda name: os.path.join(out_dir, name)  # noqa: E731
    sc_rows, sc_info = sc_table(rng, n_sc)
    cod_rows, cod_info = catalogue_table(rng, n_cod, sc_info["sc_keys"])
    _write_csv(p("sc.csv"), ["formula", "tc_K", "year"], sc_rows)
    _write_csv(p("cod.csv"), ["formula", "tc_K", "year"], cod_rows)
    expect = dict(cod_info, sc_rows=len(sc_rows), cod_rows=len(cod_rows),
                  sc_clean=len(sc_info["sc_keys"]))
    if workload == "screen-cli":
        config = dict(SCREEN_CONFIG, fold_size=-(-cod_info["corpus"] // SCREEN_FOLDS))
        with open(p("screen.json"), "w") as f:
            json.dump(config, f, indent=1, sort_keys=True)
        expect["folds"] = SCREEN_FOLDS
    else:
        _write_csv(p("features.csv"), None, feature_table())
        expect["labelled"] = len(sc_info["sc_keys"]) + cod_info["corpus"]
    return expect


def write_inputs(workload: str, seed: int, out_dir: str) -> dict:
    """Write one workload's input files into out_dir; return expect.json's
    content (also written there)."""
    os.makedirs(out_dir, exist_ok=True)
    p = lambda name: os.path.join(out_dir, name)  # noqa: E731
    expect: dict = {"workload": workload, "seed": seed}
    if workload == "fit-default":
        rows = fraction_rule_corpus(seed, FIT_CORPUS_ROWS)
        _write_csv(p("corpus.csv"), ["formula", "tc_K"], rows)
        expect["rows"] = len(rows)
    elif workload == "infer-catalogue":
        formulas = catalogue_formulas(seed, INFER_SLICES * INFER_SLICE_ROWS)
        _write_csv(p("catalogue.csv"), ["formula"], [[f] for f in formulas])
        expect.update(slices=INFER_SLICES, slice_rows=INFER_SLICE_ROWS)
    elif workload in ("screen-cli", "forest-cli"):
        # the full world, and a small one in warm/ for the warm-up operation
        rng = random.Random(f"{workload}-{seed}")
        expect.update(_write_world(workload, rng, out_dir, *WORLD_ROWS[workload]))
        expect["warm"] = _write_world(
            workload, rng, os.path.join(out_dir, "warm"), *WARM_WORLD_ROWS
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(p("expect.json"), "w") as f:
        json.dump(expect, f, indent=1, sort_keys=True)
    return expect
