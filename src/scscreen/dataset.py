"""Dataset construction: ingestion, cleaning, synthetic negatives, folds.

The screening pipeline draws on three kinds of input tables, all sharing one
CSV schema (columns: formula, tc_K, year; extra columns are ignored):

- measured superconductors with critical temperatures,
- a broad inorganic-materials catalogue used as "probably-not-superconducting"
  material, and
- held-back evaluation lists of materials with known outcomes.

Cleaning is deliberately split into small single-purpose passes so each rule
can be tested on its own; `clean_sc` and `clean_catalogue` wire the passes in
the canonical order.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .formula import Composition, FormulaError, has_unresolved_variables, parse_composition


class Source(Enum):
    SUPERCON = "supercon"
    COD = "cod"
    EVAL_LIST = "eval_list"
    SYNTHETIC_NEGATIVE = "synthetic_negative"


class FamilyLabel(Enum):
    CUPRATE = "cuprate"
    FESC = "fesc"
    CONVENTIONAL = "conventional"


class SchemaMismatchError(ValueError):
    pass


class FoldTooLargeError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class MaterialRecord:
    """One material row. `composition` is None when the raw formula did not
    yield a concrete composition; `flagged_reason` says why."""

    raw_formula: str
    composition: Composition | None
    tc_kelvin: float | None
    year: int | None
    source: Source
    flagged_reason: str | None = None

    def __post_init__(self):
        if self.tc_kelvin is not None:
            if not math.isfinite(self.tc_kelvin) or self.tc_kelvin < 0.0:
                raise ValueError(f"tc_kelvin must be finite and >= 0, got {self.tc_kelvin}")
        if self.source is Source.SYNTHETIC_NEGATIVE and self.tc_kelvin != 0.0:
            raise ValueError("synthetic negatives must carry tc_kelvin == 0.0")


@dataclass
class IngestReport:
    records: list[MaterialRecord]
    n_rows: int
    n_parsed: int
    n_flagged: int


def make_record(
    raw_formula: str,
    tc_kelvin: float | None,
    year: int | None,
    source: Source,
) -> MaterialRecord:
    """Parse one formula into a record, flagging instead of failing.

    Formulas with unresolved stoichiometry variables, unknown elements, or
    syntax problems produce a record with composition=None and a reason
    string, so nothing is silently dropped at ingest time.
    """
    try:
        comp = parse_composition(raw_formula)
    except FormulaError as err:
        # a formula with a variable token never parses; name the variable
        # rather than whichever syntax error the parser hit first
        if has_unresolved_variables(raw_formula):
            reason = "unresolved_variable"
        else:
            reason = type(err).__name__
        return MaterialRecord(raw_formula, None, tc_kelvin, year, source, reason)
    return MaterialRecord(raw_formula, comp, tc_kelvin, year, source, None)


def csv_rows(path) -> Iterator[tuple[int, list[str]]]:
    """Yield each row of an input table (UTF-8, BOM allowed), header first,
    with the file line it ends on. A line the csv module cannot read, a file
    that is not UTF-8, or a quoted cell still open at its end is a
    SchemaMismatchError naming the line (for the open cell, its row's first)."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        eof: list[bool] = []  # marked when the reader asks for a line past the last
        reader = csv.reader(chain(f, iter(lambda: eof.append(True), None)))
        line = 0
        try:
            for row in reader:
                # only a quoted cell left open reads a row on past the last line
                if eof:
                    raise SchemaMismatchError(f"{path}:{line + 1}: quoted cell is never closed")
                line = reader.line_num
                yield line, row
        except csv.Error as err:
            raise SchemaMismatchError(f"{path}:{line + 1}: {err}") from None
        except UnicodeDecodeError as err:
            raise SchemaMismatchError(f"{path}: not UTF-8 text: {err}") from None


def ingest_csv(path, source: Source) -> IngestReport:
    """Read a formula/tc_K/year CSV (by `csv_rows`) into records.

    Empty tc_K or year cells become None. A missing `formula` column, an
    unparseable numeric cell and a negative or non-finite tc_K are schema
    errors (bad data fails loudly; bad formulas are flagged per row).
    """
    records: list[MaterialRecord] = []
    n_flagged = 0
    rows = csv_rows(path)
    _, header = next(rows, (0, None))
    if header is None or "formula" not in header:
        raise SchemaMismatchError(f"{path}: need a 'formula' column, got {header}")
    # cells by column index, read as csv.DictReader would: blank lines skipped,
    # a repeated name's last column, a short row's missing cells empty
    column = {name: i for i, name in enumerate(header)}
    at = [column.get(name) for name in ("formula", "tc_K", "year")]
    for line, row in rows:
        if not row:
            continue
        raw, tc_text, year_text = [
            row[i].strip() if i is not None and i < len(row) else "" for i in at
        ]
        try:
            tc = float(tc_text) if tc_text else None
            year = int(year_text) if year_text else None
            rec = make_record(raw, tc, year, source)
        except ValueError as err:
            raise SchemaMismatchError(f"{path}:{line}: {err}") from None
        if rec.flagged_reason is not None:
            n_flagged += 1
        records.append(rec)
    return IngestReport(records, len(records), len(records) - n_flagged, n_flagged)


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return f"{value:.9g}"
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one result table. Every table shares one cell rule: floats as
    `.9g`, None as an empty cell, bools as true/false, enums by value, and
    anything else as its `str`. Lines end in CRLF (`csv.writer`'s default)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)


def drop_flagged(records: Iterable[MaterialRecord]) -> list[MaterialRecord]:
    return [r for r in records if r.flagged_reason is None]


def dedup_median_tc(records: Sequence[MaterialRecord]) -> list[MaterialRecord]:
    """Collapse records sharing a composition (equal `Composition`s, i.e.
    the same `key()`) to one representative.

    Reported Tc values for nominally identical materials scatter, so the
    survivor takes the median Tc (lower-middle order statistic for even
    group sizes) and the earliest report year. Group order follows first
    appearance; records without a composition pass through untouched.
    """
    groups: dict[object, list[MaterialRecord]] = {}
    for r in records:
        comp = r.composition
        # a record without a composition is a group of its own
        groups.setdefault(comp if comp is not None else object(), []).append(r)

    out: list[MaterialRecord] = []
    for group in groups.values():
        first = group[0]
        if len(group) == 1:  # already its own median Tc and earliest year
            out.append(first)
            continue
        tcs = sorted(r.tc_kelvin for r in group if r.tc_kelvin is not None)
        tc = tcs[(len(tcs) - 1) // 2] if tcs else None
        years = [r.year for r in group if r.year is not None]
        year = min(years) if years else None
        out.append(dataclasses.replace(first, tc_kelvin=tc, year=year))
    return out


def drop_missing_tc(records: Iterable[MaterialRecord]) -> list[MaterialRecord]:
    """Remove measured-superconductor rows with no recorded Tc.

    Only SUPERCON rows are affected: a catalogue row has no Tc by nature
    (it becomes a Tc = 0 negative later), and eval-list rows are judged by
    the evaluation runner.
    """
    return [
        r
        for r in records
        if r.tc_kelvin is not None or r.source is not Source.SUPERCON
    ]


_FESC_PARTNERS = frozenset({"As", "S", "Se", "P"})


def classify_family(composition: Composition) -> FamilyLabel:
    """Coarse material family from composition alone.

    CUPRATE: contains Cu and O plus at least one other element. FESC:
    contains Fe together with As, S, Se, or P. CUPRATE wins when both rules
    fire; everything else is CONVENTIONAL.
    """
    if "Cu" in composition and "O" in composition and len(composition) >= 3:
        return FamilyLabel.CUPRATE
    if "Fe" in composition and not _FESC_PARTNERS.isdisjoint(composition):
        return FamilyLabel.FESC
    return FamilyLabel.CONVENTIONAL


def remove_overlap(
    primary: Sequence[MaterialRecord], reference: Sequence[MaterialRecord]
) -> list[MaterialRecord]:
    """Drop primary records whose composition matches any reference record.

    Match means the same `Composition.key()`, so spelling variants and
    rounded copies of the same material are caught. Records without a
    composition never match anything.
    """
    keys = {r.composition for r in reference if r.composition is not None}
    return [r for r in primary if r.composition is None or r.composition not in keys]


def filter_inorganic(records: Iterable[MaterialRecord]) -> list[MaterialRecord]:
    """Drop likely-organic entries: anything containing both C and H."""
    out = []
    for r in records:
        c = r.composition
        if c is not None and "C" in c and "H" in c:
            continue
        out.append(r)
    return out


def garbage_in(
    cod: Sequence[MaterialRecord],
    known_sc: Sequence[MaterialRecord],
    eval_list: Sequence[MaterialRecord] = (),
) -> list[MaterialRecord]:
    """Turn catalogue materials into Tc = 0 training rows.

    The vast majority of known inorganic materials are not superconductors
    at any measured temperature, so the catalogue minus everything that is
    (or is being evaluated as) a superconductor serves as the negative
    class. Every surviving row is relabelled with tc_kelvin = 0.0 exactly
    and tagged SYNTHETIC_NEGATIVE.
    """
    usable = [r for r in cod if r.composition is not None]
    usable = remove_overlap(usable, [*known_sc, *eval_list])
    return [
        MaterialRecord(r.raw_formula, r.composition, 0.0, r.year, Source.SYNTHETIC_NEGATIVE,
                       r.flagged_reason)
        for r in usable
    ]


def rotating_folds(
    records: Sequence, fold_size: int, seed: int
) -> list[tuple[list[int], list[int]]]:
    """Partition record indices into shuffled folds of at most fold_size.

    Returns one (train_indices, test_indices) pair per fold; each index
    appears in exactly one test set, so the folds cover everything without
    repetition. The shuffle is fully determined by the seed.
    """
    n = len(records)
    if fold_size < 1:
        raise FoldTooLargeError(f"fold_size must be >= 1, got {fold_size}")
    if fold_size > n:
        raise FoldTooLargeError(f"fold_size {fold_size} exceeds population {n}")
    rng = np.random.default_rng(seed)
    perm = [int(i) for i in rng.permutation(n)]
    folds = []
    for start in range(0, n, fold_size):
        test = perm[start : start + fold_size]
        train = perm[:start] + perm[start + fold_size :]
        folds.append((train, test))
    return folds


def clean_sc(records: Sequence[MaterialRecord]) -> list[MaterialRecord]:
    """Canonical cleaning for measured-superconductor tables:
    drop unparseable rows, collapse duplicates to the median Tc, then drop
    rows that never had a Tc."""
    return drop_missing_tc(dedup_median_tc(drop_flagged(records)))


def clean_catalogue(records: Sequence[MaterialRecord]) -> list[MaterialRecord]:
    """Canonical cleaning for the inorganic catalogue: drop unparseable rows
    and organics, then collapse duplicates (Tc is irrelevant here, the
    rows become Tc = 0 negatives later)."""
    return dedup_median_tc(filter_inorganic(drop_flagged(records)))


def dataset_fingerprint(records: Sequence[MaterialRecord]) -> str:
    """Order-independent sha256 over the material content of a record list.

    Compositions enter by their exact canonical `formula()`: a fingerprint
    records provenance, not identity."""
    lines = []
    for r in records:
        comp = r.composition.formula() if r.composition is not None else ""
        tc = "" if r.tc_kelvin is None else f"{r.tc_kelvin:.9g}"
        year = "" if r.year is None else str(r.year)
        lines.append(f"{r.raw_formula}\x1f{comp}\x1f{tc}\x1f{year}\x1f{r.source.value}")
    digest = hashlib.sha256()
    for line in sorted(lines):
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def write_records_csv(records: Sequence[MaterialRecord], path) -> None:
    """Write records back out in the ingest schema plus bookkeeping columns."""
    header = ["formula", "tc_K", "year", "source", "family", "flagged_reason"]
    write_csv(path, header, (
        [r.raw_formula, r.tc_kelvin, r.year, r.source,
         None if r.composition is None else classify_family(r.composition), r.flagged_reason]
        for r in records
    ))
