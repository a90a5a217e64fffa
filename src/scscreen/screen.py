"""Batch screening experiments.

Three workflows share one declarative config (`ExperimentSpec`):

- `run_candidate_screen`: rotate folds over an inorganic catalogue, training
  on measured superconductors plus the remaining catalogue rows as Tc = 0
  negatives, and rank every catalogue row by its predicted Tc.
- `run_temporal_eval`: train only on records reported before a cutoff year
  and score the predictions against a later reference list.
- `run_family_discovery`: repeatedly retrain with one material family held
  out entirely and count how many of its members each run flags as
  superconducting.

No scored material is ever a training material, checked before any model
trains: evaluation and discovery keep scored rows out of the negatives and
drop those that match a measured training row (`_hold_out`); the screen
rejects a corpus row whose key matches a training superconductor or another
corpus row, which covers every fold at once. All randomness derives from
seeds recorded in the result.

Each experiment encodes its rows once (`_encode`) and describes each model
as a `_Fit` over them; `_fit_all`, the one place a model trains, runs an
experiment's models in `--jobs` threads.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import (
    FamilyLabel,
    MaterialRecord,
    classify_family,
    dataset_fingerprint,  # noqa: F401 (unused; perfbench/layers.py patches it here)
    garbage_in,
    remove_overlap,
    rotating_folds,
    write_csv,
)
from .errors import EmptyDatasetError
from .formula import Composition, FormulaError, parse_composition
from .metrics import (
    EvalReport,
    Histogram,
    baseline_precision,
    confusion_counts,
    positive_count_histogram,
)
from .nn import (
    EncodedRows,
    Head,
    ModelConfig,
    TrainConfig,
    config_from_dict,
    encode_rows,
    predict,
    train,
)


class LeakageError(ValueError):
    """A test composition showed up in the training set."""


# ---------------------------------------------------------------------------
# declarative training filter


@dataclass(frozen=True)
class TrainingFilter:
    """Predicate over MaterialRecord composed from declarative pieces.

    - year_before: keep only records dated strictly before the year; undated
      records fail a year bound (their side of the cutoff is unknowable).
    - exclude_families: drop records classified into any of these (to keep
      only some families, list the others).
    - remove: drop records whose composition matches any of these formulas
      (same `Composition.key()`, the rule dedup, overlap removal and the
      leakage checks use).

    An empty filter keeps everything. Records without a composition pass
    unless exclude_families is set (they cannot be classified).
    """

    year_before: int | None = None
    exclude_families: frozenset[FamilyLabel] = frozenset()
    remove: tuple[str, ...] = ()
    _removals: frozenset[Composition] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        keys = set()
        for f in self.remove:
            try:
                keys.add(parse_composition(f))
            except FormulaError as err:
                raise ValueError(f"cannot parse removal target {f!r}: {err}") from err
        object.__setattr__(self, "_removals", frozenset(keys))

    def __call__(self, record: MaterialRecord) -> bool:
        if self.year_before is not None:
            if record.year is None or record.year >= self.year_before:
                return False
        comp = record.composition
        if self.exclude_families:
            if comp is None or classify_family(comp) in self.exclude_families:
                return False
        return comp is None or comp not in self._removals

    def apply(self, records: Sequence[MaterialRecord]) -> list[MaterialRecord]:
        return [r for r in records if self(r)]


def build_training_filter(fragment: Mapping) -> TrainingFilter:
    """Build a TrainingFilter from a JSON-shaped mapping by `config_from_dict`."""
    return config_from_dict(TrainingFilter, fragment, "training_filter")


# ---------------------------------------------------------------------------
# experiment spec


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: what to train on, what to score, how often."""

    name: str
    training_filter: TrainingFilter = TrainingFilter()
    test_set: FamilyLabel | None = None
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    repeats: int = 1
    thresholds: tuple[float, ...] = (0.0, 4.0, 10.0)
    fold_size: int | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("experiment needs a name")
        if self.test_set is not None and not isinstance(self.test_set, FamilyLabel):
            raise ValueError(f"test_set must be a FamilyLabel or None, got {self.test_set!r}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        ths = tuple(float(t) for t in self.thresholds)
        if not ths:
            raise ValueError("need at least one threshold")
        if not all(0 <= t < np.inf for t in ths) or list(ths) != sorted(ths):
            raise ValueError(f"thresholds must be finite, >= 0 and ascending, got {ths}")
        object.__setattr__(self, "thresholds", ths)
        if self.fold_size is not None and self.fold_size < 1:
            raise ValueError(f"fold_size must be >= 1, got {self.fold_size}")


def spec_from_dict(data: Mapping) -> ExperimentSpec:
    """Build an ExperimentSpec from a JSON-shaped mapping by `config_from_dict`."""
    return config_from_dict(ExperimentSpec, data, "experiment")


def load_experiment_spec(path) -> ExperimentSpec:
    with open(path, encoding="utf-8-sig") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not valid JSON: {err}") from err
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: not UTF-8 text: {err}") from None
    return spec_from_dict(data)


# ---------------------------------------------------------------------------
# shared plumbing


def _trainable(records: Sequence[MaterialRecord]) -> list[MaterialRecord]:
    """Rows that can actually feed the model: composition and Tc present."""
    return [r for r in records if r.composition is not None and r.tc_kelvin is not None]


def _check_scored(rows: Sequence[MaterialRecord], name: str) -> None:
    """A list whose every row is scored must not be empty, and each row
    needs a composition and a Tc: a row that cannot be scored is an error,
    never silently dropped."""
    if not rows:
        raise EmptyDatasetError(f"{name} is empty")
    bad = [r for r in rows if r.composition is None]
    if bad:
        raise ValueError(
            f"{name} has {len(bad)} non-numeric formula(s), "
            f"e.g. {bad[0].raw_formula!r}; substitute variables first"
        )
    missing = [r for r in rows if r.tc_kelvin is None]
    if missing:
        raise ValueError(
            f"{name} has {len(missing)} row(s) without a known Tc, "
            f"e.g. {missing[0].raw_formula!r}"
        )


def _encode(
    spec: ExperimentSpec, *groups: Sequence[MaterialRecord]
) -> tuple[EncodedRows, np.ndarray, list[np.ndarray]]:
    """Every row of the groups, encoded in one `encode_rows` call in the
    model's dtype for every model of the experiment to share (threads only
    read them); the rows' Tc; and each group's indices into both."""
    rows = [r for g in groups for r in g]
    encoded = encode_rows([r.composition for r in rows], spec.model.np_dtype)
    tc = np.array([r.tc_kelvin for r in rows], dtype=np.float64)
    ends = np.cumsum([len(g) for g in groups])
    return encoded, tc, [np.arange(end - len(g), end) for g, end in zip(groups, ends)]


def _keys(records: Iterable[MaterialRecord]) -> set[Composition]:
    return {r.composition for r in records}


def _assert_disjoint(train_keys: set[Composition], rows: Sequence[MaterialRecord], context: str):
    shared = [r.composition.formula() for r in rows if r.composition in train_keys]
    if shared:
        raise LeakageError(
            f"{context}: {len(shared)} test composition(s) also in training, "
            f"e.g. {shared[0]!r}"
        )


def _training_sc(
    sc_data: Sequence[MaterialRecord], spec: ExperimentSpec
) -> list[MaterialRecord]:
    """Measured rows that pass spec.training_filter and can feed the model."""
    sc_train = _trainable(spec.training_filter.apply(sc_data))
    if not sc_train:
        raise EmptyDatasetError("training filter left no superconductor rows")
    return sc_train


def _hold_out(
    sc_train: list[MaterialRecord],
    cod_data: Sequence[MaterialRecord],
    spec: ExperimentSpec,
    scored: Sequence[Sequence[MaterialRecord]],
    context: str,
) -> tuple[list[MaterialRecord], list[list[MaterialRecord]]]:
    """Training rows (sc_train plus the filtered catalogue as Tc = 0
    negatives, no scored row among them) and each scored set without the
    rows that match training, which would be answered by memory."""
    excluded = [r for rows in scored for r in rows]
    train_rows = sc_train + garbage_in(spec.training_filter.apply(cod_data), sc_train, excluded)
    kept = [remove_overlap(rows, train_rows) for rows in scored]
    train_keys = _keys(train_rows)
    for rows in kept:
        _assert_disjoint(train_keys, rows, context)
    return train_rows, kept


def _report(head: Head, pred, true_tc: Sequence[float], t: float) -> EvalReport:
    """Confusion at t: truth is Tc > t, a prediction is positive above t
    kelvin (REGRESSION) or above probability 0.5 (BINARY_LOGIT)."""
    cut = t if head is Head.REGRESSION else 0.5
    return confusion_counts(
        pred > cut, [tc > t for tc in true_tc], t, baseline_precision(true_tc, t)
    )


class _Fit(NamedTuple):
    """One model as plain data: it trains on rows `train_idx` of an
    experiment's encoded rows and predicts each index array of `scored`."""

    model: ModelConfig
    train: TrainConfig
    label_threshold: float
    train_idx: np.ndarray
    scored: tuple[np.ndarray, ...]


def _fit_all(encoded: EncodedRows, tc: np.ndarray, fits: Sequence[_Fit], jobs: int) -> list:
    """Each fit's predictions, a list of one array per scored set, in fit
    order; the fits run in `jobs` threads when jobs > 1."""

    def run(fit: _Fit) -> list[np.ndarray]:
        params, _ = train(encoded.take(fit.train_idx), fit.model, fit.train,
                          tc_kelvin=tc[fit.train_idx], label_threshold=fit.label_threshold)
        return [predict(params, encoded.take(idx)) for idx in fit.scored]

    if jobs <= 1 or len(fits) <= 1:
        return [run(f) for f in fits]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run, fits))


# ---------------------------------------------------------------------------
# candidate screening over a catalogue


@dataclass(frozen=True, slots=True)
class CandidateRow:
    formula: str  # canonical composition string
    predicted_tc_kelvin: float
    fold_id: int
    family: FamilyLabel


@dataclass
class CandidateList:
    rows: list[CandidateRow]  # sorted by predicted Tc descending
    threshold_counts: list[tuple[float, int]]  # (threshold K, rows strictly above)
    n_folds: int
    fold_seed: int
    model_seeds: list[int]
    n_excluded: int  # cuprate/FeSC rows dropped from the ranked list


def _assert_corpus_disjoint(sc_train: list[MaterialRecord], corpus: list[MaterialRecord]):
    """A corpus row trains every fold but its own and is ranked once, so its
    key may match no training superconductor and no other corpus row. A
    function of its own, so the key sets are freed before any fold trains."""
    counts = Counter(r.composition for r in corpus)
    train_keys = _keys(sc_train)
    train_keys.update(k for k, n in counts.items() if n > 1)
    _assert_disjoint(train_keys, corpus, "screen")


def run_candidate_screen(
    sc_data: Sequence[MaterialRecord],
    cod_data: Sequence[MaterialRecord],
    spec: ExperimentSpec,
    *,
    jobs: int = 1,
) -> CandidateList:
    """Rank every catalogue material by predicted Tc, without self-leakage.

    The catalogue is shuffled into folds of spec.fold_size. Each fold is
    predicted by a model trained on the measured superconductors (after
    spec.training_filter) plus every *other* catalogue row relabelled as a
    Tc = 0 negative, so no material ever contributes to the model that
    scores it. Rows classified CUPRATE or FESC are dropped from the final
    ranking; known-family hits are not discoveries.
    """
    if spec.fold_size is None:
        raise ValueError("candidate screening needs spec.fold_size")
    if spec.model.head is not Head.REGRESSION:
        raise ValueError("candidate ranking needs kelvin predictions (REGRESSION head)")
    sc_train = _training_sc(sc_data, spec)
    corpus = garbage_in(cod_data, sc_train)
    if not corpus:
        raise EmptyDatasetError("catalogue is empty after overlap removal")
    _assert_corpus_disjoint(sc_train, corpus)
    # the corpus is encoded first, so a corpus index is its encoded row; the
    # folds' index lists live only until their fits hold them as arrays
    encoded, tc, (_, sc_idx) = _encode(spec, corpus, sc_train)
    fits = [
        _Fit(dataclasses.replace(spec.model, seed=spec.model.seed + f), spec.train, 0.0,
             np.concatenate([sc_idx, np.asarray(train, np.intp)]), (np.asarray(test, np.intp),))
        for f, (train, test) in enumerate(rotating_folds(corpus, spec.fold_size, spec.model.seed))
    ]
    per_fold = _fit_all(encoded, tc, fits, jobs)
    rows = [
        CandidateRow(
            formula=corpus[i].composition.formula(),
            predicted_tc_kelvin=p,
            fold_id=fold_id,
            family=classify_family(corpus[i].composition),
        )
        for fold_id, (fit, (preds,)) in enumerate(zip(fits, per_fold))
        for i, p in zip(fit.scored[0].tolist(), preds.tolist())
    ]
    kept = [r for r in rows if r.family not in (FamilyLabel.CUPRATE, FamilyLabel.FESC)]
    kept.sort(key=lambda r: (-r.predicted_tc_kelvin, r.formula))
    counts = [(t, sum(1 for r in kept if r.predicted_tc_kelvin > t)) for t in spec.thresholds]
    return CandidateList(
        rows=kept,
        threshold_counts=counts,
        n_folds=len(fits),
        fold_seed=spec.model.seed,
        model_seeds=[f.model.seed for f in fits],
        n_excluded=len(rows) - len(kept),
    )


def write_candidates_csv(clist: CandidateList, path) -> None:
    write_csv(path, ["formula", "predicted_tc_K", "fold_id", "family"], (
        [r.formula, r.predicted_tc_kelvin, r.fold_id, r.family] for r in clist.rows
    ))


def write_threshold_counts_csv(clist: CandidateList, path) -> None:
    write_csv(path, ["threshold_K", "count"], clist.threshold_counts)


# ---------------------------------------------------------------------------
# temporally separated evaluation


def run_temporal_eval(
    sc_data: Sequence[MaterialRecord],
    cod_data: Sequence[MaterialRecord],
    eval_list: Sequence[MaterialRecord],
    spec: ExperimentSpec,
) -> list[EvalReport]:
    """Train on filtered (typically pre-cutoff) data, score a reference list.

    The training filter (which must carry a year bound — that is the whole
    point of the protocol) applies to both the measured records and the
    catalogue rows that become Tc = 0 negatives. Evaluation rows that
    overlap the training compositions are removed from the *evaluation*
    side: they were answered by memory, not prediction.

    With a REGRESSION head one model serves every threshold; with a
    BINARY_LOGIT head each threshold gets its own model trained on
    tc > threshold labels and scored at probability 0.5.
    """
    if spec.training_filter.year_before is None:
        raise ValueError("temporal evaluation needs training_filter.year_before")
    _check_scored(eval_list, "evaluation list")
    train_rows, (eval_rows,) = _hold_out(
        _training_sc(sc_data, spec), cod_data, spec, [eval_list], "temporal eval"
    )
    if not eval_rows:
        raise EmptyDatasetError("evaluation list is empty after overlap removal")

    encoded, tc, (train_idx, eval_idx) = _encode(spec, train_rows, eval_rows)
    head = spec.model.head
    trained_at = spec.thresholds if head is Head.BINARY_LOGIT else spec.thresholds[:1]
    fits = [_Fit(spec.model, spec.train, t, train_idx, (eval_idx,)) for t in trained_at]
    preds = [pred for pred, in _fit_all(encoded, tc, fits, jobs=1)]
    if head is Head.REGRESSION:
        preds *= len(spec.thresholds)
    true_tc = tc[eval_idx].tolist()
    return [_report(head, pred, true_tc, t) for pred, t in zip(preds, spec.thresholds)]


# ---------------------------------------------------------------------------
# family discovery


@dataclass(frozen=True)
class RunReport:
    run_index: int
    model_seed: int
    shuffle_seed: int
    n_positive: int  # test-family rows predicted above 0 K
    eval_report: EvalReport | None  # reference-list check, when a list was given
    valid: bool | None  # precision strictly above baseline; None when unchecked


@dataclass
class DiscoveryResult:
    family: FamilyLabel
    histogram: Histogram
    runs: list[RunReport]
    n_test: int


def run_family_discovery(
    sc_data: Sequence[MaterialRecord],
    cod_data: Sequence[MaterialRecord],
    spec: ExperimentSpec,
    *,
    eval_list: Sequence[MaterialRecord] | None = None,
    jobs: int = 1,
) -> DiscoveryResult:
    """Hold out one whole family (spec.test_set) and retrain spec.repeats
    times, counting per run how many held-out materials come out above 0 K.

    Run k derives its seeds as model.seed + k and shuffle_seed + k, so the
    ensemble varies exactly where retraining would: initial weights and
    input order. A REGRESSION model counts a material when it lands above
    0 K; a BINARY_LOGIT model (trained on tc > lowest threshold) when its
    probability clears 0.5. When a reference list is supplied, each run
    also predicts it and is flagged invalid if its precision at the lowest
    configured threshold fails to beat always-guessing-positive. Reference
    rows that match a training row are dropped from that check, as
    `run_temporal_eval` drops them from its list, and the list is held to
    the same rule: an empty list, or one that leaves no row to score, is an
    EmptyDatasetError, and a row without a composition or a Tc a ValueError,
    never a silently skipped check.
    """
    target = spec.test_set
    if target is None:
        raise ValueError("family discovery needs spec.test_set")
    if eval_list is not None:
        _check_scored(eval_list, "reference list")
    test_rows = [
        r
        for r in _trainable(sc_data)
        if classify_family(r.composition) is target
    ]
    if not test_rows:
        raise EmptyDatasetError(f"no {target.name} rows to hold out")
    sc_train = _training_sc(sc_data, spec)
    leaked = [r for r in sc_train if classify_family(r.composition) is target]
    if leaked:
        # A family exclusion rule or a year bound predating the family must
        # have kept these out; a filter that leaves any in defeats the run.
        raise ValueError(
            f"training data still holds {len(leaked)} {target.name} row(s) "
            f"after filtering, e.g. {leaked[0].raw_formula!r}"
        )
    train_rows, (test_rows, eval_rows) = _hold_out(
        sc_train, cod_data, spec, [test_rows, eval_list or []],
        f"{target.name} discovery",
    )
    if not test_rows:
        raise EmptyDatasetError("held-out family fully overlaps training data")
    if eval_list is not None and not eval_rows:
        raise EmptyDatasetError("reference list is empty after overlap removal")

    encoded, tc, (train_idx, test_idx, eval_idx) = _encode(spec, train_rows, test_rows, eval_rows)
    check_t = spec.thresholds[0]
    fits = [
        _Fit(
            dataclasses.replace(spec.model, seed=spec.model.seed + k),
            dataclasses.replace(spec.train, shuffle_seed=spec.train.shuffle_seed + k),
            check_t, train_idx, (test_idx, eval_idx) if eval_rows else (test_idx,),
        )
        for k in range(spec.repeats)
    ]
    cut = 0.5 if spec.model.head is Head.BINARY_LOGIT else 0.0
    eval_tc = tc[eval_idx].tolist()
    runs = []
    for k, (fit, preds) in enumerate(zip(fits, _fit_all(encoded, tc, fits, jobs))):
        report = valid = None
        if eval_rows:
            report = _report(spec.model.head, preds[1], eval_tc, check_t)
            valid = report.precision is not None and report.precision > report.baseline_precision
        runs.append(RunReport(
            run_index=k, model_seed=fit.model.seed, shuffle_seed=fit.train.shuffle_seed,
            n_positive=int((preds[0] > cut).sum()), eval_report=report, valid=valid,
        ))
    hist = positive_count_histogram([r.n_positive for r in runs])
    return DiscoveryResult(family=target, histogram=hist, runs=runs, n_test=len(test_rows))


def write_runs_csv(result: DiscoveryResult, path) -> None:
    header = ["run_index", "model_seed", "shuffle_seed", "n_positive", "precision",
              "baseline_precision", "valid"]
    write_csv(path, header, (
        [r.run_index, r.model_seed, r.shuffle_seed, r.n_positive,
         None if r.eval_report is None else r.eval_report.precision,
         None if r.eval_report is None else r.eval_report.baseline_precision, r.valid]
        for r in result.runs
    ))
