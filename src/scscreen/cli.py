"""The `scscreen` command line.

Every file-producing subcommand works the same way: it creates the output
directory, writes `manifest.json` there *first* (command echo, seeds,
input fingerprints, library versions), then computes and writes result
files next to it, and `main` ends the manifest as "ok", or as "failed"
with the exit code and the error. `encode`, `dataset-build`, `train`,
`evaluate`, `screen`, `discover` and `baseline` all start through `_start`,
which also reads the spec and the input tables; each of `inputs` counts a
table's rows and flagged rows as ingested and its records cleaned as read,
before any training filter (for `--features`: rows read, rows not yet
filled, filled rows). Each result path comes from `Manifest.output`,
so the finished manifest lists exactly the files the run wrote. Reruns with
the same inputs and seeds reproduce result files byte for byte; wall-clock
timestamps live only in the manifest.

Exit codes: 0 success, 1 usage error, 2 data/config error (any ValueError
or OSError), 3 numerical divergence. `--config`, `--seed`, `--out`, and `--jobs` can also be set
via the environment as SCSCREEN_CONFIG / SCSCREEN_SEED / SCSCREEN_OUT /
SCSCREEN_JOBS (a flag on the command line wins).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .baseline import (
    aggregate_features_batch,
    load_element_features,
    predict_forest,
    train_forest,
    write_feature_template,
)
from .dataset import (
    Source,
    dataset_fingerprint,
    clean_catalogue,
    clean_sc,
    garbage_in,
    ingest_csv,
    sorted_sha256,
    write_records_csv,
)
from .formula import parse_composition
from .metrics import (
    confusion_counts,
    report_table_text,
    write_histogram_csv,
    write_reports_csv,
)
from .nn import DivergenceDetectedError, config_echo, save_checkpoint, train
from .ptable import Block, N_COLS, N_ROWS, encode_ptable
from .screen import (
    load_experiment_spec,
    run_candidate_screen,
    run_family_discovery,
    run_temporal_eval,
    write_candidates_csv,
    write_runs_csv,
    write_threshold_counts_csv,
)

ENV_PREFIX = "SCSCREEN_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this command reserves 2 for data
    errors, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _env_int(name: str, parse=int) -> int | None:
    """The SCSCREEN_<name> value read by `parse`, or None if unset; a bad
    value raises a ValueError that names the variable."""
    raw = _env(name)
    if raw is None:
        return None
    try:
        return parse(raw)
    except (ValueError, argparse.ArgumentTypeError) as err:
        raise ValueError(f"{ENV_PREFIX}{name}: {err}") from None


def _checked(parse, ok, want: str):
    """An argparse type: `parse(text)` if that succeeds and passes `ok`,
    else an error that says what was wanted."""
    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"need {want}, got {text!r}")
        return value
    return check


_at_least_one = _checked(int, lambda v: v >= 1, "a whole number of at least 1")
_non_negative = _checked(int, lambda v: v >= 0, "a whole number of at least 0")
_open_fraction = _checked(float, lambda v: 0.0 < v < 1.0, "a number strictly between 0 and 1")
_finite_non_negative = _checked(float, lambda v: 0.0 <= v < math.inf,
                                "a finite number of at least 0")


# ---------------------------------------------------------------------------
# manifest


class Manifest:
    """Run record written before any result file (and rewritten as the run
    learns more), so a failed run still leaves its trace on disk. Kept as
    `args.manifest`, where `main` finishes it."""

    def __init__(self, args: argparse.Namespace):
        os.makedirs(args.out, exist_ok=True)
        self.out_dir = args.out
        self.path = os.path.join(args.out, "manifest.json")
        self.outputs: list[str] = []
        echo = {k: v for k, v in vars(args).items() if k != "func"}
        self.data = {
            "command": args.subcommand,
            "invocation": echo,
            "status": "started",
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "versions": {
                "scscreen": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            "inputs": {},
            "outputs": [],
        }
        self.flush()
        args.manifest = self

    def flush(self) -> None:
        """Write to a temporary file beside the manifest, then rename it over
        the manifest, so a crash mid-write leaves the previous one whole."""
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.data, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, self.path)

    def output(self, name: str) -> str:
        """Record `name` as a result file of this run; return its path."""
        self.outputs.append(name)
        return os.path.join(self.out_dir, name)

    def finish(self, status: str = "ok", **fields) -> None:
        self.data.update(fields, outputs=sorted(self.outputs), status=status)
        self.flush()


# a loader returns a table's row and flagged counts as read, the table as
# cleaned, and its fingerprint
def _load_records(path, source: Source, clean):
    report = ingest_csv(path, source)
    n_rows, n_flagged, rows = report.n_rows, report.n_flagged, clean(report.records)
    del report  # the raw rows are freed before fingerprinting
    return n_rows, n_flagged, rows, dataset_fingerprint(rows)


def _load_features(path):
    n_rows, n_unfilled, table = load_element_features(path)
    lines = ("\x1f".join([symbol, *map(repr, vec.tolist())]) for symbol, vec in table.items())
    return n_rows, n_unfilled, table, sorted_sha256(lines)


_LOADERS = {
    "sc": lambda path: _load_records(path, Source.SUPERCON, clean_sc),
    "data": lambda path: _load_records(path, Source.SUPERCON, clean_sc),
    "cod": lambda path: _load_records(path, Source.COD, clean_catalogue),
    "eval": lambda path: _load_records(path, Source.EVAL_LIST, list),
    "features": _load_features,
}


def _start(args, *names):
    """Shared start of `encode`, `dataset-build`, `train`, `evaluate`,
    `screen`, `discover` and `baseline`: output directory and manifest; for
    a command with `--config`, the spec with any `--seed` applied, echoed
    into the manifest; then the table behind each named flag, cleaned as
    read (an unset flag gives None; an empty path is read, and fails, like
    any other), its counts and fingerprint recorded in the flushed manifest.

    Returns (manifest, spec or None, [one table per name])."""
    manifest = Manifest(args)
    spec = None
    if hasattr(args, "config"):
        spec = load_experiment_spec(args.config)
        if args.seed is not None:
            spec = dataclasses.replace(spec, model=dataclasses.replace(spec.model, seed=args.seed))
        manifest.data["config"] = config_echo(spec)
    tables = []
    for name in names:
        path, rows = getattr(args, name), None
        if path is not None:
            n_rows, n_flagged, rows, fingerprint = _LOADERS[name](path)
            manifest.data["inputs"][name] = {
                "path": str(path), "n_rows": n_rows, "n_flagged": n_flagged,
                "n_records": len(rows), "fingerprint": fingerprint,
            }
        tables.append(rows)
    manifest.flush()
    return manifest, spec, tables


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(args) -> None:
    comp = parse_composition(args.formula)
    if args.json:
        print(json.dumps({el: frac for el, frac in comp.items()}))
    else:
        print(" ".join(f"{el}:{frac:.9g}" for el, frac in comp.items()))


def _cmd_encode(args) -> None:
    manifest, _, _ = _start(args)
    tensor = encode_ptable(parse_composition(args.formula))
    path = manifest.output("tensor.csv")
    with open(path, "w") as f:
        f.write("channel,row,col,value\n")
        for block in Block:
            for row in range(N_ROWS):
                for col in range(N_COLS):
                    value = tensor[block.value, row, col]
                    f.write(f"{block.name},{row + 1},{col + 1},{value:.9g}\n")
    print(path)


def _cmd_dataset_build(args) -> None:
    manifest, _, (sc, cod, eval_rows) = _start(args, "sc", "cod", "eval")
    inputs = manifest.data["inputs"]
    counts = "{n_rows} rows, {n_flagged} flagged, {n_records} after cleaning"
    write_records_csv(sc, manifest.output("sc_clean.csv"))
    print(f"sc: {counts.format_map(inputs['sc'])}")
    if cod is not None:
        write_records_csv(cod, manifest.output("catalogue_clean.csv"))
        print(f"catalogue: {counts.format_map(inputs['cod'])}")
    if eval_rows is not None:
        write_records_csv(eval_rows, manifest.output("eval_clean.csv"))
        print(f"eval: {len(eval_rows)} rows")


def _cmd_train(args) -> None:
    manifest, spec, (rows,) = _start(args, "data")
    rows = spec.training_filter.apply(rows)
    samples = [(r.composition, r.tc_kelvin) for r in rows]
    params, trace = train(samples, spec.model, spec.train)
    save_checkpoint(params, manifest.output("model.npz"))
    with open(manifest.output("trace.csv"), "w") as f:
        f.write("epoch,mean_loss\n")
        for epoch, loss in enumerate(trace):
            f.write(f"{epoch},{loss:.9g}\n")
    final = f"{trace[-1]:.9g}" if trace else "n/a"
    print(f"trained on {len(samples)} samples for {len(trace)} epochs, final loss {final}")


def _cmd_evaluate(args) -> None:
    manifest, spec, (sc, cod, eval_rows) = _start(args, "sc", "cod", "eval")
    reports = run_temporal_eval(sc, cod, eval_rows, spec)
    write_reports_csv(reports, manifest.output("reports.csv"))
    print(report_table_text(reports))


def _cmd_screen(args) -> None:
    manifest, spec, (sc, cod) = _start(args, "sc", "cod")
    result = run_candidate_screen(sc, cod, spec, jobs=args.jobs)
    write_candidates_csv(result, manifest.output("candidates.csv"))
    write_threshold_counts_csv(result, manifest.output("threshold_counts.csv"))
    print(
        f"screened {len(result.rows) + result.n_excluded} materials in "
        f"{result.n_folds} folds ({result.n_excluded} known-family rows dropped)"
    )
    for threshold, count in result.threshold_counts:
        print(f"  predicted above {threshold:g} K: {count}")


def _cmd_discover(args) -> None:
    manifest, spec, (sc, cod, eval_rows) = _start(args, "sc", "cod", "eval")
    result = run_family_discovery(sc, cod, spec, eval_list=eval_rows, jobs=args.jobs)
    write_runs_csv(result, manifest.output("runs.csv"))
    write_histogram_csv(result.histogram, manifest.output("histogram.csv"))
    positives = [r.n_positive for r in result.runs]
    print(
        f"{result.family.name}: {len(result.runs)} runs over {result.n_test} "
        f"held-out materials, predicted-positive counts "
        f"min {min(positives)} / max {max(positives)}"
    )


def _cmd_baseline(args) -> None:
    if args.template:
        write_feature_template(args.template)
        print(args.template)
        return
    for name in ("sc", "cod", "features"):
        if getattr(args, name) is None:
            raise _UsageError(f"--{name} is required (unless --template is given)")
    manifest, _, (sc, cod, table) = _start(args, "sc", "cod", "features")
    rows = sc + garbage_in(cod, sc)
    if not rows:
        raise ValueError(f"--sc {args.sc} and --cod {args.cod} leave no usable rows after cleaning")
    labels = np.array([1 if r.tc_kelvin > args.threshold else 0 for r in rows], dtype=np.int64)
    rng = np.random.default_rng(args.seed)
    perm = rng.permutation(len(rows))
    n_test = max(1, int(round(len(rows) * args.test_fraction)))
    test_idx, fit_idx = perm[:n_test], perm[n_test:]
    # one feature-major matrix, fit rows then test rows: both are slices of
    # it, and the forest reads its fit slice in place
    order = np.concatenate([fit_idx, test_idx])
    features = aggregate_features_batch([rows[i].composition for i in order], table)
    n_fit = len(fit_idx)
    if labels[fit_idx].sum() in (0, n_fit):
        raise ValueError(
            f"--test-fraction {args.test_fraction:g} leaves {n_fit} training "
            f"and {n_test} test rows; at --threshold {args.threshold:g} the forest "
            f"needs training rows of both classes"
        )
    model = train_forest(
        features[:n_fit], labels[fit_idx], n_trees=args.trees, seed=args.seed, jobs=args.jobs
    )
    pred, _ = predict_forest(model, features[n_fit:])
    truth = labels[test_idx] == 1
    report = confusion_counts(pred == 1, truth, args.threshold, float(truth.mean()))
    write_reports_csv([report], manifest.output("baseline_report.csv"))
    print(report_table_text([report], labels=[f"forest @ {args.threshold:g} K"]))


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="scscreen", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"scscreen {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        return p

    def out_flag(p):
        p.add_argument("--out", default=_env("OUT") or ".", help="output directory")

    def seed_flag(p):
        # a negative override reaches the config's own check (exit 2, naming
        # the seed); a negative SCSCREEN_SEED is a usage error like any other
        p.add_argument("--seed", type=int, default=_env_int("SEED", _non_negative),
                       help="override the model seed from the config")

    def jobs_flag(p):
        p.add_argument("--jobs", type=_at_least_one, default=_env_int("JOBS", _at_least_one) or 1,
                       help="max concurrent workers")

    def config_flag(p):
        env = _env("CONFIG")
        p.add_argument("--config", default=env, required=env is None,
                       help="experiment JSON")

    p = add("parse", _cmd_parse, "normalize a chemical formula to molar fractions")
    p.add_argument("--formula", required=True)
    p.add_argument("--json", action="store_true", help="print a JSON object")

    p = add("encode", _cmd_encode, "write a formula's 4x7x32 grid encoding as CSV")
    p.add_argument("--formula", required=True)
    out_flag(p)

    p = add("dataset-build", _cmd_dataset_build, "ingest and clean raw CSVs")
    p.add_argument("--sc", required=True, help="measured superconductor CSV")
    p.add_argument("--cod", help="inorganic catalogue CSV")
    p.add_argument("--eval", help="reference evaluation CSV")
    out_flag(p)

    p = add("train", _cmd_train, "train one model on a records CSV")
    config_flag(p)
    p.add_argument("--data", required=True, help="training records CSV")
    seed_flag(p)
    out_flag(p)

    p = add("evaluate", _cmd_evaluate, "train on pre-cutoff data, score a reference list")
    config_flag(p)
    p.add_argument("--sc", required=True)
    p.add_argument("--cod", required=True)
    p.add_argument("--eval", required=True)
    seed_flag(p)
    out_flag(p)

    p = add("screen", _cmd_screen, "rank catalogue materials by predicted Tc")
    config_flag(p)
    p.add_argument("--sc", required=True)
    p.add_argument("--cod", required=True)
    seed_flag(p)
    out_flag(p)
    jobs_flag(p)

    p = add("discover", _cmd_discover, "hold out a family and count rediscoveries")
    config_flag(p)
    p.add_argument("--sc", required=True)
    p.add_argument("--cod", required=True)
    p.add_argument("--eval", help="reference list for per-run validity checks")
    seed_flag(p)
    out_flag(p)
    jobs_flag(p)

    p = add("baseline", _cmd_baseline, "element-statistics random-forest reference run")
    p.add_argument("--sc")
    p.add_argument("--cod")
    p.add_argument("--features", help="element feature table CSV")
    p.add_argument("--template", help="write a blank feature table here and exit")
    p.add_argument("--trees", type=_at_least_one, default=100)
    p.add_argument("--test-fraction", type=_open_fraction, default=0.1, dest="test_fraction")
    p.add_argument("--threshold", type=_finite_non_negative, default=0.0,
                   help="Tc above which a row counts as superconducting")
    p.add_argument("--seed", type=_non_negative, default=_env_int("SEED", _non_negative) or 0,
                   help="forest and split seed")
    out_flag(p)
    jobs_flag(p)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    except ValueError as err:  # malformed SCSCREEN_* value
        print(f"scscreen: bad environment override: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args.func(args)
        if hasattr(args, "manifest"):
            args.manifest.finish()
        return EXIT_OK
    except _UsageError as err:
        print(f"scscreen: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceDetectedError as err:
        print(f"scscreen: training diverged: {err}", file=sys.stderr)
        return _failed(args, EXIT_NUMERIC, err, epoch=err.epoch, step=err.step)
    except (OSError, ValueError) as err:
        print(f"scscreen: {err}", file=sys.stderr)
        return _failed(args, EXIT_DATA, err)


def _failed(args, code: int, err: Exception, **where) -> int:
    """Finish the run's manifest, if one was opened, as failed: the exit
    code, and the error's class and message (and `where` it happened)."""
    error = {"class": type(err).__name__, "message": str(err), **where}
    if hasattr(args, "manifest"):
        with contextlib.suppress(OSError):  # the output directory itself may be what failed
            args.manifest.finish("failed", exit_code=code, error=error)
    return code


if __name__ == "__main__":
    sys.exit(main())
