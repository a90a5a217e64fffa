"""The `scscreen` command line.

Every file-producing subcommand works the same way: it creates the output
directory, writes `manifest.json` there *first* (command echo, seeds,
input fingerprints, library versions), then computes and writes result
files next to it. Each result path comes from `Manifest.output`, so the
finished manifest lists exactly the files the run wrote. Reruns with the
same inputs and seeds reproduce result files byte for byte; wall-clock
timestamps live only in the manifest.

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 numerical
divergence. `--config`, `--seed`, `--out`, and `--jobs` can also be set
via the environment as SCSCREEN_CONFIG / SCSCREEN_SEED / SCSCREEN_OUT /
SCSCREEN_JOBS (a flag on the command line wins).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .baseline import (
    MissingElementFeaturesError,
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
    write_records_csv,
)
from .formula import parse_composition
from .metrics import (
    confusion_counts,
    report_table_text,
    write_histogram_csv,
    write_reports_csv,
)
from .nn import DivergenceDetectedError, save_checkpoint, train
from .ptable import Block, N_COLS, N_ROWS, encode_ptable
from .screen import (
    LeakageError,
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


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a whole number of at least 1, got {text!r}")
    return value


def _open_fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"need a number strictly between 0 and 1, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# manifest


class Manifest:
    """Run record written before any result file (and rewritten as the run
    learns more), so a failed run still leaves its trace on disk."""

    def __init__(self, out_dir: str, command: str, args: argparse.Namespace):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "manifest.json")
        self.outputs: list[str] = []
        echo = {k: v for k, v in vars(args).items() if k != "func"}
        self.data = {
            "command": command,
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

    def add_input(self, name: str, path, records) -> None:
        self.data["inputs"][name] = {
            "path": str(path),
            "n_records": len(records),
            "fingerprint": dataset_fingerprint(records),
        }

    def set_config(self, echo: dict) -> None:
        self.data["config"] = echo

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

    def finish(self) -> None:
        self.data["outputs"] = sorted(self.outputs)
        self.data["status"] = "ok"
        self.flush()


def _load_spec(args):
    spec = load_experiment_spec(args.config)
    if getattr(args, "seed", None) is not None:
        spec = dataclasses.replace(
            spec, model=dataclasses.replace(spec.model, seed=args.seed)
        )
    return spec


def _load_sc(path):
    return clean_sc(ingest_csv(path, Source.SUPERCON).records)


def _load_cod(path):
    return clean_catalogue(ingest_csv(path, Source.COD).records)


def _load_eval(path):
    return ingest_csv(path, Source.EVAL_LIST).records


def _start_experiment(args, command: str):
    """Shared start of `evaluate`, `screen` and `discover`: output directory,
    manifest, spec, and the cleaned `--sc`/`--cod` tables (plus `--eval`
    when the subcommand has one), fingerprinted into the flushed manifest.

    Returns (manifest, spec, sc, cod, eval_rows); eval_rows is None without
    `--eval`."""
    manifest = Manifest(args.out, command, args)
    spec = _load_spec(args)
    manifest.set_config(spec.describe())
    sc = _load_sc(args.sc)
    cod = _load_cod(args.cod)
    manifest.add_input("sc", args.sc, sc)
    manifest.add_input("cod", args.cod, cod)
    eval_rows = None
    if getattr(args, "eval", None):
        eval_rows = _load_eval(args.eval)
        manifest.add_input("eval", args.eval, eval_rows)
    manifest.flush()
    return manifest, spec, sc, cod, eval_rows


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(args) -> int:
    comp = parse_composition(args.formula)
    if args.json:
        print(json.dumps({el: frac for el, frac in comp.items()}))
    else:
        print(" ".join(f"{el}:{frac:.9g}" for el, frac in comp.items()))
    return EXIT_OK


def _cmd_encode(args) -> int:
    manifest = Manifest(args.out, "encode", args)
    tensor = encode_ptable(parse_composition(args.formula))
    path = manifest.output("tensor.csv")
    with open(path, "w") as f:
        f.write("channel,row,col,value\n")
        for block in Block:
            for row in range(N_ROWS):
                for col in range(N_COLS):
                    value = tensor[block.value, row, col]
                    f.write(f"{block.name},{row + 1},{col + 1},{value:.9g}\n")
    manifest.finish()
    print(path)
    return EXIT_OK


def _cmd_dataset_build(args) -> int:
    manifest = Manifest(args.out, "dataset-build", args)

    report = ingest_csv(args.sc, Source.SUPERCON)
    sc = clean_sc(report.records)
    manifest.add_input("sc", args.sc, sc)
    write_records_csv(sc, manifest.output("sc_clean.csv"))
    print(
        f"sc: {report.n_rows} rows, {report.n_flagged} flagged, "
        f"{len(sc)} after cleaning"
    )

    if args.cod:
        report = ingest_csv(args.cod, Source.COD)
        cod = clean_catalogue(report.records)
        manifest.add_input("cod", args.cod, cod)
        write_records_csv(cod, manifest.output("catalogue_clean.csv"))
        print(
            f"catalogue: {report.n_rows} rows, {report.n_flagged} flagged, "
            f"{len(cod)} after cleaning"
        )
    if args.eval:
        rows = _load_eval(args.eval)
        manifest.add_input("eval", args.eval, rows)
        write_records_csv(rows, manifest.output("eval_clean.csv"))
        print(f"eval: {len(rows)} rows")

    manifest.finish()
    return EXIT_OK


def _cmd_train(args) -> int:
    manifest = Manifest(args.out, "train", args)
    spec = _load_spec(args)
    manifest.set_config(spec.describe())
    rows = spec.training_filter.apply(_load_sc(args.data))
    manifest.add_input("data", args.data, rows)
    manifest.flush()

    samples = [(r.composition, r.tc_kelvin) for r in rows]
    params, trace = train(samples, spec.model, spec.train)
    save_checkpoint(params, manifest.output("model.npz"))
    with open(manifest.output("trace.csv"), "w") as f:
        f.write("epoch,mean_loss\n")
        for epoch, loss in enumerate(trace):
            f.write(f"{epoch},{loss:.9g}\n")
    manifest.finish()
    final = f"{trace[-1]:.9g}" if trace else "n/a"
    print(f"trained on {len(samples)} samples for {len(trace)} epochs, final loss {final}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    manifest, spec, sc, cod, eval_rows = _start_experiment(args, "evaluate")
    reports = run_temporal_eval(sc, cod, eval_rows, spec)
    write_reports_csv(reports, manifest.output("reports.csv"))
    manifest.finish()
    print(report_table_text(reports))
    return EXIT_OK


def _cmd_screen(args) -> int:
    manifest, spec, sc, cod, _ = _start_experiment(args, "screen")
    result = run_candidate_screen(sc, cod, spec, jobs=args.jobs)
    write_candidates_csv(result, manifest.output("candidates.csv"))
    write_threshold_counts_csv(result, manifest.output("threshold_counts.csv"))
    manifest.finish()
    print(
        f"screened {len(result.rows) + result.n_excluded} materials in "
        f"{result.n_folds} folds ({result.n_excluded} known-family rows dropped)"
    )
    for threshold, count in result.threshold_counts:
        print(f"  predicted above {threshold:g} K: {count}")
    return EXIT_OK


def _cmd_discover(args) -> int:
    manifest, spec, sc, cod, eval_rows = _start_experiment(args, "discover")
    result = run_family_discovery(sc, cod, spec, eval_list=eval_rows, jobs=args.jobs)
    write_runs_csv(result, manifest.output("runs.csv"))
    write_histogram_csv(result.histogram, manifest.output("histogram.csv"))
    manifest.finish()
    positives = [r.n_positive for r in result.runs]
    print(
        f"{result.family.name}: {len(result.runs)} runs over {result.n_test} "
        f"held-out materials, predicted-positive counts "
        f"min {min(positives)} / max {max(positives)}"
    )
    return EXIT_OK


def _cmd_baseline(args) -> int:
    if args.template:
        write_feature_template(args.template)
        print(args.template)
        return EXIT_OK
    for name in ("sc", "cod", "features"):
        if getattr(args, name) is None:
            raise _UsageError(f"--{name} is required (unless --template is given)")
    manifest = Manifest(args.out, "baseline", args)
    sc = _load_sc(args.sc)
    cod = _load_cod(args.cod)
    manifest.add_input("sc", args.sc, sc)
    manifest.add_input("cod", args.cod, cod)
    manifest.flush()

    table = load_element_features(args.features)
    rows = sc + garbage_in(cod, sc)
    labels = np.array([1 if r.tc_kelvin > args.threshold else 0 for r in rows], dtype=np.int64)
    features = aggregate_features_batch([r.composition for r in rows], table)

    rng = np.random.default_rng(args.seed)
    perm = rng.permutation(len(rows))
    n_test = max(1, int(round(len(rows) * args.test_fraction)))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    if labels[train_idx].sum() in (0, len(train_idx)):
        raise ValueError(
            f"--test-fraction {args.test_fraction:g} leaves {len(train_idx)} training "
            f"and {n_test} test rows; the forest needs training rows of both classes"
        )
    model = train_forest(
        features[train_idx], labels[train_idx], n_trees=args.trees, seed=args.seed, jobs=args.jobs
    )
    pred, _ = predict_forest(model, features[test_idx])
    truth = labels[test_idx] == 1
    report = confusion_counts(pred == 1, truth, args.threshold, float(truth.mean()))
    write_reports_csv([report], manifest.output("baseline_report.csv"))
    manifest.finish()
    print(report_table_text([report], labels=[f"forest @ {args.threshold:g} K"]))
    return EXIT_OK


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

    def seed_flag(p, help_text="override the model seed from the config"):
        p.add_argument("--seed", type=int, default=_env_int("SEED"), help=help_text)

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
    p.add_argument("--threshold", type=float, default=0.0,
                   help="Tc above which a row counts as superconducting")
    seed_flag(p, help_text="forest and split seed")
    p.set_defaults(seed=_env_int("SEED") or 0)
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
        return args.func(args)
    except _UsageError as err:
        print(f"scscreen: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceDetectedError as err:
        print(f"scscreen: training diverged: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError, LeakageError, MissingElementFeaturesError) as err:
        print(f"scscreen: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
