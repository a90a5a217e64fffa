"""The four benchmark workloads, each with the reason it exists.

A workload turns its generated input files into program inputs in
`build()` (part of set-up, using the program's own functions), runs one
timed operation in `run()`, and checks that operation's output in
`check()`, outside the timed region. `check()` raises `CheckFailed` on a
wrong output and otherwise returns a fingerprint: a dict of name -> value
that must read the same for every operation of a run and for every run on
the same seed, program source and environment.

All calls into the program go through module attributes (`nn.train`, not a
name imported here), so the wrappers `layers.LayerTrace.install` puts in place see
them when a run is traced.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil

import numpy as np

from scscreen import cli, formula, nn


class CheckFailed(Exception):
    """An operation finished but its output was wrong."""


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class Workload:
    name = ""  # as in BENCHMARK.json

    def __init__(self, inputs: str, expect: dict):
        self.inputs = inputs
        self.expect = expect

    def path(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def build(self) -> None:
        """Set-up work beyond importing: make the program's inputs."""

    def run(self, i: int):
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed operation of the same kind on a small input, so that
        lazy imports, allocator and BLAS set-up happen before timing; it
        raises when the operation fails."""
        raise NotImplementedError

    def rows(self, out) -> int:
        """Rows of work the operation completed (the rows_per_s numerator)."""
        raise NotImplementedError

    def check(self, out) -> dict:
        raise NotImplementedError

    def discard(self, out) -> None:
        """Drop what the operation left on disk (untimed)."""


class FitDefault(Workload):
    """nn.train at the default ModelConfig()/TrainConfig() (9x32 conv,
    dense 64, batch 32, lr 1e-4), one epoch per operation over a 1024-row
    fraction-rule corpus (32 steps). A row is one training row per epoch.

    Why: this is the step every full-scale screen repeats. The nn training
    kernels do nearly all the work; formula runs only in set-up, and
    dataset and cli do nothing.
    """

    name = "fit-default"

    def build(self):
        rows = read_csv(self.path("corpus.csv"))
        self.samples = [(formula.parse_composition(r["formula"]), float(r["tc_K"])) for r in rows]
        require(len(self.samples) == self.expect["rows"], "corpus size")
        self.model_cfg = nn.ModelConfig()
        self.train_cfg = nn.TrainConfig(epochs=1)

    def run(self, i):
        _params, trace = nn.train(self.samples, self.model_cfg, self.train_cfg)
        return trace

    def warm_up(self):
        _params, trace = nn.train(self.samples[:64], self.model_cfg, self.train_cfg)
        self.check(trace)

    def rows(self, trace):
        return len(self.samples) * len(trace)

    def check(self, trace):
        require(len(trace) == 1, f"expected one epoch, got {len(trace)}")
        require(math.isfinite(trace[-1]), f"non-finite loss {trace[-1]!r}")
        return {"fit_loss": repr(trace[-1])}


class InferCatalogue(Workload):
    """nn.predict at the default config on init_params(ModelConfig()), over
    four seeded catalogue slices of 500 compositions, one slice per
    operation. A row is one predicted composition.

    Why: forward-only use of the same nn layer as fit-default, the reads
    beside its writes. Inference memory grows with the call size, so
    bounded-memory inference shows here in peak_rss_mb; a backward-only
    change must show nothing. Slices are 500 rows rather than 1,000 to keep
    peak memory near 1.1 GB on a shared machine.
    """

    name = "infer-catalogue"

    def build(self):
        comps = [formula.parse_composition(r["formula"]) for r in read_csv(self.path("catalogue.csv"))]
        size = self.expect["slice_rows"]
        self.slices = [comps[k : k + size] for k in range(0, len(comps), size)]
        require(len(self.slices) == self.expect["slices"], "slice count")
        self.params = nn.init_params(nn.ModelConfig())

    def run(self, i):
        k = i % len(self.slices)
        return k, nn.predict(self.params, self.slices[k])

    def warm_up(self):
        # a full slice: the first call of this size pays for fresh pages,
        # about twice the time of later calls
        self.check(self.run(0))

    def rows(self, out):
        return len(out[1])

    def check(self, out):
        k, preds = out
        require(preds.shape == (len(self.slices[k]),), f"prediction shape {preds.shape}")
        require(bool(np.all(np.isfinite(preds))), "non-finite prediction")
        require(bool(np.all(preds >= 0.0)), "negative prediction")
        alone = nn.predict(self.params, self.slices[k][:32])
        require(np.allclose(alone, preds[:32], rtol=1e-6), "32-row slice differs from the full call")
        return {f"slice{k}": hashlib.sha256(preds.tobytes()).hexdigest()}


class _CliWorkload(Workload):
    def command(self, inputs: str, out: str) -> list[str]:
        raise NotImplementedError

    def run(self, i):
        out = self.path(f"out-{i}")
        shutil.rmtree(out, ignore_errors=True)
        return cli.main(self.command(self.inputs, out)), out

    def warm_up(self):
        out = self.path("out-warm")
        code = cli.main(self.command(self.path("warm"), out))
        self.discard((code, out))
        require(code == 0, f"warm-up exit code {code}")

    def discard(self, out):
        shutil.rmtree(out[1], ignore_errors=True)

    def check_manifest(self, out):
        code, path = out
        require(code == 0, f"exit code {code}")
        with open(os.path.join(path, "manifest.json")) as f:
            status = json.load(f).get("status")
        require(status == "ok", f"manifest status {status!r}")


class ScreenCli(_CliWorkload):
    """`scscreen screen` on generated raw CSVs: a dirty 30,000-row
    catalogue (duplicates, organics, unparseable and variable formulas,
    cuprate/FeSC rows, overlap with the SC table, planted Nb rows) and a
    300-row SC table, with a small model (1 conv x 4 channels, no dense
    layer, LINEAR transform, one epoch) over 3 folds. A row is one raw
    catalogue row screened.

    Why: the user-facing command end to end. Its GEMMs are too small for
    default-config kernel gains to show, so it is the little workload for
    nn; it is the main workload for formula, dataset, screen and cli.
    """

    name = "screen-cli"

    def command(self, inputs, out):
        p = lambda name: os.path.join(inputs, name)  # noqa: E731
        return ["screen", "--config", p("screen.json"), "--sc", p("sc.csv"),
                "--cod", p("cod.csv"), "--out", out, "--jobs", "1"]

    def rows(self, out):
        return self.expect["cod_rows"]

    def check(self, out):
        self.check_manifest(out)
        path = os.path.join(out[1], "candidates.csv")
        rows = read_csv(path)
        require(len(rows) == self.expect["kept"],
                f"{len(rows)} candidates, expected {self.expect['kept']}")
        require(len({r["formula"] for r in rows}) == len(rows), "a composition appears twice")
        tcs = [float(r["predicted_tc_K"]) for r in rows]
        require(all(a >= b for a, b in zip(tcs, tcs[1:])), "not sorted by descending Tc")
        require(not {r["family"] for r in rows} & {"cuprate", "fesc"}, "cuprate/FeSC row kept")
        return {"candidates.csv": sha256_file(path)}


class ForestCli(_CliWorkload):
    """`scscreen baseline` on a raw world of 6,000 catalogue rows and a
    300-row SC table, a seeded 118-element feature table, --trees 8,
    --jobs 1. A row is one labelled row the forest is trained and
    evaluated on.

    Why: the only workload that exercises baseline and metrics; nn does
    nothing here, so it is the control for every nn change.
    """

    name = "forest-cli"

    def command(self, inputs, out):
        p = lambda name: os.path.join(inputs, name)  # noqa: E731
        return ["baseline", "--sc", p("sc.csv"), "--cod", p("cod.csv"),
                "--features", p("features.csv"), "--trees", "8", "--jobs", "1", "--out", out]

    def rows(self, out):
        return self.expect["labelled"]

    def check(self, out):
        self.check_manifest(out)
        path = os.path.join(out[1], "baseline_report.csv")
        (report,) = read_csv(path)
        n = sum(int(report[k]) for k in ("tp", "fp", "tn", "fn"))
        expected = max(1, int(round(self.expect["labelled"] * 0.1)))
        require(n == expected, f"report covers {n} rows, expected {expected}")
        return {"baseline_report.csv": sha256_file(path)}


WORKLOADS = {w.name: w for w in (FitDefault, InferCatalogue, ScreenCli, ForestCli)}
