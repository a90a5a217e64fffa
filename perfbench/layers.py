"""Per-layer spans and metrics for a traced run.

`LayerTrace.install` wraps the program's public functions at the names
their callers look up; `op_metrics` folds one operation's spans and counts into the
per-layer metrics listed in BENCHMARK.json. Every metric is per operation
(the counts of one operation; the median over the traced operations for
times), except `formula.setup_*`, which cover the set-up phase.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc

import scscreen.cli
import scscreen.dataset
import scscreen.formula
import scscreen.nn
import scscreen.screen

from spans import Tracer, median_or_zero

K, CELLS = 3, 7 * 32  # 3x3 kernels over the program's fixed 7x32 grid


def row_flop(cfg) -> int:
    """Floating-point operations (multiply and add each count one) to train
    on one row: forward, weight gradient and input gradient GEMMs of every
    conv layer (the first layer has no input gradient), plus the dense and
    head layers. Computed from layer shapes, not measured."""
    flop = 0
    c_in = 4
    for layer in range(cfg.conv_layers):
        gemm = 2 * CELLS * K * K * c_in * cfg.channels_per_layer
        flop += gemm * (2 if layer == 0 else 3)
        c_in = cfg.channels_per_layer
    fan = c_in
    if cfg.dense_hidden:
        flop += 3 * 2 * c_in * cfg.dense_hidden
        fan = cfg.dense_hidden
    return flop + 3 * 2 * fan


class LayerTrace:
    """Installs the wrappers and keeps what the hooks measure beyond spans:
    epoch durations per operation and the tracemalloc peak of each predict
    call."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.epoch_times: dict[str, list[float]] = {}
        self._train_span = -1
        self._marks: list[float] = []

    # nn.train: chain an on_epoch callback that timestamps each epoch
    def train_prepare(self, tracer: Tracer, kwargs: dict) -> dict:
        user = kwargs.get("on_epoch")
        self._train_span = len(tracer.spans)  # the span about to open
        marks = self._marks = []

        def on_epoch(epoch, params, mean_loss):
            marks.append(tracer.clock())
            return bool(user(epoch, params, mean_loss)) if user is not None else False

        return dict(kwargs, on_epoch=on_epoch)

    def train_done(self, tracer: Tracer, args, kwargs, result) -> None:
        samples, model_cfg, train_cfg = args[:3]
        _params, trace = result
        n = len(samples)
        tracer.count("nn.train_calls")
        tracer.count("nn.train_steps", len(trace) * math.ceil(n / train_cfg.batch_size))
        tracer.count("nn.train_flop", len(trace) * n * row_flop(model_cfg))
        if trace:
            tracer.count("nn.fit_loss_sum", trace[-1])
        # the first epoch starts once train's own input encoding finishes
        first = tracer.spans[self._train_span].start
        for span in tracer.spans[self._train_span + 1 :]:
            if span.parent == self._train_span and span.name == "ptable.encode":
                first = span.end
        marks = [first, *self._marks]
        self.epoch_times.setdefault(tracer.op, []).extend(
            b - a for a, b in zip(marks, marks[1:])
        )

    def predict_prepare(self, tracer: Tracer, kwargs: dict) -> dict:
        tracemalloc.start()
        return kwargs

    def predict_done(self, tracer: Tracer, args, kwargs, result) -> None:
        tracer.count("nn.predict_rows", len(args[1]))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        counts = tracer.counts[tracer.op]
        counts["nn.predict_peak_mb"] = max(counts["nn.predict_peak_mb"], peak / 2**20)

    def install(self) -> None:
        """Wrap every traced public function at the names its callers use."""
        tracer = self.tracer
        cli, dataset, formula, nn, screen = (
            scscreen.cli, scscreen.dataset, scscreen.formula, scscreen.nn, scscreen.screen
        )
        for module in (formula, dataset, screen, cli):
            tracer.patch(module, "parse_composition", "formula.parse")
        tracer.patch(nn, "encode_ptable_batch", "ptable.encode",
                     on_return=lambda t, a, k, r: t.count("ptable.encode_rows", len(r)))
        tracer.patch(cli, "ingest_csv", "dataset.ingest",
                     on_return=lambda t, a, k, r: t.count("dataset.ingest_rows", r.n_rows))
        tracer.patch(cli, "clean_sc", "dataset.clean")
        tracer.patch(cli, "clean_catalogue", "dataset.clean")

        def overlap_done(t, args, kwargs, result):
            t.count("dataset.overlap_tested", len(args[0]))
            t.count("dataset.overlap_kept", len(result))

        for module in (screen, cli):
            tracer.patch(module, "garbage_in", "dataset.overlap", on_return=overlap_done)
            tracer.patch(module, "dataset_fingerprint", "dataset.fingerprint")
        for module in (nn, screen, cli):
            tracer.patch(module, "train", "nn.train",
                         prepare=self.train_prepare, on_return=self.train_done)
        for module in (nn, screen):
            tracer.patch(module, "predict", "nn.predict",
                         prepare=self.predict_prepare, on_return=self.predict_done)
        tracer.patch(cli, "main", "cli.main")
        tracer.patch(cli, "run_candidate_screen", "screen.run",
                     on_return=lambda t, a, k, r: t.count("screen.folds", r.n_folds))
        tracer.patch(cli, "write_candidates_csv", "cli.write_candidates")
        tracer.patch(cli, "write_threshold_counts_csv", "cli.write_thresholds")
        tracer.patch(cli, "write_reports_csv", "cli.write_reports")
        tracer.patch(cli, "aggregate_features_batch", "baseline.aggregate",
                     on_return=lambda t, a, k, r: t.count("baseline.aggregate_rows", len(r)))
        tracer.patch(cli, "train_forest", "baseline.forest_train",
                     on_return=lambda t, a, k, r: t.count(
                         "baseline.forest_nodes", sum(len(tree.feature) for tree in r.trees)))
        tracer.patch(cli, "predict_forest", "baseline.forest_predict")
        tracer.patch(cli, "confusion_counts", "metrics.confusion")
        tracer.patch(cli, "report_table_text", "metrics.table")

    def op_metrics(self, op: str) -> dict[str, float]:
        """One operation's per-layer numbers (times in seconds)."""
        return op_metrics(self.tracer, op, self.epoch_times.get(op, ()))


def op_metrics(tracer: Tracer, op: str, epoch_times=()) -> dict[str, float]:
    """One operation's per-layer numbers (times in seconds) from its spans,
    counts and epoch durations."""
    spans = tracer.per_op(op)
    counts = tracer.counts[op]

    def s(*names):
        return sum(spans[n]["s"] for n in names if n in spans)

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    tested = counts["dataset.overlap_tested"]
    train_s = s("nn.train")
    train_calls = counts["nn.train_calls"]
    return {
        "formula.parse_calls": calls("formula.parse"),
        "formula.parse_s": s("formula.parse"),
        "formula.parse_errors": spans["formula.parse"]["errors"] if "formula.parse" in spans else 0,
        "ptable.encode_rows": counts["ptable.encode_rows"],
        "ptable.encode_s": s("ptable.encode"),
        "dataset.ingest_rows": counts["dataset.ingest_rows"],
        "dataset.ingest_s": s("dataset.ingest"),
        "dataset.clean_s": s("dataset.clean"),
        "dataset.overlap_s": s("dataset.overlap"),
        "dataset.overlap_tested": tested,
        "dataset.overlap_kept_frac": counts["dataset.overlap_kept"] / tested if tested else 0.0,
        "dataset.fingerprint_s": s("dataset.fingerprint"),
        "nn.train_s": train_s,
        "nn.train_steps": counts["nn.train_steps"],
        "nn.epoch_s_p50": median_or_zero(epoch_times),
        "nn.fit_loss": counts["nn.fit_loss_sum"] / train_calls if train_calls else 0.0,
        "nn.step_gflop": (counts["nn.train_flop"] / counts["nn.train_steps"] / 1e9
                          if counts["nn.train_steps"] else 0.0),
        "nn.step_gflops": counts["nn.train_flop"] / train_s / 1e9 if train_s else 0.0,
        "nn.predict_s": s("nn.predict"),
        "nn.predict_rows": counts["nn.predict_rows"],
        "screen.run_s": s("screen.run"),
        "screen.folds": counts["screen.folds"],
        "screen.self_s": spans["screen.run"]["self_s"] if "screen.run" in spans else 0.0,
        "cli.main_s": s("cli.main"),
        "cli.self_s": spans["cli.main"]["self_s"] if "cli.main" in spans else 0.0,
        "cli.write_s": s("cli.write_candidates", "cli.write_thresholds", "cli.write_reports"),
        "baseline.aggregate_rows": counts["baseline.aggregate_rows"],
        "baseline.aggregate_s": s("baseline.aggregate"),
        "baseline.forest_train_s": s("baseline.forest_train"),
        "baseline.forest_nodes": counts["baseline.forest_nodes"],
        "baseline.forest_predict_s": s("baseline.forest_predict"),
        "metrics.s": s("metrics.confusion", "metrics.table", "cli.write_reports"),
    }


# metrics whose value must repeat exactly from one operation to the next
COUNTS = (
    "formula.parse_calls", "formula.parse_errors", "ptable.encode_rows",
    "dataset.ingest_rows", "dataset.overlap_tested", "dataset.overlap_kept_frac",
    "nn.train_steps", "nn.fit_loss", "nn.step_gflop", "nn.predict_rows", "screen.folds",
    "baseline.aggregate_rows", "baseline.forest_nodes",
)


def step_split(batch, targets, repeats: int = 5) -> dict[str, float]:
    """Public-function split of one default-config training step at batch
    32: forward, backward (which runs its own forward and no workspace
    pool) and one Adam update; medians over `repeats` calls, in ms."""
    nn = scscreen.nn
    params = nn.init_params(nn.ModelConfig())
    state = nn.init_adam(params)
    out: dict[str, list[float]] = {"forward": [], "backward": [], "adam": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        nn.forward(params, batch)
        t1 = time.perf_counter()
        grads = nn.backward(params, batch, targets, nn.Loss.SMOOTH_L1)
        t2 = time.perf_counter()
        nn.adam_step(params, grads, state, 1e-4)
        t3 = time.perf_counter()
        out["forward"].append(t1 - t0)
        out["backward"].append(t2 - t1)
        out["adam"].append(t3 - t2)
    return {
        "nn.forward_b32_ms": 1e3 * statistics.median(out["forward"]),
        "nn.backward_b32_ms": 1e3 * statistics.median(out["backward"]),
        "nn.adam_ms": 1e3 * statistics.median(out["adam"]),
    }
