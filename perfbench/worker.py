"""One measured run of one workload, in a fresh process.

run.py starts this script with the BLAS thread variables already set and
`src/` on PYTHONPATH, and reads the JSON it writes to `--result`:

    python3 perfbench/worker.py --workload fit-default --inputs DIR \
        --t0 <time.monotonic() at spawn> --seconds 10 --trace 0 --result OUT.json

Set-up runs from process start to the first timed operation: importing
scscreen (and NumPy/BLAS), `Workload.build()` and one untimed warm-up
operation. The timed loop then runs operations back to back (a closed loop
with one caller) until `--seconds` have passed. With `--setup-only` the
process stops after set-up. With `--trace 1` the time is split: half
untraced, then half with the layer wrappers installed, so the difference
gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scscreen
from scscreen import nn, ptable

import layers
from spans import Tracer
from workloads import WORKLOADS, CheckFailed

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def environment() -> dict:
    """What the numbers depend on besides the code; runs whose records
    differ are not compared."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    try:
        with open("/proc/meminfo") as f:
            env["ram_mb"] = int(f.readline().split()[1]) // 1024
    except (OSError, ValueError, IndexError):
        env["ram_mb"] = None
    env["llc"] = last_level_cache()
    return env


def last_level_cache() -> str | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as f:
                level = int(f.read())
            with open(os.path.join(base, entry, "size")) as f:
                size = f.read().strip()
            if best is None or level > best[0]:
                best = (level, size)
    except (OSError, ValueError):
        return None
    return None if best is None else f"L{best[0]} {best[1]}"


class Runner:
    """Runs operations, checks them outside the timed region and keeps the
    tallies: per-operation time and rows, failures, and the fingerprint all
    operations must agree on."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.next_index = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.fingerprint: dict = {}

    def one(self, traced: bool = False):
        """Run, time and check one operation; return (seconds, rows) or
        None when it raised."""
        i = self.next_index
        self.next_index += 1
        if traced:
            self.tracer.op = f"op{i}"
            self.tracer.enabled = True
        t = time.perf_counter()
        try:
            out = self.wl.run(i)
        except Exception as err:  # any failure of the program counts
            self.record_failure(f"op {i}: {type(err).__name__}: {err}")
            return None
        finally:
            if traced:
                self.tracer.enabled = False
        dt = time.perf_counter() - t
        try:
            fp = self.wl.check(out)
            for key, value in fp.items():
                if self.fingerprint.setdefault(key, value) != value:
                    raise CheckFailed(f"{key} differs from the first operation's")
        except (CheckFailed, OSError, ValueError, KeyError) as err:
            self.record_failure(f"op {i}: check: {err}")
        finally:
            self.wl.discard(out)
        return dt, self.wl.rows(out)

    def record_failure(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def loop(self, seconds: float, traced: bool = False) -> list[tuple[float, int]]:
        """Timed operations until `seconds` have passed (at least one), as
        (seconds, rows)."""
        done = []
        deadline = time.perf_counter() + seconds
        while True:
            self.attempted += 1
            result = self.one(traced)
            if result is not None:
                done.append(result)
            if time.perf_counter() >= deadline:
                return done


def rate(done) -> float:
    """Median over operations of rows per second."""
    return statistics.median(rows / dt for dt, rows in done) if done else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(args.inputs, "expect.json")) as f:
        expect = json.load(f)
    wl = WORKLOADS[args.workload](args.inputs, expect)
    result: dict = {"workload": args.workload, "scscreen": scscreen.__file__}

    tracer = layer_trace = None
    if args.trace:
        tracer = Tracer()
        layer_trace = layers.LayerTrace(tracer)
        layer_trace.install()
    runner = Runner(wl, tracer)
    wl.build()
    if tracer is not None:
        tracer.unpatch()
        tracer.enabled = False
    runner.attempted += 1
    try:
        wl.warm_up()
    except Exception as err:  # any failure of the program counts
        runner.record_failure(f"warm-up: {type(err).__name__}: {err}")
    result["setup_s"] = time.monotonic() - args.t0
    if not args.setup_only:
        if args.trace:
            plain = runner.loop(args.seconds / 2)
            layer_trace.install()
            traced = runner.loop(args.seconds / 2, traced=True)
            tracer.unpatch()
            result["per_layer"] = per_layer(wl, layer_trace, plain, traced, runner)
            tracer.write(os.path.join(args.inputs, "spans.jsonl"))
            result["spans"] = len(tracer.spans)
        else:
            done = runner.loop(args.seconds)
            result["rows_per_s"] = rate(done)
            result["operations"] = len(done)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        fingerprint=runner.fingerprint,
        env=environment(),
    )
    with open(args.result, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return 0


def per_layer(wl, layer_trace, plain, traced, runner) -> dict:
    """Per-layer metrics of the traced operations: times are medians over
    them, counts must repeat exactly from one operation to the next."""
    tracer = layer_trace.tracer
    ops = [op for op in tracer.ops() if op.startswith("op")]
    rows = [layer_trace.op_metrics(op) for op in ops]
    out = {}
    for name in rows[0]:
        values = [r[name] for r in rows]
        if name in layers.COUNTS:
            if any(v != values[0] for v in values):
                runner.record_failure(f"count {name} differs between operations: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    peaks = [tracer.counts[op]["nn.predict_peak_mb"] for op in ops]
    out["nn.predict_peak_mb"] = max(peaks)
    setup = layer_trace.op_metrics("setup")
    out["formula.setup_parse_calls"] = setup["formula.parse_calls"]
    out["formula.setup_parse_s"] = setup["formula.parse_s"]
    if wl.name in ("fit-default", "infer-catalogue"):
        out.update(layers.step_split(*step_batch(wl)))
    else:
        out.update({"nn.forward_b32_ms": 0.0, "nn.backward_b32_ms": 0.0, "nn.adam_ms": 0.0})
    plain_rate, traced_rate = rate(plain), rate(traced)
    out["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate if plain_rate else 0.0
    return out


def step_batch(wl):
    """The first 32 compositions of the workload's inputs as a (32, 4, 7,
    32) batch, with transformed-Tc targets (zeros where none are known)."""
    if wl.name == "fit-default":
        comps = [c for c, _ in wl.samples[:32]]
        tc = np.array([t for _, t in wl.samples[:32]])
    else:
        comps = wl.slices[0][:32]
        tc = np.zeros(32)
    batch = ptable.encode_ptable_batch(comps)
    return batch, nn.tc_transform(tc, nn.TcTransform.LOG_SHIFT_0P1)


if __name__ == "__main__":
    sys.exit(main())
