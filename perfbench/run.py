"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload fit-default --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout of the repository; it benchmarks the
package in `src/` there and reads and writes nothing outside the checkout
(scratch files go to `.perfbench_work/`). It

1. writes the workload's inputs from `--seed` (generate.py),
2. starts a fresh worker process (worker.py) with the BLAS thread count
   set, which sets up, warms up and then runs the workload for `--seconds`,
   checking every operation's output,
3. with `--trace 0`, starts two more set-up-only workers and reports the
   median set-up time of the three,
4. checks that the outputs match earlier runs on the same seed, program
   source and environment (`.perfbench_work/reference.json`),
5. prints every metric by name with its unit, then, as the last line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.

`--trace 0` reports the end-to-end metrics and `--trace 1` the per-layer
ones (see README.md). The whole run stops within 180 seconds; without
`src/scscreen` to benchmark, it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import generate

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fit-default", "infer-catalogue", "screen-cli", "forest-cli")
SETUP_REPEATS = 3  # set-up time is the median over this many fresh processes
TIME_LIMIT_S = 170.0

# metric name: (unit, which direction is better); BENCHMARK.json lists the same
END_TO_END = {
    "rows_per_s": ("rows/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
PER_LAYER = {
    "formula.parse_calls": ("count", "lower"),
    "formula.parse_s": ("s", "lower"),
    "formula.parse_errors": ("count", "lower"),
    "formula.setup_parse_calls": ("count", "lower"),
    "formula.setup_parse_s": ("s", "lower"),
    "ptable.encode_rows": ("count", "lower"),
    "ptable.encode_s": ("s", "lower"),
    "dataset.ingest_rows": ("count", "lower"),
    "dataset.ingest_s": ("s", "lower"),
    "dataset.clean_s": ("s", "lower"),
    "dataset.overlap_s": ("s", "lower"),
    "dataset.overlap_tested": ("count", "lower"),
    "dataset.overlap_kept_frac": ("fraction", "higher"),
    "dataset.fingerprint_s": ("s", "lower"),
    "nn.train_s": ("s", "lower"),
    "nn.train_steps": ("count", "lower"),
    "nn.epoch_s_p50": ("s", "lower"),
    "nn.fit_loss": ("loss", "lower"),
    "nn.forward_b32_ms": ("ms", "lower"),
    "nn.backward_b32_ms": ("ms", "lower"),
    "nn.adam_ms": ("ms", "lower"),
    "nn.step_gflop": ("GFLOP", "lower"),
    "nn.step_gflops": ("GFLOP/s", "higher"),
    "nn.predict_s": ("s", "lower"),
    "nn.predict_rows": ("count", "lower"),
    "nn.predict_peak_mb": ("MB", "lower"),
    "screen.run_s": ("s", "lower"),
    "screen.folds": ("count", "lower"),
    "screen.self_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "baseline.aggregate_rows": ("count", "lower"),
    "baseline.aggregate_s": ("s", "lower"),
    "baseline.forest_train_s": ("s", "lower"),
    "baseline.forest_nodes": ("count", "lower"),
    "baseline.forest_predict_s": ("s", "lower"),
    "metrics.s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


def blas_threads() -> int:
    """BLAS threads for the workers: every core this process may use, at
    most two."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def source_hash(src: str) -> str:
    """sha256 over the package's Python files, so reference outputs are
    only compared between runs of the same program."""
    digest = hashlib.sha256()
    pkg = os.path.join(src, "scscreen")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def start_worker(args, inputs, result_path, deadline, setup_only=False) -> dict:
    threads = str(blas_threads())
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
        "--inputs", inputs, "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", result_path,
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another worker")
    t0 = time.monotonic()
    # the worker's stdout carries the CLI's own messages; results come by file
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.DEVNULL, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result_path) as f:
        return json.load(f)


def compare_reference(path: str, key: str, fingerprint: dict) -> list[str]:
    """Merge this run's fingerprint into the stored one for `key`; return
    the names whose values differ from an earlier run's."""
    try:
        with open(path) as f:
            stored = json.load(f)
    except (OSError, ValueError):
        stored = {}
    known = stored.setdefault(key, {})
    differ = [k for k, v in fingerprint.items() if k in known and known[k] != v]
    if not differ:
        known.update(fingerprint)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(stored, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return differ


def describe_env(env: dict) -> str:
    return (
        f"python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']} with "
        f"{env['blas_threads']} thread(s), nproc {env['nproc']}, RAM {env['ram_mb']} MB, "
        f"{env['llc']}; thread env {env['thread_env']}"
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "scscreen", "__init__.py")):
        print("perfbench: no src/scscreen here; run from the repository root", file=sys.stderr)
        return 2
    work = os.path.abspath(".perfbench_work")
    run_dir = os.path.join(work, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    inputs = os.path.join(run_dir, "inputs")
    try:
        generate.write_inputs(args.workload, args.seed, inputs)
        main_path = os.path.join(work, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        runs = [start_worker(args, inputs, main_path, deadline)]
        if not args.trace:
            for k in range(1, SETUP_REPEATS):
                path = os.path.join(run_dir, f"setup{k}.json")
                runs.append(start_worker(args, inputs, path, deadline, setup_only=True))
        if args.trace:
            os.replace(os.path.join(inputs, "spans.jsonl"),
                       os.path.join(work, f"{args.workload}-seed{args.seed}-spans.jsonl"))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    main_run = runs[0]
    if not main_run["scscreen"].startswith(src + os.sep):
        print(f"perfbench: imported {main_run['scscreen']}, not the package in {src}",
              file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    env = main_run["env"]
    env_key = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:16]
    key = f"{args.workload}/seed{args.seed}/src-{source_hash(src)[:16]}/env-{env_key}"
    fingerprint: dict = {}
    for r in runs:
        for k, v in r["fingerprint"].items():
            if fingerprint.setdefault(k, v) != v:
                errors.append(f"{k} differs between the processes of this run")
                failed = attempted
    differ = compare_reference(os.path.join(work, "reference.json"), key, fingerprint)
    if differ:
        errors.append(f"{', '.join(differ)} differ from an earlier run of this seed")
        failed = attempted

    print(f"perfbench {args.workload} seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"  environment: {describe_env(env)}")
    print(f"  error_rate: {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for e in errors:
        print(f"  error: {e}")
    if args.trace:
        values = main_run["per_layer"]
        metrics = {n: {"value": values[n], "unit": PER_LAYER[n][0]} for n in PER_LAYER}
    else:
        values = {
            "rows_per_s": main_run["rows_per_s"],
            "peak_rss_mb": main_run["peak_rss_mb"],
            "setup_s": statistics.median(r["setup_s"] for r in runs),
        }
        metrics = {n: {"value": values[n], "unit": END_TO_END[n][0]} for n in END_TO_END}
        print(f"  operations timed: {main_run['operations']}; set-up times (s): "
              + ", ".join(f"{r['setup_s']:.4f}" for r in runs))
    if "fit_loss" in fingerprint:
        print(f"  fit_loss: {fingerprint['fit_loss']} (final-epoch mean training loss)")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
