#!/usr/bin/env python3
"""Benchmark of cyanine: compile and run Cyan programs through
`cyanine.driver.compile_program` and `cyanine.interp.Interp(...).run()`,
check every output against a reference, and report the end-to-end metrics
or, with tracing, the per-layer split.

    python3 perfbench/run.py --workload corpus|sends|dispatch --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports cyanine from `src/`.  One
pass compiles and runs every program of the workload once, each with a
fresh `Program` and `Interp`, one at a time in this process (a closed loop
with one client).  After one warm-up pass, passes repeat for `--seconds`.
With `--trace 1` the first half of that time runs untraced and the second
half traced.  Readable lines come first; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  The exit
status is 1 when any output differs from its reference or counts differ
between passes, 2 when the checkout holds no cyanine sources.
"""

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import layers
import workloads

SETUP_RUNS = 9          # fresh children timed for setup_s; the median is reported
MIN_PASSES = 3
COMPILES_PER_PASS = 10  # compile samples per pass at least, so that ten
                        # samples lie beyond compile_ms.p90 from ten passes on
CHILD_TIMEOUT_S = 60
CHILD = os.path.join(workloads.HERE, "child.py")


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_child(*args):
    """Run one child to completion; returns (wall seconds, error or None, stdout)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], cwd=workloads.ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, f"timed out after {CHILD_TIMEOUT_S} s", ""
    took = time.perf_counter() - t0
    error = f"exited {proc.returncode}: {proc.stderr}" if proc.returncode else None
    return took, error, proc.stdout


def measure(cases, modules, seconds, tracer=None, between=None):
    """Passes until `seconds` have gone by, at least MIN_PASSES; with a
    tracer, also the per-layer metrics of each pass.  `between` runs after
    each pass, so that its samples spread over the same time."""
    passes, layer_passes = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        result = workloads.run_pass(cases, modules,
                                    tracer.watch_frames if tracer is not None else None)
        passes.append(result)
        if tracer is not None:
            layer_passes.append(tracer.snapshot(result.sends))
        if between is not None:
            between()
    return passes, layer_passes


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"


class Run:
    """What one benchmark run attempted, what failed, and what it measured."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.metrics = {}
        self.lines = []

    def add_passes(self, passes):
        for p in passes:
            self.attempted += p.programs
            self.failures.extend(p.failures)

    def require_same(self, what, values):
        if len(set(values)) > 1:
            self.failures.append(f"{what} differs between passes: {sorted(set(values))}")

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"  {name:<34} {value:>14.6g} {unit}")


def end_to_end(run, args, cases, modules):
    _, error, stdout = run_child("pass", args.workload, str(args.seed))
    run.attempted += len(cases)
    if error:
        run.failures.append(f"peak-RSS child {error}")
    rss_mb = int(stdout.split()[-1]) / 1024 if stdout.strip() else 0.0

    setup, extra_compile_ms = [], []

    def time_setup():
        took, error, _ = run_child("setup")
        run.attempted += 1
        if error:
            run.failures.append(f"setup child {error}")
        setup.append(took)

    def between_passes():
        # top each pass up to COMPILES_PER_PASS compile samples, and time
        # one setup child, until there are SETUP_RUNS
        for _ in range(COMPILES_PER_PASS // len(cases) - 1):
            extra_compile_ms.extend(workloads.compile_times(cases, modules))
        if len(setup) < SETUP_RUNS:
            time_setup()

    passes, _ = measure(cases, modules, args.seconds, between=between_passes)
    while len(setup) < SETUP_RUNS:
        time_setup()
    run.add_passes(passes)
    compile_ms = [x for p in passes for x in p.compile_ms] + extra_compile_ms
    run_ms = [x for p in passes for x in p.run_ms]
    run.lines.append(f"{len(passes)} passes of {len(cases)} programs; "
                     f"{len(compile_ms)} compile samples (passes topped up by "
                     f"compile-only repeats), {len(run_ms)} run samples, "
                     f"{len(setup)} setup children; {passes[0].sends} sends per pass")
    run.metric("wall_s", statistics.median(p.wall_s for p in passes), "s")
    run.metric("compile_ms.p50", statistics.median(compile_ms), "ms")
    run.metric("compile_ms.p90", statistics.quantiles(compile_ms, n=10)[8], "ms")
    # a program that crashed every time leaves no run samples and no sends
    run.metric("run_ms.p50", statistics.median(run_ms or [0.0]), "ms")
    run.metric("us_per_send",
               statistics.median(sum(p.run_ms) * 1e3 / max(p.sends, 1) for p in passes), "us")
    run.metric("setup_s", statistics.median(setup), "s")
    run.metric("peak_rss_mb", rss_mb, "MB")
    return passes


def per_layer(run, args, cases, modules):
    untraced, _ = measure(cases, modules, args.seconds / 2)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced, layer_passes = measure(cases, modules, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    run.add_passes(untraced + traced)
    run.lines.append(f"{len(untraced)} untraced and {len(traced)} traced passes "
                     f"of {len(cases)} programs; per-layer values are per pass")
    counts = {}
    for name in layer_passes[0]:
        values = [lp[name] for lp in layer_passes]
        if unit_of(name) == "ms":
            run.metric(name, statistics.median(values), "ms")
        else:
            run.require_same(name, values)
            counts[name] = values[0]
            run.metric(name, values[0], unit_of(name))
    overhead = statistics.median(p.wall_s for p in traced) \
        - statistics.median(p.wall_s for p in untraced)
    run.metric("trace.overhead_ms", overhead * 1e3, "ms")
    blob = json.dumps(counts, sort_keys=True).encode()
    run.lines.append(f"counts sha256 {hashlib.sha256(blob).hexdigest()}")
    return untraced + traced


def main(argv):
    args = parse_args(argv)
    modules = workloads.bootstrap()
    cases = workloads.make_cases(args.workload, args.seed)
    run = Run()
    warm = workloads.run_pass(cases, modules)      # fills the parsed-prelude cache
    run.add_passes([warm])
    # what lives now (cyanine's modules and caches, the benchmark's inputs)
    # stays out of the collections made before each program
    gc.collect()
    gc.freeze()
    passes = (per_layer if args.trace else end_to_end)(run, args, cases, modules)
    run.require_same("interp.sends", [p.sends for p in [warm] + passes])
    run.require_same("output digest", [p.digest for p in [warm] + passes])

    failed = len(run.failures)
    run.attempted = max(run.attempted, failed, 1)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("\n".join(run.lines))
    print(f"  {'fail_ratio':<34} {failed / run.attempted:>14.6g} ratio "
          f"({failed} of {run.attempted} attempted)")
    print(f"outputs sha256 {warm.digest}")
    for failure in run.failures[:20]:
        sys.stderr.write(f"FAIL {failure}\n")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": run.metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
