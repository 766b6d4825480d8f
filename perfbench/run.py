#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve|stream|stream_det --seed N \
        --seconds S --trace 0|1

The OCaml driver (perfbench/bench.ml) is built with dune into
.bench_build/ next to the sources.  Its last line of standard output, one
JSON object {correct, attempted, failed, metrics}, is checked and printed
as this script's last line.  Build output and progress go to standard
error.  Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("serve", "stream", "stream_det")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # The shared dune cache lives outside the checkout: disable it so that
    # every write stays inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/bench.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "bench.exe")
    # Serving runs with a 4M-word minor heap per domain, which the service
    # does not set itself, so minor-GC synchronisation between the client
    # and the drain worker is out of this workload's scope.  At the default
    # size the serving path (about 300 allocated words per request) takes
    # some 14x more stop-the-world minor collections, and on a 2-vCPU host
    # the same binary then swings between about 0.37M and 1.0M requests/s
    # from one stretch of minutes to the next; with 4M it held at
    # 0.45-0.55M in the same stretches.  The stream
    # workloads spawn domains on every pass and keep the default, so they
    # do not fault in a large minor heap each time.
    run_env = dict(os.environ)
    if args.workload == "serve":
        run_env["OCAMLRUNPARAM"] = "s=4M"
    try:
        proc = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, env=run_env, stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited {proc.returncode}")

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
