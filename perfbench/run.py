#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/gka_perfbench.cpp).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds gka_perfbench from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then:

  --trace 0  starts gka_perfbench --setup-only SETUP_REPEATS times and takes
             the median of their set-up times as setup_s (process start to
             the first measured event), then runs the measured workload and
             prints its end-to-end metrics plus setup_s;
  --trace 1  runs the traced workload and prints its per-layer metrics.

The human-readable report of gka_perfbench is passed through; the last line of
stdout is the result JSON. The exit code is that of gka_perfbench: non-zero when an
output check failed, the build failed or a run did not finish in time.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 15
RUN_TIMEOUT_S = 170.0
WORKLOADS = ("paper_lan_sweep", "large_group_build", "server_churn")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds gka_perfbench; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; nothing to build")
        return None
    out = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    build_dir = out / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    # Keep the compiler's temporary files inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "--target",
                 "gka_perfbench", "-j", jobs]):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = build_dir / "gka_perfbench"
    return binary if binary.is_file() else None


def run_bench(cmd, deadline):
    """Runs gka_perfbench; returns (exit code, stdout lines) or None on timeout."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return None
    return done.returncode, done.stdout.splitlines()


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 1
    # The build may take long on the first run; the measured part gets its
    # own time budget.
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = [str(binary), "--workload", args.workload, "--seed", str(args.seed)]

    setup_s = []
    raw_setup_s = []
    if args.trace == 0:
        for _ in range(SETUP_REPEATS):
            got = run_bench(base + ["--setup-only"], deadline)
            if got is None or got[0] != 0 or not got[1]:
                log("set-up run failed")
                return 1
            setup = json.loads(got[1][-1])
            setup_s.append(setup["setup_s"])
            raw_setup_s.append(setup["raw_setup_s"])

    got = run_bench(base + ["--seconds", str(args.seconds),
                             "--trace", str(args.trace)], deadline)
    if got is None:
        return 1
    code, lines = got
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"gka_perfbench exited {code} without a result")
        return code or 1
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        median = statistics.median(setup_s)
        print(f"setup_s median of {len(setup_s)} set-ups: {median:.6f} s at "
              f"reference speed, {statistics.median(raw_setup_s):.6f} s on "
              f"this host (min {min(raw_setup_s):.6f}, "
              f"max {max(raw_setup_s):.6f})")
        result["metrics"]["setup_s"] = {"value": median, "unit": "s"}
    log(f"{args.workload} seed {args.seed} trace {args.trace}: "
        f"{time.monotonic() - start:.1f} s")
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
