#!/usr/bin/env python3
"""Build the benchmark and the daemon from source, then run one workload.

    python3 perfbench/run.py --workload paper-disk|composite|served \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Everything the build and the run write
stays under the build directory ($CARGO_TARGET_DIR, default .bench_build):
the Go build cache, the binaries and the span files of traced runs. The
last line of standard output is the run's JSON result.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def go_env(build):
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOMODCACHE", "gomod"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")]:
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOENV="off", GOPROXY="off", GOTOOLCHAIN="local", GOTELEMETRY="off",
               GOFLAGS="-buildvcs=false", CGO_ENABLED="0")
    return env


def build(build_dir):
    env = go_env(build_dir)
    bin_dir = os.path.join(build_dir, "bin")
    steps = [
        (HERE, ["go", "build", "-o", os.path.join(bin_dir, "perfbench"), "."]),
        (ROOT, ["go", "build", "-o", os.path.join(bin_dir, "dpmserved"), "./cmd/dpmserved"]),
    ]
    for cwd, cmd in steps:
        res = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return bin_dir, env


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["paper-disk", "composite", "served"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    bin_dir, env = build(build_dir)
    cmd = [os.path.join(bin_dir, "perfbench"), "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-bin", bin_dir,
           "-out", os.path.join(build_dir, "spans")]
    # Its own process group, so whatever way the run ends, nothing it
    # started (the served daemon) outlives it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)

    def stop(signum, frame):
        end_group(proc)
        sys.exit("perfbench: stopped by signal %d" % signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    end_group(proc)
    if code is None:
        sys.exit("perfbench: run timed out")
    sys.exit(code)


def end_group(proc):
    """Kill what is left of the run's process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    main()
