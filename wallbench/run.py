#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

    python3 wallbench/run.py --workload iir --seed 1 --seconds 28 --trace 0
    python3 wallbench/run.py --selftest

Run it from the root of a checkout.  The build lands in $CARGO_TARGET_DIR
(default .bench_build) under wallbench/; artifacts (the run's config, spans
of a traced run, the first failure) land in wallbench-out/ beside it.  The
last line of standard output is the benchmark's JSON result; build logs go
to standard error.  A freshly built binary runs its self-tests once before
it may report.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800
# Variables that would change the program under test.
PINNED_ENV = ("VSIM_TRACE", "VSIM_TRACE_LIMIT", "VSIM_BACKEND",
              "VSIM_TIME_SCALE")


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"wallbench: {cmd[0]} timed out after {timeout} s",
              file=sys.stderr)
        return 124
    finally:
        try:  # reap rank processes left behind by a killed benchmark
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def build(build_dir):
    """Configures and builds; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("wallbench: simulator sources (src/) not found", file=sys.stderr)
        return None
    bdir = os.path.join(build_dir, "wallbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j4"])
    for cmd in steps:
        if run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return None
    binary = os.path.join(bdir, "wallbench")
    return binary if os.path.isfile(binary) else None


def source_identity():
    """The git SHA when this is a git checkout, else "unknown", plus a digest
    of the sources, which identifies the program either way."""
    sha = "unknown"
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "wallbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return sha, h.hexdigest()[:12]


def short_path(path):
    """Unix socket paths are limited to 108 bytes: prefer the relative form."""
    rel = os.path.relpath(path)
    return rel if len(rel) < len(path) else path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="iir, netlist_flat, netlist_clustered "
                    "or rtl_source")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        print("wallbench: build failed", file=sys.stderr)
        return 1

    out = os.path.join(build_dir, "wallbench-out")
    sock = os.path.join(build_dir, "wallbench-sock")
    os.makedirs(out, exist_ok=True)
    os.makedirs(sock, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["WALLBENCH_GIT_SHA"], env["WALLBENCH_SOURCE_DIGEST"] = \
        source_identity()
    base = [binary, "--out", short_path(out), "--sock", short_path(sock)]

    # Self-tests gate every new binary once.
    stamp = os.path.join(out, "selftest.ok")
    if (args.selftest or not os.path.isfile(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(binary)):
        if os.path.isfile(stamp):
            os.remove(stamp)
        rc = run_group(base + ["--selftest"], RUN_TIMEOUT_S, env=env,
                       stdout=sys.stdout if args.selftest else sys.stderr)
        if rc != 0:
            print("wallbench: self-tests failed", file=sys.stderr)
            return 1
        with open(stamp, "w") as f:
            f.write("ok\n")
        if args.selftest:
            return 0

    cmd = base + ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return run_group(cmd, RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
