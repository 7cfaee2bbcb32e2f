#!/usr/bin/env python3
"""Build and run the simulator's host-performance benchmark.

    python3 nucabench/run.py --workload compute_bound|pchase_latency|fig06_sweep \
        --seed N --seconds S --trace 0|1

Run from anywhere; paths are taken relative to this file. The program is
configured and built from source (nucabench/CMakeLists.txt on top of src/)
into $CARGO_TARGET_DIR/nucabench, or .bench_build/nucabench at the root of
the checkout when that variable is unset. Build output goes to stderr, so
the last line on stdout is always the benchmark's JSON result. All other
arguments are passed to the program unchanged; see README.md.
"""

import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "nucabench"


def run(cmd, **kwargs):
    """Run cmd to completion; stop it if this script is interrupted."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(out):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (out / "CMakeCache.txt").is_file():
        rc = run(["cmake", "-S", str(HERE), "-B", str(out),
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=sys.stderr)
        if rc != 0:
            return False
    return run(["cmake", "--build", str(out), "--target", "nucabench",
                "-j", jobs], stdout=sys.stderr) == 0


def describe():
    # Stop git at this checkout: an enclosing repository must not be
    # mistaken for the one being measured.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "not a git checkout"
    return out.stdout.strip() if out.returncode == 0 else "not a git checkout"


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: simulator sources not found at %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        print("run.py: build failed", file=sys.stderr)
        return 2
    runs = out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "nucabench"), *sys.argv[1:], "--out-dir", str(runs),
           "--git-describe", describe()]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
