#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The driver is configured and built with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
against the project's own libraries under src/. The last line of stdout
is the result object: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the per-layer metrics are printed instead of the
end-to-end ones, and a Chrome trace is written to perfbench/out/.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("live_skew", "live_wide", "frontdoor_mixed")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 160


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then let CMake rebuild whatever changed."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            cfg = ["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
                return None
        cmd = ["cmake", "--build", str(out), "--target", "perfbench_driver",
               "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return out / "perfbench_driver"


def result_line(stdout):
    """The last stdout line that is a result object, or None."""
    for line in reversed(stdout.splitlines()):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and {"correct", "attempted", "failed",
                                      "metrics"} <= obj.keys():
            return line
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"project sources not found under {ROOT / 'src'}")
        return 2
    driver = build()
    if driver is None:
        log("build failed")
        return 1

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.relpath(out_dir, ROOT)]
    # The driver measures its set-up from this instant (CLOCK_MONOTONIC
    # is shared by every process on the host).
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        # Worker processes share the driver's session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    line = result_line(stdout)
    if proc.returncode != 0 or line is None:
        sys.stderr.write(stdout)
        log(f"driver exited with {proc.returncode}")
        return proc.returncode or 1
    for other in stdout.splitlines():
        if other != line:
            print(other, file=sys.stderr)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
