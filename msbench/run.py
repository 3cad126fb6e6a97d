#!/usr/bin/env python3
"""Build msbench from this checkout and run it.

    python3 msbench/run.py --workload churn|xalan|server --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The runtime and the benchmark are
compiled (RelWithDebInfo) into .bench_build/ on first use; later runs
only re-check the build. Build output goes to stderr, so the last line
of standard output is msbench's JSON result. The exit code is msbench's,
or 1 when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "msbench")
RUN_TIMEOUT_S = 170


def build():
    cmds = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "msbench", "-j", "4"],
    ]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmds = cmds[1:]
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    if not build():
        print("msbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace", "0") != "0":
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        name = os.path.basename(opts.get("--workload", "trace")) + ".csv"
        args += ["--trace-out", os.path.join(trace_dir, name)]
    proc = subprocess.Popen([os.path.join(BUILD, "msbench")] + args, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("msbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
