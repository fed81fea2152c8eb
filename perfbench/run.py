#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload classify|insert|query --seed N \
        --seconds S --trace 0|1

Run from the repository root. The library and the binary are compiled
(Release) into .bench_build/ at the root, or into $CARGO_TARGET_DIR when
that is set, on the first run; later runs only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the binary's JSON
result. A traced run also writes a chrome://tracing file into the build
directory. Exits non-zero when the build fails or a check fails.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the binary; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    # One build at a time per build directory.
    with open(os.path.join(out, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                # Leave no half-configured tree behind for the next run.
                cache = os.path.join(out, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return binary


def main(argv):
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--trace" in args:
        i = args.index("--trace")
        workload = args[args.index("--workload") + 1] if "--workload" in args else "x"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
        if i + 1 < len(args) and args[i + 1] == "1" and "--trace-out" not in args:
            name = "trace-%s-seed%s.json" % (workload, seed)
            args += ["--trace-out", os.path.join(build_dir(), name)]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.exit(code if code >= 0 else 1)
