#!/usr/bin/env python3
"""Build the shipped configuration and run one perfbench workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench (Release with MFSA_METRICS
off, as shipped: -O3 without NDEBUG, so asserts and the scan-metric hooks
stay compiled in) under .bench_build/perfbench; later calls only let the build
check that it is current. The benchmark then runs in a fresh scratch
directory under .bench_build/perfbench, which is removed afterwards. Its
standard output is passed through: the last line is the result JSON object.
Build output goes to standard error. Extra arguments after the four above
(for example --drop-one-match) are passed to the benchmark unchanged.
"""

import fcntl
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def cpu_ticks():
    """(busy + steal, steal) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    if len(v) < 8:
        return None
    # user nice system idle iowait irq softirq steal: idle time is left out,
    # so the share is of the time the CPUs were wanted.
    return v[0] + v[1] + v[2] + v[5] + v[6] + v[7], v[7]


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(build_dir, "CMakeCache.txt")
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={os.path.join(root, 'perfbench')}"
        if os.path.exists(cache):
            with open(cache) as f:
                if home not in f.read().splitlines():
                    # A build tree configured for another checkout.
                    shutil.rmtree(build_dir, ignore_errors=True)
                    os.makedirs(build_dir, exist_ok=True)
        if not os.path.exists(cache):
            cfg = subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release", "-DMFSA_METRICS=OFF"],
                stdout=sys.stderr, stderr=sys.stderr)
            if cfg.returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail("cmake configure failed", 3)
        out = subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
             jobs], stdout=sys.stderr, stderr=sys.stderr)
        if out.returncode != 0:
            fail("build failed", 3)
    return os.path.join(build_dir, "perfbench")


def main():
    root = os.getcwd()
    argv = sys.argv[1:]
    opts = {}
    rest = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in ("--workload", "--seed", "--seconds", "--trace") and \
                i + 1 < len(argv):
            opts[a] = argv[i + 1]
            i += 2
        else:
            rest.append(a)
            i += 1
    for a in ("--workload", "--seed", "--seconds", "--trace"):
        if a not in opts:
            fail(f"missing {a}; usage: python3 perfbench/run.py --workload "
                 "<name> --seed <n> --seconds <s> --trace <0|1>")
    # The benchmark builds the library from the checkout it runs in.
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(root, "src"))):
        fail("run from the repository root: CMakeLists.txt and src/ are "
             "missing here")

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    exe = build(root, build_dir)

    work = os.path.join(build_dir, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [exe, "--workload", opts["--workload"], "--seed", opts["--seed"],
           "--seconds", opts["--seconds"], "--trace", opts["--trace"]]
    if opts["--trace"] != "0":
        cmd += ["--trace-out",
                os.path.join(build_dir, f"spans-{opts['--workload']}.json")]
    cmd += rest
    sys.stdout.flush()
    before = cpu_ticks()
    proc = subprocess.Popen(cmd, cwd=work)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 124
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = cpu_ticks()
    # Share of the wanted CPU time the hypervisor gave to others; a high
    # share explains a slow run (it is not part of the result).
    if before and after and after[0] > before[0]:
        steal = 100.0 * (after[1] - before[1]) / (after[0] - before[0])
        print(f"perfbench: cpu steal during the run {steal:.1f}%",
              file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
