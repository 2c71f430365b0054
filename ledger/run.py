#!/usr/bin/env python3
"""Build and run the ledger benchmark from the root of a source checkout.

    python3 ledger/run.py --workload compile-vax --seed 1 --seconds 15 --trace 0

Builds the benchmark executable and the ggccd daemon with dune (build
output goes to stderr, dune's shared cache is off so nothing is written
outside the checkout), then runs the benchmark.  Its standard output is
passed through: the last line is the JSON result.  Exits non-zero,
without a result, when the checkout cannot be built.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170
TARGETS = ["./ledger/ledger.exe", "./bin/ggccd.exe"]


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("ledger: run from the root of a source checkout (no dune-project here)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["GGCG_CACHE_DIR"] = os.path.join(".ledger_run", "default-cache")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", *TARGETS],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("ledger: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "ledger", "ledger.exe")
    # its own process group, so a timeout also stops the daemon it spawned
    proc = subprocess.Popen([exe, *sys.argv[1:]], env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("ledger: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
