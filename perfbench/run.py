#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune inside the checkout (dune's shared
cache is disabled, so nothing is written outside it), then runs it with
the same arguments. The benchmark's own output, whose last line is the
JSON result, goes to stdout; build output goes to stderr. The exit code
is the benchmark's, or 2 when the checkout or the build is unusable.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# glibc malloc keeps what the program frees (no trimming, no per-block
# mmap), so a later System.create reuses warm memory instead of faulting
# in fresh pages. The kernel's page-fault cost follows the host's memory
# state, not the program: it was most of a compute-base set-up sample.
WARM_MALLOC = "glibc.malloc.trim_threshold=1073741824:glibc.malloc.mmap_threshold=1073741824"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    try:
        return subprocess.run(cmd, timeout=timeout, **kw).returncode
    except subprocess.TimeoutExpired:
        fail("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))


def main():
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail("run from the root of a source checkout (no %s here)" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        fail("build failed (dune exit %d)" % code)
    sys.stdout.flush()
    env = dict(os.environ, GLIBC_TUNABLES=WARM_MALLOC)
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
