#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload p2p_sweep --seed 1 --seconds 20 --trace 0

Workloads: p2p_sweep, fabric_mix, observed (see perfbench/RATIONALE.md).
The script builds perfbench/perfbench.exe with dune (into _build/, with
dune's shared cache off so nothing is written outside the tree), then
runs it with the given flags.  The last line of standard output is the
JSON result; build output goes to standard error.  A failed build exits
with a non-zero code and prints no result.
"""

import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
# The benchmark bounds itself by --seconds; this only stops a hung run.
RUN_TIMEOUT_S = 170


def source_digest():
    """Digest of the simulator and benchmark sources, so results from
    different code can be told apart where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".txt")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:12]


def git_commit():
    if not os.path.isdir(".git"):
        return "nogit"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "nogit"
    except (OSError, subprocess.SubprocessError):
        return "nogit"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    commit = "%s+src.%s" % (git_commit(), source_digest())
    try:
        run = subprocess.run(
            [EXE] + sys.argv[1:] + ["--commit", commit],
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
