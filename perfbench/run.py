#!/usr/bin/env python3
"""Build and run the Symbad performance benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload flow_cold --seed 1 --seconds 10 --trace 0

The script builds perfbench/bench.exe with dune (from source, into the
checkout's _build directory), then runs it with the same arguments.  The
benchmark's result is the last line of standard output; build output
goes to standard error.  Outside a checkout (no dune project, no library
sources) it exits with status 2 and prints no result.
"""

import glob
import os
import shutil
import subprocess
import sys

# What the benchmark builds from: the dune project and the library and
# benchmark sources.
REQUIRED = [
    "dune-project",
    os.path.join("lib", "core", "flow.ml"),
    os.path.join("perfbench", "dune"),
    os.path.join("perfbench", "bench.ml"),
    os.path.join("perfbench", "known_answers.json"),
]

TARGET = os.path.join("perfbench", "bench.exe")
EXE = os.path.join("_build", "default", TARGET)


def find_dune():
    """dune from PATH, else from the active or default opam switch."""
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def main():
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print("run.py: not a checkout of the repository (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
