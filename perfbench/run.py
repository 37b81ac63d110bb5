#!/usr/bin/env python3
"""Build the ScalaPart benchmark from source and run it once.

Run from the repository root:

    python3 perfbench/run.py --workload <mesh-embed|highp|repartition> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Every argument is passed to the benchmark program, which runs with
GODEBUG=madvdontneed=0 added to the environment (see README.md). The Go build cache,
module cache, build temporaries and binary live under $CARGO_TARGET_DIR
(default .bench_build) inside the repository, so nothing is written
outside it.
The program's standard output is passed through; its last line is the
result JSON. Exits non-zero, printing no result, when the tree does not
hold the module the benchmark imports.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850  # a cold build compiles the module from scratch
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    for need in ("go.mod", "internal"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found in {ROOT}: the benchmark builds against the module there")
    if shutil.which("go") is None:
        fail("no go toolchain on PATH")

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, "config"),
        XDG_CACHE_HOME=os.path.join(home, "cache"),
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build did not finish in {BUILD_TIMEOUT_S}s")
    if built.returncode != 0:
        fail("build failed")

    # Freed heap pages go back to the kernel with MADV_FREE, not the
    # runtime's default MADV_DONTNEED: the kernel then keeps them mapped
    # unless it runs short of memory, so a call does not fault back in the
    # pages the previous call freed. In a VM whose balloon hands freed
    # pages to the host, each such fault is a host page fault, and its cost
    # follows the host's memory pressure rather than the program.
    run_env = dict(os.environ, GODEBUG=",".join(filter(None, [os.environ.get("GODEBUG"), "madvdontneed=0"])))
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=run_env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish in {RUN_TIMEOUT_S}s")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
