#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv-steady --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository's sources. Everything the build and the run
write goes under the build directory ($CARGO_TARGET_DIR, default
.bench_build): the Go build cache, the binary, span dumps and durable
cluster state. The last line of standard output is the JSON result.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go")
    if go is None:
        sys.stderr.write("perfbench: no go toolchain on PATH\n")
        return 1
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        TMPDIR=os.path.join(build, "tmp"),
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOENV="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        [go, "build", "-o", binary, "."],
        cwd=here, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n" + built.stdout)
        return 1
    args = sys.argv[1:] + ["--out", os.path.join(build, "out")]
    try:
        ran = subprocess.run([binary] + args, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
