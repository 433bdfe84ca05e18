#!/usr/bin/env python3
"""Build the perfbench harness from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tenant-fleet --seed 1 --seconds 10 --trace 0

The harness is a Go module of its own (perfbench/go.mod) that builds
against the repository one directory up. Every build artifact, the Go
build cache and the run outputs stay under the build directory: the
CARGO_TARGET_DIR environment variable when set, else .bench_build, both
relative to the checkout root. Arguments are passed through to the
harness; its exit code is this script's exit code.
"""

import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(root, build))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": os.path.join(build, "go-path"),
        "GOMODCACHE": os.path.join(build, "go-path", "pkg", "mod"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench_dir, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    args = sys.argv[1:] + ["--out", os.path.join(build, "perfbench-out")]
    return subprocess.run([binary] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
