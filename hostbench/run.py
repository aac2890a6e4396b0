#!/usr/bin/env python3
"""Build and run the host-time benchmark.

Run from the repository root:

    python3 hostbench/run.py --workload micro-track --seed 42 --seconds 20 --trace 0

The Go toolchain's cache, temporary files and the binary all stay under
.bench_build/ in the working directory. The last line of standard output is
the benchmark's JSON result; the exit code is non-zero if the build fails or
the run is not correct.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build")
SRC = os.path.join(ROOT, "hostbench")
BIN = os.path.join(OUT, "bin", "hostbench")


def main(argv):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOTMPDIR=os.path.join(OUT, "tmp"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOFLAGS="-buildvcs=false",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BIN, "."], cwd=SRC, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(BIN, [BIN] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
