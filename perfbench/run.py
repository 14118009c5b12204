#!/usr/bin/env python3
"""Build and run the blitzd benchmark (see perfbench/WORKLOADS.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload optimize-hot --seed 1 --seconds 10 --trace 0

The benchmark is a Go program in this directory (its own module, pointing
at the repository's module with a replace directive). It is compiled into
the build directory, with the Go build cache kept there too, so that a run
reads and writes only inside the checkout. The build directory is
$CARGO_TARGET_DIR when set, else .bench_build, relative to the root.

The last line of standard output is the run's JSON result; the exit code is
non-zero when the build fails or any answer is wrong.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["optimize-hot", "optimize-cold", "execute", "cluster-forward"]


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s: run from a full checkout of the repository" % ROOT, file=sys.stderr)
        return 2

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans-out", os.path.join(build, "spans", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=env, timeout=178).returncode


if __name__ == "__main__":
    sys.exit(main())
