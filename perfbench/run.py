#!/usr/bin/env python3
"""Build and run the txkv benchmark (perfbench) from the source tree.

Run from the root of a txkv source tree:

    python3 perfbench/run.py --workload read_cold --seed 1 --seconds 10 --trace 0

Workloads: read_cold, wire_rf3, recover. The benchmark is a Go
module of its own (perfbench/go.mod) that builds against the enclosing
txkv module. Every file the build and the run write stays under
.bench_build/ in the tree: the Go build cache, temporary files and the
binary. The last line of standard output is the
run's JSON result; the exit code is non-zero on any failure, with no
result printed.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    return env


def source_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    try:
        with open(os.path.join(ROOT, "go.mod")) as f:
            tree = f.readline().strip() == "module txkv"
    except OSError:
        tree = False
    if not tree:
        fail("no txkv source tree around %s: nothing to build" % HERE)
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")

    cmd = [binary] + sys.argv[1:] + ["--git", source_revision()]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def interrupted(signum, frame):
        proc.kill()
        proc.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 1
        print("perfbench: run killed after %ds" % RUN_TIMEOUT_S, file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
