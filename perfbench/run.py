#!/usr/bin/env python3
"""Build and run the end-to-end KSJQ serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fresh-anticorr --seed 1 --seconds 15 --trace 0

Builds the release daemons (`ksjq-serverd`, `ksjq-routerd`) and the
benchmark binary from source into $CARGO_TARGET_DIR (default
`.bench_build`), then replaces itself with the benchmark binary, passing
every argument through. Build output goes to stderr; the benchmark's last
stdout line is its result. Exits non-zero without a result when the
sources are not there or do not build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(args):
    result = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args],
                            stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build failed: cargo " + " ".join(args))


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "ksjq-server"))):
        fail("run from the repository root: the KSJQ sources are not here")
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(["-p", "ksjq-server", "-p", "ksjq-router", "--bins"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    binary = os.path.join(target, "release", "ksjq-perfbench")
    bin_dir = os.path.join(target, "release")
    sys.stdout.flush()
    os.execv(binary, [binary, "--bin-dir", bin_dir, *sys.argv[1:]])


if __name__ == "__main__":
    main()
