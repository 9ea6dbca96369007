#!/usr/bin/env python3
"""Builds the benchmark from source and runs it once.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is built in release mode into
``$CARGO_TARGET_DIR`` (default ``.bench_build``) with the repository's own
cargo configuration, offline. Build output goes to standard error; the
benchmark's report, ending in one JSON line, goes to standard output.
The exit code is the binary's, or 1 when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    env = dict(os.environ)
    env["CARGO_NET_OFFLINE"] = "true"
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = target / "release" / "perfbench"
    journal_dir = target / "perfbench"
    sys.stdout.flush()
    run = subprocess.run(
        [str(binary), *sys.argv[1:], "--journal-dir", str(journal_dir)], cwd=ROOT, env=env
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
