#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload wiki-read --seed 1 --seconds 30 --trace 0

Cargo output goes to stderr, so the last line on stdout is the result
JSON the benchmark prints. The build uses $CARGO_TARGET_DIR, or
`.bench_build` when it is unset; snapshots and span files go to
`.bench_work`. Exits non-zero, printing no result, when the build fails
or the run does not finish within RUN_TIMEOUT_S.

The run is pinned to one CPU, the highest-numbered one it may use. Its
client, servers and reference engines then share that core, and the
speed probe that every timed operation is scaled by (see
`src/measure.rs`) times the core the operation ran on.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "koko-perfbench")
    args = [binary, *sys.argv[1:], "--work-dir", os.path.join(ROOT, ".bench_work")]
    cpu = max(os.sched_getaffinity(0))
    print(f"running on CPU {cpu}", file=sys.stderr)
    try:
        return subprocess.run(
            args,
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        ).returncode
    except subprocess.TimeoutExpired:
        print(f"error: the run did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
