#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload connect-cold --seed 1 --seconds 30 --trace 0

Builds `perfbench` (untraced) and `perfbench-traced` (counting allocator)
in release mode, then runs the one `--trace` asks for with the same
arguments, pinned to one CPU and with one malloc arena. Cargo's output goes to standard error; the benchmark's result
is the last line of standard output.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    argv = sys.argv[1:]
    traced = False
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            traced = value == "1"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "perfbench-traced" if traced else "perfbench")
    # One CPU for the whole run: the calibration kernel then measures the
    # speed of the processor the jobs run on (see src/calib.rs). One
    # malloc arena: with threads that start and end on one CPU, how many
    # arenas glibc opens, and so the peak memory, would otherwise depend
    # on the scheduler's timing.
    cpu = max(os.sched_getaffinity(0))
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    sys.stdout.flush()
    return subprocess.run(
        [binary] + argv, env=env, preexec_fn=lambda: os.sched_setaffinity(0, {cpu})
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
