#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The arguments pass through to the `perfbench` binary; perfbench/README.md
describes the workloads and metrics. The binary is a release build of
perfbench/Cargo.toml, made offline into CARGO_TARGET_DIR when that is set.
Cargo's own output goes to standard error, so the benchmark's result stays
the last line of standard output. A failed build exits 2 and prints no
result; the run's exit code is passed through.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; leave room to stop the child.
RUN_TIMEOUT_S = 170


def build():
    """Builds the binary and returns its path, or None if the build failed."""
    proc = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
            "--message-format=json-render-diagnostics",
        ],
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        return None
    executable = None
    for line in proc.stdout.splitlines():
        try:
            message = json.loads(line)
        except ValueError:
            continue
        if (
            message.get("reason") == "compiler-artifact"
            and message.get("target", {}).get("name") == "perfbench"
            and message.get("executable")
        ):
            executable = message["executable"]
    return executable


def main():
    executable = build()
    if executable is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run(
            [executable] + sys.argv[1:], timeout=RUN_TIMEOUT_S, check=False
        ).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
