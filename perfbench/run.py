#!/usr/bin/env python3
"""Build and run one workload of the MedShield benchmark.

    python3 perfbench/run.py --workload <ingest|audit> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The harness is built from the checkout's
sources (``cargo build --release --offline``; ``CARGO_TARGET_DIR`` defaults
to ``.bench_build``), then the workload runs in its own process with a
fresh work directory under ``.bench_work/``; a traced run leaves its span
file in ``.bench_work/traces/``. The harness output is passed through; its
last line is the JSON result. The exit code is the harness's:
0 when every operation succeeded and was correct, 1 otherwise. Without the
program's sources, or when the build or the run fails, this exits non-zero
without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ingest", "audit")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s of its start once the harness is built.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def build(root):
    manifest = root / "perfbench" / "Cargo.toml"
    if not (root / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"no MedShield sources next to {manifest.parent}; run from a full checkout")
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(root / ".bench_build")))
    if not target.is_absolute():
        target = Path.cwd() / target
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    try:
        built = subprocess.run(command, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if built.returncode != 0:
        fail("building the benchmark harness failed")
    return target / "release" / "perfbench"


def main():
    args = parse_args()
    root = Path(__file__).resolve().parent.parent
    binary = build(root)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", str(work),
        "--trace-dir", str(root / ".bench_work" / "traces"),
    ]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"the {args.workload} run did not finish within {RUN_TIMEOUT_S} s", 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"the {args.workload} run printed no result (exit {child.returncode})", 3)
    if set(result) != RESULT_KEYS:
        fail(f"malformed result keys {sorted(result)}", 3)
    print("\n".join(lines), flush=True)
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
