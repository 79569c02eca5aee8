#!/usr/bin/env python3
"""Builds and runs the benchmark that BENCHMARK.json describes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `report` binary (the system
under test) and the `perfbench` package from source with cargo into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload, and
prints as its last stdout line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: every end-to-end metric of
BENCHMARK.json with `--trace 0`, every per-layer metric with
`--trace 1` (a layer the workload leaves idle reads 0). The full
stamped result — git revision, nproc, workload config, sample counts,
error_ratio and every measurement — is written to
`.perfbench/result-<workload>-seed<seed>-trace<t>.json`; a traced run
also writes its Chrome trace and span summary there.
"""

import json
import math
import os
import signal
import subprocess
import sys

OUT_DIR = ".perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(f"unknown flag {flag}", 2)
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value", 2)
        args[flag[2:]] = value
    missing = {"workload", "seed", "seconds", "trace"} - args.keys()
    if missing:
        fail(f"missing flags: {', '.join(sorted(missing))}", 2)
    if args["trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1", 2)
    return args


def git_rev():
    """The checked-out commit, read from `.git` without leaving the
    checkout; `unknown` when it is not a git repository."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        except OSError:
            with open(".git/packed-refs") as f:
                for line in f:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
    except OSError:
        pass
    return "unknown"


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "ewhoring-bench", "--bin", "report"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    args = parse_args(sys.argv[1:])
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)
    workloads = [w["name"] for w in bench["workloads"]]
    if args["workload"] not in workloads:
        fail(f"unknown workload {args['workload']} (expected one of {', '.join(workloads)})", 2)

    if not os.path.isfile("Cargo.toml"):
        # Without this check cargo would search the parent directories.
        fail("no Cargo.toml here: run from the repository root", 2)
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args["workload"],
        "--seed", args["seed"],
        "--seconds", args["seconds"],
        "--trace", args["trace"],
        "--report-bin", os.path.join(release, "report"),
        "--git-rev", git_rev(),
        "--out-dir", OUT_DIR,
    ]
    # Its own process group, so a run cut by the timeout takes the
    # `report serve` child it may have started down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"run failed with exit code {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        fail("run printed no result")
    raw = json.loads(lines[-1])

    traced = args["trace"] == "1"
    declared = bench["per_layer"] if traced else bench["end_to_end"]
    metrics = {}
    for m in declared:
        value = raw["metrics"].get(m["name"])
        if value is None and traced:
            value = 0  # a layer this workload leaves idle
        if value is None or not math.isfinite(value) or (not traced and value <= 0):
            fail(f"end-to-end metric {m['name']} measured as {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args['workload']}-seed{args['seed']}-trace{args['trace']}.json")
    with open(path, "w") as f:
        json.dump(raw, f, indent=2, sort_keys=True)
    print(f"perfbench: stamped result in {path}", file=sys.stderr)

    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
