#!/usr/bin/env python3
"""Builds the program and the benchmark, runs one workload, and prints its
metrics; the last line of standard output is the JSON result.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare <record.json> <record.json>
    python3 perfbench/run.py spread --workload serve-cold --seconds 10 --trace 0 --runs 5

Run from the root of a checkout.  Builds go to $CARGO_TARGET_DIR (default
.bench_build); run records go to .bench_runs/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-cold", "serve-hot-churn", "engine-large")
# The whole run, build excluded, must end well inside three minutes.
RUN_TIMEOUT_S = 170
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "support", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def commit():
    """The checked-out revision, or a digest of the sources when the
    checkout is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build():
    """Builds `shard-server` from the repository's workspace and the
    benchmark from its own; returns the target directory."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (("Cargo.toml", ["-p", "ssrq-bench", "--bin", "shard-server"]),
                            ("perfbench/Cargo.toml", ["--bin", "perfbench"])):
        command = ["cargo", "build", "--release", "--offline", "--quiet",
                   "--manifest-path", os.path.join(ROOT, manifest)] + extra
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"building {manifest} failed")
    return target


def run(args):
    for needed in ("Cargo.toml", "crates", "perfbench/Cargo.toml"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout")
    target = build()
    work = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    records = os.path.join(ROOT, ".bench_runs")
    os.makedirs(records, exist_ok=True)
    record = os.path.join(records, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    command = [os.path.join(target, "release", "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--shard-server", os.path.join(target, "release", "shard-server"),
               "--work-dir", work, "--record", record,
               "--commit", commit(), "--rustc", rustc_version()]
    # Its own process group, so the shard servers it spawns go with it.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(work, ignore_errors=True)
    if out is None:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if child.returncode != 0:
        fail(f"{args.workload} exited with code {child.returncode}")
    sys.stdout.write(out)
    return 0


def compare(paths):
    """Prints each metric of two run records side by side; refuses records
    made at different core counts."""
    a, b = (json.load(open(p)) for p in paths)
    if a["cores"] != b["cores"]:
        fail(f"records were made on {a['cores']} and {b['cores']} cores; not comparable")
    if (a["workload"], a["traced"]) != (b["workload"], b["traced"]):
        fail("records are of different workloads or trace settings")
    for name, m in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        change = (other["value"] / m["value"] - 1) * 100 if m["value"] else float("nan")
        print(f"{name:<36} {m['value']:>14.4f} {other['value']:>14.4f} {change:>+8.1f}% "
              f"{m['unit']}")
    return 0


def spread(args):
    """Runs a workload on several seeds and prints, per metric, the median
    and the quartile distance as a share of it."""
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                             text=True)
        if out.returncode != 0:
            fail(f"seed {seed} failed:\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:<36} median {med:>12.4f}  iqr/median {share:.4f}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare <record.json> <record.json>")
        return compare(sys.argv[2:])
    spreading = len(sys.argv) > 1 and sys.argv[1] == "spread"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    if spreading:
        parser.add_argument("--runs", type=int, default=5)
        parser.add_argument("--first-seed", type=int, default=1)
        return spread(parser.parse_args(sys.argv[2:]))
    parser.add_argument("--seed", required=True, type=int)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
