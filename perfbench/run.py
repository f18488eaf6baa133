#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload static-peel --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list        # every metric, by name, with its unit

Run from anywhere inside a checkout of the repository. The benchmark binary
is built from source with cargo into $CARGO_TARGET_DIR (default
`.bench_build` at the checkout root) and run with every KCORE_* and RAYON_*
variable removed, so the engines see their defaults: dataset cache off,
fused execution path, the default thread pool. The last line of standard
output is the JSON result; it is checked against BENCHMARK.json before it
is printed. Exit codes: 0 result printed and correct, 1 a failed operation,
a broken conservation law or an invalid result, 2 usage error or a
directory that is not a full checkout.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# The engine crates the benchmark links; without them there is nothing to run.
SOURCES = ["crates/core", "crates/cpu", "crates/gpusim", "crates/graph", "shims/rayon"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith(("KCORE_", "RAYON_"))}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", str(MANIFEST)]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build exceeded {BUILD_TIMEOUT_S} s", 1)
    if res.returncode != 0:
        fail("build failed", 1)
    return ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result must carry exactly the declared metrics, as finite numbers."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys must be exactly correct, attempted, failed, metrics"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        return "failed must be a whole number >= 0"
    want = expected_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        return f"metric set differs from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    for name, m in got.items():
        v = m.get("value")
        if m.get("unit") != want[name]:
            return f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {want[name]!r}"
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v or abs(v) == float("inf"):
            return f"{name}: value {v!r} is not a finite number"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--list", action="store_true", help="print every metric with its unit")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    a = ap.parse_args()

    missing = [s for s in SOURCES if not (ROOT / s / "Cargo.toml").is_file()]
    if missing or not MANIFEST.is_file() or not (ROOT / "BENCHMARK.json").is_file():
        fail(f"{ROOT} is not a full checkout (missing: {', '.join(missing) or 'benchmark files'})", 2)
    if not a.list and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.print_usage(sys.stderr)
        fail("--workload, --seed, --seconds and --trace are required", 2)
    if a.seed is not None and a.seed < 0:
        fail("--seed must be >= 0", 2)

    env = clean_env()
    binary = build(env)
    if a.list:
        sys.exit(subprocess.run([str(binary), "--list"], cwd=ROOT, env=env).returncode)

    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", f"{a.seconds:g}", "--trace", str(a.trace), "--commit", commit()]
    start = time.monotonic()
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    lines = res.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if res.returncode not in (0, 1) or not lines[-1].startswith("{\"correct\""):
        fail(f"benchmark exited with {res.returncode} and no result", 1)
    err = check_result(lines[-1], a.trace == 1)
    if err:
        fail(err, 1)
    print(f"run.py: {a.workload} finished in {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(lines[-1], flush=True)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
