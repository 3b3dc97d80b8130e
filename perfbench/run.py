#!/usr/bin/env python3
"""Build and run the oxmlc end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload replay|mc_study|ecc --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (the oxmlc libraries from
src/ plus the perfbench program) in an optimized CMake build under
.bench_build/perfbench/, or $CARGO_TARGET_DIR/perfbench/ when that is set;
later runs rebuild incrementally. The program prints a provenance line, the
repetition times, one line per metric, and, as the last line of standard
output, the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. Traced runs also write their spans to .bench_build/perfbench/out/.
The exit status is 0 only when every output check passed.

--self-test runs every workload at small size on a held-out seed in both
modes and checks that the printed metric names and units are exactly the
ones BENCHMARK.json declares, that the traced replay reproduces the
oxmlc.memsys.v1 document, and that a copy holding only BENCHMARK.json and
this directory refuses to run.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("replay", "mc_study", "ecc")
HELD_OUT_SEED = 90210


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the perfbench program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no oxmlc sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    with open(log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed (log: {log})", 1)
    return out / "perfbench"


def source_digest():
    """SHA-256 over src/ and perfbench/: identifies the code outside git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_binary(binary, workload, seed, seconds, trace, extra=(), capture=False, quiet=False):
    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--root", str(ROOT), "--out", str(out_dir), *extra]
    if capture:
        return subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              stderr=subprocess.DEVNULL if quiet else None)
    sys.stdout.flush()
    return subprocess.run(command)


def result_of(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def run_all(binary, args):
    """Every workload in turn; prints their lines, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = run_binary(binary, workload, args.seed, args.seconds, args.trace, capture=True)
        print(proc.stdout, end="")
        result = result_of(proc.stdout)
        if proc.returncode != 0 or result is None:
            status = 1
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload list"
    assert spec["command"] == ["python3", "perfbench/run.py"], "command"
    binary = build()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_binary(binary, workload, HELD_OUT_SEED, 1, trace, ["--small"],
                              capture=True)
            label = f"{workload} --trace {trace}"
            before = len(problems)
            result = result_of(proc.stdout)
            if proc.returncode != 0 or result is None:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared[trace]:
                missing = sorted(set(declared[trace]) - set(printed))
                extra = sorted(set(printed) - set(declared[trace]))
                wrong = sorted(n for n in set(printed) & set(declared[trace])
                               if printed[n] != declared[trace][n])
                problems.append(f"{label}: missing {missing}, undeclared {extra}, "
                                f"unit mismatch {wrong}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)) or not math.isfinite(
                        metric["value"]):
                    problems.append(f"{label}: {name} is not a finite number")
            print(f"self-test: {label}: " + ("ok" if len(problems) == before else "FAILED"))

    # A bad workload name is a usage error, not a result.
    proc = run_binary(binary, "nope", 1, 1, 0, capture=True, quiet=True)
    if proc.returncode == 0 or proc.stdout.strip().startswith("{"):
        problems.append("unknown workload was accepted")

    # A directory holding only BENCHMARK.json and perfbench/ must refuse.
    isolated = build_dir() / "isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    isolated.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", isolated / "BENCHMARK.json")
    shutil.copytree(HERE, isolated / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "replay",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=isolated, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    shutil.rmtree(isolated, ignore_errors=True)
    if proc.returncode == 0 or "correct" in proc.stdout:
        problems.append("a copy without the sources did not refuse to run")

    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    binary = build()
    print(f"source {json.dumps({'digest': source_digest()})}")
    if args.workload == "all":
        return run_all(binary, args)
    return run_binary(binary, args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
