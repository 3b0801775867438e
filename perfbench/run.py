#!/usr/bin/env python3
"""Runs one workload of the simulator benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/hg_perfbench.cpp against the simulator sources of this
checkout (Release, into .bench_build/ or $CARGO_TARGET_DIR), runs it for the
workload, stamps its record with the machine and source identity, appends the
record to <build dir>/results.jsonl and prints, as the last line of standard
output, the result object named in BENCHMARK.json: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The traced run's spans go to
<build dir>/traces/. "--workload all" runs every workload in turn, each in
its own process, and merges their results into the last line. Exits non-zero,
without a result line, when the sources are missing or the build fails; exits
1 when a correctness check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"simulator sources (CMakeLists.txt, src/) not found under {ROOT}")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "hg_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / "hg_perfbench"


def source_sha256():
    """Content hash of everything the binary is built from (the checkout is
    not always a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += [p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_workload(binary, out, spec, workload, args):
    """Runs one workload in its own process; returns (exit code, result)."""
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(l + "\n" for l in lines if not l.startswith("record ")))
    records = [l for l in lines if l.startswith("record ")]
    if not records:
        fail(f"hg_perfbench exited with {proc.returncode} and printed no record",
             proc.returncode or 1)
    record = json.loads(records[-1][len("record "):])

    record["stamp"] = {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": record.pop("compiler"),
        "build_type": record.pop("build_type"),
    }
    with open(out / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print("record " + json.dumps(record))

    missing = [n for n, unit in wanted.items()
               if record["metrics"].get(n, {}).get("unit") != unit]
    if missing:
        fail("metrics missing from the run or with another unit: " + ", ".join(missing), 1)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: record["metrics"][n] for n in wanted},
    }
    code = 0 if record["correct"] and proc.returncode == 0 else 1
    return code, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}")

    out = build_dir()
    binary = build(out)
    if args.workload != "all":
        code, result = run_workload(binary, out, spec, args.workload, args)
        print(json.dumps(result))
        return code

    # Every workload in turn, each in its own process; the last line merges
    # their results under "<workload>.<metric>" names.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        print(f"== {name}")
        code, result = run_workload(binary, out, spec, name, args)
        worst = max(worst, code)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())
