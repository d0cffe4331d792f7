#!/usr/bin/env python3
"""Build and run the ArrayFlex benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark program from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
checkout root), then runs one workload.  Build output goes to standard
error; the program's report goes to standard output, whose last line is the
result object {"correct", "attempted", "failed", "metrics"}.

The metric set lives in BENCHMARK.json only: the result must carry exactly
its end_to_end metrics (--trace 0) or per_layer metrics (--trace 1), with
the declared units.  Metrics the program reports beyond that set stay in
the report lines; a declared metric that is missing, or a unit that
differs, fails the run.

--workload all runs the four workloads in turn and ends with one combined
result whose metric names are prefixed by the workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["cost_queries", "decode_serving", "cycle_verify", "design_sweep"]
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for a trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(bdir):
    """Configures (once) and builds the program; returns its path or None."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(bdir, ignore_errors=True)  # retry from scratch next time
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", bdir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr) != 0:
        return None
    exe = os.path.join(bdir, "perfbench")
    return exe if os.path.exists(exe) else None


def git_describe():
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_one(exe, bdir, workload, args, declared):
    """Runs one workload, forwarding its report; returns (result, exit code)."""
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-describe", git_describe()]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None, 4
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        return None, proc.returncode or 5
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    problems = [f"{name} missing" for name in declared if name not in metrics]
    problems += [f"{name} in {metrics[name]['unit']}, declared {unit}"
                 for name, unit in declared.items()
                 if name in metrics and metrics[name]["unit"] != unit]
    if problems:
        print(f"perfbench: {workload} result does not match BENCHMARK.json: "
              + "; ".join(problems), file=sys.stderr)
        return None, 6
    result["metrics"] = {name: metrics[name] for name in declared}
    return result, 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    declared = declared_metrics(args.trace)
    if args.workload != "all":
        result, code = run_one(exe, bdir, args.workload, args, declared)
        if result is not None:
            print(json.dumps(result))
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        result, code = run_one(exe, bdir, w, args, declared)
        if result is None:
            return code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
