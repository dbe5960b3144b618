#!/usr/bin/env python3
"""Pipeline benchmark runner: builds pipeline_bench from this checkout's
sources, generates a workload's inputs from a seed, measures, checks the
outputs, and prints the metrics.

    python3 perfbench/run.py --workload investigate --seed 1 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics" (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds pipeline_bench; returns its path."""
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (out / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(out), "-j",
                      str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                # A failed configure must not leave a cache behind that
                # would skip configuring next time.
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                sys.stderr.write(log_path.read_text()[-4000:])
                raise SystemExit(f"perfbench: build failed (see {log_path})")
    return out / "pipeline_bench"


def source_commit():
    """The git commit of the checkout, or a digest of the sources when the
    checkout is not a git repository."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha1:" + digest.hexdigest()


def run_workload(binary, workload, seed, seconds, trace):
    """Generates inputs, measures, and returns (document, generate_s)."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-{seed}-{os.getpid()}"
    inputs = work / f"{tag}.inputs"
    try:
        gen = subprocess.run(
            [str(binary), "generate", workload, str(seed), str(inputs)],
            capture_output=True, text=True, timeout=150)
        if gen.returncode != 0:
            sys.stderr.write(gen.stderr)
            raise SystemExit(f"perfbench: generating {workload} failed")
        generate_s = json.loads(gen.stdout)["generate_s"]
        measured = subprocess.run(
            [str(binary), "run", workload, str(seed), str(inputs),
             str(seconds), str(trace), str(work / tag)],
            capture_output=True, text=True, timeout=seconds + 150)
        if measured.returncode != 0:
            sys.stderr.write(measured.stderr)
            raise SystemExit(f"perfbench: measuring {workload} failed")
        return json.loads(measured.stdout), generate_s
    finally:
        inputs.unlink(missing_ok=True)


def print_table(title, table):
    print(f"# {title}")
    for name, m in table.items():
        print(f"  {name:<34} {m.value:>16.6f} {m.unit:<6} {m.describe()}")


def measure(binary, workload, seed, seconds, trace, context):
    doc, generate_s = run_workload(binary, workload, seed, seconds, trace)
    context = dict(context, workload=workload, seed=seed, seconds=seconds,
                   trace=trace, nproc=doc["nproc"],
                   build_type=doc["build_type"], compiler=doc["compiler"])
    print("# context " + json.dumps(context, sort_keys=True))
    for failure in doc["failures"]:
        print(f"# failure: {failure}")
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps(doc))
        print(f"# spans written to {trace_path}")
        table = metrics.per_layer(doc, generate_s)
        declared = metrics.PER_LAYER
        print_table("per-layer metrics (traced run)", table)
    else:
        table = metrics.end_to_end(doc)
        declared = metrics.END_TO_END
        print_table("end-to-end metrics (untraced run)", table)
        print(f"  {'loadgen.generate_s':<34} {generate_s:>16.6f} s      "
              "(outside every timed region)")
    result = {
        "correct": doc["incorrect"] == 0,
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {name: {"value": table[name].value, "unit": unit}
                    for name, unit in declared},
    }
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=metrics.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(build_dir())
    context = {"commit": source_commit()}
    if args.workload != "all":
        result = measure(binary, args.workload, args.seed, args.seconds,
                         args.trace, context)
        print(json.dumps(result))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in metrics.WORKLOADS:
        result = measure(binary, workload, args.seed, args.seconds,
                         args.trace, context)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
