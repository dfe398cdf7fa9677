"""Benchmark of the dualquat package and its ``dualq`` command line tool.

    python3 perfbench/run.py --workload selfcheck --seed 1 --seconds 20 --trace 0

Run from the root of the repository.  Each workload runs in a child process,
one at a time, as a closed loop with a single client (see ``workloads.py``).
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs the traced mix of all workloads and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of the
run, with the environment, goes to ``.perfbench_out/`` and the spans of a
traced run to a gzipped JSON file beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "dualquat")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

TIME_LIMIT_S = 170.0  # the whole run, children included

UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "process_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".errors")):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio"


class ChildFailed(Exception):
    pass


def run_child(args, phase: str, workdir: str, deadline: float, extra=()) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"), "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--size", args.size, "--workdir", workdir, *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for the {phase} phase")
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"the {phase} phase did not finish in time")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"the {phase} phase exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def environment(args) -> dict:
    lines = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                lines[name[:-3]] = sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_commit": git_commit(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def measure(args, workdir: str, deadline: float) -> tuple[dict, dict]:
    samples = workloads.SIZES[args.size]["setup_samples"]
    setups = [run_child(args, "setup", workdir, deadline) for _ in range(samples - 1)]
    child = run_child(args, "measure", workdir, deadline)
    if "metrics" not in child:
        raise ChildFailed("; ".join(child["problems"]))
    setups.append(child)
    values = {"setup_s": statistics.median(s["setup_s"] for s in setups), **child["metrics"]}
    unscaled = {"setup_s": statistics.median(s["setup_raw_s"] for s in setups), **child["raw"]}
    record = {
        "samples": {**child["samples"], "setups": len(setups)},
        "unscaled": unscaled,
        "reference_ms_median_min_max": child["reference_ms"],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "round_rates": child["round_rates"],
        "process_ms": child["process_ms"],
        "failed_ratio": child["failed"] / max(1, child["attempted"]),
        "problems": child["problems"],
        "throughput_name": workloads.WORKLOADS[args.workload].throughput_name,
    }
    return {"values": values, "attempted": child["attempted"], "failed": child["failed"]}, record


def trace(args, workdir: str, deadline: float) -> tuple[dict, dict]:
    trace_file = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
    child = run_child(args, "trace", workdir, deadline, ("--trace-file", trace_file))
    record = {
        "details": child["details"],
        "trace_file": os.path.relpath(trace_file, ROOT),
        "failed_ratio": child["failed"] / max(1, child["attempted"]),
        "problems": child["problems"],
    }
    return {"values": child["metrics"], "attempted": child["attempted"],
            "failed": child["failed"]}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dualquat benchmark")
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=list(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"perfbench: no package at {PACKAGE}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        result, record = (trace if args.trace else measure)(args, workdir, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for name, value in result["values"].items():
        unit = UNITS[name] if not args.trace else per_layer_unit(name)
        metrics[name] = {"value": value, "unit": unit}
    record.update(environment=environment(args), metrics=metrics,
                  attempted=result["attempted"], failed=result["failed"])
    record_file = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_file, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    env = record["environment"]
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}; "
          f"Python {env['python']}, nproc {env['nproc']}, commit {env['git_commit']}, "
          f"src lines {env['src_lines_total']}")
    if not args.trace:
        print(f"# throughput_per_s is {record['throughput_name']}; samples: {record['samples']}")
        references = "; ".join(f"{name} " + ", ".join(f"{v:.4g}" for v in values)
                               for name, values in record["reference_ms_median_min_max"].items())
        print(f"# timings scaled to nominal speed (kernel {1000 * speed.KERNEL_NOMINAL_S:g} ms, "
              f"bare interpreter {1000 * speed.PROCESS_NOMINAL_S:g} ms; measured median, min, max "
              f"ms: {references}); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in record["unscaled"].items()))
    print(f"# failed_ratio {record['failed_ratio']!r} ({result['failed']} of {result['attempted']})")
    for problem in record["problems"]:
        print(f"# FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"# full record: {os.path.relpath(record_file, ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
