"""One phase of one workload, in its own process; prints one JSON line.

Phases:

* ``setup``: import the package and set the workload up, then exit.  The
  parent runs this several times and reports the median as ``setup_s``.
* ``measure``: set up, then run rounds of the workload in a closed loop with
  one client for ``--seconds``, checking every result, with the workload's
  fresh-interpreter jobs spread over that time.
* ``trace``: the fixed traced mix of all three workloads, run without
  tracing until ``--seconds`` have passed and then once with every layer
  wrapped; also ``-X importtime`` of the ``dualq`` entry point.

Run it through ``run.py``; it is not meant to be called directly.
"""

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PROCESS_TIMEOUT_S = 60
IMPORT_SAMPLES = 5
IMPORT_MODULES = ("_common", "dual", "quaternion", "dualquaternion", "vectors", "documents",
                  "selfcheck", "cli")
MAX_PROBLEMS = 10


class Outcome:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def run(self, op, gauge: speed.Gauge | None = None) -> tuple[float, float] | None:
        """Call and check one operation.

        Returns its duration in seconds and, with a ``gauge``, that duration
        scaled to the nominal speed (else the duration twice); ``None`` if it
        raised.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # any raise is a failed operation, recorded and counted
            self.fail(f"{type(exc).__name__}: {exc}")
            if gauge is not None:
                gauge.restart()
            return None
        elapsed = time.perf_counter() - start
        scaled = gauge.scale(elapsed) if gauge is not None else elapsed
        self.check(op.check, result)
        return elapsed, scaled

    def check(self, check, *result) -> None:
        try:
            problem = check(*result)
        except Exception as exc:  # output the check could not read is a failure too
            problem = f"unreadable result: {type(exc).__name__}: {exc}"
        if problem:
            self.fail(problem)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def run_job(job, outcome: Outcome, gauge: speed.Gauge) -> tuple[float, float] | None:
    """Run one fresh-interpreter job and check it.

    Returns its wall seconds, raw and scaled by a bare interpreter's start;
    ``None`` on a timeout.
    """
    outcome.attempted += 1
    gauge.restart()
    start = time.perf_counter()
    try:
        done = subprocess.run(job.argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        outcome.fail(f"process timed out: {job.argv[3:]}")
        return None
    elapsed = time.perf_counter() - start
    scaled = gauge.scale(elapsed)
    outcome.check(job.check, done.returncode, done.stdout, done.stderr)
    return elapsed, scaled


def build(name: str, args) -> object:
    size = workloads.SIZES[args.size]
    return workloads.WORKLOADS[name](args.seed, size, sys.executable, args.workdir)


def timed_setup(workload) -> tuple[float, float]:
    """Import the package and set the workload up; the seconds that took, raw and scaled."""
    gauge = speed.Gauge()
    start = time.perf_counter()
    workload.setup(workloads.import_library())
    elapsed = time.perf_counter() - start
    return elapsed, gauge.scale(elapsed)


def summarize(rates: list[float], latencies: list[float]) -> dict:
    return {
        "throughput_per_s": statistics.median(rates),
        "op_ms_p50": 1000.0 * statistics.median(latencies),
        "op_ms_p99": 1000.0 * percentile(latencies, 99),
    }


def phase_measure(args) -> dict:
    workload = build(args.workload, args)
    setup_raw_s, setup_s = timed_setup(workload)
    workload.prepare()
    outcome = Outcome()
    gauge = speed.Gauge()
    raw = {"rates": [], "latencies": []}
    scaled = {"rates": [], "latencies": []}
    # Fresh processes are spread over the run, one every ``interval``, so
    # that their median does not rest on one stretch of machine speed.
    jobs = workload.process_jobs()
    walls = []
    process_gauge = speed.Gauge(speed.bare_interpreter(sys.executable, ROOT), speed.PROCESS_NOMINAL_S)
    interval = args.seconds / (len(jobs) + 1)
    start = time.perf_counter()
    deadline = start + args.seconds
    next_job = start + interval
    r = 0
    while True:
        busy = {"raw": 0.0, "scaled": 0.0}
        units = 0
        for op in workload.round_ops(r):
            timed = outcome.run(op, gauge)
            if timed is not None:
                units += op.units
                for key, series, value in (("raw", raw, timed[0]), ("scaled", scaled, timed[1])):
                    busy[key] += value
                    series["latencies"].append(value)
            if jobs and time.perf_counter() >= next_job:
                walls.append(run_job(jobs.pop(0), outcome, process_gauge))
                next_job += interval
                gauge.restart()
        if units:
            raw["rates"].append(units / busy["raw"])
            scaled["rates"].append(units / busy["scaled"])
        r += 1
        if time.perf_counter() >= deadline:
            break
    walls += [run_job(job, outcome, process_gauge) for job in jobs]
    walls = [w for w in walls if w is not None]
    if not scaled["rates"] or not walls:
        outcome.fail("no operation or process completed")
        return {"setup_s": setup_s, **outcome.as_dict()}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "metrics": {
            **summarize(scaled["rates"], scaled["latencies"]),
            "process_ms_p50": 1000.0 * statistics.median(w[1] for w in walls),
            "peak_rss_mb": peak_kb / 1024.0,
        },
        "raw": {**summarize(raw["rates"], raw["latencies"]),
                "process_ms_p50": 1000.0 * statistics.median(w[0] for w in walls)},
        "reference_ms": {
            name: [1000.0 * statistics.median(g.reference), 1000.0 * min(g.reference),
                   1000.0 * max(g.reference)]
            for name, g in (("kernel", gauge), ("bare_interpreter", process_gauge))
        },
        "samples": {"rounds": len(scaled["rates"]), "ops": len(scaled["latencies"]),
                    "processes": len(walls)},
        "round_rates": scaled["rates"],
        "process_ms": [1000.0 * w[1] for w in walls],
        **outcome.as_dict(),
    }


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def import_times(outcome: Outcome) -> dict[str, float]:
    """Median import milliseconds of each package module under ``dualq``'s import.

    A module's figure is its cumulative ``-X importtime`` figure less that of
    the package modules it imports first: its own code plus the standard
    library it pulls in.  ``total`` is the whole import of ``dualquat.cli``.
    """
    program = "import sys; sys.path.insert(0, 'src'); import dualquat.cli"
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_SAMPLES):
        outcome.attempted += 1
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", program], cwd=ROOT,
                              capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
        if done.returncode != 0:
            outcome.fail(f"import of dualquat.cli exited {done.returncode}")
            continue
        # Children print before their parent.  ``nested[d]`` holds the
        # cumulative time of package modules finished at depth ``d`` whose
        # parent has not printed yet.
        nested: dict[int, int] = {}
        total = 0
        for line in done.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if not match:
                continue
            cumulative, depth, module = int(match[2]), len(match[3]), match[4]
            inner = sum(nested.pop(d) for d in [d for d in nested if d > depth])
            if module == "dualquat" or module.startswith("dualquat."):
                short = module.rpartition(".")[2]
                if short in IMPORT_MODULES:
                    samples.setdefault(short, []).append((cumulative - inner) / 1000.0)
                nested[depth] = nested.get(depth, 0) + cumulative
                if depth == 1:
                    total += cumulative
            else:
                nested[depth] = nested.get(depth, 0) + inner
        samples.setdefault("total", []).append(total / 1000.0)
    return {f"import.{name}_ms": statistics.median(samples.get(name, [0.0]))
            for name in IMPORT_MODULES + ("total",)}


def phase_trace(args) -> dict:
    mix = [build(name, args) for name in workloads.WORKLOADS]
    lib = workloads.import_library()
    for workload in mix:
        workload.setup(lib)
        workload.prepare()
    outcome = Outcome()

    def run_mix(tracer):
        start = time.perf_counter()
        for workload in mix:
            with tracer.span(f"workload.{workload.name}"):
                for op in workload.trace_ops():
                    outcome.run(op)
        return time.perf_counter() - start

    # Without tracing, except for one span per selfcheck suite: these
    # passes give the per-suite seconds and the untraced time of the mix.
    suites = tracing.Tracer()
    suites.install_suites()
    untraced = []
    deadline = time.perf_counter() + args.seconds
    try:
        while not untraced or time.perf_counter() < deadline:
            untraced.append(run_mix(suites))
    finally:
        suites.restore()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_mix(tracer)
    finally:
        tracer.restore()

    summary = tracer.summary()
    metrics: dict[str, float] = {}
    for name in tracing.SPAN_NAMES:
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
        metrics[f"{name}.errors"] = tracer.errors.get(name, 0)
    metrics["quaternion.mul_per_mixed_sum"] = tracer.children_per_parent(
        "quaternion.mul", "quaternion.mixed_sum")
    entries = sum(length for _, length in tracer.vectors_seen.values())
    magnitudes = tracer.calls_below_prefix("dualquaternion.magnitude", "vectors.")
    metrics["vectors.magnitude_per_entry"] = magnitudes / entries if entries else 0.0
    metrics.update(import_times(outcome))
    suite_rows = suites.summary()
    for name in lib.selfcheck.suite_names():
        row = suite_rows.get(tracing.SUITE_PREFIX + name, {"total_s": 0.0})
        metrics[f"{tracing.SUITE_PREFIX}{name}.s"] = row["total_s"] / len(untraced)
    untraced_s = statistics.median(untraced)
    metrics["trace.overhead_s"] = traced - untraced_s

    by_workload = {}
    for workload in mix:
        rows = tracer.summary(root=f"workload.{workload.name}")
        by_workload[workload.name] = {
            name: {"calls": rows[name]["calls"], "self_s": rows[name]["self_s"]}
            for name in tracing.SPAN_NAMES if name in rows
        }
    details = {
        "spans": len(tracer.span_name),
        "traced_s": traced,
        "untraced_s": untraced_s,
        "untraced_passes": len(untraced),
        "vector_entries": entries,
        "magnitude_calls_in_vectors": magnitudes,
        "by_workload": by_workload,
    }
    tracer.write(args.trace_file, {"metrics": metrics, "details": details})
    return {"metrics": metrics, "details": details, **outcome.as_dict()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    if args.phase == "setup":
        setup_raw_s, setup_s = timed_setup(build(args.workload, args))
        result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    elif args.phase == "measure":
        result = phase_measure(args)
    else:
        result = phase_trace(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
