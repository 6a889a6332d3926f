"""Benchmark of the ``cuntz`` command: time to a verdict, per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload rfs-sweep --seed 1 --seconds 28 --trace 0

The workload runs in this one process as a single-client closed loop with
no threads: each job starts when the previous one has been checked.  The
inputs are generated from ``--seed`` before any timer starts, then whole
passes over the workload's jobs repeat for about ``--seconds``.
Every pass builds its systems afresh through the CLI functions, so caches
start cold as in a one-shot CLI call.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the last line
reports the per-layer metrics of ``trace.py``.  The line before it is the
run record (interpreter, cores, load average, commit, seed, input digest,
sample counts, every per-layer metric).  The exit code is 0 only when
every job matched its known answer.  See NOTES.md for why each workload
exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

SETUP_RUNS = 11

# A fresh interpreter: import the CLI, then build what the workload's CLI
# calls build.  Prints the elapsed seconds.
SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cuntz.cli
from cuntz.serialize import endomorphism_from_spec, system_from_spec
for kind, spec, arg in json.loads(sys.argv[2]):
    if kind == "system":
        system_from_spec(spec, validate=arg)
    else:
        endomorphism_from_spec(spec, arg)
print(time.perf_counter() - start)
"""

END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "job_p50_ms": "ms",
                    "job_p95_ms": "ms", "peak_rss_mb": "MB"}


def _parse_args(argv):
    from perfbench.workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().split()[:3]
    except OSError:
        return None


def _commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(setup: list) -> list:
    """Seconds each fresh interpreter took to import and build the systems."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, SRC, json.dumps(setup)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_pass(jobs, failures: list) -> list:
    """Run every job once; return each job's seconds (checks excluded)."""
    gc.collect()
    latencies = []
    for job in jobs:
        start = time.perf_counter()
        try:
            output = job.run()
        except Exception as exc:  # a crash is a wrong answer; keep measuring
            output, problem = None, f"{job.label}: {type(exc).__name__}: {exc}"
        else:
            problem = None
        latencies.append(time.perf_counter() - start)
        if problem is None:
            try:
                problem = job.check(output)
            except (ValueError, KeyError, TypeError) as exc:  # output not in the schema
                problem = f"{job.label}: unreadable output: {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(problem)
    return latencies


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "cuntz", "__init__.py")):
        print(f"perfbench: no cuntz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    args = _parse_args(argv)

    import cuntz.cli
    if not os.path.abspath(cuntz.cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported cuntz from {cuntz.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench.trace import METRICS, PER_LAYER, Tracer
    from perfbench.workloads import NEGATIVE_CONTROL, build

    os.makedirs(OUT, exist_ok=True)
    control_path = os.path.join(OUT, "negative-control.json")
    with open(control_path, "w", encoding="utf-8") as handle:
        json.dump(NEGATIVE_CONTROL, handle)

    workload = build(args.workload, args.seed, control_path)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": _commit(),
        "input_digest": workload.digest, "jobs_per_pass": len(workload.jobs),
        "loadavg_before": _loadavg(),
    }
    setup_times = measure_setup(workload.setup) if args.trace == 0 else []
    # The generated inputs live for the whole run; keep the collector from
    # rescanning them, so collection pauses scale with the program's own objects.
    gc.collect()
    gc.freeze()

    failures, plain, traced, layer_runs, p50s, p95s = [], [], [], [], [], []
    tracer = Tracer() if args.trace else None
    began = time.perf_counter()
    while True:
        latencies = run_pass(workload.jobs, failures)
        plain.append(sum(latencies))
        # Percentiles are taken per pass, over the same set of jobs each
        # time, then the median over passes, so they do not depend on how
        # many passes fit in the run.
        p50s.append(statistics.median(latencies))
        p95s.append(statistics.quantiles(latencies, n=20, method="inclusive")[18])
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(sum(run_pass(workload.jobs, failures)))
            finally:
                tracer.uninstall()
            layer_runs.append(tracer.metrics())
        # Stop at the pass boundary nearest to --seconds.
        if time.perf_counter() - began + (plain[-1] + sum(traced[-1:])) / 2 >= args.seconds:
            break

    attempted = len(workload.jobs) * (len(plain) + len(traced))
    record.update({"loadavg_after": _loadavg(), "passes": len(plain),
                   "traced_passes": len(traced)})
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "verdict_s": statistics.median(plain),
            "job_p50_ms": statistics.median(p50s) * 1e3,
            "job_p95_ms": statistics.median(p95s) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["setup_runs_s"] = setup_times
        record["verdict_runs_s"] = plain
        units = END_TO_END_UNITS
    else:
        layers = {name: statistics.median(run[name] for run in layer_runs) for name in METRICS}
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        # Spans nest inside jobs, so the layer self times of a pass cannot
        # add up to more than its job time; if they do, the trace is wrong.
        if any(run["trace.self_sum_s"] > verdict for run, verdict in zip(layer_runs, traced)):
            failures.append("trace: layer self times exceed the traced job time")
        spans = os.path.join(OUT, f"spans-{args.workload}.json.gz")
        tracer.write(spans)
        record.update({"verdict_s": statistics.median(plain),
                       "traced_verdict_s": statistics.median(traced), "layers": layers,
                       "spans_file": os.path.relpath(spans, ROOT)})
        metrics = {name: layers[name] for name in PER_LAYER}
        units = {name: _layer_unit(name) for name in PER_LAYER}

    record.update({"failed_jobs_ratio": len(failures) / attempted,
                   "first_failures": failures[:5]})
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".yield"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
