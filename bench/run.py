"""fanocone benchmark: one workload and seed, a closed loop over the in-process CLI.

    python3 bench/run.py --workload corpus-verify --seed 1 --seconds 20 --trace 0

One client, one process, no threads.  Each call is
`fanocone.cli.main(argv, out, err)` on an input file written during
set-up; the next call starts once the previous one has returned and its
output has been checked.  A run repeats whole passes over the workload's
inputs while the next pass is expected to end within --seconds, and always
makes at least one, so every input is checked on every run.

Timings are CPU times scaled by calibrations taken all through the pass
(calibrate.py), so that they do not follow the speed changes of a shared
machine; the raw CPU figures are recorded beside them.

--trace 0 measures the end-to-end metrics.  --trace 1 makes untraced and
traced passes in turn and reports the per-layer metrics;
it also writes the retained spans and runs the diagnostic scaling sweep.
The metric names and units are the ones BENCHMARK.json declares.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; a record with the seed, Python version, nproc and git commit
is written to .bench_out/.  Exit code 2 means the benchmark could not run.
"""

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402

BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")

# Set-up is repeated and its median reported.  Every repeat rewrites the
# same input files: creating files costs far more, and far more
# erratically, than rewriting them, so the first repeat's creation is left
# out by the median.
SETUP_REPEATS = 9


@dataclass
class Pass:
    latencies_s: list = field(default_factory=list)  # scaled CPU time per call
    cpu_s: list = field(default_factory=list)  # raw CPU time per call
    calibrations_s: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (input name, reason)

    def speed_factor(self):
        """Reference calibration time over this pass's median one."""
        return calibrate.REFERENCE_S / statistics.median(self.calibrations_s)


def import_package():
    """Import fanocone afresh, dropping any copy already imported."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return importlib.import_module(PACKAGE + ".cli")


def set_up(workload, seed, workdir):
    """Median scaled set-up time and its result: import, input generation,
    file writes."""
    with calibrate.Meter(timer=False) as meter:
        for _ in range(SETUP_REPEATS):
            # Collect the previous repeat's modules, so that no repeat pays for it.
            gc.collect()
            start = process_time()
            cli = import_package()
            items = workloads.make_items(workload, seed)
            workloads.write_inputs(items, workdir)
            meter.record(start, process_time())
            meter.calibrate()
    return statistics.median(meter.call_times()[0]), cli, items


def run_pass(cli, sub, items, tracer=None, first_request=0):
    result = Pass()
    # An untraced pass calibrates on a timer, inside calls too; a traced
    # pass calibrates between calls, so that no calibration lands in a span.
    with calibrate.Meter(timer=tracer is None) as meter:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.request = first_request + i
            out, err = io.StringIO(), io.StringIO()
            start = process_time()
            try:
                code = cli.main(workloads.argv_for(sub, item.path), out, err)
            except Exception as exc:  # a crash is one failed operation, not the end of the run
                code = "%s: %s" % (type(exc).__name__, exc)
            meter.record(start, process_time())
            if tracer is not None:
                meter.calibrate()
            reason = workloads.check(item, sub, code, out.getvalue())
            if reason is not None:
                result.failures.append((item.name, reason))
    result.latencies_s, result.cpu_s = meter.call_times()
    result.calibrations_s = [c[2] for c in meter.calibrations]
    return result


def run_passes(seconds, one_pass):
    """Whole passes while the next is expected to end within `seconds`."""
    passes = []
    start = perf_counter()
    while True:
        began = perf_counter()
        passes.append(one_pass(len(passes)))
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return passes


def per_input(passes, kind="latencies_s"):
    """Each input's median time over the passes."""
    return [statistics.median(times) for times in zip(*(getattr(p, kind) for p in passes))]


def end_to_end_values(passes, setup_s):
    times = per_input(passes)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    values = {
        "inputs_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    calibrations = [c for p in passes for c in p.calibrations_s]
    notes = {
        "inputs_beyond_p90": sum(1 for t in times if t > p90),
        "raw_cpu_p50_ms": statistics.median(per_input(passes, "cpu_s")) * 1e3,
        "calibration_median_ms": statistics.median(calibrations) * 1e3,
    }
    return values, notes


def per_layer_values(names, windows, untraced, traced):
    """Per-pass layer figures: counts from the first traced pass (they repeat
    exactly), self times scaled by each pass's speed factor, median over
    traced passes."""
    calls, _, counts = windows[0]
    values = {
        "trace_overhead_ratio": sum(per_input(traced)) / sum(per_input(untraced)),
    }
    for name in names:
        values[name + ".calls"] = calls.get(name, 0)
        values[name + ".self_s"] = statistics.median(
            self_ns.get(name, 0) / 1e9 * p.speed_factor()
            for (_, self_ns, _), p in zip(windows, traced)
        )
    values.update(counts)
    return values


def traced_run(cli, sub, items, seconds):
    """Untraced and traced passes in turn; returns both lists of passes, the
    per-layer values and the tracer."""
    tracer = Tracer()
    untraced, windows = [], []

    def pass_pair(index):
        untraced.append(run_pass(cli, sub, items))
        tracer.reset()
        tracer.install()
        try:
            traced = run_pass(cli, sub, items, tracer, first_request=index * len(items))
        finally:
            tracer.uninstall()
        windows.append((dict(tracer.calls), dict(tracer.self_ns), dict(tracer.counts)))
        return traced

    traced = run_passes(seconds, pass_pair)
    values = per_layer_values(tracer.names, windows, untraced, traced)
    return untraced, traced, values, tracer


def select_metrics(declared, values):
    """The declared metrics, in declared order."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        sys.stderr.write("cannot import %s from %s: %s\n" % (PACKAGE, ROOT, exc))
        return 2
    with open(BENCHMARK_FILE, "r", encoding="utf-8") as handle:
        declared = json.load(handle)

    sub = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK_DIR, str(os.getpid()))
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    try:
        setup_s, cli, items = set_up(args.workload, args.seed, workdir)
        record = dict(env, inputs=len(items))
        if args.trace:
            untraced, passes, values, tracer = traced_run(cli, sub, items, args.seconds)
            tracer.write(stem + "-spans.json", env)
            record["spans_file"] = stem + "-spans.json"
            record["sweep"] = sweep.run_sweep(
                cli, workloads.load_corpus(), os.path.join(workdir, "sweep"))
            passes = untraced + passes
            metrics = select_metrics(declared["per_layer"], values)
        else:
            passes = run_passes(args.seconds, lambda index: run_pass(cli, sub, items))
            values, notes = end_to_end_values(passes, setup_s)
            record.update(notes)
            metrics = select_metrics(declared["end_to_end"], values)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    record.update(passes=len(passes), attempted=attempted, failed=len(failures),
                  failed_ratio=len(failures) / attempted, failures=failures[:20],
                  metrics=metrics)
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for key in ("workload", "seed", "trace", "python", "nproc", "git_commit", "passes",
                "inputs", "attempted", "inputs_beyond_p90", "raw_cpu_p50_ms",
                "calibration_median_ms", "failed_ratio"):
        if key in record:
            print("%-22s %s" % (key, record[key]))
    for name, reason in failures[:5]:
        print("FAILED %s: %s" % (name, reason))
    for point in record.get("sweep", []):
        print("sweep %-42s %-7s %s" % (point["point"], point["x"], "over_cap (%ss)" % point["cap_s"]
                                       if point.get("over_cap") else "%.3f s" % point["seconds"]))
    for name, metric in metrics.items():
        print("%-48s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
