"""The antimorph benchmark: three seeded workloads, end-to-end metrics, and a
separate traced run for per-layer metrics.

    python3 perfbench/run.py --workload full-report --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Workloads (see BENCHMARK.json for why each was chosen): full-report,
group-sections, cli-queries. All run with one closed-loop client and start
no threads; full-report starts one child process at a time.

With --trace 0 the run repeats its workload's pass until --seconds have
elapsed and reports the end-to-end metrics. Every time among them is
corrected to the nominal host speed with the reference chunk of
hostspeed.py, timed next to the work (the chunk's own time left out); the
human-readable lines give the median correction factor of the passes.

* wall_s: median seconds of one pass (the fixed work).
* setup_s: median, over one in-process and SETUP_PROBES fresh-process
  set-ups, of the time to import antimorph, build the bundled corpora and
  build the workload's generated inputs; each is corrected by chunks timed
  just before and after it.
* peak_rss_mb: peak resident memory of the process doing the work (the
  report child on full-report, this process otherwise).
* query_p50_ms, query_tail_ms: latency of one operation: a cli.main call on
  cli-queries, one round of the five section builders on one group set on
  group-sections, a whole report
  process on full-report. The tail is the highest of
  TAIL_LADDER with at least ten samples beyond it, else the maximum; the
  human-readable lines name it and the sample count.

error_rate (failed / attempted) is printed with them and is carried by the
result's "failed" and "attempted" fields.

With --trace 1 the run makes one untraced and one traced pass and reports
the per-layer metrics of `tracing.layer_metrics` plus the tracing overhead
(traced minus untraced pass seconds). Spans are written to .perfbench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every check passed,
1 when one failed, 2 when the program could not be found or run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("full-report", "group-sections", "cli-queries")
SETUP_PROBES = 12
TAIL_LADDER = (99.9, 99.0, 90.0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(name: str, seed: int):
    """(workload, seconds, host-speed factor): import antimorph, build
    corpora and inputs; the factor comes from chunks timed around it."""
    before = hostspeed.block()
    t0 = time.perf_counter()
    import workloads

    pins = json.loads((HERE / "pins.json").read_text())
    workload = workloads.WORKLOADS[name](ROOT, WORK, seed, pins)
    seconds = time.perf_counter() - t0
    return workload, seconds, hostspeed.factor_of(before + hostspeed.block())


def probe_setups(name: str, seed: int) -> list:
    """(seconds, factor) of set-ups made in SETUP_PROBES fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((probe["setup_s"], probe["factor"]))
    return out


def environment(args, load_at_start) -> dict:
    from antimorph import kernels

    return {
        "python": platform.python_version(),
        "backend": kernels.BACKEND,
        "antimorph_pure": os.environ.get("ANTIMORPH_PURE", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": load_at_start,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(round(len(sorted_values) * q / 100, 9)))
    return sorted_values[rank - 1]


def tail(values: list):
    """(label, value): the highest ladder percentile with ten samples beyond it."""
    ordered = sorted(values)
    for q in TAIL_LADDER:
        if len(ordered) * (100 - q) / 100 >= 10:
            return f"p{q:g}", percentile(ordered, q)
    return "max", ordered[-1]


def measure(workload, seconds: float) -> list:
    """Run passes until `seconds` have elapsed (at least one), sampling host
    speed in this process when the work runs here."""
    passes = []
    if workload.in_process:
        workload.sampler = hostspeed.Sampler()
        workload.sampler.start()
    try:
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            if passes:
                workload.prepare(len(passes))
            passes.append(workload.run_pass(len(passes)))
    finally:
        if workload.sampler:
            workload.sampler.stop()
            workload.sampler = None
    return passes


def end_to_end(args, workload, own_setup: tuple) -> tuple:
    setups = [own_setup] + probe_setups(args.workload, args.seed)
    passes = measure(workload, args.seconds)
    checked, final_failures = workload.final_checks()
    ops = [s * f for p in passes for s, f in zip(p.op_seconds, p.op_factors)]
    tail_label, tail_value = tail(ops)
    if args.workload == "full-report":
        rss_kb = max(p.peak_rss_kb for p in passes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(p.seconds * p.factor for p in passes), "s"),
        "setup_s": (statistics.median(s * f for s, f in setups), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "query_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "query_tail_ms": (tail_value * 1e3, "ms"),
    }
    notes = {
        "wall_s": f"median of {len(passes)} passes; uncorrected "
                  f"{statistics.median(p.seconds for p in passes):.4g} s, host factor "
                  f"{statistics.median(p.factor for p in passes):.3f}",
        "setup_s": f"median of {len(setups)} set-ups; uncorrected "
                   f"{statistics.median(s for s, _ in setups):.4g} s, host factor "
                   f"{statistics.median(f for _, f in setups):.3f}",
        "query_p50_ms": f"{len(ops)} operations",
        "query_tail_ms": f"{tail_label} of {len(ops)} operations",
    }
    attempted = sum(p.attempted for p in passes) + checked
    failures = [f for p in passes for f in p.failures] + final_failures
    return metrics, notes, attempted, failures


def traced(args, workload) -> tuple:
    import tracing
    import workloads

    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.bin"
    untraced = workload.run_pass(0)
    attempted, failures = untraced.attempted, list(untraced.failures)
    if args.workload == "full-report":
        seconds, code, out, stderr, _ = workload.run_child(
            [sys.executable, str(HERE / "traced_report.py"), str(spans_path)])
        attempted += 1
        try:
            child = json.loads(out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            failures.append(f"traced report: exit {code} {stderr[-300:]}")
            child = {"metrics": {}, "spans": 0}
        else:
            problem = workloads.check_report_summary(
                child["sha256"], child["checks"], child["exit"], workload.pins["report"])
            if problem:
                failures.append(f"traced report: {problem}")
        layer, spans = child["metrics"], child["spans"]
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = workload.run_pass(0, tracer)
        finally:
            tracer.uninstall()
        tracer.write(spans_path)
        seconds = result.seconds
        attempted += result.attempted
        failures += result.failures
        layer, spans = tracing.layer_metrics(tracer.summary()), tracer.span_count()
    metrics = {name: tuple(v) for name, v in layer.items()}
    metrics["trace.overhead_s"] = (seconds - untraced.seconds, "s")
    metrics["trace.spans"] = (spans, "count")
    notes = {"trace.overhead_s": f"traced {seconds:.4f} s - untraced {untraced.seconds:.4f} s"}
    return metrics, notes, attempted, failures


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], cwd=ROOT)
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    load_at_start = os.getloadavg()[0]
    args = parse_args(argv)
    if not (SRC / "antimorph" / "__init__.py").is_file():
        sys.stderr.write(f"error: no antimorph sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    workload, setup_seconds, setup_factor = set_up(args.workload, args.seed)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_seconds, "factor": setup_factor}))
            return 0
        env = environment(args, load_at_start)
        if args.trace:
            metrics, notes, attempted, failures = traced(args, workload)
        else:
            metrics, notes, attempted, failures = end_to_end(
                args, workload, (setup_seconds, setup_factor))
    finally:
        workload.close()

    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<44} {value:>14.6g} {unit}{note}")
    print(f"{'error_rate':<44} {len(failures) / attempted:>14.6g} ratio"
          f"  ({len(failures)} failed of {attempted} attempted)")
    for message in failures[:20]:
        print(f"# FAILED {message}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    WORK.mkdir(exist_ok=True)
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"env": env, **result}) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
