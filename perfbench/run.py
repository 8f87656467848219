"""Benchmark of the neron engine: four workloads, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for the job lists):
  corpus  every CLI subcommand on golden/, in text and JSON
  tower   auto-trunc of Gm to level 8, GmxGa to 3, B2 and GL2 to 2
  mix     seeded blowups of library groups at flat centres, a quarter
          blown up twice, each result certified by check_hopf and check_flat
  gauge   dgal-diagnose of exp to level 10 and of seeded rank-1 and rank-2
          connections

One process, one thread, a closed loop with one client: each job starts
when the previous one ends.  A pass runs the workload's job list once;
passes repeat until --seconds is used up, and the statistics read the last
WINDOW passes (workloads.py).  Every job's output is checked against the
recorded output (expected/), JSON envelopes against report.v1.json.

Times are scaled to a reference machine speed measured between jobs
(calibrate.py); the text lines also show the raw times and the speed.

--trace 0 prints the end-to-end metrics:
  setup_s      median time of fresh interpreters that import neron, build
               the CLI parser and parse the workload's inputs
  wall_s       median time of one pass
  job_p50_ms   median job latency
  job_tail_ms  highest percentile with at least ten samples beyond it
  peak_rss_mb  peak resident set of this process
--trace 1 spends half the time untraced and half with every public
function of each neron module wrapped in a span (tracing.py), and prints the
per-layer metrics: self time, calls and errors of each layer, Groebner,
Hopf, linear-algebra and parser counters, and the tracing overhead.  The
counters of every traced pass must agree, and the layer self times must
add up to the traced job time, or the run is not correct.  Spans of the
last traced pass are written to perfbench/traces/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  If neron or the recorded outputs are missing, the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import jobs  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10


class Pass:
    """Timings of one pass: job start times (s) and latencies (ns)."""

    def __init__(self, starts, latencies_ns, failures, spans):
        self.starts = starts
        self.latencies_ns = latencies_ns
        self.failures = failures
        self.spans = spans
        self.scaled_ns = None

    def scale(self, meter):
        self.scaled_ns = [ns * meter.factor(t, t + ns / 1e9)
                          for t, ns in zip(self.starts, self.latencies_ns)]

    @property
    def wall_ns(self):
        return sum(self.latencies_ns)

    @property
    def scaled_wall_ns(self):
        return sum(self.scaled_ns)


def run_pass(job_list, check, meter, tracer=None) -> Pass:
    """Run every job once, in order; check outputs after the timed loop."""
    gc.collect()
    results, starts, latencies = [], [], []
    first_span = len(tracer.spans) if tracer else 0
    for i, job in enumerate(job_list):
        meter.tick()
        t0 = time.perf_counter_ns()
        result = tracer.run_job(i, job.run) if tracer else job.run()
        latencies.append(time.perf_counter_ns() - t0)
        starts.append(t0 / 1e9)
        results.append(result)
    meter.sample()
    failures = []
    for job, result in zip(job_list, results):
        reason = check(job, result)
        if reason is not None:
            failures.append(f"{job.key}: {reason}")
    spans = (first_span, len(tracer.spans) if tracer else 0)
    return Pass(starts, latencies, failures, spans)


def run_passes(job_list, check, meter, seconds, min_passes, tracer=None,
               on_pass=None):
    """Passes until the next one would overrun the time budget.

    on_pass(pass, share of the budget used) runs after each pass.
    """
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(job_list, check, meter, tracer)
        passes.append(p)
        if on_pass:
            on_pass(p, (time.perf_counter() - start) / seconds)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + p.wall_ns / 1e9 > seconds:
            return passes


class SetupProbe:
    """Times of fresh interpreters that run setup_probe.py.

    The probes are spread over the run, between passes, so that they meet
    the machine at the same moments as the passes do.
    """

    def __init__(self, inputs, meter):
        self.spec = json.dumps(inputs)
        self.meter = meter
        self.runs = []  # (start s, elapsed s)

    def launch(self):
        self.meter.tick()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              input=self.spec, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, cwd=str(jobs.ROOT))
        self.runs.append((t0, time.perf_counter() - t0))
        if proc.returncode != 0:
            raise jobs.Unavailable("setup probe failed: " + proc.stderr.strip()[-500:])

    def keep_pace(self, _pass, used):
        while len(self.runs) < min(SETUP_RUNS, math.ceil(SETUP_RUNS * used)):
            self.launch()

    def finish(self):
        while len(self.runs) < SETUP_RUNS:
            self.launch()
        self.meter.sample()

    def medians(self):
        """(scaled, raw) median probe time in seconds."""
        scaled = [s * self.meter.factor(t, t + s) for t, s in self.runs]
        return statistics.median(scaled), statistics.median(s for _, s in self.runs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, passes, setup, meter):
    window = passes[-workloads.WINDOW[name]:]
    lat = sorted(x for p in window for x in p.scaled_ns)
    n = len(lat)
    tail_at = max(0, n - TAIL_BEYOND - 1)
    setup_s, setup_raw = setup.medians()
    raw_wall = statistics.median(p.wall_ns for p in window) / 1e9
    speeds = [s for _, s in meter.samples]
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters between "
                   f"passes; raw {setup_raw:.4f} s",
        "wall_s": f"median of the last {len(window)} of {len(passes)} passes; "
                  f"raw {raw_wall:.4f} s",
        "job_p50_ms": f"median of {n} job latencies",
        "job_tail_ms": f"p{100.0 * (tail_at + 1) / n:.1f}: {TAIL_BEYOND} of "
                       f"{n} samples beyond it",
        "peak_rss_mb": f"this process; machine speed {min(speeds):.2f} to "
                       f"{max(speeds):.2f} over {len(speeds)} samples",
    }
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(p.scaled_wall_ns for p in window) / 1e9, "s"),
        "job_p50_ms": metric(statistics.median(lat) / 1e6, "ms"),
        "job_tail_ms": metric(lat[tail_at] / 1e6, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, notes


METRIC_UNITS = {"self_s": "s", "calls": "count", "errors": "count",
                "basis_reuse_ratio": "ratio", "density": "ratio",
                "bytes_in": "bytes", "overhead_s": "s"}


def per_layer(untraced, traced, tracer):
    """Per-layer metrics, notes on them, and the problems that make the run
    incorrect: counters that differ between traced passes, or layer self
    times that do not add up to the traced job time."""
    from tracing import LAYERS
    problems = []
    self_s = {layer: [] for layer in LAYERS}
    job_s = []
    counts = []
    for p in traced:
        layer_ns, _, _, _, root_ns, balanced = tracer.layer_stats(*p.spans)
        factor = p.scaled_wall_ns / p.wall_ns
        for layer in LAYERS:
            self_s[layer].append(layer_ns[layer] * factor / 1e9)
        job_s.append(root_ns * factor / 1e9)
        if not balanced:
            problems.append("layer self times do not add up to the job spans")
        if root_ns > p.wall_ns:
            problems.append("job spans outlast the measured job latencies")
        counts.append(p.counters)
    for i, c in enumerate(counts[1:], 2):
        diff = sorted(k for k in c if c[k] != counts[0][k])
        if diff:
            problems.append(f"traced pass {i} counted differently: {', '.join(diff)}")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = metric(statistics.median(self_s[layer]), "s")
    for key, value in counts[0].items():
        metrics[key] = metric(value, METRIC_UNITS.get(key.split(".", 1)[1], "count"))
    traced_wall = statistics.median(p.scaled_wall_ns for p in traced) / 1e9
    untraced_wall = statistics.median(p.scaled_wall_ns for p in untraced) / 1e9
    metrics["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    notes = {
        "cli.self_s": f"job time outside every other layer's spans; all "
                      f"layers sum to {total:.4f} s, traced job time "
                      f"{statistics.median(job_s):.4f} s",
        "trace.overhead_s": f"traced {traced_wall:.4f} s - untraced "
                            f"{untraced_wall:.4f} s per pass, medians of "
                            f"{len(traced)} and {len(untraced)} passes",
    }
    return metrics, notes, problems


def traced_run(name, seed, seconds, job_list, check, meter):
    """Untraced passes for half the time, then traced passes."""
    from tracing import Tracer
    untraced = run_passes(job_list, check, meter, seconds / 2, 1)
    tracer = Tracer()
    tracer.install()

    def snapshot(p, _used):
        p.counters = tracer.counters(*p.spans)
        tracer.reset()

    try:
        traced = run_passes(job_list, check, meter, seconds / 2, 2, tracer, snapshot)
    finally:
        tracer.uninstall()
    for p in untraced + traced:
        p.scale(meter)
    metrics, notes, problems = per_layer(untraced, traced, tracer)
    out = HERE / "traces"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"{name}-seed{seed}.jsonl", traced[-1].spans,
                {"workload": name, "seed": seed, "pass": len(traced),
                 "jobs": [j.key for j in job_list]})
    return metrics, notes, problems, untraced + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    name = args.workload

    try:
        jobs.load_neron()
        check = jobs.checker(name)
    except (jobs.Unavailable, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = []
    meter = calibrate.Speedometer()
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        job_list, inputs = jobs.build(name, args.seed, Path(tmp))
        try:
            if args.trace:
                metrics, notes, problems, passes = traced_run(
                    name, args.seed, args.seconds, job_list, check, meter)
            else:
                setup = SetupProbe(inputs, meter)
                setup.launch()
                passes = run_passes(job_list, check, meter, args.seconds,
                                    workloads.WINDOW[name], on_pass=setup.keep_pace)
                setup.finish()
                for p in passes:
                    p.scale(meter)
                metrics, notes = end_to_end(name, passes, setup, meter)
        except (jobs.Unavailable, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies_ns) for p in passes)
    fail_ratio = metric(len(failures) / attempted, "ratio")
    if args.trace:
        metrics["fail_ratio"] = fail_ratio
    notes["fail_ratio"] = f"{len(failures)} of {attempted} jobs"

    print(f"workload {name}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {len(job_list)} jobs")
    for key, m in {**metrics, "fail_ratio": fail_ratio}.items():
        note = notes.get(key)
        print(f"  {key:30s} {m['value']:>14.6g} {m['unit']:6s}"
              + (f"  ({note})" if note else ""))
    for line in problems + failures[:20]:
        print(f"  FAILED {line}")

    print(json.dumps({"correct": not failures and not problems,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
