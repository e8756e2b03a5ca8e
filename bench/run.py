"""rwcert benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py --workload check-catalog --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
One process runs one workload as a closed loop with one client: the next
operation starts when the previous one has returned.  Operations run in
rounds; each gets an equal share of `--seconds`, so cheap ones repeat more and
the repeats of each are spread over the run.  Every output is checked; a wrong
result, a traceback or an unexpected exit code counts the operation as
failed, and it stays in `attempted`.

`--trace 0` reports the end-to-end metrics with tracing off.  Times are
adjusted to a reference machine speed measured while they run (clock.py);
each operation's latency is the median of its runs, and the workload's p50,
p90 and ops_per_s weigh its operations one each.  The set-up time is the
median over fresh interpreters started before the first round and after each.

`--trace 1` runs one untraced and one traced round, whatever `--seconds` is,
so that the traced counts repeat exactly, and reports the per-layer metrics
per traced operation plus the tracing overhead; the spans go to
`.bench_out/`.  `--smoke` runs the same code at tiny sizes in seconds.  The
last line of stdout is the JSON result; the lines above it show each metric
with its unit.  Workloads and metrics are listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import clock
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_FIRST = 3         # set-up timings before the first round; one after each round
THREADS_CHART = "flrw_closed_osc"

# Runs of each operation at least: check-catalog compares the reports of two
# runs with the same seed byte for byte; slice-schur's costliest operation
# would otherwise run once, and the median of one run is as noisy as the
# machine.
MIN_REPEATS = {"check-catalog": 2, "slice-schur": 2}

_SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import rwcert.cli; "
                "from rwcert import catalog; [catalog.get_chart(c) for c in sys.argv[2:]]")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for a test that the harness still runs")
    return parser.parse_args(argv)


@dataclass
class Sample:
    label: str
    seconds: float      # wall time
    adjusted: float     # wall time at the reference speed (clock.py)
    ok: bool


def time_setup(chart_ids: list[str]) -> clock.Interval:
    """A fresh interpreter importing rwcert.cli and building the workload's
    charts, timed."""
    with clock.Interval(inside=False) as interval:
        subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), *chart_ids],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return interval


def run_op(op, tracer=None) -> Sample:
    """Time op.run() and check its output.  Failures go to stderr."""
    if tracer is not None:
        tracer.op = op.label
    try:
        with clock.Interval() as interval:
            result = op.run()
        problems = op.check(result)
    except Exception:
        problems = [traceback.format_exc()]
    for problem in problems:
        print(f"FAILED {op.label}: {problem}", file=sys.stderr)
    return Sample(op.label, interval.seconds, interval.adjusted, not problems)


def run_rounds(ops, budget: float, min_repeats: int, tracer=None, after_round=None):
    """Rounds over the operations, each round running every operation that
    has not used its equal share of `budget` (wall seconds), or has run
    fewer than `min_repeats` times; `after_round()` runs after each round.
    Cheap operations so get more repeats, and the repeats of each are spread
    over the run."""
    share = budget / len(ops)
    spent = {op.label: 0.0 for op in ops}
    runs = {op.label: 0 for op in ops}
    samples = []
    while True:
        due = [op for op in ops if runs[op.label] < min_repeats
               or spent[op.label] * (runs[op.label] + 1) / runs[op.label] <= share]
        if not due:
            return samples
        for op in due:
            sample = run_op(op, tracer)
            samples.append(sample)
            spent[op.label] += sample.seconds
            runs[op.label] += 1
        if after_round is not None:
            after_round()


def nearest_rank(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def op_latencies(samples, field: str = "adjusted") -> dict[str, float]:
    """Each operation's median time over its correct runs (over all its runs
    when none was correct)."""
    latencies = {}
    for label in dict.fromkeys(s.label for s in samples):
        runs = [s for s in samples if s.label == label]
        chosen = [s for s in runs if s.ok] or runs
        latencies[label] = statistics.median(getattr(s, field) for s in chosen)
    return latencies


def end_to_end(samples, setups) -> dict:
    """The workload's operations weigh one each: p50 and p90 are taken over
    the per-operation median latencies, and ops_per_s is one of each
    operation per their summed latency."""
    latencies = op_latencies(samples)
    wall = op_latencies(samples, "seconds")
    for label, value in latencies.items():
        repeats = sum(1 for s in samples if s.label == label)
        print(f"{label}: {value:.4g} s adjusted, {wall[label]:.4g} s wall, "
              f"median of {repeats} runs")
    values = list(latencies.values())
    p90 = nearest_rank(values, 0.9)
    print(f"{len(values)} operations, {sum(1 for v in values if v > p90)} beyond p90; "
          f"set-up timed {len(setups)} times, {statistics.median(i.seconds for i in setups):.4g} s "
          f"wall median")
    return {
        "setup_s": (statistics.median(i.adjusted for i in setups), "s"),
        "latency_p50_s": (statistics.median(values), "s"),
        "latency_p90_s": (p90, "s"),
        "ops_per_s": (len(values) / sum(values), "1/s"),
        "success_ratio": (sum(1 for s in samples if s.ok) / len(samples), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def threads_speedup(seed: int, points: int) -> float:
    """certify(points) time at threads=1 over its time at threads=nproc."""
    from rwcert import catalog
    from rwcert.certify import CertifyConfig, certify
    chart = catalog.get_chart(THREADS_CHART)
    times = {}
    for threads in (1, len(os.sched_getaffinity(0))):
        start = perf_counter()
        certify(chart, CertifyConfig(samples=points, seed=seed, threads=threads))
        times[threads] = perf_counter() - start
    return times[1] / times[max(times)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, ops, traced, untraced, speedup: float) -> dict:
    """Per traced operation; span times are adjusted with their operation's
    reference speed, like the end-to-end times."""
    n = len(traced)
    speed = {s.label: s.adjusted / s.seconds for s in traced}
    geometry = ("geometry_at.o1", "geometry_at.o2", "geometry_at.o3")
    placed = sum(op.info.get("placed", 0) for op in ops)
    candidates = sum(op.info.get("candidates", 0) for op in ops)
    steps = sum(op.info.get("steps", 0) for op in ops)

    def calls(names, **where):
        return tracer.total("calls", names, **where)

    def seconds(field, names, **where):
        return tracer.total(field, names, scale=speed, **where)

    metrics = {
        "exprs.calls": (calls("eval_expr") / n, "count"),
        "exprs.self_s": (seconds("self_s", "eval_expr") / n, "s"),
    }
    for name in geometry:
        order = name[-2:]
        metrics[f"geometry.evals.{order}"] = (calls(name) / n, "count")
        metrics[f"geometry.self_us_per_eval.{order}"] = (
            1e6 * _ratio(seconds("self_s", name), calls(name)), "us")
    metrics.update({
        "geometry.errors": (tracer.total("errors", geometry) / n, "count"),
        "certify.residuals_self_s": (seconds("self_s", "sample_point") / n, "s"),
        "certify.self_s": (seconds("self_s", "certify") / n, "s"),
        "certify.threads_speedup": (speedup, "ratio"),
        "foliation.time_value.calls": (calls("time_value") / n, "count"),
        "foliation.time_value.self_s": (seconds("self_s", "time_value") / n, "s"),
        "foliation.evals_per_time_value": (
            _ratio(calls(geometry, under="time_value"), calls("time_value")), "count"),
        "foliation.flow_point.calls": (calls("flow_point") / n, "count"),
        "foliation.scale_factor_profile.self_s": (
            seconds("self_s", "scale_factor_profile") / n, "s"),
        "foliation.evals_per_slice_point": (
            _ratio(calls(geometry, under="same_slice_points"), placed), "count"),
        "foliation.slice_yield": (_ratio(placed, candidates), "ratio"),
        "transport.self_s": (seconds("self_s", "transport") / n, "s"),
        "transport.evals_per_step": (
            _ratio(calls(geometry, under="transport"), steps), "count"),
        "transport.gram_drift_s": (seconds("total_s", "gram_drift") / n, "s"),
        "chart.load_s": (seconds("total_s", "chart_from_dict") / n, "s"),
        "report.render_s": (seconds("total_s", "report") / n, "s"),
        "cli.self_s": (seconds("self_s", "cli.main") / n, "s"),
        "trace.overhead_ratio": (sum(op_latencies(traced).values())
                                 / sum(op_latencies(untraced).values()), "ratio"),
    })
    for op in ops:
        counts = " ".join(f"{name[-2:]}={calls(name, op=op.label)}" for name in geometry)
        inner = calls(geometry, op=op.label, under="transport")
        print(f"{op.label}: geometry evaluations {counts}"
              + (f", {inner} of them inside transport()" if inner else ""))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rwcert" / "cli.py").is_file():
        print(f"error: no rwcert sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.Sizes()
    chart_ids, ops = workloads.WORKLOADS[args.workload](args.seed, sizes)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, {sizes}")

    OUT.mkdir(exist_ok=True)
    with clock.pinned():
        if args.trace == 0:
            time_setup(chart_ids)   # compiles the bytecode; not measured
            setups = [time_setup(chart_ids) for _ in range(SETUP_FIRST)]
            warmup = [run_op(ops[0])]
            samples = run_rounds(ops, args.seconds, MIN_REPEATS.get(args.workload, 1),
                                 after_round=lambda: setups.append(time_setup(chart_ids)))
            metrics = end_to_end(samples, setups)
        else:
            warmup = [run_op(ops[0])]
            # one round each, so that the traced counts repeat exactly
            untraced = run_rounds(ops, 0.0, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_rounds(ops, 0.0, 1, tracer)
            finally:
                tracer.uninstall()
            samples = untraced + traced
    if args.trace == 1:
        speedup = threads_speedup(args.seed, sizes.check_points)
        metrics = per_layer(tracer, ops, traced, untraced, speedup)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    with open(OUT / f"samples-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump([vars(s) for s in warmup + samples], fh, indent=0)
    attempted = len(warmup) + len(samples)
    failed = sum(1 for s in warmup + samples if not s.ok)
    print(f"attempted {attempted}, failed {failed}, failed_ratio {failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
