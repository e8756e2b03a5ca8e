"""Write one trajectory entry: the per-layer baseline cases, measured traced.

    python3 bench/baseline.py --seed 0 --out bench/trajectory/0001-baseline.json

Each case runs once with `spans.Tracer` installed, on flrw_closed_osc unless
named otherwise; times are the traced spans' wall totals, so they include the
tracer's own cost, and are not adjusted for machine speed.  certify(256) is
timed untraced at threads 1 and nproc.  The entry records the machine (nproc,
CPU model, Python, numpy and its BLAS), the median time of clock.py's
reference kernel as a gauge of how busy the machine was, and the seed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import clock
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
CHART = "flrw_closed_osc"
BASE = [3.0, 1.0, 1.5, 1.5]
POINTS = 64


def machine() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    tracer = Tracer()
    tracer.install()
    catalog, certify_mod, foliation, geometry, transport = (
        importlib.import_module(f"rwcert.{name}")
        for name in ("catalog", "certify", "foliation", "geometry", "transport"))

    chart = catalog.get_chart(CHART)
    rng = np.random.default_rng(args.seed)
    lows = np.array([lo for lo, _ in chart.domain])
    highs = np.array([hi for _, hi in chart.domain])
    points = rng.uniform(lows, highs, size=(POINTS, chart.dim))
    entry: dict = {"seed": args.seed, "machine": machine(), "chart": CHART,
                   "reference_kernel_ms": 1e3 * statistics.median(
                       clock.kernel_seconds() for _ in range(200))}

    for order in (1, 2, 3):
        tracer.op = f"geometry_at.o{order}"
        for p in points:
            geometry.geometry_at(chart, p, order=order)
        entry[f"geometry_at_ms.o{order}"] = (
            1e3 * tracer.total("total_s", f"geometry_at.o{order}", op=tracer.op) / POINTS)
    tracer.op = "sample_point"
    for i, p in enumerate(points):
        certify_mod.sample_point(chart, p, rng=np.random.default_rng(i))
    entry["sample_point_ms"] = 1e3 * tracer.total("total_s", "sample_point",
                                                  op="sample_point") / POINTS

    tracer.op = "certify256"
    cert = certify_mod.certify(chart, certify_mod.CertifyConfig(samples=256, seed=args.seed))
    entry["certify256_evals.o3"] = tracer.total("calls", "geometry_at.o3", op="certify256")

    tracer.op = "rindler"
    mink = catalog.get_chart("minkowski")
    curve = transport.CurveSpec.explicit(["sinh(s)", "cosh(s)", "0", "0"])
    transport.transport(mink, curve, np.array([0.0, 1.0, 0.0, 0.0]), steps=1000)
    entry["rindler_steps1000_evals.o1"] = tracer.total("calls", "geometry_at.o1", op="rindler")
    entry["rindler_steps1000_s"] = tracer.total("total_s", "transport", op="rindler")

    # acceptance-7 slice: halfway to the probe at 3/4 of the time range
    probe = np.array(BASE)
    probe[0] = lows[0] + 0.75 * (highs[0] - lows[0])
    target = 0.5 * foliation.time_value(chart, cert, probe, BASE)
    entry["same_slice_points_args"] = {"base": BASE, "target_tau": target, "rng": 707}
    for count in (3, 30):
        tracer.op = f"same_slice_points{count}"
        foliation.same_slice_points(chart, cert, BASE, target, count,
                                    rng=np.random.default_rng(707))
        entry[f"same_slice_points{count}_evals"] = tracer.total(
            "calls", ("geometry_at.o1", "geometry_at.o2", "geometry_at.o3"), op=tracer.op)
        entry[f"same_slice_points{count}_s"] = tracer.total(
            "total_s", "same_slice_points", op=tracer.op)
    tracer.uninstall()

    for threads in (1, entry["machine"]["nproc"]):
        start = perf_counter()
        certify_mod.certify(chart, certify_mod.CertifyConfig(samples=256, seed=args.seed,
                                                             threads=threads))
        entry[f"certify256_s.threads{threads}"] = perf_counter() - start

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(entry, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
