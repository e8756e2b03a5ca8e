"""The benchmark's workloads, each a list of operations with output checks.

A workload function takes the seed and the sizes and returns the chart ids
that set-up builds and the operations.  An operation is one user-visible unit of work: a CLI command run in-process
through `rwcert.cli.main`, or, for slice-schur, the acceptance-7 protocol
around one `rwcert slice` command.  `Op.run()` is the timed part and returns
what `Op.check()` needs; `check` returns a list of problems, empty when the
output is correct.  Every input is derived from the workload seed.

Functions of rwcert are looked up through their modules at call time, so the
wrappers that `spans.Tracer` installs are seen.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Base points of the acceptance-7 protocol (tests/test_acceptance.py)
SLICE_BASES = {
    "flrw_flat_linear": [2.0, 0.0, 0.0, 0.0],
    "flrw_closed_osc": [3.0, 1.0, 1.5, 1.5],
    "flrw_open": [1.5, 1.0, 1.5, 1.5],
    "einstein_static": [0.0, 1.0, 1.2, 1.5],
    "riemannian_grw": [2.2, 0.0, 0.0, 0.0],
}

# The curves of acceptance 9: (label, chart, curve arguments, start vector)
TRANSPORT_CURVES = (
    ("rindler", "minkowski",
     ["--curve", "explicit", "--exprs", "sinh(s),cosh(s),0,0"], [0.0, 1.0, 0.0, 0.0]),
    ("flrw_comoving", "flrw_flat_linear",
     ["--curve", "u", "--start", "2.0,0.1,0.2,0.3"], [0.0, 0.25, 0.0, 0.0]),
    ("closed_geodesic", "flrw_closed_osc",
     ["--curve", "geodesic", "--start", "3.0,1.0,1.5,1.5", "--velocity", "1,0,0,0"],
     [0.0, 0.2, 0.1, -0.05]),
)

DRIFT_TOL = 1e-8


@dataclass
class Sizes:
    check_points: int = 256
    slice_points: int = 10          # same-slice points placed per operation
    slice_certify_points: int = 32
    transport_steps: int = 1000


SMOKE_SIZES = Sizes(check_points=8, slice_points=2, slice_certify_points=8,
                    transport_steps=20)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    info: dict = field(default_factory=dict)   # sizes and counts the trace reads


def run_cli(argv: list[str]) -> tuple[int, str]:
    """rwcert.cli.main(argv) with stdout captured; an argparse exit is a code."""
    from rwcert import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code if isinstance(exit_.code, int) else 2
    return code, out.getvalue()


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# -- check-catalog ----------------------------------------------------------------

def check_catalog(seed: int, sizes: Sizes) -> tuple[list[str], list[Op]]:
    """`rwcert check ID --points N --seed S --expect EXPECTED` for each catalog id.

    Every repeat of an (id, seed) must give the bytes of its first report."""
    from rwcert import catalog
    first_report: dict[str, str] = {}
    ops = []
    for entry in catalog.list_catalog():
        argv = ["check", entry.entry_id, "--points", str(sizes.check_points),
                "--seed", str(seed), "--expect", entry.expected]

        def check(result, entry=entry):
            code, text = result
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            try:
                verdict = json.loads(text)["certificate"]["classification"]
            except (ValueError, KeyError, TypeError) as err:
                return problems + [f"unreadable report: {err!r}"]
            if verdict != entry.expected:
                problems.append(f"verdict {verdict}, expected {entry.expected}")
            if first_report.setdefault(entry.entry_id, text) != text:
                problems.append("report bytes differ from the first run with this seed")
            return problems

        ops.append(Op(f"check:{entry.entry_id}", lambda argv=argv: run_cli(argv), check))
    return list(catalog.CATALOG), ops


# -- slice-schur ------------------------------------------------------------------

class SlicePoints:
    """Candidate points for same_slice_points, in place of its numpy Generator.

    The leading coordinate, the time coordinate of every LocallyRW catalog
    chart, takes the midpoints of `count` equal strata in a seeded order; the
    others are drawn uniformly from the seed.  Shooting a candidate costs more
    the farther it is in time from the slice, so with strata every seed does
    nearly the same work.  Counts the candidates drawn."""

    def __init__(self, seed: int, count: int):
        self._rng = np.random.default_rng(seed)
        self._order = self._rng.permutation(count)
        self.draws = 0

    def uniform(self, low, high):
        point = self._rng.uniform(low, high)
        if self.draws < len(self._order):
            share = (self._order[self.draws] + 0.5) / len(self._order)
            point[0] = low[0] + share * (high[0] - low[0])
        self.draws += 1
        return point


def _slice_op(chart_id: str, seed: int, sizes: Sizes) -> Op:
    from rwcert import catalog, foliation
    certify_mod = importlib.import_module("rwcert.certify")

    chart = catalog.get_chart(chart_id)
    base = np.array(SLICE_BASES[chart_id])
    lows = np.array([lo for lo, _ in chart.domain])
    highs = np.array([hi for _, hi in chart.domain])
    op = Op(f"slice:{chart_id}", None, None)

    def run():
        cert = certify_mod.certify(chart, certify_mod.CertifyConfig(
            samples=sizes.slice_certify_points, seed=seed))
        # slices halfway to the probes at 1/4 and 3/4 of the time range
        probes = []
        for share in (0.25, 0.75):
            probe = base.copy()
            probe[0] = lows[0] + share * (highs[0] - lows[0])
            probes.append(foliation.time_value(chart, cert, probe, base))
        taus = [0.5 * probes[0], 0.0, 0.5 * probes[1]]
        # '=' form: argparse reads a value starting with '-' as an option
        code, text = run_cli(["slice", chart_id, "--base", _fmt(base),
                              f"--tau-grid={_fmt(taus)}",
                              "--points", str(sizes.slice_certify_points),
                              "--seed", str(seed), "--expect", "LocallyRW"])
        rng = SlicePoints(seed, sizes.slice_points)
        points = foliation.same_slice_points(chart, cert, base, taus[2],
                                             sizes.slice_points, rng=rng)
        curvatures = np.array([foliation.slice_curvature(chart, p) for p in points])
        op.info.update(placed=len(points), candidates=rng.draws)
        return code, text, curvatures

    def check(result):
        code, text, curvatures = result
        problems = []
        if code != 0:
            problems.append(f"slice exit code {code}")
        else:
            samples = json.loads(text)["foliation"]["samples"]
            a = np.array([row["a"] for row in samples], dtype=float)
            if chart_id == "einstein_static" and np.abs(a - 1.0).max() >= 1e-9:
                problems.append(f"einstein_static a deviates from 1 by {np.abs(a - 1.0).max():.3e}")
        if len(curvatures) != sizes.slice_points:
            problems.append(f"{len(curvatures)} slice points, expected {sizes.slice_points}")
        else:
            spread = curvatures.std() / (1.0 + abs(curvatures.mean()))
            if not spread < 1e-6:
                problems.append(f"K_tau spread {spread:.3e} >= 1e-6 (1 + |K|)")
        return problems

    op.run, op.check = run, check
    return op


def slice_schur(seed: int, sizes: Sizes) -> tuple[list[str], list[Op]]:
    """The acceptance-7 protocol on each LocallyRW chart, one slice per operation."""
    return list(SLICE_BASES), [_slice_op(cid, seed, sizes) for cid in SLICE_BASES]


# -- transport-battery ------------------------------------------------------------

def transport_battery(seed: int, sizes: Sizes) -> tuple[list[str], list[Op]]:
    """`rwcert transport` along the acceptance-9 curves; Gram drift <= 1e-8.

    The seed tilts the transported vector by up to 0.05 per component."""
    rng = np.random.default_rng(seed)
    ops = []
    for label, chart_id, curve_args, x0 in TRANSPORT_CURVES:
        x0 = np.array(x0) + rng.uniform(-0.05, 0.05, size=len(x0))
        argv = ["transport", chart_id, *curve_args, f"--x0={_fmt(x0)}",
                "--steps", str(sizes.transport_steps), "--drift-tol", repr(DRIFT_TOL),
                "--seed", str(seed)]

        def check(result):
            code, text = result
            problems = [] if code == 0 else [f"exit code {code}"]
            try:
                drift = float(json.loads(text)["transport"]["gram_drift"])
            except (ValueError, KeyError, TypeError) as err:
                return problems + [f"unreadable report: {err!r}"]
            if not drift <= DRIFT_TOL:
                problems.append(f"Gram drift {drift:.3e} > {DRIFT_TOL}")
            return problems

        ops.append(Op(f"transport:{label}", lambda argv=argv: run_cli(argv), check,
                      {"steps": sizes.transport_steps}))
    return sorted({c for _, c, _, _ in TRANSPORT_CURVES}), ops


WORKLOADS = {
    "check-catalog": check_catalog,
    "slice-schur": slice_schur,
    "transport-battery": transport_battery,
}
