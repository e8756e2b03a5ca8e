"""Command-line interface.

    rwcert list
    rwcert check CHART [options]
    rwcert slice CHART --base PT --tau-grid GRID [options]
    rwcert transport CHART --curve KIND ... --x0 VEC [options]

CHART is a catalog id or a path to a .chart.json file.  Exit codes: 0 pass,
1 check or classification failure, 2 input/format error.  Reports go to the
--report path or stdout; human chatter and wall-clock always go to stderr, so
report bytes stay deterministic.  No environment variables are consulted.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import __version__, catalog, report
from .certify import (CertificationInputError, CertifyConfig, certify,
                      DEFAULT_TOL_MARGIN, DEFAULT_TOL_PASS, CLASSIFICATIONS)
from .chart import ChartError, ChartSpec, load_chart
from .exprs import EvalDomainError
from .foliation import FoliationError, scale_factor_profile
from .geometry import GeometryError
from .transport import CurveError, CurveSpec, TransportError, gram_drift, transport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

TAU_GRID_MAX = 100_000   # values the --tau-grid range form may expand to
POINTS_MAX = 100_000     # --points: each sample keeps its point, seed and residuals
STEPS_MAX = 100_000      # --steps: transport keeps a table row per step, per doubling


# Options whose value is a comma-separated list, which may start with '-'
# ("--tau-grid -0.1,0.1"); argparse alone would read such a value as an option.
_LIST_OPTIONS = frozenset({"--tau-grid", "--base", "--start", "--velocity", "--x0",
                           "--range", "--exprs"})


class _InputError(Exception):
    """User input problem: catch-all mapped to exit code 2."""


def main(argv=None) -> int:
    parser, subcommands = _build_parser()
    args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv,
                                                 subcommands))
    if args.subcommand is None:
        parser.print_help(sys.stderr)
        return EXIT_INPUT
    started = time.perf_counter()
    try:
        code = args.handler(args)
    except (_InputError, ChartError, CurveError, CertificationInputError,
            GeometryError, EvalDomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    print(f"[rwcert] {args.subcommand} finished in {time.perf_counter() - started:.2f}s "
          f"(wall-clock, not part of any report)", file=sys.stderr)
    return code


def _attach_list_values(argv, subcommands: dict) -> list[str]:
    """Rewrite `--opt VALUE` as `--opt=VALUE` for the list options, so that the
    token after one of them is always its value.  An abbreviation counts when
    it is the prefix of exactly one option of the subcommand, which is how
    argparse resolves it; an ambiguous one is left for argparse to reject."""
    out: list[str] = []
    options: list[str] | None = None
    tokens = iter(argv)
    for token in tokens:
        if options is None:
            if token in subcommands:
                options = list(subcommands[token]._option_string_actions)
        elif token.startswith("--") and "=" not in token:
            named = [token] if token in options else [o for o in options
                                                      if o.startswith(token)]
            if len(named) == 1 and named[0] in _LIST_OPTIONS:
                value = next(tokens, None)
                if value is not None:
                    token = f"{token}={value}"
        out.append(token)
    return out


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and the parser of each subcommand by name."""
    parser = argparse.ArgumentParser(prog="rwcert",
                                     description="Certify the Robertson-Walker "
                                                 "curvature form of a metric.")
    parser.add_argument("--version", action="version", version=f"rwcert {__version__}")
    sub = parser.add_subparsers(dest="subcommand")
    parser.set_defaults(subcommand=None)

    sub_list = sub.add_parser("list", help="list the built-in chart catalog")
    sub_list.set_defaults(handler=cmd_list)

    for name, helptext, handler in (
            ("check", "certify a chart", cmd_check),
            ("slice", "reconstruct the slice structure (needs LocallyRW)", cmd_slice),
            ("transport", "Fermi-transport a vector along a curve", cmd_transport)):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("chart", help="catalog id or path to a .chart.json file")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--report", default=None, help="write the JSON report here "
                                                      "instead of stdout")
        p.set_defaults(handler=handler)
        if name != "transport":
            p.add_argument("--points", type=int, default=64,
                           help="sample count (default 64, at most 100000)")
            p.add_argument("--tol", type=float, default=DEFAULT_TOL_PASS,
                           help="residual pass tolerance")
            p.add_argument("--margin", type=float, default=DEFAULT_TOL_MARGIN,
                           help="|h - eps f| nondegeneracy margin")
            p.add_argument("--expect", choices=CLASSIFICATIONS, default=None,
                           help="fail (exit 1) unless the classification matches")
        if name == "slice":
            p.add_argument("--base", required=True, help="base point, comma-separated")
            p.add_argument("--tau-grid", required=True, dest="tau_grid",
                           help="'start:stop:step' (at most 100000 values) "
                                "or comma-separated tau values")
        if name == "transport":
            p.add_argument("--curve", required=True, choices=("u", "explicit", "geodesic"))
            p.add_argument("--start", default=None, help="curve start point (u/geodesic)")
            p.add_argument("--velocity", default=None, help="geodesic start velocity")
            p.add_argument("--exprs", default=None,
                           help="explicit curve components, comma-separated expressions")
            p.add_argument("--param", default="s", help="explicit curve parameter name")
            p.add_argument("--range", default="0,1",
                           help="parameter range 't0,t1' (default 0,1)")
            p.add_argument("--x0", required=True, help="vector to transport")
            p.add_argument("--steps", type=int, default=None,
                           help="integration steps (default from step size 1e-3, "
                                "at most 100000)")
            p.add_argument("--drift-tol", type=float, default=1e-8, dest="drift_tol",
                           help="fail (exit 1) when Gram drift exceeds this")
    return parser, sub.choices


def _resolve_chart(arg: str) -> tuple[ChartSpec, str]:
    if os.path.exists(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise _InputError(f"cannot read {arg}: {err}") from err
        chart = load_chart(text)
        return chart, text
    if arg in catalog.CATALOG:
        entry = catalog.get_entry(arg)
        return entry.chart(), entry.source
    raise _InputError(f"{arg!r} is neither a readable file nor a catalog id "
                      f"(ids: {', '.join(catalog.CATALOG)})")


def _floats(text: str, label: str, expected: int | None = None) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise _InputError(f"{label} must be comma-separated numbers: {err}") from err
    if not all(math.isfinite(v) for v in values):
        raise _InputError(f"{label} must be finite numbers, got {text!r}")
    if expected is not None and len(values) != expected:
        raise _InputError(f"{label} needs {expected} components, got {len(values)}")
    return values


def _tau_grid(text: str) -> np.ndarray:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _InputError("--tau-grid range form is start:stop:step")
        start, stop, step = _floats(text.replace(":", ","), "--tau-grid", 3)
        if step <= 0 or stop < start:
            raise _InputError("--tau-grid needs step > 0 and stop >= start")
        count = np.rint((stop - start) / step) + 1    # inf if the ratio overflows
        if count > TAU_GRID_MAX:
            raise _InputError(f"--tau-grid range form gives {count:.0f} values, "
                              f"more than the limit of {TAU_GRID_MAX}")
        return start + step * np.arange(int(count))
    return np.array(_floats(text, "--tau-grid"))


def _emit(args, document: dict) -> None:
    text = report.render_report(document)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"[rwcert] report written to {args.report}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _config(args) -> CertifyConfig:
    return CertifyConfig(samples=args.points, seed=args.seed, tol_pass=args.tol,
                         tol_margin=args.margin)


def _common_flags(args) -> dict:
    return {"points": args.points, "seed": args.seed, "tol": args.tol,
            "margin": args.margin, "expect": args.expect}


def cmd_list(args) -> int:
    for entry in catalog.list_catalog():
        doc = entry.document
        print(f"{entry.entry_id:32s} {entry.expected:18s} dim={doc['dim']}  {entry.notes}")
    return EXIT_PASS


def _check_options(args, tolerances: dict, points: int = 0) -> None:
    """Reject option values that no run could use or no report could hold:
    the seed, each {flag: value} of `tolerances` and the --points count."""
    if args.seed < 0:
        raise _InputError(f"--seed must be a non-negative integer, got {args.seed}")
    for flag, value in tolerances.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise _InputError(f"{flag} must be a finite number >= 0, got {value!r}")
    if points > POINTS_MAX:
        raise _InputError(f"--points is {points}, more than the limit of {POINTS_MAX}")


def cmd_check(args) -> int:
    _check_options(args, {"--tol": args.tol, "--margin": args.margin}, args.points)
    chart, source = _resolve_chart(args.chart)
    certificate = certify(chart, _config(args))
    document = report.build_report("check", chart.name, source, args.seed,
                                   _common_flags(args),
                                   certificate=report.certificate_payload(certificate))
    _emit(args, document)
    print(f"[rwcert] {chart.name}: {certificate.classification}", file=sys.stderr)
    if args.expect is not None:
        return EXIT_PASS if certificate.classification == args.expect else EXIT_FAIL
    return EXIT_PASS


def cmd_slice(args) -> int:
    _check_options(args, {"--tol": args.tol, "--margin": args.margin}, args.points)
    chart, source = _resolve_chart(args.chart)
    base = _floats(args.base, "--base", chart.dim)
    grid = _tau_grid(args.tau_grid)
    certificate = certify(chart, _config(args))
    flags = {**_common_flags(args), "base": base, "tau_grid": [float(t) for t in grid]}
    if certificate.classification != "LocallyRW":
        document = report.build_report("slice", chart.name, source, args.seed, flags,
                                       certificate=report.certificate_payload(certificate))
        _emit(args, document)
        print(f"[rwcert] {chart.name}: {certificate.classification}: "
              f"foliation not applicable", file=sys.stderr)
        return EXIT_FAIL
    try:
        result = scale_factor_profile(chart, certificate, base, grid)
    except FoliationError as err:
        print(f"[rwcert] slice reconstruction failed: {err}", file=sys.stderr)
        return EXIT_FAIL
    document = report.build_report("slice", chart.name, source, args.seed, flags,
                                   certificate=report.certificate_payload(certificate),
                                   foliation=report.foliation_payload(result))
    _emit(args, document)
    sign = {1: "+1 (spherical)", 0: "0 (flat)", -1: "-1 (hyperbolic)"}[result.curvature_sign]
    print(f"[rwcert] {chart.name}: spatial curvature sign {sign}", file=sys.stderr)
    if args.expect is not None and certificate.classification != args.expect:
        return EXIT_FAIL
    return EXIT_PASS


def _curve_from_args(args, chart: ChartSpec) -> tuple[CurveSpec, dict]:
    t0, t1 = _floats(args.range, "--range", 2)
    desc: dict = {"kind": args.curve, "range": [t0, t1]}
    if args.curve == "u":
        if args.start is None:
            raise _InputError("--curve u needs --start")
        start = _floats(args.start, "--start", chart.dim)
        desc["start"] = start
        return CurveSpec.integral_curve_of_u(start, t0=t0, t1=t1), desc
    if args.curve == "geodesic":
        if args.start is None or args.velocity is None:
            raise _InputError("--curve geodesic needs --start and --velocity")
        start = _floats(args.start, "--start", chart.dim)
        velocity = _floats(args.velocity, "--velocity", chart.dim)
        desc["start"] = start
        desc["velocity"] = velocity
        return CurveSpec.geodesic(start, velocity, t0=t0, t1=t1), desc
    if args.exprs is None:
        raise _InputError("--curve explicit needs --exprs")
    texts = [part.strip() for part in args.exprs.split(",")]
    if len(texts) != chart.dim:
        raise _InputError(f"--exprs needs {chart.dim} comma-separated expressions")
    desc["exprs"] = texts
    desc["param"] = args.param
    return CurveSpec.explicit(texts, param=args.param, t0=t0, t1=t1), desc


def cmd_transport(args) -> int:
    _check_options(args, {"--drift-tol": args.drift_tol})
    chart, source = _resolve_chart(args.chart)
    curve, desc = _curve_from_args(args, chart)
    steps = curve.default_steps() if args.steps is None else args.steps
    if steps > STEPS_MAX:
        from decimal import Decimal     # formats counts beyond float range; rarely needed
        raise _InputError(f"transport would take {Decimal(steps):.6g} steps (--steps, or "
                          f"one per 1e-3 of --range), more than the limit of {STEPS_MAX}")
    x0 = np.array(_floats(args.x0, "--x0", chart.dim))
    try:
        result = transport(chart, curve, x0, steps=args.steps)
        drift = gram_drift(result)
    except CurveError:
        raise
    except TransportError as err:
        print(f"[rwcert] transport failed: {err}", file=sys.stderr)
        return EXIT_FAIL
    flags = {"seed": args.seed, "x0": [float(v) for v in x0],
             "steps": result.steps, "drift_tol": args.drift_tol}
    document = report.build_report("transport", chart.name, source, args.seed, flags,
                                   transport=report.transport_payload(result, drift, desc))
    _emit(args, document)
    print(f"[rwcert] {chart.name}: Gram drift {drift:.3e} over "
          f"{result.steps} steps", file=sys.stderr)
    return EXIT_PASS if drift <= args.drift_tol else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
