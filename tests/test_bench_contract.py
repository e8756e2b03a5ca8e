"""What the benchmark harness under bench/ uses of the package still exists.

bench/ is read, never imported or changed: a deletion in the package must
not silently break `python3 bench/run.py --trace 1`, which wraps the
functions that bench/spans.py lists and calls the ones below with these
arguments.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from rwcert import catalog, foliation
from rwcert.cli import _build_parser
from rwcert.certify import CertifyConfig, certify, sample_point

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _traced() -> tuple:
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py has no TRACED table")


def test_traced_functions_resolve():
    traced = _traced()
    assert traced
    for module, function, _ in traced:
        assert callable(getattr(importlib.import_module(module), function)), (module, function)


def _workload_flags() -> set:
    """Every "--flag" string of bench/workloads.py, an f-string's "--flag="
    prefix included."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    return {node.value.rstrip("=") for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("--")}


def test_workload_flags_are_cli_options():
    """Each flag the workloads pass is an option of some subcommand, and
    --seed, which each workload passes, of all three."""
    _, subcommands = _build_parser()
    options = {name: set(sub._option_string_actions)
               for name, sub in subcommands.items() if name != "list"}
    flags = _workload_flags()
    assert "--seed" in flags and len(flags) > 5
    for flag in flags:
        assert any(flag in known for known in options.values()), flag
    assert sorted(options) == ["check", "slice", "transport"]
    assert all("--seed" in known for known in options.values())


def test_bench_calls_still_bind():
    CertifyConfig(samples=8, seed=0, threads=1)
    chart = catalog.get_chart("flrw_open")
    base, p = np.zeros(4), np.zeros(4)
    inspect.signature(foliation.same_slice_points).bind(
        chart, None, base, 0.1, 10, rng=np.random.default_rng(0))
    inspect.signature(foliation.slice_curvature).bind(chart, p)
    inspect.signature(foliation.time_value).bind(chart, None, p, base)
    inspect.signature(sample_point).bind(chart, p, rng=np.random.default_rng(0))


class _UniformOnly:
    """The rng interface of bench/workloads.SlicePoints: uniform(low, high)
    and nothing else, so no size= argument."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def uniform(self, low, high):
        return self._rng.uniform(low, high)


def test_same_slice_points_draws_through_uniform_only():
    """same_slice_points draws each candidate by a uniform(low, high) call of
    its own, as the slice-schur workload's rng allows."""
    chart = catalog.get_chart("flrw_open")
    cert = certify(chart, CertifyConfig(samples=16, seed=0))
    base = np.array([1.5, 1.0, 1.5, 1.5])
    points = foliation.same_slice_points(chart, cert, base, 0.1, 3, rng=_UniformOnly(0))
    assert len(points) == 3
    for p in points:
        assert abs(foliation.time_value(chart, cert, p, base) - 0.1) < 1e-8
