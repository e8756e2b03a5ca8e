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
from rwcert.certify import CertifyConfig, sample_point

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


def test_bench_calls_still_bind():
    CertifyConfig(samples=8, seed=0, threads=1)
    chart = catalog.get_chart("flrw_open")
    base, p = np.zeros(4), np.zeros(4)
    inspect.signature(foliation.same_slice_points).bind(
        chart, None, base, 0.1, 10, rng=np.random.default_rng(0))
    inspect.signature(foliation.slice_curvature).bind(chart, p)
    inspect.signature(foliation.time_value).bind(chart, None, p, base)
    inspect.signature(sample_point).bind(chart, p, rng=np.random.default_rng(0))
