"""Layer spans around rwcert's public functions, installed from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in
every loaded `rwcert` module that binds it, so a call made through an imported
name (`certify.geometry_at`, `cli.transport`, ...) is seen as well as one made
through the defining module.  `uninstall()` puts the originals back.

Spans are aggregated as they close, keyed by operation label and call path
(`cli.main/certify/sample_point/geometry_at.o3`).  A span's self time is its
duration minus the time of the spans it directly contains.  `geometry_at` spans
carry the evaluation order in their name, so every geometry evaluation is
counted by order, per operation, from the paths alone.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter

# (module, function, span name); the span name of geometry_at gets ".o<order>"
TRACED = (
    ("rwcert.exprs", "eval_expr", "eval_expr"),
    ("rwcert.chart", "chart_from_dict", "chart_from_dict"),
    ("rwcert.geometry", "geometry_at", "geometry_at"),
    ("rwcert.certify", "sample_point", "sample_point"),
    ("rwcert.certify", "certify", "certify"),
    ("rwcert.foliation", "time_value", "time_value"),
    ("rwcert.foliation", "loop_residual", "loop_residual"),
    ("rwcert.foliation", "flow_point", "flow_point"),
    ("rwcert.foliation", "scale_factor_profile", "scale_factor_profile"),
    ("rwcert.foliation", "same_slice_points", "same_slice_points"),
    ("rwcert.foliation", "slice_curvature", "slice_curvature"),
    ("rwcert.transport", "transport", "transport"),
    ("rwcert.transport", "gram_drift", "gram_drift"),
    ("rwcert.report", "build_report", "report"),
    ("rwcert.report", "certificate_payload", "report"),
    ("rwcert.report", "foliation_payload", "report"),
    ("rwcert.report", "transport_payload", "report"),
    ("rwcert.report", "render_report", "report"),
    ("rwcert.cli", "main", "cli.main"),
)


def _geometry_order(args, kwargs) -> int:
    return kwargs.get("order", args[2] if len(args) > 2 else 3)


@dataclass
class SpanStats:
    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Single-threaded span recorder; one instance per traced run."""

    def __init__(self):
        self.stats: dict[tuple[str, str], SpanStats] = {}
        self.op = ""
        self._stack: list[list] = []     # [path, start, child_s]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        by_order = name == "geometry_at"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = f"{name}.o{_geometry_order(args, kwargs)}" if by_order else name
            path = f"{stack[-1][0]}/{span}" if stack else span
            frame = [path, perf_counter(), 0.0]
            stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                key = (self.op, path)
                stats = self.stats.get(key)
                if stats is None:
                    stats = self.stats[key] = SpanStats()
                stats.calls += 1
                stats.errors += failed
                stats.total_s += duration
                stats.self_s += duration - frame[2]

        return wrapper

    def install(self) -> None:
        for module_name, _, _ in TRACED:
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "rwcert"]
        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    def total(self, field: str, names, under: str | None = None,
              op: str | None = None, scale: dict[str, float] | None = None) -> float:
        """Sum one SpanStats field over the spans named in `names`, optionally
        only those inside a span named `under` or within one operation, each
        operation's part multiplied by `scale[operation]`."""
        names = (names,) if isinstance(names, str) else tuple(names)
        result = 0
        for (op_label, path), stats in self.stats.items():
            parts = path.split("/")
            if (parts[-1] in names and (under is None or under in parts[:-1])
                    and (op is None or op_label == op)):
                result += getattr(stats, field) * (scale[op_label] if scale else 1)
        return result

    def dump(self, path) -> None:
        """Write the aggregated spans as JSON lines, one per (operation, path)."""
        with open(path, "w", encoding="utf-8") as fh:
            for (op_label, span_path), s in sorted(self.stats.items()):
                fh.write(json.dumps({"op": op_label, "path": span_path, "calls": s.calls,
                                     "errors": s.errors, "total_s": s.total_s,
                                     "self_s": s.self_s}) + "\n")
