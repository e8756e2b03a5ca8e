"""Chart documents: JSON schema validation and the immutable ChartSpec.

A chart file is a JSON object with fields

    name    string
    dim     integer (2..8; certification itself needs dim >= 4)
    coords  [dim names]
    metric  dim x dim array of expression strings; an entry may be null,
            in which case it mirrors the transposed entry (both null -> "0")
    u       [dim expression strings], contravariant components
    params  {name: number}, optional
    domain  [dim [lo, hi]] sampling box
    options {"normalize_u": bool}, optional

Both metric entries of a pair, when given, must parse to the same tree.
Loading a chart parses and validates it; the expressions are compiled on the
first evaluation (`ChartSpec.programs`) and kept with the chart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from . import exprs
from .exprs import Expr, ExprError, compile_exprs, parse_expr

_TOP_FIELDS = {"name", "dim", "coords", "metric", "u", "params", "domain", "options"}
_OPTION_FIELDS = {"normalize_u"}
_RESERVED = exprs.FUNCTION_NAMES | {"pi"}


class ChartError(ValueError):
    """Malformed chart document (CLI exit code 2)."""


@dataclass(frozen=True)
class ChartPrograms:
    """A chart's metric and u expressions, compiled together once
    (exprs.compile_exprs), so that a subtree they share is computed once per
    point.

    Entries that do not depend on the coordinates are already values in
    `metric_constant` and `u_constant` (zero where a program supplies the
    entry); the others are programs, the metric's over its upper triangle.
    The programs of one point must share one fresh environment dict.
    """

    metric_constant: np.ndarray
    metric_varying: tuple[tuple[int, int, Callable], ...]
    u_constant: np.ndarray
    u_varying: tuple[tuple[int, Callable], ...]


@dataclass(frozen=True)
class ChartSpec:
    name: str
    dim: int
    coords: tuple[str, ...]
    metric: tuple[tuple[Expr, ...], ...]
    u_field: tuple[Expr, ...]
    params: Mapping[str, float]
    domain: tuple[tuple[float, float], ...]
    normalize_u: bool = False
    source: str = field(default="", compare=False)
    metric_text: tuple[tuple[str, ...], ...] = field(default=(), compare=False)
    u_text: tuple[str, ...] = field(default=(), compare=False)

    @cached_property
    def programs(self) -> ChartPrograms:
        """The compiled expressions, built on first use and kept."""
        n = self.dim
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        nodes = [self.metric[i][j] for i, j in upper] + list(self.u_field)
        sources = ([self.metric_text[i][j] if self.metric_text else "" for i, j in upper]
                   + [self.u_text[k] if self.u_text else "" for k in range(n)])
        programs = compile_exprs(nodes, self.params, sources)
        metric_constant = np.zeros((n, n))
        metric_varying = []
        for (i, j), program in zip(upper, programs):
            if isinstance(program, float):
                metric_constant[i, j] = metric_constant[j, i] = program
            else:
                metric_varying.append((i, j, program))
        u_constant = np.zeros(n)
        u_varying = []
        for k, program in enumerate(programs[len(upper):]):
            if isinstance(program, float):
                u_constant[k] = program
            else:
                u_varying.append((k, program))
        return ChartPrograms(metric_constant, tuple(metric_varying),
                             u_constant, tuple(u_varying))

    def contains(self, point, rtol: float = 1e-9) -> bool:
        """Whether every coordinate lies in its domain interval (padded by
        rtol of its width); a nan coordinate lies in none."""
        for x, (lo, hi) in zip(point, self.domain):
            pad = rtol * (hi - lo)
            if not lo - pad <= x <= hi + pad:
                return False
        return True


def load_chart(document: str) -> ChartSpec:
    """Parse and validate a chart document from JSON text."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as err:
        raise ChartError(f"not valid JSON: {err}") from err
    return chart_from_dict(doc, source=document)


def chart_from_dict(doc: dict, source: str | None = None) -> ChartSpec:
    if not isinstance(doc, dict):
        raise ChartError("chart document must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ChartError(f"unknown chart fields: {sorted(unknown)}")
    for required in ("name", "dim", "coords", "metric", "u", "domain"):
        if required not in doc:
            raise ChartError(f"missing chart field {required!r}")

    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ChartError("'name' must be a non-empty string")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ChartError("'dim' must be an integer")
    if not 2 <= dim <= 8:
        raise ChartError(f"'dim' must be between 2 and 8, got {dim}")

    coords = doc["coords"]
    if (not isinstance(coords, list) or len(coords) != dim
            or not all(isinstance(c, str) and c.isidentifier() for c in coords)):
        raise ChartError(f"'coords' must list {dim} identifier names")
    if len(set(coords)) != dim:
        raise ChartError("coordinate names must be distinct")
    if set(coords) & _RESERVED:
        raise ChartError(f"coordinate names shadow built-ins: {sorted(set(coords) & _RESERVED)}")

    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ChartError("'params' must be an object")
    for pname, pval in params.items():
        if not isinstance(pname, str) or not pname.isidentifier():
            raise ChartError(f"bad parameter name {pname!r}")
        if not isinstance(pval, (int, float)) or isinstance(pval, bool):
            raise ChartError(f"parameter {pname!r} must be a number")
    if set(params) & (set(coords) | _RESERVED):
        raise ChartError("parameter names collide with coordinates or built-ins")
    params = {k: float(v) for k, v in params.items()}

    raw_metric = doc["metric"]
    if not isinstance(raw_metric, list) or len(raw_metric) != dim \
            or any(not isinstance(row, list) or len(row) != dim for row in raw_metric):
        raise ChartError(f"'metric' must be a {dim}x{dim} array")
    parsed: list[list[Expr | None]] = []
    texts: list[list[str | None]] = []
    for i, row in enumerate(raw_metric):
        out_row: list[Expr | None] = []
        text_row: list[str | None] = []
        for j, entry in enumerate(row):
            if entry is None:
                out_row.append(None)
                text_row.append(None)
            elif isinstance(entry, str):
                out_row.append(_parse_entry(entry, coords, params, f"metric[{i}][{j}]"))
                text_row.append(entry)
            else:
                raise ChartError(f"metric[{i}][{j}] must be a string or null")
        parsed.append(out_row)
        texts.append(text_row)
    zero = parse_expr("0", coords, params)
    for i in range(dim):
        for j in range(i, dim):
            lower, upper = parsed[j][i], parsed[i][j]
            if upper is None and lower is None:
                parsed[i][j] = parsed[j][i] = zero
                texts[i][j] = texts[j][i] = "0"
            elif upper is None:
                parsed[i][j] = lower
                texts[i][j] = texts[j][i]
            elif lower is None:
                parsed[j][i] = upper
                texts[j][i] = texts[i][j]
            elif upper != lower:
                raise ChartError(f"metric symmetry violation at ({i},{j}): entries differ")
    metric = tuple(tuple(row) for row in parsed)
    metric_text = tuple(tuple(row) for row in texts)

    raw_u = doc["u"]
    if not isinstance(raw_u, list) or len(raw_u) != dim:
        raise ChartError(f"'u' must list {dim} component expressions, got "
                         f"{len(raw_u) if isinstance(raw_u, list) else type(raw_u).__name__}")
    u_field = tuple(_parse_entry(entry, coords, params, f"u[{k}]") if isinstance(entry, str)
                    else _bad_u(k) for k, entry in enumerate(raw_u))

    raw_domain = doc["domain"]
    if not isinstance(raw_domain, list) or len(raw_domain) != dim:
        raise ChartError(f"'domain' must list {dim} intervals")
    domain = []
    for k, pair in enumerate(raw_domain):
        if (not isinstance(pair, list) or len(pair) != 2
                or any(not isinstance(v, (int, float)) or isinstance(v, bool) for v in pair)):
            raise ChartError(f"domain[{k}] must be [lo, hi]")
        lo, hi = float(pair[0]), float(pair[1])
        if not lo < hi:
            raise ChartError(f"domain[{k}] is degenerate: [{lo}, {hi}]")
        domain.append((lo, hi))

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ChartError("'options' must be an object")
    unknown = set(options) - _OPTION_FIELDS
    if unknown:
        raise ChartError(f"unknown options: {sorted(unknown)}")
    normalize_u = options.get("normalize_u", False)
    if not isinstance(normalize_u, bool):
        raise ChartError("'normalize_u' must be a boolean")

    if source is None:
        source = json.dumps(doc, indent=2)
    return ChartSpec(name=name, dim=dim, coords=tuple(coords), metric=metric,
                     u_field=u_field, params=params, domain=tuple(domain),
                     normalize_u=normalize_u, source=source,
                     metric_text=metric_text,
                     u_text=tuple(str(e) for e in raw_u))


def _parse_entry(text: str, coords, params, where: str) -> Expr:
    try:
        return parse_expr(text, coords, params)
    except ExprError as err:
        raise ChartError(f"{where}: {err}") from err


def _bad_u(k: int):
    raise ChartError(f"u[{k}] must be an expression string")
