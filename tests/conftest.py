"""Shared fixtures and independent oracles.

The evaluators and differentiators here are deliberately separate from the
library code: `eval_real` is a plain recursive float evaluator, `fd_partial`
a nested fourth-order central-difference stencil and the `symbolic_geometry`
fixture builds the curvature from the chart's source text with sympy, so
they can serve as oracles for the jet engine rather than echoing it.
"""

import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from rwcert import catalog
from rwcert.certify import CertifyConfig, certify
from rwcert.chart import chart_from_dict
from rwcert.exprs import BinOp, Call, CoordRef, Neg, Num, ParamRef

# -- independent real evaluator ------------------------------------------------

_REAL_FN = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
}


def eval_real(node, env: dict, params: dict) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, CoordRef):
        return env[node.name]
    if isinstance(node, ParamRef):
        return params[node.name]
    if isinstance(node, Neg):
        return -eval_real(node.child, env, params)
    if isinstance(node, Call):
        return _REAL_FN[node.fn](eval_real(node.arg, env, params))
    if isinstance(node, BinOp):
        left = eval_real(node.left, env, params)
        right = eval_real(node.right, env, params)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
        return left**right
    raise TypeError(node)


# -- finite-difference oracle ----------------------------------------------------

FD_STEPS = {1: 1e-3, 2: 2e-3, 3: 4e-3}


def _d1(fn, x, i, h):
    def shift(k):
        y = dict(x)
        y[i] = y[i] + k * h
        return fn(y)
    return (-shift(2) + 8 * shift(1) - 8 * shift(-1) + shift(-2)) / (12 * h)


def fd_partial(fn, x: dict, indices: tuple, h: float) -> float:
    """Nested fourth-order central differences for an arbitrary multi-index."""
    if len(indices) == 1:
        return _d1(fn, x, indices[0], h)

    def inner(y):
        return fd_partial(fn, y, indices[1:], h)
    return _d1(inner, x, indices[0], h)


# -- symbolic curvature oracle ---------------------------------------------------

@pytest.fixture(scope="session")
def symbolic_geometry():
    """Independent curvature of a chart, built symbolically by sympy.

    Called with a chart, returns a function of (point, eps) giving g, gamma,
    riemann_up, driemann_up, df and dh as arrays in the library's index
    layout.  The metric and u are parsed from the chart's source text ('^' is
    '**' and 'ln' is 'log', params substituted), the inverse is taken by LU,
    and Gamma^k_ij, R^r_smn, d_p R^r_smn and the trace invariants
    f = Ric(u,u)/(n-1), h = pi pi R/((n-1)(n-2)) are differentiated
    symbolically under the conventions of rwcert.geometry.  u is used as
    written (no normalize_u).  Each chart is built once per session; tests
    using the fixture are skipped when sympy is not installed.
    """
    sympy = pytest.importorskip("sympy")
    built = {}

    def oracle(chart):
        if chart.source not in built:
            built[chart.source] = _symbolic_geometry(sympy, chart)
        return built[chart.source]
    return oracle


def _symbolic_geometry(sympy, chart):
    n = chart.dim
    xs = sympy.symbols(chart.coords, real=True)
    names = dict(zip(chart.coords, xs))
    names.update({name: sympy.Float(value) for name, value in chart.params.items()})

    def parse(text):
        return sympy.sympify(re.sub(r"\bln\(", "log(", text.replace("^", "**")),
                             locals=names)

    g = sympy.Matrix(n, n, lambda i, j: parse(chart.metric_text[i][j]))
    g_inv = g.inv(method="LU")
    dg = [[[sympy.diff(g[i, j], x) for j in range(n)] for i in range(n)] for x in xs]
    gamma = [[[sum(g_inv[k, m] * (dg[i][m][j] + dg[j][m][i] - dg[m][i][j])
                   for m in range(n)) / 2
               for j in range(n)] for i in range(n)] for k in range(n)]
    riemann = [[[[sympy.diff(gamma[r][b][s], xs[a]) - sympy.diff(gamma[r][a][s], xs[b])
                  + sum(gamma[r][a][l] * gamma[l][b][s] - gamma[r][b][l] * gamma[l][a][s]
                        for l in range(n))
                  for b in range(n)] for a in range(n)] for s in range(n)] for r in range(n)]
    driemann = [[[[[sympy.diff(riemann[r][s][a][b], x) for b in range(n)] for a in range(n)]
                  for s in range(n)] for r in range(n)] for x in xs]
    u = [parse(text) for text in chart.u_text]
    eps = sympy.Symbol("eps")
    pi = [[g_inv[a, b] - eps * u[a] * u[b] for b in range(n)] for a in range(n)]
    f = sum(riemann[r][s][r][b] * u[s] * u[b]
            for r in range(n) for s in range(n) for b in range(n)) / (n - 1)
    h = sum(pi[r][a] * pi[s][b] * g[c, r] * riemann[c][s][a][b]
            for r in range(n) for s in range(n) for a in range(n) for b in range(n)
            for c in range(n)) / ((n - 1) * (n - 2))
    fields = {"g": g.tolist(), "gamma": gamma, "riemann_up": riemann,
              "driemann_up": driemann, "df": [sympy.diff(f, x) for x in xs],
              "dh": [sympy.diff(h, x) for x in xs]}
    evaluate = sympy.lambdify([xs, eps], list(fields.values()), modules="numpy", cse=True)

    def at(point, epsilon):
        values = evaluate([float(x) for x in point], epsilon)
        return {key: np.array(value, dtype=float) for key, value in zip(fields, values)}
    return at


# -- charts in generic coordinates ------------------------------------------------

# catalog chart id -> the map phi, one expression per coordinate, that it is
# pulled back by; each mixes time and space, so u is no coordinate vector
PULL_BACK_MAPS = {
    "flrw_flat_linear": ["t + x*y/10", "x + t/20", "y", "z + x^2/50"],
    "flrw_closed_osc": ["t + sin(chi)/20", "chi + 0.03*t", "theta", "phi"],
    "riemannian_grw": ["r", "x + sin(y)/20", "y", "z"],
}


@pytest.fixture(scope="session")
def pulled_back_charts():
    """The PULL_BACK_MAPS charts, keyed by the catalog id they come from.

    A chart's metric is J^T g(phi) J and its u is J^-1 u(phi), with J the
    Jacobian of phi, built with sympy from the catalog source and printed
    back in the chart language; its domain is the catalog one shrunk by 15 %
    of each width at both ends, which phi maps inside the catalog domain.
    The geometry is the catalog chart's, so are its verdict and epsilon.
    """
    sympy = pytest.importorskip("sympy")
    return {cid: _pull_back(sympy, catalog.get_entry(cid).document, phi)
            for cid, phi in PULL_BACK_MAPS.items()}


def _pull_back(sympy, doc, phi_text):
    n = doc["dim"]
    xs = sympy.symbols(doc["coords"], real=True)
    names = dict(zip(doc["coords"], xs))

    def parse(text):
        return sympy.sympify(re.sub(r"\bln\(", "log(", text.replace("^", "**")), locals=names)

    def text(expr):
        return re.sub(r"\blog\(", "ln(", sympy.sstr(expr).replace("**", "^"))

    phi = [parse(t) for t in phi_text]
    at_phi = dict(zip(xs, phi))
    entries = doc["metric"]
    g = sympy.Matrix(n, n, lambda i, j: parse(entries[i][j] or entries[j][i] or "0"))
    J = sympy.Matrix(n, n, lambda i, j: sympy.diff(phi[i], xs[j]))
    g = (J.T * g.subs(at_phi, simultaneous=True) * J).applyfunc(sympy.expand)
    u = sympy.Matrix([parse(t) for t in doc["u"]]).subs(at_phi, simultaneous=True)
    u = J.LUsolve(u).applyfunc(sympy.simplify)
    return chart_from_dict(dict(
        doc, name=doc["name"] + "_pulled_back",
        metric=[[text(g[i, j]) if j >= i and g[i, j] != 0 else None for j in range(n)]
                for i in range(n)],
        u=[text(c) for c in u],
        domain=[[lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo)] for lo, hi in doc["domain"]]))


# -- random expression trees ---------------------------------------------------

_SAFE_FUNCTIONS = ("sin", "cos", "tanh", "sinh", "exp", "cosh")


def random_expr_text(rng: np.random.Generator, names: list[str], depth: int) -> str:
    """A random expression over `names`, biased toward numerically tame forms."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(names)
        if roll < 0.85:
            return f"{rng.uniform(-2.0, 2.0):.4f}"
        return f"{rng.integers(1, 4)}"
    roll = rng.random()
    if roll < 0.42:
        op = rng.choice(["+", "-", "*"])
        return (f"({random_expr_text(rng, names, depth - 1)} {op} "
                f"{random_expr_text(rng, names, depth - 1)})")
    if roll < 0.52:
        return (f"({random_expr_text(rng, names, depth - 1)} / "
                f"(2.0 + {random_expr_text(rng, names, depth - 1)}^2))")
    if roll < 0.62:
        return f"({random_expr_text(rng, names, depth - 1)})^{rng.integers(2, 4)}"
    if roll < 0.72:
        return f"(-{random_expr_text(rng, names, depth - 1)})"
    if roll < 0.82:
        return f"sqrt(1.5 + ({random_expr_text(rng, names, depth - 1)})^2)"
    if roll < 0.9:
        return f"ln(2.0 + ({random_expr_text(rng, names, depth - 1)})^2)"
    fn = rng.choice(_SAFE_FUNCTIONS)
    return f"{fn}({random_expr_text(rng, names, depth - 1)})"


def draw_expr_case(rng: np.random.Generator, max_dim: int = 4, depth: int = 6):
    """(text, coord names, point dict) kept inside a numerically safe regime."""
    from rwcert.exprs import parse_expr

    while True:
        dim = int(rng.integers(1, max_dim + 1))
        names = [f"x{i}" for i in range(dim)]
        text = random_expr_text(rng, names, depth)
        node = parse_expr(text, names, ())
        point = {name: float(rng.uniform(-0.8, 0.8)) for name in names}
        try:
            probes = [eval_real(node, point, {})]
            for name in names:
                for offset in (-0.02, 0.02):
                    shifted = dict(point)
                    shifted[name] += offset
                    probes.append(eval_real(node, shifted, {}))
        except (ValueError, OverflowError, ZeroDivisionError):
            continue
        if all(math.isfinite(p) and abs(p) < 1e4 for p in probes):
            return text, node, names, point


# -- dim-2 self-test charts -------------------------------------------------------

SPHERE_R2_DOC = {
    "name": "sphere_r2",
    "dim": 2,
    "coords": ["theta", "phi"],
    "metric": [["R^2", None], [None, "R^2*sin(theta)^2"]],
    "u": ["1/R", "0"],
    "params": {"R": 2.0},
    "domain": [[0.5, 2.6], [0.0, 8.0]],
    "options": {},
}

EUCLIDEAN_PLANE_DOC = {
    "name": "euclidean_plane",
    "dim": 2,
    "coords": ["x", "y"],
    "metric": [["1", None], [None, "1"]],
    "u": ["1", "0"],
    "params": {},
    "domain": [[-3.0, 3.0], [-3.0, 3.0]],
    "options": {},
}


@pytest.fixture(scope="session")
def sphere_chart():
    return chart_from_dict(SPHERE_R2_DOC)


@pytest.fixture(scope="session")
def plane_chart():
    return chart_from_dict(EUCLIDEAN_PLANE_DOC)


# -- catalog access ---------------------------------------------------------------

@pytest.fixture(scope="session")
def charts():
    return {cid: catalog.get_chart(cid) for cid in catalog.CATALOG}


@pytest.fixture(scope="session")
def cli_env():
    """Environment for a `python -m rwcert` subprocess: it imports the package
    the tests import, whether that came from PYTHONPATH or pytest's pythonpath."""
    src = str(Path(catalog.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def certificates(charts):
    """Moderate-size certificates for the unit tests (acceptance re-runs at 100)."""
    return {cid: certify(chart, CertifyConfig(samples=24, seed=0))
            for cid, chart in charts.items()}


def domain_points(chart, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in chart.domain])
    highs = np.array([hi for _, hi in chart.domain])
    return rng.uniform(lows, highs, size=(count, chart.dim))
