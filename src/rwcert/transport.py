"""Generalized Fermi transport along non-null unit-speed curves.

The transport law keeps the curve tangent fixed and preserves all inner
products.  With eps = g(u,u) = +-1 and A = nabla_u u,

    D_u X = nabla_u X + eps g(X, A) u - eps g(X, u) A,

so a Fermi-parallel field solves nabla_u X = -eps g(X,A) u + eps g(X,u) A.
On geodesics (A = 0) this is plain parallel transport.  Null curves are
rejected: the eps-weighted decomposition behind the law needs |g(u,u)| = 1.

Curves come in three kinds: integral curves of the chart's u field, explicit
coordinate expressions of one parameter, and geodesics shot from a point.
Explicit curves must be unit speed; a sub-percent violation is repaired by
arclength resampling, anything larger is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chart import ChartSpec
from .exprs import Expr, ExprError, compile_exprs, parse_expr
from .geometry import PointGeometry, UNIT_TOL, geometry_at
from .jets import Jet3

UNIT_SPEED_TOL = 1e-6
REPARAM_LIMIT = 1e-2       # relative speed error fixable by resampling
ENDPOINT_TOL = 1e-8        # step-halving convergence on the transported vector
_SPEED_SAMPLES = 65
_TABLE_SIZE = 8193


class TransportError(ValueError):
    pass


class CurveError(TransportError):
    """Invalid curve specification (CLI exit code 2)."""


class DomainExitError(TransportError):
    pass


@dataclass(frozen=True)
class CurveSpec:
    """A non-null unit-speed curve inside a chart.

    kind is one of 'u_integral' (start point required), 'explicit' (component
    expressions of one parameter) or 'geodesic' (start point and unit start
    velocity).  The parameter runs over [t0, t1] and `step` is the default
    integration step.
    """

    kind: str
    t0: float = 0.0
    t1: float = 1.0
    step: float = 1e-3
    start: tuple[float, ...] | None = None
    velocity: tuple[float, ...] | None = None
    exprs: tuple[Expr, ...] | None = None
    expr_texts: tuple[str, ...] = field(default=(), compare=False)
    param: str = "s"

    @classmethod
    def integral_curve_of_u(cls, start, t0=0.0, t1=1.0, step=1e-3) -> "CurveSpec":
        return cls(kind="u_integral", start=tuple(float(x) for x in start),
                   t0=float(t0), t1=float(t1), step=float(step))

    @classmethod
    def geodesic(cls, start, velocity, t0=0.0, t1=1.0, step=1e-3) -> "CurveSpec":
        return cls(kind="geodesic", start=tuple(float(x) for x in start),
                   velocity=tuple(float(v) for v in velocity),
                   t0=float(t0), t1=float(t1), step=float(step))

    @classmethod
    def explicit(cls, texts, param="s", t0=0.0, t1=1.0, step=1e-3) -> "CurveSpec":
        try:
            exprs = tuple(parse_expr(text, [param], ()) for text in texts)
        except ExprError as err:
            raise CurveError(f"bad curve expression: {err}") from err
        return cls(kind="explicit", exprs=exprs, expr_texts=tuple(texts), param=param,
                   t0=float(t0), t1=float(t1), step=float(step))

    def default_steps(self) -> int:
        return max(1, int(round(abs(self.t1 - self.t0) / self.step)))


def fermi_derivative(geom: PointGeometry, u, accel, X, dX) -> np.ndarray:
    """D_u X from the pointwise data (dX is nabla_u X)."""
    u = np.asarray(u, dtype=float)
    q = geom.ip(u, u)
    if abs(abs(q) - 1.0) > UNIT_TOL:
        raise TransportError(f"transport direction is not unit: g(u,u) = {q!r}")
    eps = 1.0 if q > 0 else -1.0
    X = np.asarray(X, dtype=float)
    accel = np.asarray(accel, dtype=float)
    return (np.asarray(dX, dtype=float)
            + eps * geom.ip(X, accel) * u - eps * geom.ip(X, u) * accel)


@dataclass
class TransportResult:
    taus: np.ndarray
    points: np.ndarray          # curve positions, shape (N+1, dim)
    tangents: np.ndarray        # unit tangent along the curve
    vectors: np.ndarray         # transported field(s): (N+1, dim) or (N+1, k, dim)
    epsilon: float
    steps: int


# -- curve engines -----------------------------------------------------------------

class _ExplicitCurve:
    """Point/tangent/acceleration of an explicit curve, with optional arclength
    reparametrization stacked on top once validation demands it."""

    def __init__(self, chart: ChartSpec, curve: CurveSpec):
        self.chart = chart
        self.curve = curve
        self.table = None   # (sigma grid, tau grid) once resampled
        self.programs = compile_exprs(curve.exprs, {},
                                      curve.expr_texts or [""] * len(curve.exprs))
        self._validate()

    def _raw(self, tau: float):
        """Position, velocity and acceleration from order-2 jets in tau."""
        env = {self.curve.param: Jet3.variable(0, tau, 1, order=2)}
        x = np.empty(self.chart.dim)
        xdot = np.zeros(self.chart.dim)
        xddot = np.zeros(self.chart.dim)
        with np.errstate(over="ignore", invalid="ignore"):   # inf/nan leave the domain
            for k, program in enumerate(self.programs):
                if isinstance(program, float):
                    x[k] = program
                    continue
                jet = program(env)
                x[k] = jet.value
                xdot[k] = jet.grad[0]
                xddot[k] = jet.hess[0, 0]
        return x, xdot, xddot

    def _speed(self, tau: float):
        x, xdot, xddot = self._raw(tau)
        if not self.chart.contains(x):
            raise DomainExitError(f"curve leaves the domain at {x.tolist()}")
        geom = geometry_at(self.chart, x, order=1)
        return x, xdot, xddot, geom, geom.ip(xdot, xdot)

    def state(self, tau: float):
        """(x, unit tangent, acceleration nabla_u u, geom) at parameter tau."""
        if self.table is not None:
            tau = self._tau_of_sigma(tau)
        x, xdot, xddot, geom, w = self._speed(tau)
        if self.table is not None:
            v = np.sqrt(abs(w))
            wdot = (np.einsum('mab,m,a,b->', geom.dg, xdot, xdot, xdot)
                    + 2.0 * geom.ip(xddot, xdot))
            vdot = wdot / (2.0 * v) * (1.0 if w > 0 else -1.0)
            xdot, xddot = xdot / v, xddot / v**2 - xdot * vdot / v**3
        accel = xddot + np.einsum('kij,i,j->k', geom.gamma, xdot, xdot)
        return x, xdot, accel, geom

    def _validate(self):
        taus = np.linspace(self.curve.t0, self.curve.t1, _SPEED_SAMPLES)
        speeds = []
        for tau in taus:
            _, _, _, _, w = self._speed(tau)
            if abs(w) < 0.5:
                raise CurveError(
                    f"curve is null or nearly null at tau = {tau}: g(c',c') = {w!r}")
            speeds.append(np.sqrt(abs(w)))
        err = float(np.abs(np.array(speeds) - 1.0).max())
        if err <= UNIT_SPEED_TOL:
            return
        if err > REPARAM_LIMIT:
            raise CurveError(
                f"curve is not unit speed (max | |g(c',c')|^1/2 - 1 | = {err:.3e}); "
                f"violations above {REPARAM_LIMIT:.0%} are not resampled")
        self._build_table()

    def _build_table(self):
        taus = np.linspace(self.curve.t0, self.curve.t1, _TABLE_SIZE)
        speeds = np.empty(_TABLE_SIZE)
        for i, tau in enumerate(taus):
            speeds[i] = np.sqrt(abs(self._speed(tau)[4]))
        dtau = taus[1] - taus[0]
        sigma = np.concatenate([[0.0], np.cumsum(0.5 * (speeds[1:] + speeds[:-1]) * dtau)])
        self.table = (sigma, taus)

    def _tau_of_sigma(self, sigma: float) -> float:
        grid_sigma, grid_tau = self.table
        return float(np.interp(sigma, grid_sigma, grid_tau))

    def param_range(self) -> tuple[float, float]:
        if self.table is None:
            return self.curve.t0, self.curve.t1
        return 0.0, float(self.table[0][-1])


def _check_inside(chart: ChartSpec, x):
    if not chart.contains(x):
        raise DomainExitError(f"curve left the domain at {np.asarray(x).tolist()}")


def _transport_rhs(geom: PointGeometry, U, A, Xs, eps: float) -> np.ndarray:
    """dX/dtau for each row of Xs: -Gamma(U, X) - eps g(X,A) U + eps g(X,U) A."""
    gamma_u = np.einsum('kij,i->kj', geom.gamma, U)
    return (-Xs @ gamma_u.T
            - eps * np.outer(Xs @ (geom.g @ A), U)
            + eps * np.outer(Xs @ (geom.g @ U), A))


class _Driver:
    """Joint ODE for the curve state and the transported rows."""

    def __init__(self, chart: ChartSpec, curve: CurveSpec, rows: int):
        self.chart = chart
        self.curve = curve
        self.rows = rows
        n = chart.dim
        if curve.kind == "explicit":
            if curve.exprs is None or len(curve.exprs) != n:
                raise CurveError(f"explicit curve needs {n} component expressions")
            self.engine = _ExplicitCurve(chart, curve)
            self.lo, self.hi = self.engine.param_range()
            self.head = 0
        elif curve.kind == "u_integral":
            if curve.start is None or len(curve.start) != n:
                raise CurveError("integral-curve transport needs a start point")
            self.lo, self.hi = curve.t0, curve.t1
            self.head = n
        elif curve.kind == "geodesic":
            if curve.start is None or curve.velocity is None:
                raise CurveError("geodesic transport needs a start point and velocity")
            self.lo, self.hi = curve.t0, curve.t1
            self.head = 2 * n
        else:
            raise CurveError(f"unknown curve kind {curve.kind!r}")
        geom0, tangent0 = self.start_data()
        q = geom0.ip(tangent0, tangent0)
        if abs(abs(q) - 1.0) > 1e-6:
            raise CurveError(f"curve tangent is not unit at the start: g(u,u) = {q!r}")
        self.epsilon = 1.0 if q > 0 else -1.0

    def start_data(self):
        if self.curve.kind == "explicit":
            x, U, _, geom = self.engine.state(self.lo)
            return geom, U
        start = np.asarray(self.curve.start, dtype=float)
        _check_inside(self.chart, start)
        geom = geometry_at(self.chart, start, order=1)
        if self.curve.kind == "geodesic":
            return geom, np.asarray(self.curve.velocity, dtype=float)
        q = geom.u_norm2
        if abs(abs(q) - 1.0) > 1e-6:
            raise CurveError(f"chart u is not unit at the start: g(u,u) = {q!r}")
        return geom, geom.u

    def initial_state(self, X0_rows: np.ndarray) -> np.ndarray:
        if self.curve.kind == "explicit":
            return X0_rows.ravel()
        if self.curve.kind == "u_integral":
            return np.concatenate([np.asarray(self.curve.start, dtype=float),
                                   X0_rows.ravel()])
        return np.concatenate([np.asarray(self.curve.start, dtype=float),
                               np.asarray(self.curve.velocity, dtype=float),
                               X0_rows.ravel()])

    def _context(self, tau: float, state: np.ndarray):
        """(x, tangent, acceleration, geom) at the current integration point."""
        n = self.chart.dim
        if self.curve.kind == "explicit":
            x, U, A, geom = self.engine.state(tau)
            return x, U, A, geom
        x = state[:n]
        _check_inside(self.chart, x)
        geom = geometry_at(self.chart, x, order=1)
        if self.curve.kind == "u_integral":
            return x, geom.u, geom.acceleration(), geom
        v = state[n:2 * n]
        return x, v, np.zeros(n), geom

    def rhs(self, tau: float, state: np.ndarray) -> np.ndarray:
        x, U, A, geom = self._context(tau, state)
        Xs = state[self.head:].reshape(self.rows, self.chart.dim)
        dX = _transport_rhs(geom, U, A, Xs, self.epsilon).ravel()
        if self.curve.kind == "explicit":
            return dX
        if self.curve.kind == "u_integral":
            return np.concatenate([U, dX])
        dv = -np.einsum('kij,i,j->k', geom.gamma, U, U)
        return np.concatenate([U, dv, dX])

    def observe(self, tau: float, state: np.ndarray):
        n = self.chart.dim
        if self.curve.kind == "geodesic":
            # position and velocity are the state itself: no geometry needed
            x, U = state[:n], state[n:2 * n]
            _check_inside(self.chart, x)
        else:
            x, U, _, _ = self._context(tau, state)
        Xs = state[self.head:].reshape(self.rows, n)
        return x, U, Xs

    def integrate(self, X0_rows: np.ndarray, steps: int):
        n = self.chart.dim
        taus = np.linspace(self.lo, self.hi, steps + 1)
        h = (self.hi - self.lo) / steps
        points = np.empty((steps + 1, n))
        tangents = np.empty((steps + 1, n))
        vectors = np.empty((steps + 1, self.rows, n))
        state = self.initial_state(X0_rows)
        points[0], tangents[0], vectors[0] = self.observe(taus[0], state)
        for i in range(steps):
            t = taus[i]
            k1 = self.rhs(t, state)
            k2 = self.rhs(t + 0.5 * h, state + 0.5 * h * k1)
            k3 = self.rhs(t + 0.5 * h, state + 0.5 * h * k2)
            k4 = self.rhs(t + h, state + h * k3)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            points[i + 1], tangents[i + 1], vectors[i + 1] = self.observe(taus[i + 1], state)
        return taus, points, tangents, vectors


def transport(chart: ChartSpec, curve: CurveSpec, X0, steps: int | None = None,
              max_halvings: int = 6) -> TransportResult:
    """Fermi-transport X0 along the curve (solves D_u X = 0).

    Fixed-step RK4; the step count doubles until the endpoint vector moves by
    less than ENDPOINT_TOL.  The returned table is sampled at the requested
    resolution regardless of internal refinement.
    """
    X0_rows = np.atleast_2d(np.asarray(X0, dtype=float))
    if not np.all(np.isfinite(X0_rows)):
        raise TransportError("initial vector must be finite")
    base_steps = steps if steps is not None else curve.default_steps()
    driver = _Driver(chart, curve, X0_rows.shape[0])
    run = driver.integrate(X0_rows, base_steps)
    factor = 1
    for _ in range(max_halvings):
        finer = driver.integrate(X0_rows, base_steps * factor * 2)
        change = float(np.abs(finer[3][-1] - run[3][-1]).max())
        run = finer
        factor *= 2
        if change < ENDPOINT_TOL:
            break
    taus, points, tangents, vectors = (arr[::factor] if factor > 1 else arr
                                       for arr in run)
    squeeze = np.asarray(X0, dtype=float).ndim == 1
    return TransportResult(taus=taus, points=points, tangents=tangents,
                           vectors=vectors[:, 0, :] if squeeze else vectors,
                           epsilon=driver.epsilon, steps=taus.shape[0] - 1)


def fermi_frame(chart: ChartSpec, curve: CurveSpec, frame0,
                steps: int | None = None) -> TransportResult:
    """Transport a whole orthonormal frame whose last vector is the tangent."""
    frame0 = np.asarray(frame0, dtype=float)
    n = chart.dim
    if frame0.shape != (n, n):
        raise TransportError(f"frame must be {n}x{n}")
    driver = _Driver(chart, curve, n)
    geom0, tangent0 = driver.start_data()
    gram = frame0 @ geom0.g @ frame0.T
    if float(np.abs(np.abs(gram) - np.eye(n)).max()) > 1e-6:
        raise TransportError("frame0 is not orthonormal at the curve start")
    if float(np.abs(frame0[-1] - tangent0).max()) > 1e-6:
        raise TransportError("last frame vector must equal the curve tangent")
    return transport(chart, curve, frame0, steps=steps)


def gram_drift(chart: ChartSpec, result: TransportResult) -> float:
    """Max |g(X_i, X_j)(tau) - g(X_i, X_j)(0)| over the transported table."""
    vectors = result.vectors if result.vectors.ndim == 3 else result.vectors[:, None, :]
    grams = []
    for x, rows in zip(result.points, vectors):
        geom = geometry_at(chart, x, order=1)
        grams.append(rows @ geom.g @ rows.T)
    grams = np.array(grams)
    return float(np.abs(grams - grams[0]).max())


@dataclass
class GeodesicPath:
    taus: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    norm_drift: float      # max over the path of | |g(x',x')| - |g(x',x')|_0 |


def geodesic_integrate(chart: ChartSpec, p, v, length: float, steps: int) -> GeodesicPath:
    """Shoot a unit-speed geodesic of the given parameter length (fixed-step RK4)."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    geom = geometry_at(chart, p, order=1)
    q = geom.ip(v, v)
    if abs(abs(q) - 1.0) > UNIT_TOL:
        raise CurveError(f"geodesic start velocity is not unit: g(v,v) = {q!r}")
    n = chart.dim
    taus = np.linspace(0.0, length, steps + 1)
    h = length / steps
    points = np.empty((steps + 1, n))
    velocities = np.empty((steps + 1, n))
    points[0], velocities[0] = p, v
    norms = np.empty(steps + 1)
    norms[0] = abs(q)
    state = np.concatenate([p, v])

    def rhs(state):
        x, vel = state[:n], state[n:]
        _check_inside(chart, x)
        g = geometry_at(chart, x, order=1)
        return np.concatenate([vel, -np.einsum('kij,i,j->k', g.gamma, vel, vel)])

    for i in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        points[i + 1], velocities[i + 1] = state[:n], state[n:]
        g = geometry_at(chart, state[:n], order=1)
        norms[i + 1] = abs(g.ip(state[n:], state[n:]))
    return GeodesicPath(taus=taus, points=points, velocities=velocities,
                        norm_drift=float(np.abs(norms - norms[0]).max()))
