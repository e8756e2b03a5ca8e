"""Generalized Fermi transport along non-null unit-speed curves.

The transport law keeps the curve tangent fixed and preserves all inner
products.  With eps = g(u,u) = +-1 and A = nabla_u u,

    D_u X = nabla_u X + eps g(X, A) u - eps g(X, u) A,

so a Fermi-parallel field solves nabla_u X = -eps g(X,A) u + eps g(X,u) A.
On geodesics (A = 0) this is plain parallel transport.  Null curves are
rejected: the eps-weighted decomposition behind the law needs |g(u,u)| = 1.

Curves come in three kinds: integral curves of the chart's u field, explicit
coordinate expressions of one parameter, and geodesics shot from a point.
Every curve is integrated in its own parameter.  Explicit curves should be
unit speed; within a sub-percent speed error v = |g(c',c')|^1/2 the tangent
and acceleration are normalized pointwise and the transport rate is scaled
by v (D_{c'} X = v D_u X, so the transported field does not depend on the
parametrization); a larger error is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chart import ChartSpec
from .exprs import Expr, ExprError, compile_exprs, parse_expr
from .geometry import PointGeometry, UNIT_TOL, geometry_at
from .integrate import doubled, rk4
from .jets import Jet3

UNIT_SPEED_TOL = 1e-6
REPARAM_LIMIT = 1e-2       # relative speed error fixable by pointwise normalization
ENDPOINT_TOL = 1e-8        # step-halving convergence on the transported vector
_SPEED_SAMPLES = 65


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
    metrics: np.ndarray         # metric g at each curve position, shape (N+1, dim, dim)
    epsilon: float
    steps: int


# -- curve engines -----------------------------------------------------------------

class _ExplicitCurve:
    """Point, unit tangent and acceleration of an explicit curve in its own
    parameter, normalized pointwise once validation finds a mild speed error."""

    def __init__(self, chart: ChartSpec, curve: CurveSpec):
        self.chart = chart
        self.curve = curve
        self.normalize = False
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
        """(x, unit tangent, acceleration nabla_u u, geom, speed v) at parameter
        tau; v is 1.0 on a unit-speed curve."""
        x, xdot, xddot, geom, w = self._speed(tau)
        v = 1.0
        if self.normalize:
            v = np.sqrt(abs(w))
            wdot = (np.einsum('mab,m,a,b->', geom.dg, xdot, xdot, xdot)
                    + 2.0 * geom.ip(xddot, xdot))
            vdot = wdot / (2.0 * v) * (1.0 if w > 0 else -1.0)
            xdot, xddot = xdot / v, xddot / v**2 - xdot * vdot / v**3
        accel = xddot + np.einsum('kij,i,j->k', geom.gamma, xdot, xdot)
        return x, xdot, accel, geom, v

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
        if err > REPARAM_LIMIT:
            raise CurveError(
                f"curve is not unit speed (max | |g(c',c')|^1/2 - 1 | = {err:.3e}); "
                f"violations above {REPARAM_LIMIT:.0%} are not normalized")
        self.normalize = err > UNIT_SPEED_TOL


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
    """Joint ODE for the curve state and the transported rows, in the curve's
    own parameter over [curve.t0, curve.t1].

    The context (x, tangent, acceleration, geom, speed) of the last curve point
    evaluated is kept in a one-entry memo, keyed by tau on explicit curves
    (their context does not depend on the state) and by the exact position
    otherwise.  A table row and the next step's k1 share one evaluation, and
    so do stages that land on the same point: k2 and k3 of an explicit curve,
    and k2/k3 and k4/next k1 wherever the coordinate tangent is constant.
    """

    def __init__(self, chart: ChartSpec, curve: CurveSpec, rows: int):
        self.chart = chart
        self.curve = curve
        self.rows = rows
        self._memo = None   # (key, (x, U, A, geom, speed)) of the last point evaluated
        n = chart.dim
        if curve.kind == "explicit":
            if curve.exprs is None or len(curve.exprs) != n:
                raise CurveError(f"explicit curve needs {n} component expressions")
            self.engine = _ExplicitCurve(chart, curve)
            self.head = 0
        elif curve.kind == "u_integral":
            if curve.start is None or len(curve.start) != n:
                raise CurveError("integral-curve transport needs a start point")
            self.head = n
        elif curve.kind == "geodesic":
            if (curve.start is None or curve.velocity is None
                    or len(curve.start) != n or len(curve.velocity) != n):
                raise CurveError("geodesic transport needs a start point and velocity")
            self.head = 2 * n
        else:
            raise CurveError(f"unknown curve kind {curve.kind!r}")
        geom0, tangent0 = self.start_data()
        q = geom0.ip(tangent0, tangent0)
        if abs(abs(q) - 1.0) > 1e-6:
            raise CurveError(f"curve tangent is not unit at the start: g(u,u) = {q!r}")
        self.epsilon = 1.0 if q > 0 else -1.0

    def start_data(self):
        """(geom, tangent) at the start of the curve."""
        state = self.initial_state(np.zeros((self.rows, self.chart.dim)))
        _, U, _, geom, _ = self._context(self.curve.t0, state)
        if self.curve.kind == "u_integral" and abs(abs(geom.u_norm2) - 1.0) > 1e-6:
            raise CurveError(f"chart u is not unit at the start: g(u,u) = {geom.u_norm2!r}")
        return geom, U

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
        """(x, unit tangent, acceleration, geom, speed) at the current
        integration point; the speed is 1.0 except on a normalized explicit
        curve."""
        n = self.chart.dim
        if self.curve.kind == "explicit":
            if self._memo is None or self._memo[0] != tau:
                self._memo = (tau, self.engine.state(tau))
            return self._memo[1]
        x = state[:n]
        if self._memo is None or not np.array_equal(self._memo[0], x):
            _check_inside(self.chart, x)
            geom = geometry_at(self.chart, x, order=1)
            x = x.copy()
            A = geom.acceleration() if self.curve.kind == "u_integral" else np.zeros(n)
            self._memo = (x, (x, geom.u, A, geom, 1.0))
        x, U, A, geom, speed = self._memo[1]
        if self.curve.kind == "geodesic":
            U = state[n:2 * n]
        return x, U, A, geom, speed

    def rhs(self, tau: float, state: np.ndarray) -> np.ndarray:
        x, U, A, geom, speed = self._context(tau, state)
        Xs = state[self.head:].reshape(self.rows, self.chart.dim)
        dX = _transport_rhs(geom, U, A, Xs, self.epsilon).ravel()
        if self.curve.kind == "explicit":
            return speed * dX       # D_{c'} X = v D_u X
        if self.curve.kind == "u_integral":
            return np.concatenate([U, dX])
        dv = -np.einsum('kij,i,j->k', geom.gamma, U, U)
        return np.concatenate([U, dv, dX])

    def observe(self, tau: float, state: np.ndarray):
        """Position, tangent, metric and transported rows of one table row."""
        x, U, _, geom, _ = self._context(tau, state)
        return x, U, geom.g, state[self.head:].reshape(self.rows, self.chart.dim)

    def integrate(self, X0_rows: np.ndarray, steps: int):
        n = self.chart.dim
        taus = np.linspace(self.curve.t0, self.curve.t1, steps + 1)
        points = np.empty((steps + 1, n))
        tangents = np.empty((steps + 1, n))
        metrics = np.empty((steps + 1, n, n))
        vectors = np.empty((steps + 1, self.rows, n))

        def row(i, tau, state):
            points[i], tangents[i], metrics[i], vectors[i] = self.observe(tau, state)

        state = self.initial_state(X0_rows)
        row(0, taus[0], state)
        rk4(self.rhs, state, self.curve.t0, self.curve.t1, steps, row)
        return taus, points, tangents, metrics, vectors


def transport(chart: ChartSpec, curve: CurveSpec, X0, steps: int | None = None,
              max_halvings: int = 6) -> TransportResult:
    """Fermi-transport X0 along the curve (solves D_u X = 0).

    Fixed-step RK4; the step count doubles until the endpoint vector moves by
    less than ENDPOINT_TOL, and a TransportError is raised when it still has
    not after `max_halvings` doublings (max_halvings=0 is one fixed-step run).
    The returned table is sampled at the requested resolution regardless of
    internal refinement.
    """
    return _transport(chart, curve, X0, steps, max_halvings)


def _transport(chart: ChartSpec, curve: CurveSpec, X0, steps: int | None,
               max_halvings: int, check_start=None) -> TransportResult:
    """transport(), with check_start(geom, tangent) run at the curve start
    before integrating."""
    X0_rows = np.atleast_2d(np.asarray(X0, dtype=float))
    if not np.all(np.isfinite(X0_rows)):
        raise TransportError("initial vector must be finite")
    base_steps = steps if steps is not None else curve.default_steps()
    if base_steps < 1:
        raise CurveError(f"transport needs at least one step, got {base_steps}")
    driver = _Driver(chart, curve, X0_rows.shape[0])
    if check_start is not None:
        check_start(*driver.start_data())

    def endpoint_change(coarse, fine) -> float:
        return float(np.abs(fine[-1][-1] - coarse[-1][-1]).max())

    run = doubled(lambda steps: driver.integrate(X0_rows, steps), base_steps,
                  endpoint_change, ENDPOINT_TOL, max_halvings)
    if not run.converged:
        raise TransportError(
            f"transport did not converge: the endpoint vector still moved by "
            f"{run.change:.3e} (tolerance {ENDPOINT_TOL:.0e}) at {run.steps} steps")
    factor = run.steps // base_steps
    taus, points, tangents, metrics, vectors = (arr[::factor] for arr in run.value)
    squeeze = np.asarray(X0, dtype=float).ndim == 1
    return TransportResult(taus=taus, points=points, tangents=tangents,
                           vectors=vectors[:, 0, :] if squeeze else vectors,
                           metrics=metrics, epsilon=driver.epsilon, steps=base_steps)


def fermi_frame(chart: ChartSpec, curve: CurveSpec, frame0,
                steps: int | None = None) -> TransportResult:
    """Transport a whole orthonormal frame whose last vector is the tangent."""
    frame0 = np.asarray(frame0, dtype=float)
    n = chart.dim
    if frame0.shape != (n, n):
        raise TransportError(f"frame must be {n}x{n}")

    def check_start(geom0, tangent0):
        gram = frame0 @ geom0.g @ frame0.T
        if float(np.abs(np.abs(gram) - np.eye(n)).max()) > 1e-6:
            raise TransportError("frame0 is not orthonormal at the curve start")
        if float(np.abs(frame0[-1] - tangent0).max()) > 1e-6:
            raise TransportError("last frame vector must equal the curve tangent")

    return _transport(chart, curve, frame0, steps, 6, check_start)


def gram_drift(chart: ChartSpec, result: TransportResult) -> float:
    """Max |g(X_i, X_j)(tau) - g(X_i, X_j)(0)| over the transported table.

    Reads the metric the integrator recorded at each row, so it evaluates no
    geometry; `chart` is the chart the result was transported in."""
    vectors = result.vectors if result.vectors.ndim == 3 else result.vectors[:, None, :]
    grams = vectors @ result.metrics @ vectors.transpose(0, 2, 1)
    return float(np.abs(grams - grams[0]).max())
