"""Generalized Fermi transport along non-null unit-speed curves.

The transport law keeps the curve tangent fixed and preserves all inner
products.  With eps = g(u,u) = +-1 and A = nabla_u u,

    D_u X = nabla_u X + eps g(X, A) u - eps g(X, u) A,

so a Fermi-parallel field solves nabla_u X = -eps g(X,A) u + eps g(X,u) A.
On geodesics (A = 0) this is plain parallel transport.  Null curves are
rejected: the eps-weighted decomposition behind the law needs |g(u,u)| = 1.

Curves come in three kinds: integral curves of the chart's u field, explicit
coordinate expressions of one parameter, and geodesics shot from a point.
Every curve is integrated in its own parameter: RK4 over the curve alone (an
explicit curve is read where RK4 would step), then the rows (dX/dtau = X M is
linear) by each step's RK4 propagator.  An explicit curve is normalized
pointwise by its speed v = |g(c',c')|^1/2, and the transport rate is scaled
by v (D_{c'} X = v D_u X, so the transported field does not depend on the
parametrization); a speed more than REPARAM_LIMIT from 1 is rejected.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .chart import ChartSpec
from .exprs import Expr, ExprError, compile_exprs, parse_expr
from .geometry import OutsideDomainError, geometry_at, geometry_chunk
from .integrate import doubled, rk4
from .jets import Jet3

REPARAM_LIMIT = 1e-2       # relative speed error fixable by pointwise normalization
STEP = 1e-3                # default integration step in the curve parameter
ENDPOINT_TOL = 1e-8        # step-halving convergence, relative to max(1, max|X0|)
MAX_HALVINGS = 6           # step doublings before transport gives up
CHUNK = 64                 # steps per row fold and per explicit-curve read


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
    velocity).  The parameter runs over [t0, t1].
    """

    kind: str
    t0: float = 0.0
    t1: float = 1.0
    start: tuple[float, ...] | None = None
    velocity: tuple[float, ...] | None = None
    exprs: tuple[Expr, ...] | None = None
    expr_texts: tuple[str, ...] = field(default=(), compare=False)
    param: str = "s"

    @classmethod
    def integral_curve_of_u(cls, start, t0=0.0, t1=1.0) -> "CurveSpec":
        return cls(kind="u_integral", start=tuple(float(x) for x in start),
                   t0=float(t0), t1=float(t1))

    @classmethod
    def geodesic(cls, start, velocity, t0=0.0, t1=1.0) -> "CurveSpec":
        return cls(kind="geodesic", start=tuple(float(x) for x in start),
                   velocity=tuple(float(v) for v in velocity),
                   t0=float(t0), t1=float(t1))

    @classmethod
    def explicit(cls, texts, param="s", t0=0.0, t1=1.0) -> "CurveSpec":
        try:
            exprs = tuple(parse_expr(text, [param], ()) for text in texts)
        except ExprError as err:
            raise CurveError(f"bad curve expression: {err}") from err
        return cls(kind="explicit", exprs=exprs, expr_texts=tuple(texts), param=param,
                   t0=float(t0), t1=float(t1))

    def default_steps(self) -> int:
        steps = abs(self.t1 - self.t0) / STEP
        if not np.isfinite(steps):
            raise CurveError(f"range [{self.t0}, {self.t1}] is too long for steps of {STEP}")
        return max(1, int(round(steps)))


@dataclass
class TransportResult:
    taus: np.ndarray
    points: np.ndarray          # curve positions, shape (N+1, dim)
    tangents: np.ndarray        # unit tangent along the curve
    vectors: np.ndarray         # transported field(s): (N+1, dim) or (N+1, k, dim)
    metrics: np.ndarray         # metric g at each curve position, shape (N+1, dim, dim)
    epsilon: float
    steps: int
    refined_steps: int              # step count of the accepted internal run
    endpoint_change: float          # endpoint move at its last doubling


# -- curve engines -----------------------------------------------------------------

# A curve's contexts, a row per point: position, unit tangent, acceleration
# nabla_U U, speed v (1 on a stepped curve), metric and connection
_Contexts = namedtuple("_Contexts", "x U A speed g gamma")


class _ExplicitCurve:
    """Point, unit tangent and acceleration of an explicit curve in its own
    parameter, read at arrays of parameter values (contexts)."""

    def __init__(self, chart: ChartSpec, curve: CurveSpec):
        self.chart = chart
        self.curve = curve
        self.programs = compile_exprs(curve.exprs, {},
                                      curve.expr_texts or [""] * len(curve.exprs))

    def _raw(self, taus):
        """Position, velocity and acceleration from order-2 jets in tau, at
        one parameter value (shape (n,)) or along an array of them (rows)."""
        env = {self.curve.param: Jet3.variable(0, taus, 1, order=2)}
        shape = np.shape(taus) + (self.chart.dim,)
        x, xdot, xddot = np.zeros((3, *shape))
        with np.errstate(over="ignore", invalid="ignore"):   # inf/nan leave the domain
            for k, program in enumerate(self.programs):
                if isinstance(program, float):
                    x[..., k] = program
                    continue
                jet = program(env)
                x[..., k] = jet.value
                xdot[..., k] = jet.grad[0]
                xddot[..., k] = jet.hess[0, 0]
        return x, xdot, xddot

    def contexts(self, taus: np.ndarray) -> _Contexts:
        """Position, unit tangent, acceleration nabla_U U, speed v, metric and
        connection at an array of parameter values, from one order-2 jet
        program in tau and one order-1 geometry_chunk.  The values are checked
        in order, each for jets that raise, a point outside the domain (a
        DomainExitError) and |v - 1| > REPARAM_LIMIT (a CurveError); the first
        failure raises.  If the jets raise over the batch, the values are
        evaluated one at a time up to the one that raises."""
        failure = None
        try:
            x, xdot, xddot = self._raw(taus)
        except ArithmeticError:
            rows = []
            for tau in taus:
                try:
                    rows.append(self._raw(tau))
                except ArithmeticError as err:
                    failure = err
                    break
            if not rows:
                raise failure
            x, xdot, xddot = map(np.array, zip(*rows))
        chunk, errors = geometry_chunk(self.chart, x, order=1)
        good = next((b for b, err in enumerate(errors) if err is not None), len(x))
        if good < len(x):               # the values after a failing point are not read
            failure = _curve_error(errors[good], x[good])
        if good == 0:
            raise failure
        x, xdot, xddot = x[:good], xdot[:good], xddot[:good]
        g, dg, gamma = chunk.g[:good], chunk.dg[:good], chunk.gamma[:good]
        w = np.einsum('sa,sab,sb->s', xdot, g, xdot)
        v = np.sqrt(np.abs(w))
        slow = np.flatnonzero(~(np.abs(v - 1.0) <= REPARAM_LIMIT))
        if len(slow):
            b = slow[0]
            raise CurveError(
                f"curve is not unit speed at tau = {float(taus[b])}: |g(c',c')|^1/2 = "
                f"{v[b]:.6g} is more than {REPARAM_LIMIT:.0%} from 1, too far to normalize "
                f"(a null or nearly null curve has speed near 0)")
        if failure is not None:
            raise failure
        wdot = (np.einsum('smab,sm,sa,sb->s', dg, xdot, xdot, xdot)
                + 2.0 * np.einsum('sa,sab,sb->s', xddot, g, xdot))
        vdot = (wdot / (2.0 * v) * np.sign(w))[:, None]
        U = xdot / v[:, None]
        A = (xddot / v[:, None]**2 - xdot * vdot / v[:, None]**3
             + np.einsum('skij,si,sj->sk', gamma, U, U))
        return _Contexts(x, U, A, v, g, gamma)


def _curve_error(err: Exception, x: np.ndarray) -> Exception:
    """A curve point's error at x: leaving the domain is a DomainExitError."""
    if not isinstance(err, OutsideDomainError):
        return err
    exit_err = DomainExitError(f"curve left the domain at {x.tolist()}")
    exit_err.__cause__ = err
    return exit_err


def stage_taus(t0: float, t1: float, steps: int) -> np.ndarray:
    """The 2*steps + 1 parameter values of RK4's stages, in order: the table's
    linspace(t0, t1, steps + 1) at even places, t + 0.5*(t1 - t0)/steps
    between them.  Step i takes k1 at [2i], k2 and k3 at [2i + 1], k4 at
    [2i + 2]; an explicit curve is read at these values."""
    stages = np.empty(2 * steps + 1)
    stages[0::2] = np.linspace(t0, t1, steps + 1)
    stages[1::2] = stages[0:-1:2] + 0.5 * ((t1 - t0) / steps)
    return stages


def _generators(U, A, speed, g, gamma, eps: float) -> np.ndarray:
    """The Fermi generator at each of a stack of stage contexts: dX/dtau = X M
    for a row X, M = v (-(Gamma.U)^T - eps (gA) U^T + eps (gU) A^T)."""
    gU, gA = np.einsum('sij,sj->si', g, U), np.einsum('sij,sj->si', g, A)
    M = (eps * (gU[:, :, None] * A[:, None, :] - gA[:, :, None] * U[:, None, :])
         - np.einsum('skij,si->sjk', gamma, U))
    return speed[:, None, None] * M


def _propagators(M: np.ndarray, h: float) -> np.ndarray:
    """D = P - I for each step's RK4 propagator P, from M at its k1..k4: a step
    takes X to X + X D, keeping the low bits that forming P would round off."""
    n = M.shape[-1]
    M1, M2, M3, M4 = M.reshape(-1, 4, n, n).swapaxes(0, 1)
    K2 = M2 + (0.5 * h) * (M1 @ M2)
    K3 = M3 + (0.5 * h) * (K2 @ M3)
    K4 = M4 + h * (K3 @ M4)
    return (h / 6.0) * (M1 + 2.0 * K2 + 2.0 * K3 + K4)


def _fold(vectors: np.ndarray, first: int, stages, eps: float, h: float) -> None:
    """Carry the rows vectors[first] across the steps whose stage contexts
    (U, A, speed, g, Gamma: k1..k4 of each step) are given."""
    X = vectors[first]
    for j, D in enumerate(_propagators(_generators(*stages, eps), h), first + 1):
        vectors[j] = X = X + X @ D


class _Driver:
    """Transport over [curve.t0, curve.t1] in one loop over blocks of at most
    CHUNK steps: a block's contexts give its table rows, and its steps' k1..k4
    stage contexts are folded into step propagators for the rows (_fold).

    An explicit curve has no state: a block's 2 count stage values (stage_taus)
    are read in one contexts call and follow the last block's row (at first the
    start context, read once at t0); rows are every second context, step i's
    stages 2i + [0, 1, 1, 2].  rk4 steps a u-curve's or a geodesic's state
    alone, as one row, through the points a joint integration visits, bit for
    bit, and rhs records each stage's context: rows are the k1 contexts and
    the end state's.  A one-entry memo keyed by the exact position lets that
    end context and the next block's k1 share one evaluation, as k2/k3 and
    k4/next k1 do where the coordinate tangent is constant.  Every kind's
    start is a one-row context, checked once for a unit tangent.
    """

    def __init__(self, chart: ChartSpec, curve: CurveSpec):
        self.chart = chart
        self.curve = curve
        self._memo = None   # (x as a tuple, context) of a u-curve's or geodesic's last point
        n = chart.dim
        if curve.kind == "explicit":
            if curve.exprs is None or len(curve.exprs) != n:
                raise CurveError(f"explicit curve needs {n} component expressions")
            self.engine, self.y0 = _ExplicitCurve(chart, curve), None
            self.start = self.engine.contexts(np.array([curve.t0]))
        else:
            if curve.kind == "u_integral":
                if curve.start is None or len(curve.start) != n:
                    raise CurveError("integral-curve transport needs a start point")
                self.y0 = np.array([curve.start], dtype=float)
            elif curve.kind == "geodesic":
                if (curve.start is None or curve.velocity is None
                        or len(curve.start) != n or len(curve.velocity) != n):
                    raise CurveError("geodesic transport needs a start point and velocity")
                self.y0 = np.array([curve.start + curve.velocity], dtype=float)
            else:
                raise CurveError(f"unknown curve kind {curve.kind!r}")
            self.start = _Contexts._make(np.array([a]) for a in self._context(self.y0))
        U, g = self.start.U[0], self.start.g[0]
        q = float(U @ g @ U)
        if abs(abs(q) - 1.0) > 1e-6:
            raise CurveError(f"curve tangent is not unit at the start: g(u,u) = {q!r}")
        self.epsilon = 1.0 if q > 0 else -1.0

    def _context(self, state: np.ndarray) -> tuple:
        """The context (x, U, A, speed 1, g, Gamma) at a u-curve's or a
        geodesic's integration state, the one row of `state`."""
        n = self.chart.dim
        key = tuple(state[0, :n].tolist())
        if self._memo is None or self._memo[0] != key:
            x = state[0, :n].copy()
            try:
                geom = geometry_at(self.chart, x, order=1)
            except OutsideDomainError as err:
                raise _curve_error(err, x)
            A = geom.acceleration() if self.curve.kind == "u_integral" else np.zeros(n)
            self._memo = (key, (x, geom.u, A, 1.0, geom.g, geom.gamma))
        x, U, A, speed, g, gamma = self._memo[1]
        if self.curve.kind == "geodesic":
            U = state[0, n:2 * n]
        return x, U, A, speed, g, gamma

    def _rate(self, visited: list, state: np.ndarray, _rows) -> np.ndarray:
        """rk4's rhs for a u-curve's or a geodesic's one-row state, whose
        context goes to `visited`; its 1-D value broadcasts."""
        visited.append(context := self._context(state))
        _, U, _, _, _, gamma = context
        if self.curve.kind == "geodesic":
            return np.concatenate([U, -np.einsum('kij,i,j->k', gamma, U, U)])
        return U

    def integrate(self, X0_rows: np.ndarray, steps: int):
        n = self.chart.dim
        t0, t1 = self.curve.t0, self.curve.t1
        taus, h = stage_taus(t0, t1, steps), (t1 - t0) / steps
        points, tangents = np.empty((2, steps + 1, n))
        metrics = np.empty((steps + 1, n, n))
        vectors = np.empty((steps + 1, *X0_rows.shape))
        vectors[0] = X0_rows
        last, y = self.start, self.y0
        for first in range(0, steps, CHUNK):
            count = min(CHUNK, steps - first)
            if self.curve.kind == "explicit":
                new = self.engine.contexts(taus[2 * first + 1:2 * (first + count) + 1])
                block = _Contexts._make(np.concatenate([before[-1:], after])
                                        for before, after in zip(last, new))
                last, stride, k = new, 2, (2 * np.arange(count)[:, None] + [0, 1, 1, 2]).ravel()
            else:
                visited = []
                y = rk4(partial(self._rate, visited), y, [h], [count])
                block = _Contexts._make(map(np.array, zip(*visited, self._context(y))))
                stride, k = 4, slice(0, -1)
            rows = _Contexts._make(a[0::stride] for a in block)
            table = slice(first, first + count + 1)
            points[table], tangents[table], metrics[table] = rows.x, rows.U, rows.g
            _fold(vectors, first, (a[k] for a in block[1:]), self.epsilon, h)
        return taus[0::2], points, tangents, metrics, vectors


def transport(chart: ChartSpec, curve: CurveSpec, X0,
              steps: int | None = None) -> TransportResult:
    """Fermi-transport X0 along the curve (solves D_u X = 0).

    X0 is one vector or a stack of rows, such as a whole frame.  Fixed-step
    RK4; the step count doubles until the endpoint vector moves by less than
    ENDPOINT_TOL times max(1, max|X0|), as the Fermi law is linear in X0, and
    a TransportError is raised when it still has not after MAX_HALVINGS
    doublings.  The returned table is sampled at the requested
    resolution regardless of internal refinement.
    """
    X0_rows = np.atleast_2d(np.asarray(X0, dtype=float))
    if not np.all(np.isfinite(X0_rows)):
        raise TransportError("initial vector must be finite")
    base_steps = steps if steps is not None else curve.default_steps()
    if base_steps < 1:
        raise CurveError(f"transport needs at least one step, got {base_steps}")
    driver = _Driver(chart, curve)
    tol = ENDPOINT_TOL * max(1.0, float(np.abs(X0_rows).max()))
    run = doubled(lambda counts: (driver.integrate(X0_rows, steps) for steps in counts),
                  base_steps,
                  lambda coarse, fine: float(np.abs(fine[-1][-1] - coarse[-1][-1]).max()),
                  tol, MAX_HALVINGS)
    if not run.converged:
        raise TransportError(
            f"transport did not converge: the endpoint vector still moved by "
            f"{run.change:.3e} (tolerance {tol:.3g} = {ENDPOINT_TOL:.0e} x max(1, max|X0|)) "
            f"at {run.steps} steps")
    factor = run.steps // base_steps
    taus, points, tangents, metrics, vectors = (arr[::factor] for arr in run.value)
    squeeze = np.asarray(X0, dtype=float).ndim == 1
    return TransportResult(taus=taus, points=points, tangents=tangents,
                           vectors=vectors[:, 0, :] if squeeze else vectors,
                           metrics=metrics, epsilon=driver.epsilon, steps=base_steps,
                           refined_steps=run.steps, endpoint_change=run.change)


def gram_drift(result: TransportResult) -> float:
    """Max |g(X_i, X_j)(tau) - g(X_i, X_j)(0)| over the transported table.

    Reads the metric the integrator recorded at each row, so it evaluates no
    geometry.  Finite rows can still have Gram matrices that overflow: a
    drift that is not finite raises a TransportError."""
    vectors = result.vectors if result.vectors.ndim == 3 else result.vectors[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        grams = vectors @ result.metrics @ vectors.transpose(0, 2, 1)
        drift = float(np.abs(grams - grams[0]).max())
    if not np.isfinite(drift):
        raise TransportError(f"the Gram drift is {drift}: the transported vectors' "
                             "inner products overflow")
    return drift
