"""Robertson-Walker structure reconstruction for certified charts.

The closed 1-form omega = (h - eps f) u-flat integrates to a time function t
with t(base) = 0; its level sets are the constant-curvature slices.  The
coordinate field dual to t is d_t = eps u / (h - eps f), normalized so that
dt(d_t) = 1 exactly.  Flowing the base point along d_t while integrating the
expansion scalar

    psi = -(d_t h) / (h - eps f)

reconstructs the scale factor a(tau)^2 = exp(int_0^tau psi), a(0) = 1, and the
slice curvature K_tau = h + eps [dh(u) / (2(h - eps f))]^2 gives the constant
k-hat = K_tau a(tau)^2 of the spatial normal form.  Proper time accumulates as
ds = dtau / |h - eps f|.

Every operation here demands a LocallyRW certificate: on anything else the
time function does not exist and the quantities are meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import Certificate, DEFAULT_TOL_MARGIN
from .chart import ChartSpec
from .geometry import (GeometryError, OutsideDomainError, PointGeometry, adapted_frame,
                       geometry_at, geometry_batch, trace_invariant_gradients,
                       trace_invariants)
from .integrate import doubled, rk4

QUAD_TOL = 1e-10          # Gauss-Legendre segment bisection threshold
QUAD_DEPTH = 20           # bisection levels before the quadrature gives up
FLOW_A_TOL = 1e-8         # step halving stops when a(tau) moves less than this
SLICE_TOL = 1e-9          # same-slice time agreement
FLAT_BAND = 1e-6          # |k-hat| below this reports flat spatial sections
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_T = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


class FoliationError(ValueError):
    pass


class ClassificationError(FoliationError):
    """The chart's certificate does not allow foliation."""


class DegeneracyError(FoliationError):
    """|h - eps f| fell inside the margin band."""


class FlowDomainError(FoliationError):
    """A flow or quadrature path left the chart domain."""


@dataclass
class FoliationResult:
    base_point: np.ndarray
    epsilon: int
    tau: np.ndarray            # sorted grid values, 0 included
    a: np.ndarray              # a(tau), a(0) = 1
    k_slice: np.ndarray        # K_tau along the flow
    k_hat: np.ndarray          # K_tau * a(tau)^2
    psi: np.ndarray            # expansion scalar along the flow
    proper_time: np.ndarray    # s(tau), s(0) = 0
    points: np.ndarray         # flow positions at the grid values
    loop_residual: float
    curvature_sign: int        # -1 / 0 / +1 with the FLAT_BAND dead-band
    a_of_s: list[tuple[float, float]]


def require_locally_rw(chart: ChartSpec, certificate: Certificate):
    if certificate.chart_name != chart.name:
        raise ClassificationError(
            f"certificate is for chart {certificate.chart_name!r}, not {chart.name!r}")
    if certificate.classification != "LocallyRW":
        raise ClassificationError(
            f"{certificate.classification}: foliation not applicable")


def _guarded(chart: ChartSpec, point, order: int, tol_margin: float):
    """(geom, f, h, h - eps f) at a point outside the margin band."""
    return _guard(geometry_at(chart, point, order=order), tol_margin)


def _guard(geom: PointGeometry, tol_margin: float):
    f, h = trace_invariants(geom)
    margin = h - geom.epsilon * f
    if abs(margin) <= tol_margin:
        raise DegeneracyError(
            f"|h - eps f| = {abs(margin):.3e} inside margin band at {geom.point.tolist()}")
    return geom, f, h, margin


def _omega_of(geom: PointGeometry, tol_margin: float) -> np.ndarray:
    """The covector (h - eps f) u-flat, guarded against the margin band."""
    _, _, _, margin = _guard(geom, tol_margin)
    return margin * (geom.g @ geom.u)


def _segment_integral(chart, a, b, tol_margin, depth=0, whole=None):
    if whole is None:
        whole = _gl8(chart, a, b, tol_margin)
    if depth >= QUAD_DEPTH:
        raise FoliationError(
            f"quadrature did not converge within {QUAD_DEPTH} bisections "
            f"on [{a.tolist()}, {b.tolist()}]")
    mid = 0.5 * (a + b)
    left = _gl8(chart, a, mid, tol_margin)
    right = _gl8(chart, mid, b, tol_margin)
    if abs(left + right - whole) < QUAD_TOL:
        return left + right
    return (_segment_integral(chart, a, mid, tol_margin, depth + 1, left)
            + _segment_integral(chart, mid, b, tol_margin, depth + 1, right))


def _gl8(chart, a, b, tol_margin) -> float:
    """The 8-node Gauss-Legendre rule for omega on [a, b], its nodes evaluated
    as one batch.  If the batch fails, the nodes are evaluated and guarded one
    at a time, which raises what the first failing node raises."""
    delta = b - a
    try:
        geoms = geometry_batch(chart, a + _GL_T[:, None] * delta, order=2)
    except (GeometryError, ArithmeticError):
        geoms = None
    total = 0.0
    for k, (t, w) in enumerate(zip(_GL_T, _GL_W)):
        geom = geometry_at(chart, a + t * delta, order=2) if geoms is None else geoms[k]
        total += w * float(_omega_of(geom, tol_margin) @ delta)
    return total


def _polyline_integral(chart: ChartSpec, certificate: Certificate, vertices) -> float:
    """Line integral of omega along a polyline whose vertices lie in the domain."""
    require_locally_rw(chart, certificate)
    for q in vertices:
        if not chart.contains(q):
            raise FlowDomainError(f"path vertex {q.tolist()} outside the chart domain")
    total = 0.0
    for a, b in zip(vertices[:-1], vertices[1:]):
        if np.array_equal(a, b):
            continue
        total += _segment_integral(chart, a, b, certificate.tol_margin)
    return total


def time_value(chart: ChartSpec, certificate: Certificate, p, base,
               path=None) -> float:
    """Line integral of omega from `base` to `p` (t(base) = 0).

    `path` is an optional polyline visiting intermediate points; by default the
    straight coordinate segment is used.  Exactness of omega makes the result
    path independent for certified charts.
    """
    base = np.asarray(base, dtype=float)
    p = np.asarray(p, dtype=float)
    if path is None:
        vertices = [base, p]
    else:
        vertices = [np.asarray(q, dtype=float) for q in path]
        if not np.allclose(vertices[0], base) or not np.allclose(vertices[-1], p):
            raise FoliationError("path must run from base to p")
    return _polyline_integral(chart, certificate, vertices)


def loop_residual(chart: ChartSpec, certificate: Certificate, loop) -> float:
    """|closed line integral of omega| around a polyline loop (0.0 for one point)."""
    vertices = [np.asarray(q, dtype=float) for q in loop]
    if not vertices or not np.allclose(vertices[0], vertices[-1]):
        raise FoliationError("loop must be closed (first and last points equal)")
    return abs(_polyline_integral(chart, certificate, vertices))


# -- slice data -----------------------------------------------------------------

def _scalars(chart: ChartSpec, point, tol_margin: float):
    """(geom, f, h, eps, margin, dh(u)) with the margin guard applied."""
    geom, f, h, margin = _guarded(chart, point, 3, tol_margin)
    _, dh = trace_invariant_gradients(geom)
    return geom, f, h, geom.epsilon, margin, float(dh @ geom.u)


def _slice_terms(h: float, eps, margin: float, dh_u: float) -> tuple[float, float]:
    """(K_tau, psi) from the scalars at a point, margin = h - eps f:
    K_tau = h + eps [dh(u) / (2 margin)]^2 and psi = -eps dh(u) / margin^2."""
    return h + eps * (dh_u / (2.0 * margin))**2, -eps * dh_u / margin**2


def _on_flow(evaluate, chart: ChartSpec, x, *args):
    """evaluate(chart, x, *args), leaving the domain raised as a FlowDomainError."""
    try:
        return evaluate(chart, x, *args)
    except OutsideDomainError as err:
        raise FlowDomainError(f"flow left the domain at {x.tolist()}") from err


def second_fundamental_form_check(chart: ChartSpec, point,
                                  tol_margin: float = DEFAULT_TOL_MARGIN
                                  ) -> tuple[float, float]:
    """Return (coefficient, residual) of the pure-trace extrinsic curvature.

    The slices satisfy II(x,y) = eps dh(u)/(2(h - eps f)) g(x,y) u; the residual
    compares that coefficient against -eps g(x, nabla_y u) over the spatial
    frame, relative to the local curvature scale.
    """
    geom, f, h, eps, margin, dh_u = _scalars(chart, point, tol_margin)
    coefficient = eps * dh_u / (2.0 * margin)
    frame = adapted_frame(geom, rng=np.random.default_rng(0))
    spatial = frame.spatial
    M = (spatial @ (geom.nabla_u() @ geom.g)) @ spatial.T   # g(nabla_{e_a} u, e_b)
    gram = spatial @ geom.g @ spatial.T
    residual = float(np.abs(-eps * M.T - coefficient * gram).max()) / geom.residual_scale
    return coefficient, residual


def slice_curvature(chart: ChartSpec, point,
                    tol_margin: float = DEFAULT_TOL_MARGIN) -> float:
    """K_tau = h + eps [dh(u)/(2(h - eps f))]^2 at a certified sample point."""
    _, _, h, eps, margin, dh_u = _scalars(chart, point, tol_margin)
    return _slice_terms(h, eps, margin, dh_u)[0]


# -- flow of d_t and the scale factor ---------------------------------------------

def flow_point(chart: ChartSpec, certificate: Certificate, start, delta_tau: float,
               steps_per_unit: int = 128) -> np.ndarray:
    """Advance `start` by delta_tau along d_t (position only, cheap).

    Plain RK4 with max(4, ceil(steps_per_unit |delta_tau|)) steps.
    """
    require_locally_rw(chart, certificate)
    eps = certificate.epsilon
    if delta_tau == 0.0:
        return np.asarray(start, dtype=float)
    steps = max(4, int(np.ceil(abs(delta_tau) * steps_per_unit)))

    def rhs(_, x):
        geom, _, _, margin = _on_flow(_guarded, chart, x, 2, certificate.tol_margin)
        return eps * geom.u / margin

    return rk4(rhs, np.asarray(start, dtype=float), 0.0, delta_tau, steps)


def scale_factor_profile(chart: ChartSpec, certificate: Certificate, base,
                         tau_grid) -> FoliationResult:
    """Reconstruct (a, K_tau, k-hat, psi, s) along the flow of d_t from base.

    Fixed-step RK4 with the step count doubled until a(tau) moves by less than
    FLOW_A_TOL at every grid value.  The grid is processed in sorted order;
    tau = 0 (the base slice) is always included.
    """
    require_locally_rw(chart, certificate)
    base = np.asarray(base, dtype=float)
    if not chart.contains(base):
        raise FlowDomainError(f"base point {base.tolist()} outside the chart domain")
    eps = certificate.epsilon
    taus = np.unique(np.concatenate([[0.0], np.asarray(tau_grid, dtype=float)]))

    def rhs(_, state):
        """State = (x, log a^2, proper time); returns its tau derivative."""
        x = state[:-2]
        geom, _, h, _, margin, dh_u = _on_flow(_scalars, chart, x, certificate.tol_margin)
        _, psi = _slice_terms(h, eps, margin, dh_u)
        return np.concatenate([eps * geom.u / margin, [psi, 1.0 / abs(margin)]])

    def run(steps_per_unit: int) -> dict[float, np.ndarray]:
        states: dict[float, np.ndarray] = {}
        for direction in (1.0, -1.0):
            grid = [t for t in taus if (t > 0 if direction > 0 else t < 0)]
            state = np.concatenate([base, [0.0, 0.0]])
            prev = 0.0
            for target in sorted(grid, key=abs):
                span = abs(target - prev)
                steps = max(4, int(np.ceil(span * steps_per_unit)))
                state = rk4(rhs, state, prev, target, steps)
                states[target] = state
                prev = target
        states[0.0] = np.concatenate([base, [0.0, 0.0]])
        return states

    def a_change(coarse, fine) -> float:
        return max(abs(np.exp(0.5 * fine[t][-2]) - np.exp(0.5 * coarse[t][-2]))
                   for t in taus)

    flow = doubled(run, 64, a_change, FLOW_A_TOL, 10)
    if not flow.converged:
        raise FoliationError("flow integration did not converge under step halving")
    states = flow.value

    a_vals, terms, s_vals, points = [], [], [], []
    for t in taus:
        state = states[float(t)]
        x = state[:-2]
        _, _, h_val, _, margin, dh_u = _scalars(chart, x, certificate.tol_margin)
        a_vals.append(float(np.exp(0.5 * state[-2])))
        terms.append(_slice_terms(h_val, eps, margin, dh_u))
        s_vals.append(float(state[-1]))
        points.append(x)
    a_vals = np.array(a_vals)
    k_vals, psi_vals = np.array(terms).T
    k_hat = k_vals * a_vals**2

    k0 = float(k_hat[np.searchsorted(taus, 0.0)])
    sign = 0 if abs(k0) < FLAT_BAND else (1 if k0 > 0 else -1)

    return FoliationResult(
        base_point=base, epsilon=eps, tau=taus, a=a_vals, k_slice=k_vals,
        k_hat=k_hat, psi=np.array(psi_vals), proper_time=np.array(s_vals),
        points=np.array(points),
        loop_residual=_diagnostic_loop(chart, certificate, base),
        curvature_sign=sign,
        a_of_s=[(s, a) for s, a in zip(s_vals, a_vals)])


def _diagnostic_loop(chart: ChartSpec, certificate: Certificate, base) -> float:
    """Rectangle loop around the base in the first two coordinates."""
    lows = np.array([lo for lo, _ in chart.domain])
    highs = np.array([hi for _, hi in chart.domain])
    d0 = np.zeros(chart.dim)
    d1 = np.zeros(chart.dim)
    d0[0] = 0.1 * (highs[0] - lows[0]) * (1 if base[0] + 0.1 * (highs[0] - lows[0]) <= highs[0] else -1)
    d1[1] = 0.1 * (highs[1] - lows[1]) * (1 if base[1] + 0.1 * (highs[1] - lows[1]) <= highs[1] else -1)
    loop = [base, base + d0, base + d0 + d1, base + d1, base]
    return loop_residual(chart, certificate, loop)


def same_slice_points(chart: ChartSpec, certificate: Certificate, base,
                      target_tau: float, count: int, rng=None,
                      max_rejects: int = 200) -> list[np.ndarray]:
    """Sample `count` domain points and shoot each onto the slice t = target_tau.

    Each candidate q is flowed coarsely (16 RK4 steps per unit tau) by
    delta = target - t(q), then corrected by Newton steps p <- p - err d_t(p)
    until |err| < SLICE_TOL.  Because dt(d_t) = 1 exactly, a step removes err
    to first order and costs one evaluation of d_t plus the quadrature along
    the step.  t(p) is t(q) plus the quadrature of omega along each
    straight step, q -> p and then p -> p'; exactness of omega on the box
    domain makes that equal to time_value(p) from the base.  A candidate whose
    flow or step leaves the domain or meets the margin band is redrawn; one
    that does not converge within 12 Newton steps raises.
    """
    require_locally_rw(chart, certificate)
    rng = np.random.default_rng(0) if rng is None else rng
    base = np.asarray(base, dtype=float)
    lows = np.array([lo for lo, _ in chart.domain])
    highs = np.array([hi for _, hi in chart.domain])
    points: list[np.ndarray] = []
    rejects = {"flow or step left the domain": 0, "hit the margin band": 0,
               "evaluated outside the domain": 0}
    while len(points) < count:
        failed = sum(rejects.values())
        if failed > max_rejects:
            reasons = ", ".join(f"{n} {why}" for why, n in rejects.items())
            raise FoliationError(
                f"could not place {count} points on slice {target_tau}; "
                f"{failed} candidates failed ({reasons})")
        q = rng.uniform(lows, highs)
        try:
            points.append(_shoot(chart, certificate, base, q, target_tau))
        except FlowDomainError:
            rejects["flow or step left the domain"] += 1
        except DegeneracyError:
            rejects["hit the margin band"] += 1
        except OutsideDomainError:
            rejects["evaluated outside the domain"] += 1
    return points


def _shoot(chart: ChartSpec, certificate: Certificate, base, q,
           target_tau: float) -> np.ndarray:
    """Coarse flow from q onto the slice t = target_tau, then Newton steps."""
    t_q = time_value(chart, certificate, q, base)
    p = flow_point(chart, certificate, q, target_tau - t_q, steps_per_unit=16)
    err = t_q + _polyline_integral(chart, certificate, [q, p]) - target_tau
    rounds = 0
    while abs(err) >= SLICE_TOL:
        if rounds == 12:
            raise FoliationError("slice shooting did not converge")
        geom, _, _, margin = _guarded(chart, p, 2, certificate.tol_margin)
        step = p - err * certificate.epsilon * geom.u / margin
        err += _polyline_integral(chart, certificate, [p, step])
        p = step
        rounds += 1
    return p
