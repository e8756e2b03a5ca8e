"""Robertson-Walker structure reconstruction for certified charts.

The closed 1-form omega = (h - eps f) u-flat integrates to a time function t
with t(base) = 0; its level sets are the constant-curvature slices.  The
coordinate field dual to t is d_t = eps u / (h - eps f), normalized so that
dt(d_t) = 1 exactly.  Flowing the base point along d_t while integrating

    psi = 2 eps e / (h - eps f),    e = div u / (n - 1),

reconstructs the scale factor a(tau)^2 = exp(int_0^tau psi), a(0) = 1, and the
slice curvature K_tau = h + eps e^2 gives the constant k-hat = K_tau a(tau)^2
of the spatial normal form.  Proper time accumulates as ds = dtau / |h - eps f|.
Every flow along d_t runs on integrate.dopri, the adaptive Dormand-Prince pair.

Both formulas read the slices' expansion e from nabla u.  In the normal form
eps dt^2 + a(t)^2 sigma_k the field u = +-d_t has no shear or rotation, so
nabla u = e (g - eps u u-flat) and its trace is (n - 1) e; the Gauss equation
then gives K_tau = h + eps e^2, and d_t log a^2 = 2 eps e / (h - eps f).  The
same e equals -dh(u) / (2(h - eps f)), which certify's shear residual checks,
but that form needs the order-3 gradient of h.  div u needs only the
connection and du, and h and f the curvature, so the foliation evaluates
order-2 geometry throughout.

Every operation here demands a LocallyRW certificate: on anything else the
time function does not exist and the quantities are meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .certify import Certificate, DEFAULT_TOL_MARGIN
from .chart import ChartSpec
from .geometry import (OutsideDomainError, PointGeometry, _apply, _dot, geometry_at,
                       geometry_chunk, trace_invariants)
from .integrate import dopri

QUAD_TOL = 1e-10          # Gauss-Legendre segment bisection threshold
QUAD_DEPTH = 20           # bisection levels before the quadrature gives up
FLOW_A_TOL = 1e-9         # the flows' per-step tolerance for the Dormand-Prince pair
SHOOT_FLOW_TOL = 1e-3     # the shooting's coarse flow, which Newton steps correct
SLICE_TOL = 1e-9          # same-slice time agreement
FLAT_BAND = 1e-6          # |k-hat| below this reports flat spatial sections
BATCH_ROWS = 64           # rows per geometry_chunk call, which bounds a batch's memory
MAX_FLOW_STEPS = 1_000_000  # steps of a flow segment, accepted and rejected
MAX_REJECTS = 200         # failed same-slice candidates before the shooting gives up
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


def _finite(name: str, value) -> np.ndarray:
    """value as floats, or a FoliationError if any of it is not finite."""
    values = np.asarray(value, dtype=float)
    if not np.isfinite(values).all():
        raise FoliationError(f"{name} must be finite, got {values.tolist()!r}")
    return values


def _degenerate(margin: float, point: np.ndarray) -> DegeneracyError:
    return DegeneracyError(
        f"|h - eps f| = {abs(margin):.3e} inside margin band at {point.tolist()}")


class _Rows(NamedTuple):
    """Fields at the rows of a (B, n) array, nan where a row fails."""
    g: np.ndarray
    u: np.ndarray
    h: np.ndarray
    margin: np.ndarray       # h - eps f
    expansion: np.ndarray    # div u / (n - 1)
    errors: list             # per row None or what geometry_at and the margin guard raise


def _expansion(geom: PointGeometry):
    """The slices' expansion e = tr(nabla u) / (n - 1), of a point or a chunk."""
    return np.trace(geom.nabla_u(), axis1=-2, axis2=-1) / (geom.dim - 1)


def _rows(chart: ChartSpec, points: np.ndarray, tol_margin: float) -> _Rows:
    """The fields of _Rows from order-2 geometry, each row's equal to the
    one-point path's (slice_curvature).  Rows go to geometry_chunk BATCH_ROWS
    at a time."""
    count, n = points.shape
    g, u, h, margin, expansion = (np.full((count,) + shape, np.nan)
                                  for shape in ((n, n), (n,), (), (), ()))
    errors = []
    for start in range(0, count, BATCH_ROWS):
        geom, batch_errors = geometry_chunk(chart, points[start:start + BATCH_ROWS], 2)
        if geom is not None:
            rows = start + np.flatnonzero([err is None for err in batch_errors])
            f, h[rows] = trace_invariants(geom)
            g[rows], u[rows], margin[rows] = geom.g, geom.u, h[rows] - geom.epsilon * f
            expansion[rows] = _expansion(geom)
        errors += batch_errors
    for b in np.flatnonzero(np.abs(margin) <= tol_margin):
        errors[b] = _degenerate(margin[b], points[b])
    return _Rows(g, u, h, margin, expansion, errors)


def _flow_error(err: Exception, x: np.ndarray) -> Exception:
    """A flow's error at x: leaving the domain is a FlowDomainError."""
    if not isinstance(err, OutsideDomainError):
        return err
    flow_err = FlowDomainError(f"flow left the domain at {x.tolist()}")
    flow_err.__cause__ = err
    return flow_err


def _gl8(chart: ChartSpec, a: np.ndarray, b: np.ndarray, tol_margin: float) -> list:
    """The 8-node Gauss-Legendre rule for omega on segments [a[s], b[s]], all
    nodes in one batch: per segment its value, or its first failing node's error."""
    delta = b - a
    nodes = a[:, None, :] + _GL_T[:, None] * delta[:, None, :]
    g, u, _, margin, _, errors = _rows(chart, nodes.reshape(-1, chart.dim), tol_margin)
    omega = margin[:, None] * _apply(g, u)
    terms = (_GL_W * _dot(omega, np.repeat(delta, 8, axis=0)).reshape(-1, 8)).T
    total = sum(terms, np.zeros(len(a)))       # 0.0 + the nodes in order, as for one segment
    return [next((e for e in errors[8 * s:8 * s + 8] if e is not None), value)
            for s, value in enumerate(total.tolist())]


def _failed(*results):
    """The first exception among results, or None."""
    return next((r for r in results if isinstance(r, Exception)), None)


def _bisect(chart: ChartSpec, a: np.ndarray, b: np.ndarray, wholes: list,
            tol_margin: float, depth: int = 0) -> list:
    """The integral of omega over segments [a[s], b[s]] whose GL8 rules gave
    `wholes`, per segment its value or exception: the sum of its halves'
    rules if within QUAD_TOL of its own, else left + right integrated alike,
    raising at QUAD_DEPTH.  One call is one level, its halves one batch; a
    segment raises what depth-first recursion meets first."""
    if not len(a):
        return []
    if depth >= QUAD_DEPTH:
        return [FoliationError(f"quadrature did not converge within {QUAD_DEPTH} bisections "
                               f"on [{x.tolist()}, {y.tolist()}]") for x, y in zip(a, b)]
    mid = 0.5 * (a + b)
    halves = _gl8(chart, np.concatenate([a, mid]), np.concatenate([mid, b]), tol_margin)
    lefts, rights = halves[:len(a)], halves[len(a):]
    results = [_failed(left, right)
               or (left + right if abs(left + right - whole) < QUAD_TOL else None)
               for left, right, whole in zip(lefts, rights, wholes)]
    split = [s for s, result in enumerate(results) if result is None]
    parts = _bisect(chart, np.concatenate([a[split], mid[split]]),
                    np.concatenate([mid[split], b[split]]),
                    [lefts[s] for s in split] + [rights[s] for s in split], tol_margin, depth + 1)
    for s, left, right in zip(split, parts, parts[len(split):]):
        results[s] = _failed(left, right) or left + right
    return results


def _integrals(chart: ChartSpec, paths: list, tol_margin: float) -> tuple[list, list]:
    """Line integrals of omega along polylines, all segments together: per path
    its value (nan on failure), and None or its first failing segment's error."""
    totals, segments = [], []
    for k, vertices in enumerate(paths):
        outside = next((q for q in vertices if not chart.contains(q)), None)
        totals.append(0.0 if outside is None else
                      FlowDomainError(f"path vertex {outside.tolist()} outside the chart domain"))
        segments += [(k, a, b) for a, b in zip(vertices[:-1], vertices[1:])
                     if outside is None and not np.array_equal(a, b)]
    a, b = (np.array([s[j] for s in segments]).reshape(-1, chart.dim) for j in (1, 2))
    values = _gl8(chart, a, b, tol_margin)
    whole = [s for s, value in enumerate(values) if not _failed(value)]
    for s, value in zip(whole, _bisect(chart, a[whole], b[whole], [values[s] for s in whole],
                                       tol_margin)):
        values[s] = value
    for (k, _, _), value in zip(segments, values):
        totals[k] = _failed(totals[k], value) or totals[k] + value
    errors = [_failed(total) for total in totals]
    return [np.nan if err else total for total, err in zip(totals, errors)], errors


def _polyline_integral(chart: ChartSpec, certificate: Certificate, vertices) -> float:
    """Line integral of omega along a polyline whose vertices lie in the domain."""
    require_locally_rw(chart, certificate)
    (value,), (error,) = _integrals(chart, [vertices], certificate.tol_margin)
    if error is not None:
        raise error
    return value


def time_value(chart: ChartSpec, certificate: Certificate, p, base,
               path=None) -> float:
    """Line integral of omega from `base` to `p` (t(base) = 0).

    `path` is an optional polyline visiting intermediate points; by default the
    straight coordinate segment is used.  Exactness of omega makes the result
    path independent for certified charts.
    """
    base, p = np.asarray(base, dtype=float), np.asarray(p, dtype=float)
    vertices = [base, p] if path is None else [np.asarray(q, dtype=float) for q in path]
    if path is not None and not (np.allclose(vertices[0], base) and np.allclose(vertices[-1], p)):
        raise FoliationError("path must run from base to p")
    return _polyline_integral(chart, certificate, vertices)


def loop_residual(chart: ChartSpec, certificate: Certificate, loop) -> float:
    """|closed line integral of omega| around a polyline loop (0.0 for one point)."""
    vertices = [np.asarray(q, dtype=float) for q in loop]
    if not vertices or not np.allclose(vertices[0], vertices[-1]):
        raise FoliationError("loop must be closed (first and last points equal)")
    return abs(_polyline_integral(chart, certificate, vertices))


# -- slice data -----------------------------------------------------------------

def _slice_terms(h: float, eps, margin: float, expansion: float) -> tuple[float, float]:
    """(K_tau, psi) from the scalars at a point, margin = h - eps f:
    K_tau = h + eps e^2 and psi = 2 eps e / margin."""
    return h + eps * expansion**2, 2.0 * eps * expansion / margin


def slice_curvature(chart: ChartSpec, point,
                    tol_margin: float = DEFAULT_TOL_MARGIN) -> float:
    """K_tau = h + eps e^2 at a certified sample point, e = div u / (n - 1)."""
    geom = geometry_at(chart, point, order=2)
    f, h = trace_invariants(geom)
    margin = h - geom.epsilon * f
    if abs(margin) <= tol_margin:
        raise _degenerate(margin, geom.point)
    return _slice_terms(h, geom.epsilon, margin, _expansion(geom))[0]


# -- flow of d_t and the scale factor ---------------------------------------------

def flow_point(chart: ChartSpec, certificate: Certificate, start, delta_tau: float) -> np.ndarray:
    """Advance `start` by delta_tau along d_t (position only, cheap), by the
    Dormand-Prince pair at FLOW_A_TOL; a delta_tau of 0 evaluates nothing."""
    require_locally_rw(chart, certificate)
    _finite("delta_tau", delta_tau)
    states, errors = _flow(chart, certificate, np.asarray(start, dtype=float)[None],
                           [[0.0, delta_tau]], FLOW_A_TOL)
    if errors[0] is not None:
        raise errors[0]
    return states[0][-1][:-2]


def _flow(chart: ChartSpec, certificate: Certificate, starts: np.ndarray, paths: list,
          tol: float) -> tuple[list, list]:
    """Flow state = (x, log a^2, proper time) along d_t from each row of
    `starts` through its tau path, which starts at 0: per row the states at
    its path's values, and None or the exception that stopped it (a
    FlowDomainError for leaving the domain).

    The rows step in lockstep by dopri at the per-step tolerance `tol`, one
    call per segment index, so a stage of every row costs one _rows batch; a
    row's states and error are bit for bit those of flowing it alone.  A row
    needing more than MAX_FLOW_STEPS steps on a segment is a FoliationError."""
    eps, tol_margin = certificate.epsilon, certificate.tol_margin
    y = np.concatenate([starts, np.zeros((len(starts), 2))], axis=1)
    states, errors = [[row.copy()] for row in y], [None] * len(starts)

    def rhs(state, stepping):
        """The tau derivative of the rows live[stepping], nan at a row with an
        error; only rows without one take part in the division."""
        k = np.full_like(state, np.nan)
        todo = np.array([j for j, r in enumerate(live[stepping]) if errors[r] is None], dtype=int)
        got = _rows(chart, state[todo, :-2], tol_margin)
        for j, err in zip(todo, got.errors):
            if err is not None:
                errors[live[stepping[j]]] = _flow_error(err, state[j, :-2])
        ok = np.array([err is None for err in got.errors], dtype=bool)
        margin = got.margin[ok]
        _, psi = _slice_terms(got.h[ok], eps, margin, got.expansion[ok])
        k[todo[ok]] = np.column_stack([eps * got.u[ok] / margin[:, None], psi, 1.0 / np.abs(margin)])
        return k

    for j in range(1, max(map(len, paths), default=1)):
        live = np.array([r for r, path in enumerate(paths)
                         if len(path) > j and errors[r] is None], dtype=int)
        if not len(live):
            break
        spans = [paths[r][j] - paths[r][j - 1] for r in live]
        y[live], unfinished = dopri(rhs, y[live], spans, tol, MAX_FLOW_STEPS)
        if len(unfinished):
            path = paths[live[unfinished[0]]]
            raise FoliationError(f"the flow from tau = {path[j - 1]} to {path[j]} took more "
                                 f"than the limit of {MAX_FLOW_STEPS} steps")
        for r in live:
            states[r].append(y[r].copy())
    return states, errors


def scale_factor_profile(chart: ChartSpec, certificate: Certificate, base,
                         tau_grid) -> FoliationResult:
    """Reconstruct (a, K_tau, k-hat, psi, s) along the flow of d_t from base.

    One _flow at FLOW_A_TOL, whose forward row chains the grid values above 0
    by distance from the base and whose backward row those below; tau = 0
    (the base slice) is always included.  The forward row's error is raised
    before the backward row's, as flowing one direction at a time would.
    """
    require_locally_rw(chart, certificate)
    base = np.asarray(base, dtype=float)
    if not chart.contains(base):
        raise FlowDomainError(f"base point {base.tolist()} outside the chart domain")
    eps = certificate.epsilon
    taus = np.unique(np.concatenate([[0.0], _finite("tau_grid", tau_grid)]))
    paths = (np.concatenate([[0.0], taus[taus > 0]]),
             np.concatenate([[0.0], taus[taus < 0][::-1]]))
    flowed, errors = _flow(chart, certificate, np.tile(base, (2, 1)), paths, FLOW_A_TOL)
    error = _failed(*errors)                 # forward before backward
    if error is not None:
        raise error
    at = {tau: state for path, row in zip(paths, flowed) for tau, state in zip(path.tolist(), row)}
    states = np.array([at[float(t)] for t in taus])
    points, log_a2, s_vals = states[:, :-2], states[:, -2], states[:, -1]
    rows = _rows(chart, points, certificate.tol_margin)
    error = _failed(*rows.errors)
    if error is not None:
        raise error
    a_vals = np.array([float(np.exp(0.5 * v)) for v in log_a2])
    k_vals, psi_vals = np.array([_slice_terms(h, eps, margin, e) for h, margin, e
                                 in zip(rows.h.tolist(), rows.margin.tolist(),
                                        rows.expansion.tolist())]).T
    k_hat = k_vals * a_vals**2

    k0 = float(k_hat[np.searchsorted(taus, 0.0)])
    sign = 0 if abs(k0) < FLAT_BAND else (1 if k0 > 0 else -1)

    return FoliationResult(
        base_point=base, epsilon=eps, tau=taus, a=a_vals, k_slice=k_vals,
        k_hat=k_hat, psi=psi_vals, proper_time=s_vals, points=points,
        loop_residual=_diagnostic_loop(chart, certificate, base),
        curvature_sign=sign,
        a_of_s=[(s, a) for s, a in zip(s_vals.tolist(), a_vals)])


def _diagnostic_loop(chart: ChartSpec, certificate: Certificate, base) -> float:
    """Rectangle loop around the base in the first two coordinates."""
    d0, d1 = np.zeros(chart.dim), np.zeros(chart.dim)
    for d, (i, (lo, hi)) in zip((d0, d1), enumerate(chart.domain)):
        d[i] = 0.1 * (hi - lo) * (1 if base[i] + 0.1 * (hi - lo) <= hi else -1)
    return loop_residual(chart, certificate, [base, base + d0, base + d0 + d1, base + d1, base])


def same_slice_points(chart: ChartSpec, certificate: Certificate, base,
                      target_tau: float, count: int, rng=None) -> list[np.ndarray]:
    """Sample `count` domain points and shoot each onto the slice t = target_tau.

    Each candidate q is flowed coarsely (the Dormand-Prince pair at
    SHOOT_FLOW_TOL) by delta = target - t(q), then corrected by Newton steps
    p <- p - err d_t(p) until |err| < SLICE_TOL.  Because dt(d_t) = 1 exactly, a step removes err
    to first order.  t(p) is t(q) plus the quadrature of omega along each
    straight step, q -> p and then p -> p', which exactness makes equal to
    time_value(p).  A candidate whose flow or step leaves the domain or meets
    the margin band is redrawn; one that does not converge within 12 Newton
    steps raises.  Candidates are shot together (_shoot) in waves of
    min(count - placed, MAX_REJECTS + 1 - failed) rng.uniform(lows, highs)
    draws, which one-at-a-time shooting would all make too: the points,
    reject counts and rng state are its own.  Any other exception is raised
    in draw order.
    """
    require_locally_rw(chart, certificate)
    _finite("target_tau", target_tau)
    rng = np.random.default_rng(0) if rng is None else rng
    base = np.asarray(base, dtype=float)
    lows, highs = np.array(chart.domain, dtype=float).T
    points: list[np.ndarray] = []
    rejects = {"flow or step left the domain": 0, "hit the margin band": 0,
               "evaluated outside the domain": 0}
    kinds = dict(zip((FlowDomainError, DegeneracyError, OutsideDomainError), rejects))
    while len(points) < count:
        failed = sum(rejects.values())
        if failed > MAX_REJECTS:
            reasons = ", ".join(f"{n} {why}" for why, n in rejects.items())
            raise FoliationError(
                f"could not place {count} points on slice {target_tau}; "
                f"{failed} candidates failed ({reasons})")
        wave = [rng.uniform(lows, highs)
                for _ in range(min(count - len(points), MAX_REJECTS + 1 - failed))]
        for outcome in _shoot(chart, certificate, base, np.array(wave), target_tau):
            if isinstance(outcome, np.ndarray):
                points.append(outcome)
                continue
            why = next((why for kind, why in kinds.items() if isinstance(outcome, kind)), None)
            if why is None:
                raise outcome
            rejects[why] += 1
    return points


def _shoot(chart: ChartSpec, certificate: Certificate, base, qs: np.ndarray,
           target_tau: float) -> list:
    """Shoot the rows of qs onto the slice t = target_tau together, a batch per
    stage: per candidate its point or the exception that ends its shooting."""
    tol_margin, eps = certificate.tol_margin, certificate.epsilon
    outcomes: list = [None] * len(qs)
    live = np.arange(len(qs))

    def settle(errors, *arrays):
        """Record the live candidates' errors; keep those without one."""
        ok = np.array([err is None for err in errors], dtype=bool)
        for c, err in zip(live, errors):
            outcomes[c] = err
        return (live[ok],) + tuple(np.asarray(a)[ok] for a in arrays)

    t_q, errors = _integrals(chart, [[base, q] for q in qs], tol_margin)
    live, t_q, q = settle(errors, t_q, qs)
    states, errors = _flow(chart, certificate, q, [[0.0, delta] for delta in target_tau - t_q],
                           SHOOT_FLOW_TOL)
    p = np.array([row[-1][:-2] for row in states]).reshape(q.shape)
    live, t_q, q, p = settle(errors, t_q, q, p)
    steps, errors = _integrals(chart, [[a, b] for a, b in zip(q, p)], tol_margin)
    live, p, err = settle(errors, p, t_q + np.array(steps) - target_tau)
    for rounds in range(13):
        done = ~(np.abs(err) >= SLICE_TOL)
        for c, point in zip(live[done], p[done]):
            outcomes[c] = point
        live, p, err = live[~done], p[~done], err[~done]
        if rounds == 12 or not len(live):
            break
        _, u, _, margin, _, errors = _rows(chart, p, tol_margin)
        live, p, u, margin, err = settle(errors, p, u, margin, err)
        step = p - (err * eps)[:, None] * u / margin[:, None]
        steps, errors = _integrals(chart, [[a, b] for a, b in zip(p, step)], tol_margin)
        live, p, err = settle(errors, step, err + np.array(steps))
    for c in live:
        outcomes[c] = FoliationError("slice shooting did not converge")
    return outcomes
