"""One-at-a-time slice shooting, kept as a replay oracle for the batched
same_slice_points: each candidate is drawn, timed from the base by adaptive
GL8 quadrature (recursive bisection), flowed alone by the library's
Dormand-Prince stepper with one geometry_at call per stage (the
sequential_profile flow), and corrected by Newton steps, before the next
candidate is drawn."""

import numpy as np

from rwcert import foliation, geometry
from rwcert.foliation import DegeneracyError, FlowDomainError, FoliationError
from rwcert.geometry import GeometryError, OutsideDomainError, geometry_at, trace_invariants

from oracles import chunk_rows
import sequential_profile


def geometry_batch(chart, points, order):
    """The rows of geometry_chunk, raising if any row fails, as the batch call
    this oracle was written against did."""
    chunk, errors = geometry.geometry_chunk(chart, points, order)
    if any(err is not None for err in errors):
        raise GeometryError("a row of the batch failed")
    return chunk_rows(chunk)


def _guarded(chart, point, tol_margin):
    geom = geometry_at(chart, point, order=2)
    return _guard(geom, tol_margin)


def _guard(geom, tol_margin):
    f, h = trace_invariants(geom)
    margin = h - geom.epsilon * f
    if abs(margin) <= tol_margin:
        raise DegeneracyError(
            f"|h - eps f| = {abs(margin):.3e} inside margin band at {geom.point.tolist()}")
    return geom, margin


def _gl8(chart, a, b, tol_margin):
    delta = b - a
    try:
        geoms = geometry_batch(chart, a + foliation._GL_T[:, None] * delta, order=2)
    except (GeometryError, ArithmeticError):
        geoms = None
    total = 0.0
    for k, (t, w) in enumerate(zip(foliation._GL_T, foliation._GL_W)):
        geom = geometry_at(chart, a + t * delta, order=2) if geoms is None else geoms[k]
        _, margin = _guard(geom, tol_margin)
        total += w * float(margin * (geom.g @ geom.u) @ delta)
    return total


def _segment_integral(chart, a, b, tol_margin, depth=0, whole=None):
    if whole is None:
        whole = _gl8(chart, a, b, tol_margin)
    if depth >= foliation.QUAD_DEPTH:
        raise FoliationError(
            f"quadrature did not converge within {foliation.QUAD_DEPTH} bisections "
            f"on [{a.tolist()}, {b.tolist()}]")
    mid = 0.5 * (a + b)
    left = _gl8(chart, a, mid, tol_margin)
    right = _gl8(chart, mid, b, tol_margin)
    if abs(left + right - whole) < foliation.QUAD_TOL:
        return left + right
    return (_segment_integral(chart, a, mid, tol_margin, depth + 1, left)
            + _segment_integral(chart, mid, b, tol_margin, depth + 1, right))


def _polyline_integral(chart, vertices, tol_margin):
    for q in vertices:
        if not chart.contains(q):
            raise FlowDomainError(f"path vertex {q.tolist()} outside the chart domain")
    total = 0.0
    for a, b in zip(vertices[:-1], vertices[1:]):
        if not np.array_equal(a, b):
            total += _segment_integral(chart, a, b, tol_margin)
    return total


def _shoot(chart, cert, base, q, target_tau):
    t_q = _polyline_integral(chart, [base, q], cert.tol_margin)
    p = sequential_profile.flow(chart, cert, np.concatenate([q, [0.0, 0.0]]), target_tau - t_q,
                                foliation.SHOOT_FLOW_TOL)[:-2]
    err = t_q + _polyline_integral(chart, [q, p], cert.tol_margin) - target_tau
    rounds = 0
    while abs(err) >= foliation.SLICE_TOL:
        if rounds == 12:
            raise FoliationError("slice shooting did not converge")
        geom, margin = _guarded(chart, p, cert.tol_margin)
        step = p - err * cert.epsilon * geom.u / margin
        err += _polyline_integral(chart, [p, step], cert.tol_margin)
        p = step
        rounds += 1
    return p


def same_slice_points(chart, cert, base, target_tau, count, rng, max_rejects=200):
    """(points, rejects by reason) of one-at-a-time shooting; giving up
    raises as same_slice_points does."""
    base = np.asarray(base, dtype=float)
    lows = np.array([lo for lo, _ in chart.domain])
    highs = np.array([hi for _, hi in chart.domain])
    points = []
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
            points.append(_shoot(chart, cert, base, q, target_tau))
        except FlowDomainError:
            rejects["flow or step left the domain"] += 1
        except DegeneracyError:
            rejects["hit the margin band"] += 1
        except OutsideDomainError:
            rejects["evaluated outside the domain"] += 1
    return points, rejects
