"""The scale-factor profile flowed one direction at a time, kept as a replay
oracle for the batched scale_factor_profile: each direction is one row of
the library's Dormand-Prince stepper run alone, each of its stages one
order-2 geometry_at call, and the forward targets are flowed before the
backward ones."""

import numpy as np

from rwcert import foliation, integrate
from rwcert.foliation import DegeneracyError, FlowDomainError, FoliationError
from rwcert.geometry import GeometryError, OutsideDomainError, geometry_at, trace_invariants


def _scalars(chart, point, tol_margin):
    geom = geometry_at(chart, point, order=2)
    f, h = trace_invariants(geom)
    margin = h - geom.epsilon * f
    if abs(margin) <= tol_margin:
        raise DegeneracyError(
            f"|h - eps f| = {abs(margin):.3e} inside margin band at {geom.point.tolist()}")
    return geom.u, h, margin, float(np.trace(geom.nabla_u())) / (geom.dim - 1)


def _terms(h, eps, margin, expansion):
    return h + eps * expansion**2, 2.0 * eps * expansion / margin


def derivative(chart, cert, state):
    """d/dtau of state = (x, log a^2, s), (eps u / (h - eps f), psi,
    1 / |h - eps f|), from one order-2 geometry_at call."""
    u, h, margin, expansion = _scalars(chart, state[:-2], cert.tol_margin)
    _, psi = _terms(h, cert.epsilon, margin, expansion)
    return np.concatenate([cert.epsilon * u / margin, [psi, 1.0 / abs(margin)]])


def flow(chart, cert, state, span, tol):
    """The row state = (x, log a^2, s) flowed alone by integrate.dopri over
    span, each stage one order-2 geometry_at call: its end state, or the
    first exception a stage raised (leaving the domain as a FlowDomainError).
    After that exception no stage is evaluated, as the batched rhs skips a
    failed row."""
    errors = []

    def rhs(x, rows):
        if not errors:
            try:
                return derivative(chart, cert, x[0])[None]
            except OutsideDomainError as err:
                flow_err = FlowDomainError(f"flow left the domain at {x[0, :-2].tolist()}")
                flow_err.__cause__ = err
                errors.append(flow_err)
            except (GeometryError, ArithmeticError, FoliationError) as err:
                errors.append(err)
        return np.full_like(x, np.nan)

    end, unfinished = integrate.dopri(rhs, np.asarray(state, dtype=float)[None], [span], tol,
                                      foliation.MAX_FLOW_STEPS)
    if errors:
        raise errors[0]
    if len(unfinished):
        raise FoliationError(f"the flow over {span} took more than the step limit")
    return end[0]


def scale_factor_profile(chart, cert, base, tau_grid) -> dict:
    """The profile's arrays by FoliationResult field name; raises as the
    batched profile does."""
    base = np.asarray(base, dtype=float)
    if not chart.contains(base):
        raise FlowDomainError(f"base point {base.tolist()} outside the chart domain")
    eps, tol_margin = cert.epsilon, cert.tol_margin
    taus = np.unique(np.concatenate([[0.0], np.asarray(tau_grid, dtype=float)]))

    states = {0.0: np.concatenate([base, [0.0, 0.0]])}
    for direction in (1.0, -1.0):
        grid = [t for t in taus if (t > 0 if direction > 0 else t < 0)]
        state, prev = states[0.0], 0.0
        for target in sorted(grid, key=abs):
            states[target] = state = flow(chart, cert, state, target - prev,
                                          foliation.FLOW_A_TOL)
            prev = target

    a, k_slice, psi, proper_time, points = [], [], [], [], []
    for t in taus:
        state = states[float(t)]
        _, h, margin, expansion = _scalars(chart, state[:-2], tol_margin)
        k, p = _terms(h, eps, margin, expansion)
        a.append(float(np.exp(0.5 * state[-2])))
        k_slice.append(k)
        psi.append(p)
        proper_time.append(float(state[-1]))
        points.append(state[:-2])
    a, k_slice = np.array(a), np.array(k_slice)
    return {"tau": taus, "a": a, "k_slice": k_slice, "k_hat": k_slice * a**2,
            "psi": np.array(psi), "proper_time": np.array(proper_time),
            "points": np.array(points)}
