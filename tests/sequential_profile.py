"""The scale-factor profile flowed one direction and one step count at a time,
kept as a replay oracle for the batched scale_factor_profile: each RK4 stage
is one order-2 geometry_at call, the forward targets are flowed before the
backward ones, and the step count doubles one run at a time until a(tau)
moves by less than FLOW_A_TOL."""

import numpy as np

from rwcert import foliation
from rwcert.foliation import DegeneracyError, FlowDomainError, FoliationError
from rwcert.geometry import OutsideDomainError, geometry_at, trace_invariants


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


def _rk4(rhs, y, t0, t1, steps):
    h = (t1 - t0) / steps
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def scale_factor_profile(chart, cert, base, tau_grid) -> dict:
    """The profile's arrays by FoliationResult field name; raises as the
    batched profile does."""
    base = np.asarray(base, dtype=float)
    if not chart.contains(base):
        raise FlowDomainError(f"base point {base.tolist()} outside the chart domain")
    eps, tol_margin = cert.epsilon, cert.tol_margin
    taus = np.unique(np.concatenate([[0.0], np.asarray(tau_grid, dtype=float)]))

    def rhs(state):
        x = state[:-2]
        try:
            u, h, margin, expansion = _scalars(chart, x, tol_margin)
        except OutsideDomainError as err:
            raise FlowDomainError(f"flow left the domain at {x.tolist()}") from err
        _, psi = _terms(h, eps, margin, expansion)
        return np.concatenate([eps * u / margin, [psi, 1.0 / abs(margin)]])

    def run(steps_per_unit):
        states = {}
        for direction in (1.0, -1.0):
            grid = [t for t in taus if (t > 0 if direction > 0 else t < 0)]
            state, prev = np.concatenate([base, [0.0, 0.0]]), 0.0
            for target in sorted(grid, key=abs):
                steps = max(4, int(np.ceil(abs(target - prev) * steps_per_unit)))
                states[target] = state = _rk4(rhs, state, prev, target, steps)
                prev = target
        states[0.0] = np.concatenate([base, [0.0, 0.0]])
        return states

    steps, value = 64, run(64)
    for _ in range(10):
        finer = run(2 * steps)
        change = max(abs(np.exp(0.5 * finer[t][-2]) - np.exp(0.5 * value[t][-2]))
                     for t in taus)
        value, steps = finer, 2 * steps
        if change < foliation.FLOW_A_TOL:
            break
    else:
        raise FoliationError("flow integration did not converge under step halving")

    a, k_slice, psi, proper_time, points = [], [], [], [], []
    for t in taus:
        state = value[float(t)]
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
