"""Fermi derivative, transport conservation, frames and geodesics."""

import numpy as np
import pytest

from rwcert.geometry import adapted_frame, geometry_at
from rwcert.transport import (CurveError, CurveSpec, TransportError, _ExplicitCurve,
                              fermi_derivative, fermi_frame, gram_drift, transport)


def test_fermi_derivative_of_u_vanishes(charts):
    """D_u u = 0 by algebraic cancellation, accelerated curve included."""
    chart = charts["schwarzschild_static_observer"]
    geom = geometry_at(chart, [0.0, 10.0, 1.2, 0.7], order=2)
    u = geom.u
    accel = geom.acceleration()
    du_u = u @ geom.nabla_u()          # nabla_u u = accel
    out = fermi_derivative(geom, u, accel, u, du_u)
    assert np.abs(out).max() < 1e-14


def test_fermi_derivative_reduces_to_covariant_on_geodesics(charts):
    geom = geometry_at(charts["flrw_flat_linear"], [2.0, 0.1, 0.2, 0.3], order=2)
    rng = np.random.default_rng(3)
    X = rng.normal(size=4)
    dX = rng.normal(size=4)
    out = fermi_derivative(geom, geom.u, np.zeros(4), X, dX)
    assert np.allclose(out, dX, atol=0)


def test_fermi_derivative_requires_unit_direction(charts):
    geom = geometry_at(charts["minkowski"], [0.0, 0.0, 0.0, 0.0], order=2)
    with pytest.raises(TransportError):
        fermi_derivative(geom, np.array([2.0, 0, 0, 0]), np.zeros(4),
                         np.ones(4), np.zeros(4))


def test_transport_zero_stays_zero(charts):
    curve = CurveSpec.integral_curve_of_u([2.0, 0.0, 0.0, 0.0], t1=0.5)
    result = transport(charts["flrw_flat_linear"], curve, np.zeros(4), steps=50)
    assert np.abs(result.vectors).max() == 0.0


def test_minkowski_geodesic_transport_constant(charts):
    curve = CurveSpec.geodesic([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], t1=1.0)
    x0 = np.array([0.3, 1.0, -0.2, 0.7])
    result = transport(charts["minkowski"], curve, x0, steps=100)
    assert np.abs(result.vectors - x0).max() < 1e-14


def test_rindler_transport_matches_boost(charts):
    """Along (sinh ks, cosh ks, 0, 0) the Fermi frame is the instantaneous boost
    by rapidity k tau: X0 = d_x maps to (sinh k tau, cosh k tau, 0, 0).  At
    k = 1.004 the curve is 0.4% off unit speed, is transported in its own
    parameter, and the rows stay on the curve's tau grid."""
    x0 = np.array([0.3, 1.0, -0.2, 0.5])
    for k in (1.0, 1.004):
        curve = CurveSpec.explicit([f"sinh({k}*s)", f"cosh({k}*s)", "0", "0"],
                                   t0=0.0, t1=1.0)
        result = transport(charts["minkowski"], curve, x0, steps=400)
        assert np.array_equal(result.taus, np.linspace(0.0, 1.0, 401))
        for tau, vec in zip(result.taus, result.vectors):
            ch, sh = np.cosh(k * tau), np.sinh(k * tau)
            boosted = [x0[0] * ch + x0[1] * sh, x0[0] * sh + x0[1] * ch, x0[2], x0[3]]
            assert np.abs(vec - boosted).max() < 1e-10, (k, tau)
        assert gram_drift(charts["minkowski"], result) < 1e-8


def test_plane_circle_fermi_rotation(plane_chart):
    """Unit circle at unit speed (eps = +1): the transported vector rotates with
    the parameter, X(s) = Rot(s) X(0) (closed form from solving the ODE by hand)."""
    curve = CurveSpec.explicit(["cos(s)", "sin(s)"], t0=0.0, t1=1.0)
    x0 = np.array([1.0, 0.0])
    result = transport(plane_chart, curve, x0, steps=500)
    for tau, vec in zip(result.taus[::100], result.vectors[::100]):
        rot = np.array([[np.cos(tau), -np.sin(tau)], [np.sin(tau), np.cos(tau)]])
        assert np.abs(vec - rot @ x0).max() < 1e-8
    assert gram_drift(plane_chart, result) < 1e-8


def test_flrw_comoving_orthogonality_and_covariant_constancy(charts):
    """Comoving u is geodesic, so Fermi = parallel: X stays orthogonal to u and
    nabla_u X = 0 (checked as a centered-difference residual on the table)."""
    chart = charts["flrw_flat_linear"]
    curve = CurveSpec.integral_curve_of_u([2.0, 0.1, 0.2, 0.3], t1=1.0)
    x0 = np.array([0.0, 0.25, 0.0, 0.0])   # orthogonal to u at start
    result = transport(chart, curve, x0, steps=200)
    h = result.taus[1] - result.taus[0]
    for i in range(0, result.steps, 20):
        geom = geometry_at(chart, result.points[i], order=1)
        assert abs(geom.ip(result.vectors[i], geom.u)) < 1e-8
    for i in range(1, result.steps - 1, 20):
        geom = geometry_at(chart, result.points[i], order=1)
        dx = (result.vectors[i + 1] - result.vectors[i - 1]) / (2 * h)
        residual = dx + np.einsum('kij,i,j->k', geom.gamma, geom.u, result.vectors[i])
        assert np.abs(residual).max() < 1e-5


def test_conservation_of_inner_products(charts):
    chart = charts["flrw_open"]
    curve = CurveSpec.integral_curve_of_u([1.0, 1.0, 1.2, 1.0], t1=1.0)
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(2, 4))
    result = transport(chart, curve, x0, steps=250)
    assert gram_drift(chart, result) < 1e-8


def test_fermi_frame_constant_in_flat_space(charts):
    chart = charts["minkowski"]
    geom = geometry_at(chart, [0.0, 0.0, 0.0, 0.0], order=2)
    frame = adapted_frame(geom, rng=np.random.default_rng(0))
    rows = np.vstack([frame.spatial, [frame.vectors[0]]])   # tangent goes last
    curve = CurveSpec.geodesic([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], t1=1.0)
    result = fermi_frame(chart, curve, rows, steps=100)
    assert np.abs(result.vectors - rows).max() < 1e-12


def test_fermi_frame_rindler_drift(charts):
    chart = charts["minkowski"]
    curve = CurveSpec.explicit(["sinh(s)", "cosh(s)", "0", "0"], t0=0.0, t1=1.0)
    frame0 = np.array([[0.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 0.0],
                       [0.0, 0.0, 0.0, 1.0],
                       [1.0, 0.0, 0.0, 0.0]])   # last row = tangent at s=0
    result = fermi_frame(chart, curve, frame0, steps=1000)
    assert gram_drift(chart, result) < 1e-8
    assert np.abs(result.vectors[-1][3] - result.tangents[-1]).max() < 1e-8


def test_fermi_frame_validation(charts):
    chart = charts["minkowski"]
    curve = CurveSpec.geodesic([0, 0, 0, 0], [1.0, 0, 0, 0], t1=0.5)
    bad = np.eye(4)   # last row is d_z, not the tangent
    with pytest.raises(TransportError, match="last frame vector"):
        fermi_frame(chart, curve, bad, steps=10)
    skewed = np.eye(4) * 2.0
    with pytest.raises(TransportError, match="orthonormal"):
        fermi_frame(chart, curve, skewed, steps=10)


def _geodesic(chart, p, v, length, steps):
    """One fixed-step run along the geodesic from p with velocity v, carrying v."""
    return transport(chart, CurveSpec.geodesic(p, v, t1=length), v, steps=steps,
                     max_halvings=0)


def _norm_drift(result) -> float:
    """max | |g(x',x')| - |g(x',x')|_0 | over the rows of a geodesic table."""
    norms = np.abs([t @ g @ t for t, g in zip(result.tangents, result.metrics)])
    return float(np.abs(norms - norms[0]).max())


def test_geodesic_straight_in_minkowski(charts):
    path = _geodesic(charts["minkowski"], [0, 0, 0, 0], [1.0, 0, 0, 0], 2.0, 50)
    expected = np.zeros((51, 4))
    expected[:, 0] = path.taus
    assert np.abs(path.points - expected).max() < 1e-12
    assert _norm_drift(path) == 0.0


def test_sphere_great_circle_closes(sphere_chart):
    """Equator of the radius-2 sphere: unit-speed period is 2 pi R, so the end
    point matches the start up to one full turn of the periodic coordinate."""
    start = [np.pi / 2, 0.5]
    velocity = [0.0, 0.5]       # |g(v,v)| = R^2 sin^2(theta) * 0.25 = 1
    length = 2 * np.pi * 2.0
    path = _geodesic(sphere_chart, start, velocity, length, 1500)
    assert abs(path.points[-1][0] - start[0]) < 1e-6
    assert abs(path.points[-1][1] - start[1] - 2 * np.pi) < 1e-6
    assert _norm_drift(path) < 1e-8


def test_schwarzschild_radial_infall_norm_conserved(charts):
    chart = charts["schwarzschild_static_observer"]
    # drop from rest at infinity, E = 1: tdot = 1/A, rdot = -sqrt(2M/r)
    r0 = 10.0
    velocity = [1.0 / (1.0 - 2.0 / r0), -np.sqrt(2.0 / r0), 0.0, 0.0]
    path = _geodesic(chart, [0.0, r0, 1.2, 0.7], velocity, 2.0, 400)
    assert _norm_drift(path) < 1e-8
    assert path.points[-1][1] < r0   # actually falling


def test_explicit_curve_unit_speed_enforced(charts):
    with pytest.raises(CurveError, match="not unit speed"):
        transport(charts["minkowski"],
                  CurveSpec.explicit(["sqrt(2)*s", "0", "0", "0"], t1=1.0),
                  np.array([0, 1.0, 0, 0]), steps=10)


def test_null_curve_rejected(charts):
    with pytest.raises(CurveError, match="null"):
        transport(charts["minkowski"],
                  CurveSpec.explicit(["s", "s", "0", "0"], t1=1.0),
                  np.array([0, 1.0, 0, 0]), steps=10)


def test_mild_speed_violation_resampled(plane_chart):
    """A 0.2% speed wobble is normalized pointwise: the tangents are unit and
    the transported result still conserves inner products."""
    curve = CurveSpec.explicit(["s + 0.002*sin(s)", "0.3"], t0=0.0, t1=1.0)
    result = transport(plane_chart, curve, np.array([0.0, 1.0]), steps=100)
    assert gram_drift(plane_chart, result) < 1e-8
    speeds = []
    for i in range(0, result.steps, 10):
        geom = geometry_at(plane_chart, result.points[i], order=1)
        speeds.append(geom.ip(result.tangents[i], result.tangents[i]))
    assert np.abs(np.array(speeds) - 1.0).max() < 1e-6


_CURVED_MILD = [
    ("einstein_static", ["s + 0.004*sin(s)", "1 + 0.03*s", "1.2", "1.5"]),
    ("flrw_open", ["1 + s + 0.002*sin(2*s)", "1", "1.2 + 0.015*s", "1"]),
]


@pytest.mark.parametrize("name, exprs", _CURVED_MILD)
def test_normalized_curve_carries_its_tangent_in_curved_space(charts, name, exprs):
    """On a curved chart with a mild speed error the part of the normalized
    acceleration normal to u is right: the Fermi-transported unit tangent
    stays the curve's unit tangent.  Gram conservation alone cannot see this,
    because the Fermi-Walker term is skew for any acceleration."""
    chart = charts[name]
    curve = CurveSpec.explicit(exprs, t0=0.0, t1=1.0)
    start = transport(chart, curve, np.zeros(4), steps=1, max_halvings=0)
    result = transport(chart, curve, start.tangents[0], steps=200)
    assert np.abs(result.vectors - result.tangents).max() < 1e-8
    assert gram_drift(chart, result) < 1e-8


@pytest.mark.parametrize("name, exprs", _CURVED_MILD)
def test_normalized_acceleration_is_normal_to_the_tangent(charts, name, exprs):
    """The d_m g(c',c') term of v' only moves the acceleration along u, which
    the Fermi-Walker law cancels, so no transported vector shows it; it is
    pinned here by g(A, u) = 0 on the normalized state."""
    chart = charts[name]
    engine = _ExplicitCurve(chart, CurveSpec.explicit(exprs, t0=0.0, t1=1.0))
    assert engine.normalize
    for tau in np.linspace(0.0, 1.0, 5):
        _, U, A, geom, v = engine.state(tau)
        assert v != 1.0
        assert abs(geom.ip(U, U) + 1.0) < 1e-12
        assert abs(geom.ip(A, U)) < 1e-12


def test_geodesic_fermi_equals_parallel(charts):
    """On a curved-space geodesic the Fermi rhs has no acceleration terms, so
    transport must agree with independently integrated parallel transport."""
    chart = charts["flrw_closed_osc"]
    start = [3.0, 1.0, 1.5, 1.5]
    velocity = [1.0, 0.0, 0.0, 0.0]          # comoving geodesic
    curve = CurveSpec.geodesic(start, velocity, t1=1.0)
    x0 = np.array([0.0, 0.2, 0.1, -0.05])
    result = transport(chart, curve, x0, steps=300)

    # independent parallel transport: plain RK4 on dX = -Gamma(v, X) with its
    # own geodesic state, written out here rather than reusing the library loop
    n = 4
    state = np.concatenate([start, velocity, x0])

    def rhs(s):
        x, v, X = s[:n], s[n:2 * n], s[2 * n:]
        geom = geometry_at(chart, x, order=1)
        return np.concatenate([v, -np.einsum('kij,i,j->k', geom.gamma, v, v),
                               -np.einsum('kij,i,j->k', geom.gamma, v, X)])

    h = 1.0 / 500
    for _ in range(500):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.abs(result.vectors[-1] - state[2 * n:]).max() < 1e-8


def _count_geometry(monkeypatch) -> list:
    """Record the order of every geometry_at call the transport module makes."""
    from rwcert import transport as transport_module

    calls = []
    real = transport_module.geometry_at

    def counting(chart, point, order=3):
        calls.append(order)
        return real(chart, point, order)

    monkeypatch.setattr(transport_module, "geometry_at", counting)
    return calls


def test_geodesic_observe_needs_no_geometry(charts, monkeypatch):
    """A geodesic's position and velocity are its state, and each observed row
    takes its metric from the geometry the next k1 uses.  On a comoving
    geodesic the coordinate tangent is constant, so the k2/k3 positions and
    the k4/next-row positions coincide: one evaluation for the start data,
    then two per RK4 step."""
    calls = _count_geometry(monkeypatch)
    curve = CurveSpec.geodesic([3.0, 1.0, 1.5, 1.5], [1.0, 0.0, 0.0, 0.0], t1=0.05)
    steps = 10
    result = transport(charts["flrw_closed_osc"], curve, [0.0, 0.2, 0.1, -0.05],
                       steps=steps, max_halvings=0)
    assert len(calls) == 1 + 2 * steps
    assert set(calls) == {1}
    assert np.allclose(result.points[:, 0], 3.0 + result.taus, atol=1e-12)   # comoving time


def test_explicit_curve_evaluates_two_per_step(charts, monkeypatch):
    """k2 and k3 share one tau, and k4, the next row and the next k1 share
    another; the start cost is the unit-speed validation plus the start data.
    A curve with a mild speed error costs the same: it is normalized pointwise,
    with no extra evaluations."""
    from rwcert.transport import _SPEED_SAMPLES

    calls = _count_geometry(monkeypatch)
    steps = 10
    for exprs in (["sinh(s)", "cosh(s)", "0", "0"], ["s + 0.002*sin(s)", "0.3", "0", "0"]):
        calls.clear()
        transport(charts["minkowski"], CurveSpec.explicit(exprs, t0=0.0, t1=1.0),
                  [0.0, 1.0, 0.0, 0.0], steps=steps, max_halvings=0)
        assert len(calls) == _SPEED_SAMPLES + 1 + 2 * steps, exprs


def test_comoving_u_curve_evaluates_two_per_step(charts, monkeypatch):
    """Two per step after the start data; a doubled run starts at a point the
    memo no longer holds and costs one more (this one converges at the first
    doubling)."""
    calls = _count_geometry(monkeypatch)
    curve = CurveSpec.integral_curve_of_u([2.0, 0.1, 0.2, 0.3], t1=0.05)
    steps = 10
    x0 = [0.0, 0.25, 0.0, 0.0]
    transport(charts["flrw_flat_linear"], curve, x0, steps=steps, max_halvings=0)
    assert len(calls) == 1 + 2 * steps

    calls.clear()
    result = transport(charts["flrw_flat_linear"], curve, x0, steps=steps)
    assert result.steps == steps
    assert len(calls) == 1 + 2 * steps + (1 + 4 * steps)


ROTATING_PLANE_DOC = {
    "name": "plane_rotating_u",
    "dim": 2,
    "coords": ["x", "y"],
    "metric": [["1", None], [None, "1"]],
    "u": ["cos(y)", "sin(y)"],
    "params": {},
    "domain": [[-3.0, 3.0], [-3.0, 3.0]],
    "options": {},
}


def test_tilted_curves_evaluate_at_most_four_per_step(charts, monkeypatch):
    """Where the coordinate tangent turns, k2, k3, k4 and the next row are four
    distinct points; the row and the next k1 still share one evaluation."""
    from rwcert.chart import chart_from_dict

    plane = chart_from_dict(ROTATING_PLANE_DOC)
    calls = _count_geometry(monkeypatch)
    steps = 10
    result = transport(plane, CurveSpec.integral_curve_of_u([0.0, 0.5], t1=0.5),
                       [0.0, 1.0], steps=steps, max_halvings=0)
    assert np.ptp(result.tangents[:, 0]) > 0.1      # the tangent does turn
    assert len(calls) == 1 + 4 * steps

    calls.clear()
    velocity = [np.sqrt(1.0 + 4.41 * 0.04), 0.2, 0.0, 0.0]    # unit: a(1)^2 = 4.41
    transport(charts["flrw_open"], CurveSpec.geodesic([1.0, 1.0, 1.2, 1.0], velocity,
                                                      t1=0.05),
              [0.0, 1.0, 0.0, 0.0], steps=steps, max_halvings=0)
    assert len(calls) == 1 + 4 * steps


def test_gram_drift_reads_recorded_metrics(charts, plane_chart, monkeypatch):
    """gram_drift evaluates no geometry and equals, bit for bit, the drift
    recomputed from fresh metric evaluations at the table's points."""
    rng = np.random.default_rng(11)
    cases = [
        (charts["minkowski"], CurveSpec.explicit(["sinh(s)", "cosh(s)", "0", "0"]),
         rng.normal(size=(2, 4))),
        (plane_chart, CurveSpec.explicit(["s + 0.002*sin(s)", "0.3"]), rng.normal(size=2)),
        (charts["flrw_open"], CurveSpec.integral_curve_of_u([1.0, 1.0, 1.2, 1.0]),
         rng.normal(size=(3, 4))),
        (charts["flrw_closed_osc"], CurveSpec.geodesic([3.0, 1.0, 1.5, 1.5],
                                                       [1.0, 0.0, 0.0, 0.0]),
         rng.normal(size=4)),
    ]
    for chart, curve, x0 in cases:
        result = transport(chart, curve, x0, steps=100)
        vectors = (result.vectors if result.vectors.ndim == 3
                   else result.vectors[:, None, :])
        grams = np.array([rows @ geometry_at(chart, x, order=1).g @ rows.T
                          for x, rows in zip(result.points, vectors)])
        expected = float(np.abs(grams - grams[0]).max())
        calls = _count_geometry(monkeypatch)
        assert gram_drift(chart, result) == expected
        assert calls == []
        monkeypatch.undo()


def test_transport_raises_when_halvings_do_not_converge(charts):
    """Two coarse steps on a curved geodesic move the endpoint by far more
    than ENDPOINT_TOL after one doubling: an error, not a silent table."""
    velocity = [np.sqrt(1.0 + 4.41 * 0.04), 0.2, 0.0, 0.0]
    curve = CurveSpec.geodesic([1.0, 1.0, 1.2, 1.0], velocity, t1=1.0)
    with pytest.raises(TransportError, match="did not converge"):
        transport(charts["flrw_open"], curve, [0.0, 1.0, 0.0, 0.0], steps=2,
                  max_halvings=1)
    for max_halvings in (0, -1):      # no doubling: one fixed-step run
        fixed = transport(charts["flrw_open"], curve, [0.0, 1.0, 0.0, 0.0], steps=2,
                          max_halvings=max_halvings)
        assert fixed.steps == 2


def test_geodesic_transport_reuses_the_row_geometry(charts, monkeypatch):
    """The geometry of each new row gives its metric and the next k1: one
    evaluation for the start, four per step, and the path of plain RK4."""
    chart = charts["schwarzschild_static_observer"]
    r0 = 10.0
    start = np.array([0.0, r0, 1.2, 0.7])
    velocity = np.array([1.0 / (1.0 - 2.0 / r0), -np.sqrt(2.0 / r0), 0.0, 0.0])
    steps = 20
    calls = _count_geometry(monkeypatch)
    path = _geodesic(chart, start, velocity, 2.0, steps)
    assert len(calls) == 1 + 4 * steps
    monkeypatch.undo()

    def rhs(s):
        g = geometry_at(chart, s[:4], order=1)
        return np.concatenate([s[4:], -np.einsum('kij,i,j->k', g.gamma, s[4:], s[4:])])

    state, h = np.concatenate([start, velocity]), 2.0 / steps
    norms = [abs(geometry_at(chart, start, order=1).ip(velocity, velocity))]
    for i in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(path.points[i + 1], state[:4])
        assert np.array_equal(path.tangents[i + 1], state[4:])
        norms.append(abs(geometry_at(chart, state[:4], order=1).ip(state[4:], state[4:])))
    assert _norm_drift(path) == float(np.abs(np.array(norms) - norms[0]).max())


def test_fermi_frame_builds_one_driver(charts, monkeypatch):
    """fermi_frame checks the frame at the start point of the driver it
    integrates with, so it evaluates exactly as often as transport()."""
    chart = charts["minkowski"]
    curve = CurveSpec.explicit(["sinh(s)", "cosh(s)", "0", "0"], t1=1.0)
    frame0 = np.array([[0.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 0.0],
                       [0.0, 0.0, 0.0, 1.0],
                       [1.0, 0.0, 0.0, 0.0]])
    calls = _count_geometry(monkeypatch)
    framed = fermi_frame(chart, curve, frame0, steps=10)
    frame_calls = len(calls)
    calls.clear()
    plain = transport(chart, curve, frame0, steps=10)
    assert frame_calls == len(calls)
    assert np.array_equal(framed.vectors, plain.vectors)
