"""Fermi derivative, transport conservation, frames and geodesics."""

import numpy as np
import pytest

from rwcert.geometry import adapted_frame, geometry_at
from rwcert.transport import (CurveError, CurveSpec, TransportError,
                              fermi_derivative, fermi_frame, geodesic_integrate,
                              gram_drift, transport)


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
    """Along (sinh s, cosh s, 0, 0) the Fermi frame is the instantaneous boost:
    X0 = d_x maps to (sinh s, cosh s, 0, 0)."""
    curve = CurveSpec.explicit(["sinh(s)", "cosh(s)", "0", "0"], t0=0.0, t1=1.0)
    result = transport(charts["minkowski"], curve, np.array([0.0, 1.0, 0.0, 0.0]),
                       steps=400)
    for tau, vec in zip(result.taus[::80], result.vectors[::80]):
        assert np.abs(vec - [np.sinh(tau), np.cosh(tau), 0, 0]).max() < 1e-8
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


def test_geodesic_straight_in_minkowski(charts):
    path = geodesic_integrate(charts["minkowski"], [0, 0, 0, 0],
                              [1.0, 0, 0, 0], 2.0, 50)
    expected = np.zeros((51, 4))
    expected[:, 0] = path.taus
    assert np.abs(path.points - expected).max() < 1e-12
    assert path.norm_drift == 0.0


def test_sphere_great_circle_closes(sphere_chart):
    """Equator of the radius-2 sphere: unit-speed period is 2 pi R, so the end
    point matches the start up to one full turn of the periodic coordinate."""
    start = [np.pi / 2, 0.5]
    velocity = [0.0, 0.5]       # |g(v,v)| = R^2 sin^2(theta) * 0.25 = 1
    length = 2 * np.pi * 2.0
    path = geodesic_integrate(sphere_chart, start, velocity, length, 1500)
    assert abs(path.points[-1][0] - start[0]) < 1e-6
    assert abs(path.points[-1][1] - start[1] - 2 * np.pi) < 1e-6
    assert path.norm_drift < 1e-8


def test_schwarzschild_radial_infall_norm_conserved(charts):
    chart = charts["schwarzschild_static_observer"]
    # drop from rest at infinity, E = 1: tdot = 1/A, rdot = -sqrt(2M/r)
    r0 = 10.0
    velocity = [1.0 / (1.0 - 2.0 / r0), -np.sqrt(2.0 / r0), 0.0, 0.0]
    path = geodesic_integrate(chart, [0.0, r0, 1.2, 0.7], velocity, 2.0, 400)
    assert path.norm_drift < 1e-8
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
    """0.2% speed wobble is repaired by arclength resampling; the transported
    result still conserves inner products."""
    curve = CurveSpec.explicit(["s + 0.002*sin(s)", "0.3"], t0=0.0, t1=1.0)
    result = transport(plane_chart, curve, np.array([0.0, 1.0]), steps=100)
    assert gram_drift(plane_chart, result) < 1e-8
    speeds = []
    for i in range(0, result.steps, 10):
        geom = geometry_at(plane_chart, result.points[i], order=1)
        speeds.append(geom.ip(result.tangents[i], result.tangents[i]))
    assert np.abs(np.array(speeds) - 1.0).max() < 1e-6


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


def test_geodesic_observe_needs_no_geometry(charts, monkeypatch):
    """A geodesic's position and velocity are its state: one evaluation for
    the start data, then four per RK4 step and none per observed row."""
    from rwcert import transport as transport_module

    calls = []
    real = transport_module.geometry_at

    def counting(chart, point, order=3):
        calls.append(order)
        return real(chart, point, order)

    monkeypatch.setattr(transport_module, "geometry_at", counting)
    curve = CurveSpec.geodesic([3.0, 1.0, 1.5, 1.5], [1.0, 0.0, 0.0, 0.0], t1=0.05)
    steps = 10
    result = transport(charts["flrw_closed_osc"], curve, [0.0, 0.2, 0.1, -0.05],
                       steps=steps, max_halvings=0)
    assert len(calls) == 1 + 4 * steps
    assert set(calls) == {1}
    assert np.allclose(result.points[:, 0], 3.0 + result.taus, atol=1e-12)   # comoving time
