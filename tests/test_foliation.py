"""Time function, slice data and scale-factor reconstruction."""

import numpy as np
import pytest

from rwcert import foliation
from rwcert.foliation import (ClassificationError, DegeneracyError,
                              FlowDomainError, FoliationError, flow_point,
                              loop_residual, same_slice_points,
                              scale_factor_profile, second_fundamental_form_check,
                              slice_curvature, time_value)
from rwcert.geometry import geometry_at, trace_invariants


BASE = np.array([2.0, 0.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def flrw(charts, certificates):
    return charts["flrw_flat_linear"], certificates["flrw_flat_linear"]


def test_time_value_exact_antiderivative(flrw):
    """omega = -dt/t^2 = d(1/t): the integral from t=2 to t=3 is 1/3 - 1/2."""
    chart, cert = flrw
    value = time_value(chart, cert, [3.0, 0.0, 0.0, 0.0], BASE)
    assert value == pytest.approx(1.0 / 3.0 - 1.0 / 2.0, abs=1e-10)


def test_time_value_base_to_base_is_zero(flrw):
    chart, cert = flrw
    assert time_value(chart, cert, BASE, BASE) == 0.0


def test_time_value_path_independent(flrw):
    chart, cert = flrw
    p = np.array([2.8, 0.4, -0.5, 0.2])
    direct = time_value(chart, cert, p, BASE)
    detour = time_value(chart, cert, p, BASE,
                        path=[BASE, [1.7, -0.8, 0.3, 0.9], [3.2, 0.5, 0.5, -0.6], p])
    assert abs(direct - detour) < 1e-8


def test_loop_residual_small_and_point_loop(flrw):
    chart, cert = flrw
    rng = np.random.default_rng(13)
    lows = np.array([lo for lo, _ in chart.domain])
    highs = np.array([hi for _, hi in chart.domain])
    for _ in range(5):
        a, b = rng.uniform(lows, highs, size=(2, 4))
        loop = [a, [b[0], a[1], a[2], a[3]], b, [a[0], b[1], b[2], b[3]], a]
        assert loop_residual(chart, cert, loop) < 1e-8
    assert loop_residual(chart, cert, [BASE]) == 0.0


def test_quadrature_that_does_not_converge_raises(flrw, monkeypatch):
    """At the bisection depth limit the quadrature raises instead of returning
    an unconverged value, and same_slice_points does not redraw on it."""
    chart, cert = flrw
    monkeypatch.setattr(foliation, "QUAD_TOL", 0.0)
    monkeypatch.setattr(foliation, "QUAD_DEPTH", 2)
    with pytest.raises(FoliationError, match="quadrature did not converge"):
        time_value(chart, cert, [3.0, 0.0, 0.0, 0.0], BASE)
    with pytest.raises(FoliationError, match="quadrature did not converge"):
        same_slice_points(chart, cert, BASE, 0.0, 1, rng=np.random.default_rng(0))


def test_foliation_refuses_non_rw(charts, certificates):
    goedel_cert = certificates["goedel"]
    with pytest.raises(ClassificationError, match="NotIsotropic"):
        time_value(charts["goedel"], goedel_cert, [0, 0, 0, 0.5], [0, 0, 0, 0])
    mink_cert = certificates["minkowski"]
    with pytest.raises(ClassificationError, match="ConstantCurvature"):
        loop_residual(charts["minkowski"], mink_cert, [[0, 0, 0, 0], [0, 0, 0, 0]])


def test_second_fundamental_form_einstein_static(charts):
    coefficient, residual = second_fundamental_form_check(
        charts["einstein_static"], [0.3, 1.0, 1.2, 1.5])
    assert coefficient == pytest.approx(0.0, abs=1e-13)
    assert residual < 1e-12


def test_second_fundamental_form_flrw(flrw):
    chart, _ = flrw
    coefficient, residual = second_fundamental_form_check(chart, [2.0, 0.1, 0.2, 0.3])
    # eps dh(u) / (2 (h - eps f)) = (-1)(-1/4) / (1/2) = 1/2 = a'/a
    assert coefficient == pytest.approx(0.5, abs=1e-11)
    assert residual < 1e-9


def test_second_fundamental_form_refuses_constant_curvature(charts):
    with pytest.raises(DegeneracyError):
        second_fundamental_form_check(charts["minkowski"], [0.0, 0.0, 0.0, 0.0])


def test_slice_curvature_values(charts, flrw):
    chart, _ = flrw
    assert slice_curvature(chart, [2.0, 0.1, 0.2, 0.3]) == pytest.approx(0.0, abs=1e-11)
    # einstein static: K = h + eps (dh(u)/(2 margin))^2 = 1/4;  k-hat = K a^2 = 1
    K = slice_curvature(charts["einstein_static"], [0.3, 1.0, 1.2, 1.5])
    assert K == pytest.approx(0.25, abs=1e-12)
    assert K * 2.0**2 == pytest.approx(1.0, abs=1e-11)


def test_slice_curvature_same_slice_consistency(flrw):
    chart, cert = flrw
    points = same_slice_points(chart, cert, BASE, -0.05, 6,
                               rng=np.random.default_rng(2))
    values = [slice_curvature(chart, p) for p in points]
    assert max(abs(v) for v in values) < 1e-8
    times = [time_value(chart, cert, p, BASE) for p in points]
    assert max(abs(t + 0.05) for t in times) < 1e-8


def test_scale_factor_einstein_static(charts, certificates):
    result = scale_factor_profile(charts["einstein_static"],
                                  certificates["einstein_static"],
                                  [0.0, 0.1, 0.2, 0.3], np.linspace(0, 1, 11))
    assert np.abs(result.a - 1.0).max() < 1e-9          # psi == 0 -> a frozen
    assert np.abs(result.k_hat - 0.25).max() < 1e-9
    assert result.curvature_sign == 1
    assert np.allclose(result.proper_time, 4.0 * result.tau, atol=1e-9)


def test_scale_factor_flrw_matches_oracle(flrw):
    """Independent oracle: tiny-step RK4 on the same flow, written here, plus
    the closed form a = t(tau)/2 with t(tau) = 2/(1+2 tau)."""
    chart, cert = flrw
    grid = np.array([-0.12, -0.06, 0.06, 0.12])
    result = scale_factor_profile(chart, cert, BASE, grid)
    for tau, a in zip(result.tau, result.a):
        closed = 1.0 / (1.0 + 2.0 * tau)
        assert a == pytest.approx(closed, abs=1e-7)

    def psi(t_coord):
        # h = 1/t^2, margin = 1/t^2, dh(u) = -2/t^3; psi = -eps dh(u)/margin^2
        return -2.0 * t_coord

    def flow_t(tau_target, steps=4000):
        # dt/dtau = eps u^t / margin = -t^2, integrated with plain RK4
        t_val, h = 2.0, tau_target / steps
        logsq = 0.0
        for _ in range(steps):
            k1t, k1l = -t_val**2, psi(t_val)
            t2 = t_val + 0.5 * h * k1t
            k2t, k2l = -t2**2, psi(t2)
            t3 = t_val + 0.5 * h * k2t
            k3t, k3l = -t3**2, psi(t3)
            t4 = t_val + h * k3t
            k4t, k4l = -t4**2, psi(t4)
            t_val += h / 6 * (k1t + 2 * k2t + 2 * k3t + k4t)
            logsq += h / 6 * (k1l + 2 * k2l + 2 * k3l + k4l)
        return np.exp(0.5 * logsq)

    for tau, a in zip(result.tau, result.a):
        if tau != 0.0:
            assert a == pytest.approx(flow_t(tau), abs=1e-6)


def test_scale_factor_positive_and_normalized(flrw):
    chart, cert = flrw
    result = scale_factor_profile(chart, cert, BASE, [-0.1, 0.1])
    assert result.a[np.searchsorted(result.tau, 0.0)] == 1.0
    assert (result.a > 0).all()


def test_flow_point_is_plain_rk4(flrw):
    """flow_point equals classic four-stage RK4 on dx/dtau = eps u / (h - eps f)
    with max(16, ceil(128 |delta|)) steps, bit for bit."""
    chart, cert = flrw
    start, delta = np.array([2.0, 0.1, -0.2, 0.3]), -0.15
    steps = 20

    def rhs(x):
        geom = geometry_at(chart, x, order=2)
        f, h = trace_invariants(geom)
        return cert.epsilon * geom.u / (h - geom.epsilon * f)

    y, h = start, delta / steps
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.array_equal(flow_point(chart, cert, start, delta), y)


def test_flow_leaving_domain_raises(flrw):
    chart, cert = flrw
    with pytest.raises((FlowDomainError, DegeneracyError)):
        scale_factor_profile(chart, cert, BASE, [5.0])


def test_shear_coefficient_tracks_expansion_along_flow(charts, certificates, flrw):
    """The extrinsic-curvature coefficient must equal -(1/2) psi (h - eps f)
    along the flow, psi being d(log a^2)/dtau of the reconstruction."""
    for cid in ("flrw_flat_linear", "flrw_open", "einstein_static"):
        chart = charts[cid]
        cert = certificates[cid]
        base = {"flrw_flat_linear": BASE,
                "flrw_open": np.array([1.5, 1.0, 1.5, 1.5]),
                "einstein_static": np.array([0.0, 1.0, 1.2, 1.5])}[cid]
        grid = np.linspace(-0.08, 0.08, 5)
        profile = scale_factor_profile(chart, cert, base, grid)
        for point, psi in zip(profile.points, profile.psi):
            coefficient, _ = second_fundamental_form_check(chart, point)
            geom = geometry_at(chart, point, order=2)
            f, h = trace_invariants(geom)
            margin = h - geom.epsilon * f
            assert abs(coefficient + 0.5 * psi * margin) < 1e-7, (cid, point)


def test_same_slice_points_land_on_slice(charts, certificates):
    chart = charts["flrw_closed_osc"]
    cert = certificates["flrw_closed_osc"]
    base = np.array([3.0, 1.0, 1.5, 1.5])
    points = same_slice_points(chart, cert, base, 0.02, 5,
                               rng=np.random.default_rng(11))
    for p in points:
        assert abs(time_value(chart, cert, p, base) - 0.02) < 1e-8
        assert chart.contains(p)


def test_loop_vertex_outside_domain_raises(flrw):
    """A loop vertex outside the domain is refused before any quadrature, as a
    time_value path vertex is."""
    chart, cert = flrw
    outside = [10.0, 0.0, 0.0, 0.0]
    with pytest.raises(FlowDomainError, match="outside the chart domain"):
        loop_residual(chart, cert, [BASE, outside, BASE])
