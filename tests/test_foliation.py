"""Time function, slice data and scale-factor reconstruction."""

import dataclasses
import functools
import re

import numpy as np
import pytest

from rwcert import foliation
from rwcert.foliation import (ClassificationError, DegeneracyError,
                              FlowDomainError, FoliationError, flow_point,
                              loop_residual, same_slice_points,
                              scale_factor_profile, slice_curvature, time_value)
from rwcert.geometry import geometry_at, trace_invariants

from conftest import domain_points
import sequential_profile
import sequential_shooting


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


def _gradient_expansion(chart, point):
    """(eps, h - eps f, -dh(u) / (2(h - eps f))) from order-3 geometry: the
    slices' expansion from the gradient of h, which the foliation does not use."""
    geom = geometry_at(chart, point, order=3)
    f, h, _, dh = trace_invariants(geom, gradients=True)
    margin = h - geom.epsilon * f
    return geom.epsilon, margin, -float(dh @ geom.u) / (2.0 * margin)


def test_expansion_equals_the_gradient_of_h(charts):
    """On the five LocallyRW charts, with eps = -1 and eps = +1 (riemannian_grw),
    the order-2 expansion tr(nabla u)/(n - 1) that the foliation reads equals
    -dh(u)/(2(h - eps f)) from the order-3 gradient of h."""
    signs = set()
    for cid in PROFILE_BASES:
        chart = charts[cid]
        for point in domain_points(chart, 20, 7):
            eps, _, want = _gradient_expansion(chart, point)
            got = float(np.trace(geometry_at(chart, point, order=2).nabla_u())) / (chart.dim - 1)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (cid, point)
            signs.add(eps)
    assert signs == {-1, 1}


def test_expansion_einstein_static(charts):
    point = charts["einstein_static"], [0.3, 1.0, 1.2, 1.5]
    assert _gradient_expansion(*point)[2] == pytest.approx(0.0, abs=1e-13)
    assert foliation._expansion(geometry_at(*point, order=2)) == pytest.approx(0.0, abs=1e-13)


def test_expansion_flrw(flrw):
    """a = t: eps dh(u)/(2(h - eps f)) = (-1)(-1/4)/(1/2) = 1/2 = a'/a at
    t = 2, which is e since eps = -1."""
    chart, _ = flrw
    point = [2.0, 0.1, 0.2, 0.3]
    eps, _, e = _gradient_expansion(chart, point)
    assert -eps * e == pytest.approx(0.5, abs=1e-11)
    assert foliation._expansion(geometry_at(chart, point, order=2)) == pytest.approx(0.5, abs=1e-11)


def test_slice_curvature_refuses_constant_curvature(charts):
    with pytest.raises(DegeneracyError):
        slice_curvature(charts["minkowski"], [0.0, 0.0, 0.0, 0.0])


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


def test_flow_point_is_the_pairs_one_row_run(flrw, monkeypatch):
    """flow_point equals the position of (start, 0, 0) flowed alone by the
    Dormand-Prince pair at FLOW_A_TOL with one geometry_at call per stage
    (the sequential_profile flow), bit for bit; a delta of 0 takes no step
    and returns the start, evaluating no geometry."""
    chart, cert = flrw
    start, delta = np.array([2.0, 0.1, -0.2, 0.3]), -0.15
    alone = sequential_profile.flow(chart, cert, np.concatenate([start, [0.0, 0.0]]), delta,
                                    foliation.FLOW_A_TOL)
    assert np.array_equal(flow_point(chart, cert, start, delta), alone[:-2])

    def no_geometry(*args, **kwargs):
        raise AssertionError("geometry evaluated")

    for name in ("geometry_at", "geometry_chunk"):
        monkeypatch.setattr(foliation, name, no_geometry)
    assert np.array_equal(flow_point(chart, cert, start, 0.0), start)


def test_flow_point_on_a_zero_margin_raises_degeneracy(charts, certificates):
    """On minkowski, h - eps f is exactly 0 everywhere: under a forged
    LocallyRW certificate flow_point raises DegeneracyError instead of
    dividing by the zero margin."""
    cert = dataclasses.replace(certificates["minkowski"], classification="LocallyRW")
    with pytest.raises(DegeneracyError, match="inside margin band"):
        flow_point(charts["minkowski"], cert, [0.0, 0.1, 0.2, 0.3], 0.1)


def test_a_wave_failing_in_quadrature_flows_no_row(flrw, monkeypatch):
    """Candidates whose time from the base all meet a 0.15 margin band
    (1/t^2 <= 0.15 for t >= 2.58) end with their own DegeneracyError, and
    the coarse flow gets no row."""
    chart, cert = flrw
    cert = dataclasses.replace(cert, tol_margin=0.15)
    flowed, real = [], foliation.dopri

    def counting(rhs, y, *args, **kwargs):
        flowed.append(len(y))
        return real(rhs, y, *args, **kwargs)

    monkeypatch.setattr(foliation, "dopri", counting)
    qs = np.array([[3.0, 0.1, 0.0, 0.0], [3.4, -0.2, 0.3, 0.1]])
    outcomes = foliation._shoot(chart, cert, BASE, qs, 0.1)
    assert [type(outcome) for outcome in outcomes] == [DegeneracyError] * 2
    assert not any(flowed)


def test_flow_leaving_domain_raises(flrw):
    chart, cert = flrw
    with pytest.raises((FlowDomainError, DegeneracyError)):
        scale_factor_profile(chart, cert, BASE, [5.0])


@pytest.mark.parametrize("call, value", [
    (lambda chart, cert, tau: flow_point(chart, cert, BASE, tau), float("nan")),
    (lambda chart, cert, tau: flow_point(chart, cert, BASE, tau), float("inf")),
    (lambda chart, cert, tau: scale_factor_profile(chart, cert, BASE, [0.1, tau]), float("nan")),
    (lambda chart, cert, tau: scale_factor_profile(chart, cert, BASE, [tau]), float("inf")),
    (lambda chart, cert, tau: same_slice_points(chart, cert, BASE, tau, 2), float("nan")),
    (lambda chart, cert, tau: same_slice_points(chart, cert, BASE, tau, 2), float("-inf")),
], ids=["flow_point-nan", "flow_point-inf", "profile-nan", "profile-inf",
        "same_slice-nan", "same_slice-inf"])
def test_non_finite_tau_raises_foliation_error(flrw, call, value):
    chart, cert = flrw
    with pytest.raises(FoliationError, match="must be finite"):
        call(chart, cert, value)


@pytest.mark.parametrize("call, span", [
    (lambda chart, cert: flow_point(chart, cert, BASE, 0.1), "0.0 to 0.1"),
    (lambda chart, cert: scale_factor_profile(chart, cert, BASE, [-0.1, 0.1]), "0.0 to 0.1"),
    (lambda chart, cert: same_slice_points(chart, cert, BASE, -0.05, 2), ""),
], ids=["flow_point", "profile", "same_slice"])
def test_flow_beyond_the_step_limit_raises_foliation_error(flrw, monkeypatch, call, span):
    """A segment on which a row needs more than MAX_FLOW_STEPS steps is a
    plain FoliationError naming its tau span: not a FlowDomainError or a
    DegeneracyError, so same_slice_points raises it instead of redrawing."""
    chart, cert = flrw
    monkeypatch.setattr(foliation, "MAX_FLOW_STEPS", 1)
    with pytest.raises(FoliationError, match="took more than the limit of 1 steps") as info:
        call(chart, cert)
    assert type(info.value) is FoliationError
    assert str(info.value).startswith(f"the flow from tau = {span}")


@pytest.mark.parametrize("call, kind, text", [
    (lambda chart, cert: flow_point(chart, cert, BASE, 1e300),
     FlowDomainError, "flow left the domain"),
    (lambda chart, cert: scale_factor_profile(chart, cert, BASE, [0.1, 1e300]),
     FlowDomainError, "flow left the domain"),
    (lambda chart, cert: same_slice_points(chart, cert, BASE, 1e300, 2),
     FoliationError, "could not place 2 points on slice 1e+300; 201 candidates failed"),
], ids=["flow_point", "profile", "same_slice"])
def test_a_far_tau_ends_in_leaving_the_domain(flrw, call, kind, text):
    """t(tau) = 2/(1 + 2 tau) leaves the domain at tau = 1/6: a tau of 1e300
    ends there after a few growing steps, and shooting toward it gives up
    after MAX_REJECTS redrawn candidates."""
    chart, cert = flrw
    with pytest.raises(kind, match=re.escape(text)) as info:
        call(chart, cert)
    assert type(info.value) is kind


PROFILE_BASES = {
    "flrw_flat_linear": [2.0, 0.0, 0.0, 0.0],
    "flrw_closed_osc": [3.0, 1.0, 1.5, 1.5],
    "flrw_open": [1.5, 1.0, 1.5, 1.5],
    "einstein_static": [0.0, 1.0, 1.2, 1.5],
    "riemannian_grw": [2.2, 0.0, 0.0, 0.0],
}


def _acceptance_7_grid(chart, cert, base):
    """Halfway in tau to the probes at 1/4 and 3/4 of the time range."""
    (lo, hi), taus = chart.domain[0], []
    for share in (0.25, 0.75):
        probe = np.array(base, dtype=float)
        probe[0] = lo + share * (hi - lo)
        taus.append(0.5 * time_value(chart, cert, probe, base))
    return [taus[0], 0.0, taus[1]]


@pytest.mark.parametrize("several", [False, True])
@pytest.mark.parametrize("cid", sorted(PROFILE_BASES))
def test_profile_replays_the_sequential_loop(charts, certificates, cid, several):
    """The batched profile's fields are array_equal to those of flowing one
    direction and one step count at a time (the sequential_profile copy), on
    the acceptance-7 grid and on a grid with three targets per direction
    (on flrw_flat_linear, whose first probe is the base, mirrored)."""
    chart, cert, base = charts[cid], certificates[cid], PROFILE_BASES[cid]
    grid = _acceptance_7_grid(chart, cert, base)
    if several:
        lo, _, hi = grid
        ends = (lo, hi) if lo * hi < 0 else (lo + hi, -(lo + hi))
        grid = [share * end for end in ends for share in (1.0, 0.5, 0.2)]
    got = scale_factor_profile(chart, cert, base, grid)
    want = sequential_profile.scale_factor_profile(chart, cert, base, grid)
    assert len(got.tau) == 7 if several else len(got.tau) >= 2
    for name, value in want.items():
        assert np.array_equal(getattr(got, name), value), name


def _dop853(chart, cert, base, grid) -> dict:
    """The states (x, log a^2, s) at the grid values by scipy's DOP853 at
    rtol = atol = 1e-13 on the derivative at each point, one solve a side."""
    from scipy.integrate import solve_ivp

    start, states = np.concatenate([base, [0.0, 0.0]]), {}
    for side in ([t for t in grid if t > 0], [t for t in grid if t < 0]):
        if side:
            end = max(side, key=abs)
            sol = solve_ivp(lambda _, y: sequential_profile.derivative(chart, cert, y),
                            (0.0, end), start, method="DOP853", rtol=1e-13, atol=1e-13,
                            t_eval=sorted(side, key=abs))
            states.update(zip(sorted(side, key=abs), sol.y.T))
    return states


@pytest.mark.parametrize("cid", sorted(PROFILE_BASES))
def test_profile_agrees_with_dop853(charts, certificates, cid):
    """On the acceptance-7 grid, a(tau) is within 3e-10, and the proper time
    and the points within 5e-10, of an independent high-order solve."""
    chart, cert, base = charts[cid], certificates[cid], PROFILE_BASES[cid]
    grid = [t for t in _acceptance_7_grid(chart, cert, base) if t != 0.0]
    got = scale_factor_profile(chart, cert, base, grid)
    want = _dop853(chart, cert, np.array(base, dtype=float), grid)
    for tau, a, s, point in zip(got.tau, got.a, got.proper_time, got.points):
        if tau != 0.0:
            assert abs(a - np.exp(0.5 * want[tau][-2])) < 3e-10, (cid, tau)
            assert abs(s - want[tau][-1]) < 5e-10, (cid, tau)
            assert np.abs(point - want[tau][:-2]).max() < 5e-10, (cid, tau)


def test_flat_profile_meets_the_closed_form_on_the_acceptance_8_grid(flrw):
    """On flrw_flat_linear from t = 2, a = 1/(1 + 2 tau) to 3e-10."""
    chart, cert = flrw
    grid = np.array([-0.15, -0.075, 0.075, 0.15])
    got = scale_factor_profile(chart, cert, BASE, grid)
    assert np.abs(got.a - 1.0 / (1.0 + 2.0 * got.tau)).max() < 3e-10


@pytest.mark.parametrize("grid, tol_margin", [
    ([0.3], None),                  # forward: the flow leaves the domain
    ([-0.15], 0.15),                # backward: the flow enters the margin band
    ([0.3, -0.15], 0.15),           # both: the forward error is raised
    ([0.1, -0.15], 0.15),           # backward fails, forward does not
])
def test_profile_raises_what_the_sequential_loop_raises(flrw, grid, tol_margin):
    """t(tau) = 2/(1 + 2 tau) from t = 2 reaches the domain's end t = 1.5 at
    tau = 1/6 and, in a 0.15 margin band (1/t^2 <= 0.15), the band at
    tau = -0.113: the batched profile raises the type and text, and chains
    the cause, that flowing one direction at a time does."""
    chart, cert = flrw
    if tol_margin is not None:
        cert = dataclasses.replace(cert, tol_margin=tol_margin)
    raised = []
    for profile in (scale_factor_profile, sequential_profile.scale_factor_profile):
        with pytest.raises(FoliationError) as info:
            profile(chart, cert, BASE, grid)
        err = info.value
        raised.append((type(err), str(err), type(err.__cause__), str(err.__cause__)))
    assert raised[0] == raised[1]


def test_profile_rows_and_calls_on_the_acceptance_7_grid(charts, certificates, monkeypatch):
    """On flrw_closed_osc the acceptance-7 grid flows its two directions as
    two rows of one Dormand-Prince run, 15 steps each: f(y0), the first-step
    probe and 6 stages a step make 92 calls of 2 rows.  The 3 grid values
    and the diagnostic loop's 96 quadrature rows add 3 calls: 283 rows, all
    at order 2, in 95 calls."""
    chart, cert = charts["flrw_closed_osc"], certificates["flrw_closed_osc"]
    base = PROFILE_BASES["flrw_closed_osc"]
    grid = _acceptance_7_grid(chart, cert, base)
    rows, calls = {}, {}
    real, real_chunk = foliation.geometry_at, foliation.geometry_chunk

    def count(order, size):
        rows[order] = rows.get(order, 0) + size
        calls[order] = calls.get(order, 0) + 1

    def counting(chart, point, order=3):
        count(order, 1)
        return real(chart, point, order)

    def counting_chunk(chart, points, order=3):
        count(order, len(points))
        return real_chunk(chart, points, order)

    monkeypatch.setattr(foliation, "geometry_at", counting)
    monkeypatch.setattr(foliation, "geometry_chunk", counting_chunk)
    scale_factor_profile(chart, cert, base, grid)
    assert rows == {2: 2 * 92 + 3 + 96}
    assert calls == {2: 92 + 1 + 2}


def test_foliation_evaluates_only_order_2(charts, certificates, monkeypatch):
    """time_value, the scale-factor profile, slice shooting and the slice
    curvature never ask for geometry of another order than 2."""
    chart, cert = charts["flrw_closed_osc"], certificates["flrw_closed_osc"]
    base = np.array(PROFILE_BASES["flrw_closed_osc"])
    real, real_chunk = foliation.geometry_at, foliation.geometry_chunk

    def order_2(real):
        def evaluate(chart, points, order=3):
            assert order == 2, f"order-{order} evaluation"
            return real(chart, points, order)
        return evaluate

    monkeypatch.setattr(foliation, "geometry_at", order_2(real))
    monkeypatch.setattr(foliation, "geometry_chunk", order_2(real_chunk))
    grid = _acceptance_7_grid(chart, cert, base)
    scale_factor_profile(chart, cert, base, grid)
    points = same_slice_points(chart, cert, base, grid[2], 3, rng=np.random.default_rng(1))
    assert all(np.isfinite(slice_curvature(chart, p)) for p in points)


def test_shear_coefficient_tracks_expansion_along_flow(charts, certificates, flrw):
    """The extrinsic-curvature coefficient eps dh(u)/(2(h - eps f)), from the
    order-3 gradient of h, must equal -(1/2) psi (h - eps f) along the flow,
    psi being d(log a^2)/dtau of the reconstruction."""
    for cid in ("flrw_flat_linear", "flrw_open", "einstein_static"):
        chart = charts[cid]
        cert = certificates[cid]
        base = {"flrw_flat_linear": BASE,
                "flrw_open": np.array([1.5, 1.0, 1.5, 1.5]),
                "einstein_static": np.array([0.0, 1.0, 1.2, 1.5])}[cid]
        grid = np.linspace(-0.08, 0.08, 5)
        profile = scale_factor_profile(chart, cert, base, grid)
        for point, psi in zip(profile.points, profile.psi):
            eps, margin, e = _gradient_expansion(chart, point)
            assert abs(-eps * e + 0.5 * psi * margin) < 1e-7, (cid, point)


POSITIVE_BASES = {
    "flrw_flat_linear": [2.0, 0.0, 0.0, 0.0],
    "flrw_closed_osc": [3.0, 1.0, 1.5, 1.5],
    "flrw_open": [1.5, 1.0, 1.5, 1.5],
    "einstein_static": [0.0, 1.0, 1.2, 1.5],
    "riemannian_grw": [2.2, 0.0, 0.0, 0.0],
}


def test_same_slice_points_land_on_slice(charts, certificates):
    """On every LocallyRW chart, points shot onto the slice halfway to the
    probe at 3/4 of the time range lie in the domain and on the slice when
    re-measured on the straight base -> p segment, a path the shooting, which
    measures t along its own steps, never integrates."""
    for cid, base in POSITIVE_BASES.items():
        chart, cert = charts[cid], certificates[cid]
        base = np.array(base)
        lo, hi = chart.domain[0]
        probe = base.copy()
        probe[0] = lo + 0.75 * (hi - lo)
        target = 0.5 * time_value(chart, cert, probe, base)
        assert abs(target) > 1e-3, cid
        points = same_slice_points(chart, cert, base, target, 5,
                                   rng=np.random.default_rng(11))
        assert len(points) == 5
        for p in points:
            assert chart.contains(p), (cid, p)
            assert abs(time_value(chart, cert, p, base) - target) < 1e-8, (cid, p)


def test_loop_vertex_outside_domain_raises(flrw):
    """A loop vertex outside the domain is refused before any quadrature, as a
    time_value path vertex is."""
    chart, cert = flrw
    outside = [10.0, 0.0, 0.0, 0.0]
    with pytest.raises(FlowDomainError, match="outside the chart domain"):
        loop_residual(chart, cert, [BASE, outside, BASE])


def test_same_slice_points_evaluation_count(flrw, monkeypatch):
    """One seeded call makes an exact number of order-2 evaluations: the time
    of each candidate from the base, a coarse flow at SHOOT_FLOW_TOL, the
    quadrature on q -> p, and per Newton step one evaluation of d_t plus the
    step's quadrature.  A batched call counts one evaluation per point."""
    chart, cert = flrw
    calls = []
    real, real_chunk = foliation.geometry_at, foliation.geometry_chunk

    def counting(chart, point, order=3):
        calls.append(order)
        return real(chart, point, order)

    def counting_chunk(chart, points, order=3):
        calls.extend([order] * len(points))
        return real_chunk(chart, points, order)

    monkeypatch.setattr(foliation, "geometry_at", counting)
    monkeypatch.setattr(foliation, "geometry_chunk", counting_chunk)
    same_slice_points(chart, cert, BASE, -0.05, 3, rng=np.random.default_rng(2))
    assert set(calls) == {2}
    # per candidate: one GL8 pair (24) from the base and 24 on q -> p; the
    # flows take f(y0), the first-step probe and 6 stages a step, 1, 2 and 1
    # steps; one candidate takes one Newton step (1 + 24)
    assert len(calls) == 3 * (24 + 24) + (8 + 14 + 8) + (1 + 24)


class _CountingRng:
    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def uniform(self, low, high):
        self.draws += 1
        return self._rng.uniform(low, high)


def test_shooting_that_does_not_converge_raises(flrw, monkeypatch):
    """With no tolerance to meet, the Newton correction gives up after its
    rounds and raises instead of returning the point, and the candidate is
    not redrawn."""
    chart, cert = flrw
    monkeypatch.setattr(foliation, "SLICE_TOL", 0.0)
    rng = _CountingRng(0)
    with pytest.raises(FoliationError, match="slice shooting did not converge"):
        same_slice_points(chart, cert, BASE, -0.05, 1, rng=rng)
    assert rng.draws == 1


def test_give_up_counts_failures_by_reason(flrw, monkeypatch):
    """t = 1/x0 - 1/2 spans [-0.21, 0.17] on the domain, so every flow toward
    t = 5 leaves it; the error says how many candidates failed for which
    reason."""
    chart, cert = flrw
    rng = _CountingRng(4)
    monkeypatch.setattr(foliation, "MAX_REJECTS", 5)
    with pytest.raises(FoliationError) as info:
        same_slice_points(chart, cert, BASE, 5.0, 1, rng=rng)
    assert rng.draws == 6
    assert str(info.value) == (
        "could not place 1 points on slice 5.0; 6 candidates failed "
        "(6 flow or step left the domain, 0 hit the margin band, "
        "0 evaluated outside the domain)")


REPLAY_CASES = {
    # name: (chart, base, tol_margin or None, target x0 or None for the domain's end, count, seed)
    "flows_leave_the_domain": ("flrw_closed_osc", [3.0, 1.0, 1.5, 1.5], None, None, 6, 5),
    "margin_band": ("flrw_flat_linear", [2.0, 0.0, 0.0, 0.0], 0.15, 1.52, 8, 3),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_waves_replay_one_at_a_time_shooting(charts, certificates, case):
    """Batched shooting places the points that one-at-a-time shooting (the
    sequential_shooting copy) places, bit for bit, after as many draws and
    with the rng left in the same state, on a slice where some candidates are
    rejected: flows that leave the domain near its end, or candidates in a
    widened margin band."""
    cid, base, tol_margin, x0, count, seed = REPLAY_CASES[case]
    chart, cert = charts[cid], certificates[cid]
    if tol_margin is not None:
        cert = dataclasses.replace(cert, tol_margin=tol_margin)
    probe = np.array(base)
    probe[0] = chart.domain[0][1] if x0 is None else x0
    target = time_value(chart, cert, probe, base)
    batched, sequential = _CountingRng(seed), _CountingRng(seed)
    points = same_slice_points(chart, cert, base, target, count, rng=batched)
    want, rejects = sequential_shooting.same_slice_points(chart, cert, base, target, count,
                                                          sequential)
    assert sum(rejects.values()) > 0 and len(want) == count
    assert batched.draws == sequential.draws == count + sum(rejects.values())
    assert all(np.array_equal(p, q) for p, q in zip(points, want, strict=True))
    assert batched._rng.bit_generator.state == sequential._rng.bit_generator.state


def test_give_up_replays_one_at_a_time_shooting(charts, certificates, monkeypatch):
    """Giving up reports the reasons one-at-a-time shooting reports, flows
    leaving the domain and the margin band mixed, after the same draws and
    as many geometry rows: a candidate whose time from the base fails is not
    bisected further."""
    chart = charts["flrw_flat_linear"]
    cert = dataclasses.replace(certificates["flrw_flat_linear"], tol_margin=0.12)
    rows = [0, 0]
    sides = ((foliation,), (sequential_shooting, sequential_profile))   # whose flow it calls
    for k, module in ((k, module) for k, side in enumerate(sides) for module in side):
        for name in ("geometry_at", "geometry_chunk", "geometry_batch"):
            if hasattr(module, name):
                real, single = getattr(module, name), name == "geometry_at"

                def counting(chart, points, order=3, real=real, single=single, k=k):
                    rows[k] += 1 if single else len(points)
                    return real(chart, points, order)

                monkeypatch.setattr(module, name, counting)
    monkeypatch.setattr(foliation, "MAX_REJECTS", 30)
    oracle = functools.partial(sequential_shooting.same_slice_points, max_rejects=30)
    errors, rngs = [], [_CountingRng(3), _CountingRng(3)]
    for shoot, rng in zip((same_slice_points, oracle), rngs):
        with pytest.raises(FoliationError, match="could not place") as info:
            shoot(chart, cert, BASE, 1.0 / 1.5 - 0.5, 8, rng=rng)
        errors.append(str(info.value))
    assert rows[0] == rows[1] > 0
    assert errors[0] == errors[1]
    assert "31 candidates failed" in errors[0]
    assert " 0 hit the margin band" not in errors[0]
    assert "(0 flow or step left the domain" not in errors[0]
    assert rngs[0].draws == rngs[1].draws
    assert rngs[0]._rng.bit_generator.state == rngs[1]._rng.bit_generator.state
