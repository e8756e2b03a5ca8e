"""Fermi derivative, transport conservation, frames and geodesics."""

from types import SimpleNamespace

import numpy as np
import pytest

from rwcert import transport as transport_module
from rwcert.geometry import geometry_at
from rwcert.transport import (CurveError, CurveSpec, DomainExitError, TransportError,
                              _ExplicitCurve, gram_drift, stage_taus, transport)

from oracles import adapted_frame, fermi_derivative


def _one_run(chart, curve, X0, steps):
    """The table of one fixed-step transport run, without step doubling."""
    driver = transport_module._Driver(chart, curve)
    taus, points, tangents, metrics, vectors = driver.integrate(
        np.atleast_2d(np.asarray(X0, dtype=float)), steps)
    return SimpleNamespace(taus=taus, points=points, tangents=tangents, metrics=metrics,
                           vectors=vectors[:, 0] if np.ndim(X0) == 1 else vectors)


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
        assert gram_drift(result) < 1e-8


def test_plane_circle_fermi_rotation(plane_chart):
    """Unit circle at unit speed (eps = +1): the transported vector rotates with
    the parameter, X(s) = Rot(s) X(0) (closed form from solving the ODE by hand)."""
    curve = CurveSpec.explicit(["cos(s)", "sin(s)"], t0=0.0, t1=1.0)
    x0 = np.array([1.0, 0.0])
    result = transport(plane_chart, curve, x0, steps=500)
    for tau, vec in zip(result.taus[::100], result.vectors[::100]):
        rot = np.array([[np.cos(tau), -np.sin(tau)], [np.sin(tau), np.cos(tau)]])
        assert np.abs(vec - rot @ x0).max() < 1e-8
    assert gram_drift(result) < 1e-8


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
    assert gram_drift(result) < 1e-8


def test_fermi_frame_constant_in_flat_space(charts):
    chart = charts["minkowski"]
    geom = geometry_at(chart, [0.0, 0.0, 0.0, 0.0], order=2)
    frame = adapted_frame(geom, rng=np.random.default_rng(0))
    rows = np.vstack([frame.spatial, [frame.vectors[0]]])   # tangent goes last
    curve = CurveSpec.geodesic([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], t1=1.0)
    result = transport(chart, curve, rows, steps=100)
    assert np.abs(result.vectors - rows).max() < 1e-12


def test_fermi_frame_rindler_drift(charts):
    chart = charts["minkowski"]
    curve = CurveSpec.explicit(["sinh(s)", "cosh(s)", "0", "0"], t0=0.0, t1=1.0)
    frame0 = np.array([[0.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 0.0],
                       [0.0, 0.0, 0.0, 1.0],
                       [1.0, 0.0, 0.0, 0.0]])   # last row = tangent at s=0
    result = transport(chart, curve, frame0, steps=1000)
    assert gram_drift(result) < 1e-8
    assert np.abs(result.vectors[-1][3] - result.tangents[-1]).max() < 1e-8


def _geodesic(chart, p, v, length, steps):
    """One fixed-step run along the geodesic from p with velocity v, carrying v."""
    return _one_run(chart, CurveSpec.geodesic(p, v, t1=length), v, steps)


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
    assert gram_drift(result) < 1e-8
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
    start = _one_run(chart, curve, np.zeros(4), 1)
    result = transport(chart, curve, start.tangents[0], steps=200)
    assert np.abs(result.vectors - result.tangents).max() < 1e-8
    assert gram_drift(result) < 1e-8


@pytest.mark.parametrize("name, exprs", _CURVED_MILD + [
    ("minkowski", ["sinh(s)", "cosh(s)", "0", "0"]),
])
def test_normalized_acceleration_is_normal_to_the_tangent(charts, name, exprs):
    """Every explicit curve is normalized pointwise, a unit-speed one too: the
    tangent has g(U, U) = eps and the acceleration g(A, U) = 0, to rounding.
    The d_m g(c',c') term of v' only moves the acceleration along u, which
    the Fermi-Walker law cancels, so no transported vector shows it; g(A, U)
    pins it."""
    chart = charts[name]
    curve = CurveSpec.explicit(exprs, t0=0.0, t1=1.0)
    eps = transport_module._Driver(chart, curve).epsilon
    contexts = _ExplicitCurve(chart, curve).contexts(np.linspace(0.0, 1.0, 65))
    if name != "minkowski":
        assert np.abs(contexts.speed - 1.0).max() > 1e-3
    U, A, g = contexts.U, contexts.A, contexts.g
    assert np.abs(np.einsum('sa,sab,sb->s', U, g, U) - eps).max() <= 1e-15
    assert np.abs(np.einsum('sa,sab,sb->s', A, g, U)).max() <= 1e-15


_READ_AHEAD_CASES = [
    # unit speed in curved space; 45 steps are 90 stage points, not a multiple of CHUNK
    ("flrw_closed_osc", ["3 + s", "1", "1.5", "1.5"], 0.0, 1.0, 45),
    # normalized in curved space
    (*_CURVED_MILD[0], 0.0, 1.0, 100),
    (*_CURVED_MILD[1], 0.0, 1.0, 100),
    # a decreasing range
    ("minkowski", ["sinh(s)", "cosh(s)", "0", "0"], 1.0, 0.0, 100),
]


@pytest.mark.parametrize("name, exprs, t0, t1, steps", _READ_AHEAD_CASES)
def test_read_ahead_equals_the_point_path(charts, monkeypatch, name, exprs, t0, t1, steps):
    """Explicit-curve stage values read in batches give the table of jets
    evaluated one value at a time bit for bit.  That is the fallback of a
    batch whose curve jets raise, forced here by jets that raise an
    ArithmeticError over every batch; the runs double until they converge."""
    chart = charts[name]
    curve = CurveSpec.explicit(exprs, t0=t0, t1=t1)
    x0 = np.random.default_rng(4).normal(size=(2, 4))
    batched = transport(chart, curve, x0, steps=steps)
    refused, raw = [], _ExplicitCurve._raw

    def refusing(self, taus):
        if np.ndim(taus):
            refused.append(len(taus))
            raise ArithmeticError("batch refused")
        return raw(self, taus)

    monkeypatch.setattr(_ExplicitCurve, "_raw", refusing)
    pointwise = transport(chart, curve, x0, steps=steps)
    assert refused
    for field in ("taus", "points", "tangents", "metrics", "vectors"):
        assert np.array_equal(getattr(batched, field), getattr(pointwise, field)), field


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


def _count_geometry(monkeypatch, batches=None) -> list:
    """Record the order of every point the transport module evaluates, by a
    geometry_at call or as a row of a geometry_chunk call; the size of each
    batch goes to `batches` when it is given."""
    calls = []
    real, real_chunk = transport_module.geometry_at, transport_module.geometry_chunk

    def counting(chart, point, order=3):
        calls.append(order)
        return real(chart, point, order)

    def counting_chunk(chart, points, order=3):
        calls.extend([order] * len(points))
        if batches is not None:
            batches.append(len(points))
        return real_chunk(chart, points, order)

    monkeypatch.setattr(transport_module, "geometry_at", counting)
    monkeypatch.setattr(transport_module, "geometry_chunk", counting_chunk)
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
    result = _one_run(charts["flrw_closed_osc"], curve, [0.0, 0.2, 0.1, -0.05], steps)
    assert len(calls) == 1 + 2 * steps
    assert set(calls) == {1}
    assert np.allclose(result.points[:, 0], 3.0 + result.taus, atol=1e-12)   # comoving time


def test_explicit_curve_evaluates_two_per_step(charts, monkeypatch):
    """k2 and k3 share one tau, and k4, the next row and the next k1 share
    another: after the start context, one read at t0, a run of N steps reads
    its 2N stage values in batches of at most 2 CHUNK, and a doubled run
    starts from the start context it kept.  A curve with a mild speed error
    costs the same as a unit-speed one: every curve is normalized."""
    from rwcert.transport import CHUNK

    batches = []
    calls = _count_geometry(monkeypatch, batches)
    steps = 10
    for exprs in (["sinh(s)", "cosh(s)", "0", "0"], ["s + 0.002*sin(s)", "0.3", "0", "0"]):
        calls.clear()
        batches.clear()
        _one_run(charts["minkowski"], CurveSpec.explicit(exprs, t0=0.0, t1=1.0),
                 [0.0, 1.0, 0.0, 0.0], steps)
        assert len(calls) == 1 + 2 * steps, exprs
        assert batches == [1, 2 * steps], exprs

    calls.clear()
    batches.clear()
    steps = 200
    rindler = CurveSpec.explicit(["sinh(s)", "cosh(s)", "0", "0"])
    monkeypatch.setattr(transport_module, "MAX_HALVINGS", 1)
    result = transport(charts["minkowski"], rindler, [0.0, 1.0, 0.0, 0.0], steps=steps)
    assert result.steps == steps
    assert len(calls) == 1 + 2 * steps + 4 * steps
    assert batches == ([1] + [2 * CHUNK] * 3 + [2 * steps - 6 * CHUNK]
                       + [2 * CHUNK] * 6 + [4 * steps - 12 * CHUNK])


def test_explicit_curve_leaving_the_domain_raises_from_its_batch(charts, monkeypatch):
    """t = 3.4 + s leaves flrw_flat_linear's domain (t <= 3.5) in the run's
    first batch: the batch's first failing row raises what the one-point
    path raises there, and the failing rows get their errors from the
    batch's own pass.  The only geometry_at call is the start context's, a
    batch of one."""
    from rwcert import geometry
    from rwcert.geometry import OutsideDomainError

    calls = []
    real = geometry.geometry_at

    def counting(chart, point, order=3):
        calls.append(order)
        return real(chart, point, order)

    monkeypatch.setattr(geometry, "geometry_at", counting)
    monkeypatch.setattr(transport_module, "geometry_at", counting)
    curve = CurveSpec.explicit(["3.4 + s", "0", "0", "0"], t1=1.0)
    with pytest.raises(DomainExitError) as info:
        transport(charts["flrw_flat_linear"], curve, [0.0, 1.0, 0.0, 0.0], steps=200)
    assert str(info.value) == "curve left the domain at [3.5025, 0.0, 0.0, 0.0]"
    assert isinstance(info.value.__cause__, OutsideDomainError)
    assert calls == [1]


def test_comoving_u_curve_evaluates_two_per_step(charts, monkeypatch):
    """Two per step after the start data; a doubled run starts at a point the
    memo no longer holds and costs one more (this one converges at the first
    doubling)."""
    calls = _count_geometry(monkeypatch)
    curve = CurveSpec.integral_curve_of_u([2.0, 0.1, 0.2, 0.3], t1=0.05)
    steps = 10
    x0 = [0.0, 0.25, 0.0, 0.0]
    _one_run(charts["flrw_flat_linear"], curve, x0, steps)
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
    result = _one_run(plane, CurveSpec.integral_curve_of_u([0.0, 0.5], t1=0.5),
                      [0.0, 1.0], steps)
    assert np.ptp(result.tangents[:, 0]) > 0.1      # the tangent does turn
    assert len(calls) == 1 + 4 * steps

    calls.clear()
    velocity = [np.sqrt(1.0 + 4.41 * 0.04), 0.2, 0.0, 0.0]    # unit: a(1)^2 = 4.41
    _one_run(charts["flrw_open"], CurveSpec.geodesic([1.0, 1.0, 1.2, 1.0], velocity,
                                                     t1=0.05),
             [0.0, 1.0, 0.0, 0.0], steps)
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
        assert gram_drift(result) == expected
        assert calls == []
        monkeypatch.undo()


def test_transport_raises_when_halvings_do_not_converge(charts, monkeypatch):
    """Two coarse steps on a curved geodesic move the endpoint by far more
    than ENDPOINT_TOL after one doubling: an error, not a silent table."""
    velocity = [np.sqrt(1.0 + 4.41 * 0.04), 0.2, 0.0, 0.0]
    curve = CurveSpec.geodesic([1.0, 1.0, 1.2, 1.0], velocity, t1=1.0)
    monkeypatch.setattr(transport_module, "MAX_HALVINGS", 1)
    with pytest.raises(TransportError, match="did not converge"):
        transport(charts["flrw_open"], curve, [0.0, 1.0, 0.0, 0.0], steps=2)


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


@pytest.mark.parametrize("t0, t1, steps", [(0.0, 1.0, 7), (1.0, 0.0, 5), (0.3, -1.1, 3)])
def test_stage_taus_hold_the_grid_and_the_mid_stages(t0, t1, steps):
    """The grid rows linspace(t0, t1, steps + 1) at even places and each
    step's mid stage between them, on increasing and decreasing ranges."""
    stages = stage_taus(t0, t1, steps)
    assert len(stages) == 2 * steps + 1
    assert stages[0::2].tolist() == np.linspace(t0, t1, steps + 1).tolist()
    assert np.allclose(stages[1::2], 0.5 * (stages[0:-1:2] + stages[2::2]), rtol=0, atol=1e-15)


def _joint_rk4(chart, curve, X0, steps):
    """Fermi transport by plain RK4 on one joint state, the curve state followed
    by the rows, with the transport rhs written out from the law.  Returns the
    table (points, tangents, metrics, vectors) at the grid rows."""
    n = chart.dim
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    t0, t1 = curve.t0, curve.t1
    h = (t1 - t0) / steps
    grid = np.linspace(t0, t1, steps + 1)
    if curve.kind == "explicit":
        taus = np.empty(2 * steps + 1)
        taus[0::2], taus[1::2] = grid, grid[:-1] + 0.5 * h
        c = _ExplicitCurve(chart, curve).contexts(taus)
        lookup = dict(zip(taus.tolist(), zip(c.x, c.U, c.A, c.g, c.gamma, c.speed)))
        y = X0.ravel()
        m = 0

        def context(tau, curve_state):
            return lookup[tau]
    else:
        y = np.concatenate([curve.start, curve.velocity or (), X0.ravel()])
        m = y.size - X0.size

        def context(tau, curve_state):
            geom = geometry_at(chart, curve_state[:n], order=1)
            if curve.kind == "geodesic":
                return (curve_state[:n], curve_state[n:], np.zeros(n), geom.g, geom.gamma,
                        1.0)
            return curve_state, geom.u, geom.acceleration(), geom.g, geom.gamma, 1.0

    _, U0, _, g0, _, _ = context(t0, y[:m])
    eps = 1.0 if U0 @ g0 @ U0 > 0 else -1.0

    def rhs(tau, y):
        _, U, A, g, gamma, v = context(tau, y[:m])
        X = y[m:].reshape(X0.shape)
        dX = v * (-np.einsum('kij,i,rj->rk', gamma, U, X)
                  - eps * np.outer(X @ g @ A, U) + eps * np.outer(X @ g @ U, A))
        if curve.kind == "geodesic":
            return np.concatenate([U, -np.einsum('kij,i,j->k', gamma, U, U), dX.ravel()])
        return np.concatenate([U if curve.kind == "u_integral" else [], dX.ravel()])

    table = []
    for i in range(steps + 1):
        x, U, _, g, _, _ = context(grid[i], y[:m])
        table.append((x, U, g, y[m:].reshape(X0.shape)))
        if i == steps:
            break
        t, mid, end = grid[i], grid[i] + 0.5 * h, grid[i + 1]
        k1 = rhs(t, y)
        k2 = rhs(mid, y + 0.5 * h * k1)
        k3 = rhs(mid, y + 0.5 * h * k2)
        k4 = rhs(end, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return tuple(np.array(column) for column in zip(*table))


def _oracle_cases(charts, plane_chart):
    from rwcert.chart import chart_from_dict

    rng = np.random.default_rng(12)
    velocity = [np.sqrt(1.0 + 4.41 * 0.04), 0.2, 0.0, 0.0]    # unit: a(1)^2 = 4.41
    return {
        "rindler": (charts["minkowski"],
                    CurveSpec.explicit(["sinh(s)", "cosh(s)", "0", "0"]),
                    rng.normal(size=(2, 4))),
        "rotating plane u-curve": (chart_from_dict(ROTATING_PLANE_DOC),
                                   CurveSpec.integral_curve_of_u([0.0, 0.5], t1=0.5),
                                   rng.normal(size=2)),
        "normalized plane curve": (plane_chart,
                                   CurveSpec.explicit(["s + 0.002*sin(s)", "0.3"]),
                                   rng.normal(size=(2, 2))),
        "normalized curved": (charts[_CURVED_MILD[0][0]],
                              CurveSpec.explicit(_CURVED_MILD[0][1]),
                              rng.normal(size=(3, 4))),
        "tilted geodesic": (charts["flrw_open"],
                            CurveSpec.geodesic([1.0, 1.0, 1.2, 1.0], velocity, t1=0.5),
                            rng.normal(size=4)),
    }


def _assert_matches_oracle(result, oracle, factor=1):
    points, tangents, metrics, vectors = (column[::factor] for column in oracle)
    assert np.array_equal(result.points, points)
    assert np.array_equal(result.tangents, tangents)
    assert np.array_equal(result.metrics, metrics)
    got = result.vectors.reshape(vectors.shape)
    assert np.abs(got - vectors).max() <= 1e-12 * (1.0 + np.abs(vectors).max())


@pytest.mark.parametrize("case", ["rindler", "rotating plane u-curve",
                                  "normalized plane curve", "normalized curved",
                                  "tilted geodesic"])
def test_propagators_equal_a_joint_rk4(charts, plane_chart, case):
    """The curve pass plus chunked row propagators give the table of a plain
    joint RK4 over (curve state, rows): the curve arrays bit for bit, the rows
    to rounding.  Step counts straddle the fold size CHUNK, so a run ends on a
    full chunk, one step short of it and one step past it."""
    from rwcert.transport import CHUNK

    chart, curve, x0 = _oracle_cases(charts, plane_chart)[case]
    for steps in (CHUNK - 1, CHUNK, CHUNK + 1):
        result = _one_run(chart, curve, x0, steps)
        _assert_matches_oracle(result, _joint_rk4(chart, curve, x0, steps))


def test_doubled_fermi_frame_equals_a_joint_rk4(charts):
    """A whole Fermi frame, n rows, refined by step doubling: the returned
    table is the accepted run's, every factor-th row, and that run equals the
    joint RK4 at the accepted step count."""
    from rwcert.transport import CHUNK, ENDPOINT_TOL

    chart = charts["minkowski"]
    curve = CurveSpec.explicit(["sinh(s)", "cosh(s)", "0", "0"])
    frame0 = np.array([[0.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 0.0],
                       [0.0, 0.0, 0.0, 1.0],
                       [1.0, 0.0, 0.0, 0.0]])
    result = transport(chart, curve, frame0, steps=CHUNK + 1)
    factor = result.refined_steps // result.steps
    assert factor >= 2 and result.refined_steps == factor * (CHUNK + 1)
    assert result.endpoint_change < ENDPOINT_TOL
    _assert_matches_oracle(result, _joint_rk4(chart, curve, frame0, result.refined_steps),
                           factor)


def test_generators_satisfy_the_pointwise_law(charts, plane_chart):
    """At sampled stage contexts the batched generator M obeys the law that
    fermi_derivative states point by point: dX/dtau = X M means nabla_u X =
    X M / v + Gamma(u, X), whose Fermi derivative vanishes for every X."""
    from rwcert.transport import _generators

    rng = np.random.default_rng(21)
    cases = _oracle_cases(charts, plane_chart)
    contexts = []
    for name in ("rindler", "normalized plane curve", "normalized curved"):
        chart, curve, _ = cases[name]
        c = _ExplicitCurve(chart, curve).contexts(np.linspace(0.0, 1.0, 7))
        contexts += [(x, U, A, geometry_at(chart, x, order=1), v)
                     for x, U, A, v in zip(c.x, c.U, c.A, c.speed)]
    chart, curve, _ = cases["rotating plane u-curve"]
    for x in ([0.0, 0.5], [0.4, -0.3], [-1.0, 1.2]):
        geom = geometry_at(chart, x, order=1)
        contexts.append((x, geom.u, geom.acceleration(), geom, 1.0))
    chart, curve, _ = cases["tilted geodesic"]
    geom = geometry_at(chart, curve.start, order=1)
    contexts.append((curve.start, np.array(curve.velocity), np.zeros(4), geom, 1.0))
    for _, U, A, geom, v in contexts:
        eps = 1.0 if geom.ip(U, U) > 0 else -1.0
        M = _generators(U[None], A[None], np.array([v]), geom.g[None], geom.gamma[None],
                        eps)[0]
        for X in rng.normal(size=(3, len(U))):
            nabla = (X @ M) / v + np.einsum('kij,i,j->k', geom.gamma, U, X)
            assert np.abs(fermi_derivative(geom, U, A, X, nabla)).max() <= 1e-13


@pytest.mark.parametrize("chart_id, curve, says", [
    ("flrw_open", CurveSpec.geodesic([1.0, 1.0, 1.2, 1.0], [1.0, 0.0, 0.0, 0.0], t1=50.0),
     "curve left the domain at [2.500499999999835, 1.0, 1.2, 1.0]"),
    ("flrw_flat_linear", CurveSpec.integral_curve_of_u([3.4, 0.1, 0.2, 0.3], t1=5.0),
     "curve left the domain at [3.500499999999989, 0.1, 0.2, 0.3]"),
])
def test_domain_exit_partway_names_the_first_point_outside(charts, chart_id, curve, says):
    """A curve that leaves the chart many chunks into a run raises at the
    first stage point outside, with the message of the joint integrator the
    curve pass replaced; no table comes back with rows folded from the
    partial chunk."""
    with pytest.raises(DomainExitError) as exc:
        transport(charts[chart_id], curve, [0.0, 1.0, 0.0, 0.0])
    assert str(exc.value) == says
