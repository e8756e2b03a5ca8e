"""Curvature engine: Christoffels, Riemann, frames, self-check identities."""

import numpy as np
import pytest

from rwcert import catalog
from rwcert.chart import chart_from_dict
from rwcert.exprs import EvalDomainError, eval_expr
from rwcert.geometry import (DegenerateMetricError, DegeneratePlaneError,
                             OutsideDomainError, UnitVectorError, adapted_frame,
                             geometry_at,
                             metric_compatibility_residual,
                             riemann_symmetry_residuals, second_bianchi_residual,
                             sectional_curvature, trace_invariants)
from rwcert.jets import Jet3

from conftest import domain_points


def test_minkowski_is_flat(charts):
    geom = geometry_at(charts["minkowski"], [0.3, -1.0, 2.0, 0.5])
    assert np.abs(geom.gamma).max() == 0.0
    assert np.abs(geom.riemann_low).max() == 0.0
    assert geom.signature == (-1, 1, 1, 1)


def test_flrw_christoffels_match_fd_oracle(charts):
    """Gamma from the engine vs Gamma rebuilt from finite differences of g."""
    chart = charts["flrw_flat_linear"]
    point = np.array([2.0, 0.1, -0.2, 0.3])
    geom = geometry_at(chart, point)
    assert geom.gamma[0, 1, 1] == pytest.approx(2.0, abs=1e-12)
    assert geom.gamma[1, 0, 1] == pytest.approx(0.5, abs=1e-12)

    n = chart.dim
    h = 1e-5

    def metric_at(x):
        env = {name: Jet3.variable(k, x[k], n) for k, name in enumerate(chart.coords)}
        g = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                g[i, j] = g[j, i] = eval_expr(chart.metric[i][j], env, chart.params).value
        return g

    dg = np.empty((n, n, n))
    for k in range(n):
        plus, minus = point.copy(), point.copy()
        plus[k] += h
        minus[k] -= h
        dg[k] = (metric_at(plus) - metric_at(minus)) / (2 * h)
    ginv = np.linalg.inv(metric_at(point))
    gamma_fd = 0.5 * np.einsum(
        'km,mij->kij', ginv,
        np.einsum('imj->mij', dg) + np.einsum('jmi->mij', dg) - dg)
    assert np.abs(geom.gamma - gamma_fd).max() < 1e-7


def test_sphere_sectional_curvature(sphere_chart):
    for point in domain_points(sphere_chart, 5, seed=3):
        geom = geometry_at(sphere_chart, point)
        K = sectional_curvature(geom, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert K == pytest.approx(0.25, abs=1e-10)


def test_sectional_curvature_examples(charts):
    geom = geometry_at(charts["minkowski"], [0.0, 0.0, 0.0, 0.0])
    assert sectional_curvature(geom, np.array([1.0, 0.2, 0, 0]),
                               np.array([0.0, 1.0, 0.5, 0])) == 0.0
    geom = geometry_at(charts["flrw_flat_linear"], [2.0, 0.0, 0.0, 0.0])
    K = sectional_curvature(geom, np.array([0, 1.0, 0, 0]), np.array([0, 0, 1.0, 0]))
    assert K == pytest.approx(0.25, abs=1e-12)


def test_degenerate_plane_rejected(charts):
    geom = geometry_at(charts["minkowski"], [0.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(geom, v, v)


def test_sectional_curvature_plane_invariance(charts):
    """Re-spanning the same plane leaves K unchanged."""
    rng = np.random.default_rng(5)
    geom = geometry_at(charts["schwarzschild_static_observer"], [0.0, 10.0, 1.2, 0.7])
    v = np.array([0.0, 1.0, 0.3, 0.0])
    w = np.array([0.0, 0.2, 1.0, 0.4])
    K = sectional_curvature(geom, v, w)
    for _ in range(10):
        m = rng.normal(size=(2, 2))
        while abs(np.linalg.det(m)) < 0.2:
            m = rng.normal(size=(2, 2))
        v2 = m[0, 0] * v + m[0, 1] * w
        w2 = m[1, 0] * v + m[1, 1] * w
        assert sectional_curvature(geom, v2, w2) == pytest.approx(K, abs=1e-9)


def test_adapted_frame_minkowski(charts):
    geom = geometry_at(charts["minkowski"], [0.0, 0.0, 0.0, 0.0])
    frame = adapted_frame(geom, rng=np.random.default_rng(0))
    assert np.array_equal(frame.vectors[0], geom.u)
    gram = frame.vectors @ geom.g @ frame.vectors.T
    assert np.abs(gram - np.diag([-1.0, 1.0, 1.0, 1.0])).max() < 1e-10


def test_adapted_frame_flrw_gram(charts):
    geom = geometry_at(charts["flrw_flat_linear"], [2.0, 0.1, 0.2, 0.3])
    frame = adapted_frame(geom, rng=np.random.default_rng(1))
    gram = frame.vectors @ geom.g @ frame.vectors.T
    assert np.abs(gram - np.diag(frame.etas)).max() < 1e-10
    # spatial frame vectors have coordinate magnitude 1/a = 1/2 up to rotation
    spatial_norms = np.linalg.norm(frame.spatial, axis=1)
    assert np.allclose(spatial_norms, 0.5, atol=1e-12)


def test_adapted_frame_requires_unit_u(charts):
    geom = geometry_at(charts["minkowski"], [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(UnitVectorError):
        adapted_frame(geom, u_value=np.array([2.0, 0.0, 0.0, 0.0]))


def test_adapted_frame_deterministic(charts):
    geom = geometry_at(charts["goedel"], [0.0, 0.2, 0.1, -0.3])
    f1 = adapted_frame(geom, rng=np.random.default_rng(9))
    f2 = adapted_frame(geom, rng=np.random.default_rng(9))
    assert np.array_equal(f1.vectors, f2.vectors)


def test_covariant_derivative_u_examples(charts):
    geom = geometry_at(charts["minkowski"], [0.0, 0.0, 0.0, 0.0], order=2)
    nabla, accel = geom.nabla_u(), geom.acceleration()
    assert np.abs(nabla).max() == 0.0 and np.abs(accel).max() == 0.0

    chart = charts["flrw_flat_linear"]
    point = [2.0, 0.1, 0.2, 0.3]
    geom = geometry_at(chart, point)
    nabla, accel = geom.nabla_u(), geom.acceleration()
    assert np.abs(accel).max() < 1e-14
    frame = adapted_frame(geom, rng=np.random.default_rng(2))
    for e in frame.spatial:
        expansion = e @ (nabla @ geom.g) @ e
        assert expansion == pytest.approx(0.5, abs=1e-12)


def test_schwarzschild_static_acceleration(charts):
    chart = charts["schwarzschild_static_observer"]
    point = [0.0, 10.0, 1.2, 0.7]
    geom = geometry_at(chart, point)
    accel = geom.acceleration()
    norm = np.sqrt(geom.ip(accel, accel))
    # closed form M / (r^2 sqrt(1 - 2M/r)) at M=1, r=10
    assert norm == pytest.approx(1.0 / (100.0 * np.sqrt(0.8)), abs=1e-8)


@pytest.mark.parametrize("chart_id", sorted(catalog.CATALOG))
def test_tensor_identities_on_catalog(charts, chart_id):
    """Symmetries, Bianchi identities and metric compatibility (10 points here;
    the acceptance suite re-runs this at 50 points per chart)."""
    chart = charts[chart_id]
    for point in domain_points(chart, 10, seed=17):
        geom = geometry_at(chart, point)
        for name, value in riemann_symmetry_residuals(geom).items():
            assert value < 1e-10, (chart_id, name)
        assert second_bianchi_residual(geom) < 1e-8, chart_id
        assert metric_compatibility_residual(geom) < 1e-10, chart_id


def test_trace_invariants_match_closed_forms(charts):
    geom = geometry_at(charts["flrw_flat_linear"], [2.0, 0.4, -0.1, 0.9])
    f, h = trace_invariants(geom)
    assert f == pytest.approx(0.0, abs=1e-14)
    assert h == pytest.approx(0.25, abs=1e-12)
    geom = geometry_at(charts["riemannian_grw"], [2.0, 0.0, 0.0, 0.0])
    f, h = trace_invariants(geom)
    assert f == pytest.approx(-2.0 / 5.0, abs=1e-12)
    assert h == pytest.approx(-16.0 / 25.0, abs=1e-12)


def test_point_outside_domain_rejected(charts):
    with pytest.raises(OutsideDomainError):
        geometry_at(charts["flrw_flat_linear"], [0.1, 0.0, 0.0, 0.0])


def test_degenerate_metric_detected():
    doc = {
        "name": "degenerate", "dim": 2, "coords": ["t", "x"],
        "metric": [["t", None], [None, "0"]],
        "u": ["1", "0"], "params": {},
        "domain": [[0.5, 1.5], [-1.0, 1.0]], "options": {},
    }
    chart = chart_from_dict(doc)
    with pytest.raises(DegenerateMetricError):
        geometry_at(chart, [1.0, 0.0])


def test_order_one_skips_curvature(charts):
    geom = geometry_at(charts["flrw_flat_linear"], [2.0, 0.0, 0.0, 0.0], order=1)
    assert geom.riemann_low is None
    assert geom.gamma is not None
    geom2 = geometry_at(charts["flrw_flat_linear"], [2.0, 0.0, 0.0, 0.0], order=2)
    assert geom2.driemann_low is None and geom2.riemann_low is not None


@pytest.mark.parametrize("chart_id", sorted(catalog.CATALOG))
def test_truncated_orders_equal_order_three(charts, chart_id):
    """Order 1 and 2 return exactly the arrays order 3 does, as far as they go."""
    chart = charts[chart_id]
    for point in domain_points(chart, 4, seed=17):
        full = geometry_at(chart, point, order=3)
        for order in (1, 2):
            geom = geometry_at(chart, point, order=order)
            for name in ("g", "dg", "g_inv", "dg_inv", "gamma", "u", "du"):
                assert np.array_equal(getattr(geom, name), getattr(full, name)), (order, name)
            assert geom.u_norm2 == full.u_norm2
            if order == 2:
                assert np.array_equal(geom.dgamma, full.dgamma)
                assert np.array_equal(geom.riemann_low, full.riemann_low)
                assert geom.signature == full.signature
            else:
                assert geom.dgamma is None and geom.riemann_low is None


OVERFLOW_DOC = {
    "name": "overflow", "dim": 4, "coords": ["t", "x", "y", "z"],
    "metric": [["-1", None, None, None], [None, "exp(exp(t))", None, None],
               [None, None, "1", None], [None, None, None, "1"]],
    "u": ["1", "0", "0", "0"], "params": {},
    "domain": [[6.0, 8.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]], "options": {},
}


@pytest.mark.parametrize("t", [6.2, 7.0])
@pytest.mark.parametrize("order", [1, 3])
def test_overflowing_metric_is_degenerate(t, order):
    """exp(exp(t)) is a huge finite value at t = 6.2 and inf at t = 7."""
    chart = chart_from_dict(OVERFLOW_DOC)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateMetricError):
            geometry_at(chart, [t, 0.0, 0.0, 0.0], order=order)


def test_overflow_inside_a_jet_is_degenerate():
    """1/t at t ~ 1e-110: the third derivative overflows a Python float power."""
    doc = dict(OVERFLOW_DOC, metric=[["-1", None, None, None], [None, "1 + 1/t", None, None],
                                     [None, None, "1", None], [None, None, None, "1"]],
               domain=[[1e-110, 2e-110], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(DegenerateMetricError, match="overflows"):
        geometry_at(chart_from_dict(doc), [1.5e-110, 0.0, 0.0, 0.0], order=3)


def test_non_finite_u_is_degenerate():
    doc = dict(OVERFLOW_DOC, metric=[["-1", None, None, None], [None, "1", None, None],
                                     [None, None, "1", None], [None, None, None, "1"]],
               u=["exp(exp(t))", "0", "0", "0"])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateMetricError, match="non-finite u"):
            geometry_at(chart_from_dict(doc), [7.0, 0.0, 0.0, 0.0], order=1)


def test_programs_compiled_lazily_once():
    chart = chart_from_dict(catalog.get_entry("flrw_open").document)
    assert "programs" not in vars(chart)          # loading compiles nothing
    geometry_at(chart, [1.0, 1.0, 1.5, 1.5], order=1)
    programs = chart.programs
    geometry_at(chart, [1.2, 1.0, 1.5, 1.5], order=3)
    assert chart.programs is programs
    assert programs.metric_constant[0, 0] == -1.0
    assert [(i, j) for i, j, _ in programs.metric_varying] == [(1, 1), (2, 2), (3, 3)]


def test_domain_error_in_constant_entry_is_raised_per_point():
    doc = dict(OVERFLOW_DOC, metric=[["-1", None, None, None], [None, "1 + ln(-1)", None, None],
                                     [None, None, "1", None], [None, None, None, "1"]])
    chart = chart_from_dict(doc)                     # not a ChartError
    with pytest.raises(EvalDomainError) as err:
        geometry_at(chart, [7.0, 0.0, 0.0, 0.0])
    assert err.value.span == (4, 10)


def test_normalize_u_gives_unit_u_and_matching_du():
    """On a normalize_u chart with a varying, non-unit u, u is unit and du is
    the derivative of the normalized field (central differences of u); a
    null u cannot be normalized."""
    doc = catalog.get_entry("flrw_open").document
    chart = chart_from_dict(dict(doc, name="scaled_u", options={"normalize_u": True},
                                 u=["2 + 0.1*chi*theta", "0.1*t*sin(phi)", "0.05*chi", "0"]))
    h = 1e-5
    for point in domain_points(chart, 5, seed=17):
        geom = geometry_at(chart, point, order=1)
        assert abs(abs(geom.ip(geom.u, geom.u)) - 1.0) < 1e-12
        for l in range(chart.dim):
            step = h * np.eye(chart.dim)[l]
            central = (geometry_at(chart, point + step, order=1).u
                       - geometry_at(chart, point - step, order=1).u) / (2.0 * h)
            assert np.abs(geom.du[l] - central).max() < 1e-8

    null = chart_from_dict(dict(doc, name="null_u", options={"normalize_u": True},
                                u=["1", "1/(2 + 0.1*t^2)", "0", "0"]))
    with pytest.raises(UnitVectorError, match="near-null"):
        geometry_at(null, [1.0, 1.0, 1.2, 1.0], order=1)
