"""Curvature engine: Christoffels, Riemann, frames, self-check identities."""

import dataclasses
import re

import numpy as np
import pytest

from rwcert import catalog
from rwcert import geometry as geometry_module
from rwcert.chart import ChartPrograms, chart_from_dict
from rwcert.exprs import EvalDomainError, eval_expr
from rwcert.geometry import (DegenerateMetricError, GeometryError, OutsideDomainError,
                             PointGeometry, UnitVectorError, geometry_at, geometry_chunk,
                             take_rows, trace_invariants)
from rwcert.jets import Jet3

from conftest import domain_points
from oracles import (DegeneratePlaneError, adapted_frame, chunk_rows, ip,
                     metric_compatibility_residual, riemann_symmetry_residuals,
                     second_bianchi_residual, sectional_curvature)


def test_minkowski_is_flat(charts):
    geom = geometry_at(charts["minkowski"], [0.3, -1.0, 2.0, 0.5])
    assert np.abs(geom.gamma).max() == 0.0
    assert np.abs(geom.riemann_low).max() == 0.0
    assert np.array_equal(np.sign(np.linalg.eigvalsh(geom.g)), [-1, 1, 1, 1])


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
    frame = adapted_frame(geom)
    assert np.array_equal(frame.vectors[0], geom.u)
    gram = frame.vectors @ geom.g @ frame.vectors.T
    assert np.abs(gram - np.diag([-1.0, 1.0, 1.0, 1.0])).max() < 1e-10


def test_adapted_frame_flrw_gram(charts):
    geom = geometry_at(charts["flrw_flat_linear"], [2.0, 0.1, 0.2, 0.3])
    frame = adapted_frame(geom)
    gram = frame.vectors @ geom.g @ frame.vectors.T
    assert np.abs(gram - np.diag(frame.etas)).max() < 1e-10
    # spatial frame vectors have coordinate magnitude 1/a = 1/2 up to rotation
    spatial_norms = np.linalg.norm(frame.spatial, axis=1)
    assert np.allclose(spatial_norms, 0.5, atol=1e-12)


def test_adapted_frame_requires_unit_u(charts):
    geom = geometry_at(charts["minkowski"], [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(UnitVectorError):
        adapted_frame(dataclasses.replace(geom, u=2 * geom.u))


def test_adapted_frame_deterministic(charts):
    geom = geometry_at(charts["goedel"], [0.0, 0.2, 0.1, -0.3])
    f1 = adapted_frame(geom)
    f2 = adapted_frame(geom)
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
    frame = adapted_frame(geom)
    for e in frame.spatial:
        expansion = e @ (nabla @ geom.g) @ e
        assert expansion == pytest.approx(0.5, abs=1e-12)


def test_schwarzschild_static_acceleration(charts):
    chart = charts["schwarzschild_static_observer"]
    point = [0.0, 10.0, 1.2, 0.7]
    geom = geometry_at(chart, point)
    accel = geom.acceleration()
    norm = np.sqrt(ip(geom, accel, accel))
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
                assert np.array_equal(np.sign(np.linalg.eigvalsh(geom.g)),
                                      np.sign(np.linalg.eigvalsh(full.g)))
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
    """1/t at t ~ 1e-110: the third derivative, a product of reciprocals,
    overflows to inf, a non-finite metric derivative."""
    doc = dict(OVERFLOW_DOC, metric=[["-1", None, None, None], [None, "1 + 1/t", None, None],
                                     [None, None, "1", None], [None, None, None, "1"]],
               domain=[[1e-110, 2e-110], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(DegenerateMetricError, match="non-finite metric value or derivative"):
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
        assert abs(abs(ip(geom, geom.u, geom.u)) - 1.0) < 1e-12
        for l in range(chart.dim):
            step = h * np.eye(chart.dim)[l]
            central = (geometry_at(chart, point + step, order=1).u
                       - geometry_at(chart, point - step, order=1).u) / (2.0 * h)
            assert np.abs(geom.du[l] - central).max() < 1e-8

    null = chart_from_dict(dict(doc, name="null_u", options={"normalize_u": True},
                                u=["1", "1/(2 + 0.1*t^2)", "0", "0"]))
    with pytest.raises(UnitVectorError, match="near-null"):
        geometry_at(null, [1.0, 1.0, 1.2, 1.0], order=1)


SCALED_U_DOC = dict(catalog.get_entry("flrw_open").document, name="scaled_u",
                    options={"normalize_u": True},
                    u=["2 + 0.1*chi*theta", "0.1*t*sin(phi)", "0.05*chi", "0"])


FRACTIONAL_DOC = dict(catalog.get_entry("flrw_open").document, name="fractional_powers",
                      metric=[["-1", None, None, None],
                              [None, "(2 + 0.1*t^2)^2.5", None, None],
                              [None, None, "t^0.5*sinh(chi)^2", None],
                              [None, None, None, "(1 + t)^-1.5*sin(theta)^2"]])


# sums of products whose jets round their mirrored hess and cube entries apart
ASYMMETRIC_JETS_DOC = {
    "name": "asymmetric_jets", "dim": 4, "coords": ["t", "x", "y", "z"],
    "metric": [["-1", "0.1*sin(t*x)*cos(t+x)", None, None],
               [None, "3 + sin(t*x)*cos(t+x)", None, None],
               [None, None, "2 + (1 + t*x)^3*(2 + y)^2*(1 + z)/40", None],
               [None, None, None, "2 + cosh(t)^2*(1 + x*y)^3/10"]],
    "u": ["1", "0", "0", "0"], "params": {}, "domain": [[0.0, 1.0]] * 4,
    "options": {"normalize_u": True},
}


EXTRA_DOCS = {"scaled_u": SCALED_U_DOC, "fractional_powers": FRACTIONAL_DOC,
              "asymmetric_jets": ASYMMETRIC_JETS_DOC}


def _chart(charts, chart_id):
    """A catalog chart, or one of EXTRA_DOCS."""
    return chart_from_dict(EXTRA_DOCS[chart_id]) if chart_id in EXTRA_DOCS else charts[chart_id]


def _rows(chart, points, order=3) -> list:
    """The rows of geometry_chunk at points that all evaluate."""
    chunk, errors = geometry_chunk(chart, points, order)
    assert errors == [None] * len(points)
    return chunk_rows(chunk)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("chart_id", sorted(catalog.CATALOG) + sorted(EXTRA_DOCS))
def test_batch_rows_equal_geometry_at(charts, chart_id, order):
    """Row b of geometry_chunk is geometry_at at points[b], field by field,
    bit for bit; a batch of one gives the same rows."""
    chart = _chart(charts, chart_id)
    points = domain_points(chart, 5, seed=23)
    rows = _rows(chart, points, order)
    assert len(rows) == len(points)
    for point, row in zip(points, rows):
        (single,) = _rows(chart, point[None], order)
        want = geometry_at(chart, point, order)
        for got in (row, single):
            for field in dataclasses.fields(PointGeometry):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert (a is None and b is None) or np.array_equal(a, b), field.name


@pytest.mark.parametrize("size", [2, 8, 64])
@pytest.mark.parametrize("chart_id", sorted(catalog.CATALOG) + sorted(EXTRA_DOCS))
def test_batch_rows_equal_geometry_at_bit_for_bit(charts, chart_id, size):
    """On every catalog chart, and on a normalize_u chart, one with
    non-integer powers and one whose jets are not exactly symmetric, every
    field of every geometry_chunk row is array_equal to geometry_at at its
    point, at orders 1-3 and batch sizes 2, 8 and 64.  The batched foliation
    paths (slice shooting, quadrature, flows, the scale-factor profile)
    reproduce one-point results exactly only because of this."""
    chart = _chart(charts, chart_id)
    points = domain_points(chart, size, seed=size)
    for order in (1, 2, 3):
        for point, row in zip(points, _rows(chart, points, order)):
            want = geometry_at(chart, point, order)
            for field in dataclasses.fields(PointGeometry):
                a, b = getattr(row, field.name), getattr(want, field.name)
                assert (a is None and b is None) or np.array_equal(a, b), (order, field.name)


def test_chunks_round_as_their_points_do(charts):
    """The trace invariants and their gradients over a chunk equal those of
    its points, exactly, and so do those over the rows that take_rows keeps,
    by indices or by a mask: numpy's indexing keeps each array's memory
    order, which einsum's summation order follows (goedel's metric is not
    diagonal, so a contiguous copy would round differently)."""
    chart = charts["goedel"]
    points = domain_points(chart, 16, seed=1)
    singles = [geometry_at(chart, p) for p in points]
    chunk = geometry_chunk(chart, points)[0]
    keep = [0, 3, 4, 9, 15]
    mask = np.isin(np.arange(len(points)), keep)
    for got, rows in ((chunk, singles), (take_rows(chunk, keep), [singles[k] for k in keep]),
                      (take_rows(chunk, mask), [singles[k] for k in keep])):
        for field in dataclasses.fields(PointGeometry)[:-1]:
            a, b = getattr(got, field.name), getattr(chunk, field.name)
            assert (a is None and b is None) or a.strides == b.strides, field.name
        for values, want in zip(trace_invariants(got, gradients=True),
                                zip(*(trace_invariants(r, gradients=True) for r in rows))):
            np.testing.assert_array_equal(values, np.array(want))


def _curvature_from_derivatives(g, dg, d2g, d3g) -> dict:
    """dgamma, riemann_* and driemann_* at a point from the formulas in the
    geometry module's docstring, fed the metric's coordinate derivatives
    dg[l, i, j] = d_l g_ij, d2g[l, m, i, j] = d_l d_m g_ij and d3g[p, l, m,
    i, j] = d_p d_l d_m g_ij, with the outer derivative first.  Like the
    evaluator, it keeps d_p d_l g^-1 symmetric in (p, l)."""
    g_inv = np.linalg.inv(g)
    dg_inv = -np.einsum('ka,lab,bm->lkm', g_inv, dg, g_inv)
    d2g_sym = 0.5 * (d2g + d2g.swapaxes(0, 1))
    d2g_inv = -(np.einsum('pka,lab,bm->plkm', dg_inv, dg, g_inv)
                + np.einsum('ka,plab,bm->plkm', g_inv, d2g_sym, g_inv)
                + np.einsum('ka,lab,pbm->plkm', g_inv, dg, dg_inv))
    # T[m, i, j] = g_mj,i + g_mi,j - g_ij,m, and its derivatives
    T = np.einsum('imj->mij', dg) + np.einsum('jmi->mij', dg) - dg
    dT = np.einsum('limj->lmij', d2g) + np.einsum('ljmi->lmij', d2g) - d2g
    d2T = np.einsum('plimj->plmij', d3g) + np.einsum('pljmi->plmij', d3g) - d3g
    gamma = 0.5 * np.einsum('km,mij->kij', g_inv, T)
    dgamma = 0.5 * (np.einsum('lkm,mij->lkij', dg_inv, T) + np.einsum('km,lmij->lkij', g_inv, dT))
    d2gamma = 0.5 * (np.einsum('plkm,mij->plkij', d2g_inv, T)
                     + np.einsum('lkm,pmij->plkij', dg_inv, dT)
                     + np.einsum('pkm,lmij->plkij', dg_inv, dT)
                     + np.einsum('km,plmij->plkij', g_inv, d2T))
    riemann_up = (np.einsum('mrns->rsmn', dgamma) - np.einsum('nrms->rsmn', dgamma)
                  + np.einsum('rml,lns->rsmn', gamma, gamma)
                  - np.einsum('rnl,lms->rsmn', gamma, gamma))
    driemann_up = (np.einsum('pmrns->prsmn', d2gamma) - np.einsum('pnrms->prsmn', d2gamma)
                   + np.einsum('prml,lns->prsmn', dgamma, gamma)
                   + np.einsum('rml,plns->prsmn', gamma, dgamma)
                   - np.einsum('prnl,lms->prsmn', dgamma, gamma)
                   - np.einsum('rnl,plms->prsmn', gamma, dgamma))
    return {"dgamma": dgamma, "riemann_up": riemann_up,
            "riemann_low": np.einsum('ar,rsmn->asmn', g, riemann_up),
            "driemann_up": driemann_up,
            "driemann_low": (np.einsum('par,rsmn->pasmn', dg, riemann_up)
                             + np.einsum('ar,prsmn->pasmn', g, driemann_up))}


def test_derivative_slots_keep_their_index_order():
    """Metric programs whose jets have hess and cube far from symmetric (a
    test double, no expression gives them) reach the curvature with d2g[l, m,
    i, j] = hess[l, m] and d3g[p, l, m, i, j] = cube[p, l, m], at a point and
    in every row of a chunk.  Symmetric slots cannot tell a transposed layout
    from this one."""
    rng = np.random.default_rng(3)
    n = 4
    slots = {entry: (rng.normal(size=n), rng.normal(size=(n, n)), rng.normal(size=(n, n, n)))
             for entry in ((1, 1), (0, 1))}

    def program(entry, base):
        grad, hess, cube = slots[entry]

        def run(env):
            x = env["x"].value
            w = 1.0 + np.asarray(x)        # a weight per point
            return Jet3(base + 0.1 * x, np.multiply.outer(grad, w),
                        np.multiply.outer(hess, w), np.multiply.outer(cube, w))
        return run

    chart = chart_from_dict(dict(catalog.get_entry("minkowski").document, name="layout",
                                 domain=[[0.0, 1.0]] * n))
    vars(chart)["programs"] = ChartPrograms(
        np.diag([-1.0, 0.0, 2.0, 2.0]),
        ((0, 1, program((0, 1), 0.2)), (1, 1, program((1, 1), 3.0))),
        np.array([1.0, 0.0, 0.0, 0.0]), ())

    def derivatives(x):
        """g, dg, d2g and d3g of the programs at a point with coordinate x."""
        w = 1.0 + x
        g = np.diag([-1.0, 3.0 + 0.1 * x, 2.0, 2.0])
        g[0, 1] = g[1, 0] = 0.2 + 0.1 * x
        dg, d2g, d3g = np.zeros((n,) * 3), np.zeros((n,) * 4), np.zeros((n,) * 5)
        for (i, j), (grad, hess, cube) in slots.items():
            for (a, b) in {(i, j), (j, i)}:
                dg[..., a, b], d2g[..., a, b], d3g[..., a, b] = grad * w, hess * w, cube * w
        return g, dg, d2g, d3g

    points = domain_points(chart, 3, seed=5)
    for order in (2, 3):
        keys = (("dgamma", "riemann_up", "riemann_low")
                + ("driemann_up", "driemann_low") * (order == 3))
        chunk = _rows(chart, points, order)
        for point, row in zip(points, chunk):
            want = _curvature_from_derivatives(*derivatives(point[1]))
            for got in (geometry_at(chart, point, order), row):
                for key in keys:
                    scale = 1.0 + np.abs(want[key]).max()
                    assert np.abs(getattr(got, key) - want[key]).max() < 1e-12 * scale, (order, key)


ORACLE_TOL = 1e-10      # relative to 1 + the largest oracle component of each field


@pytest.mark.parametrize("chart_id", sorted(catalog.CATALOG))
def test_geometry_matches_the_symbolic_oracle(charts, symbolic_geometry, chart_id):
    """g, Gamma, R, dR and the gradients of the trace invariants (f, h) agree
    with sympy's, from geometry_at and from geometry_chunk rows."""
    chart = charts[chart_id]
    oracle = symbolic_geometry(chart)
    points = domain_points(chart, 4, seed=29)
    for geom in [geometry_at(chart, p) for p in points] + _rows(chart, points):
        want = oracle(geom.point, geom.epsilon)
        _, _, df, dh = trace_invariants(geom, gradients=True)
        got = {"g": geom.g, "gamma": geom.gamma, "riemann_up": geom.riemann_up,
               "driemann_up": geom.driemann_up, "df": df, "dh": dh}
        for name, value in got.items():
            error = np.abs(value - want[name]).max() / (1.0 + np.abs(want[name]).max())
            assert error <= ORACLE_TOL, (name, geom.point.tolist(), error)


def _check_rows_against_geometry_at(chart, points, order=3) -> tuple[list, list]:
    """geometry_chunk at points against geometry_at at each: an evaluating
    row is array_equal to it field by field and a failing row has its
    exception, of the same type and with the same text.  The errors, and the
    number of rows of each evaluator pass geometry_chunk made (0 for a pass
    at a single point)."""
    passes = []
    evaluate = geometry_module._evaluate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry_module, "_evaluate", lambda chart, points, order: (
            passes.append(len(points) if points.ndim > 1 else 0)
            or evaluate(chart, points, order)))
        chunk, errors = geometry_chunk(chart, points, order)
    rows = iter(chunk_rows(chunk) if chunk is not None else [])
    for point, error in zip(points, errors):
        try:
            want = geometry_at(chart, point, order)
        except (GeometryError, ArithmeticError) as exc:
            assert (type(error), str(error)) == (type(exc), str(exc)), point
            continue
        assert error is None, point
        row = next(rows)
        for field in dataclasses.fields(PointGeometry):
            a, b = getattr(row, field.name), getattr(want, field.name)
            assert (a is None and b is None) or np.array_equal(a, b), (point, field.name)
    assert next(rows, None) is None
    return errors, passes


def test_each_row_gets_its_own_error(charts):
    """A batch mixing good rows with rows that fail each check of geometry_at
    gives every row what geometry_at gives at its point: rows outside the
    domain, with a non-finite metric, with a scaled determinant below DET_TOL
    (exp(exp(t)) for 2.04 < t < 6.56), with a near-null u and in a batch
    whose jets raise; the good rows are the geometry_at rows bit for bit.
    A failing row gets its error from the batch's one pass, except in a
    batch whose jets raise: there each row gets its error from a pass of its
    own, and then one pass runs over the rows that evaluate.  A batch of one
    is one pass at its point."""
    chart = chart_from_dict(dict(OVERFLOW_DOC, domain=[[0.0, 8.0], [-1.0, 1.0],
                                                       [-1.0, 1.0], [-1.0, 1.0]]))
    good, bad, outside = [1.0, 0.0, 0.0, 0.0], [7.0, 0.5, 0.0, 0.0], [9.0, 0.0, 0.0, 0.0]
    errors, passes = _check_rows_against_geometry_at(
        chart, np.array([good, outside, bad, [1.5, 0.2, -0.3, 0.1], [4.0, 0.0, 0.0, 0.0], good]))
    assert passes == [6]
    assert [type(err) for err in errors] == [type(None), OutsideDomainError,
                                             DegenerateMetricError, type(None),
                                             DegenerateMetricError, type(None)]
    assert re.search(r"point \[9.0, 0.0, 0.0, 0.0\] outside", str(errors[1]))
    assert re.search(r"non-finite metric .* at \[7.0, 0.5", str(errors[2]))
    assert re.search(r"metric degenerate at \[4.0, 0.0, 0.0, 0.0\] \(scaled", str(errors[4]))
    assert geometry_chunk(chart, np.array([bad, outside, bad]))[0] is None
    for one in (good, bad, outside):      # a batch of one is its point's pass
        errors, passes = _check_rows_against_geometry_at(chart, np.array([one]))
        assert (errors[0] is None) == (one is good) and passes == [0]

    # ln(t) raises for t <= 0, which stops the batch's jets: every row is
    # then evaluated alone for its error, and the two rows that evaluate
    # share one more pass
    log = chart_from_dict(dict(OVERFLOW_DOC, metric=[["-1", None, None, None],
                                                     [None, "2 + ln(t)", None, None],
                                                     [None, None, "1", None],
                                                     [None, None, None, "1"]],
                               domain=[[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]))
    errors, passes = _check_rows_against_geometry_at(
        log, np.array([[0.5, 0.0, 0.0, 0.0], [-0.5, 0.0, 0.0, 0.0], [0.0, 0.1, 0.0, 0.0],
                       [0.8, 0.2, 0.1, 0.0]]))
    assert [type(err) for err in errors] == [type(None), EvalDomainError, EvalDomainError,
                                             type(None)]
    assert passes == [4, 0, 0, 0, 0, 2]

    # u = (1, t / a(t)) is null at t = 1 only
    doc = catalog.get_entry("flrw_open").document
    null = chart_from_dict(dict(doc, name="null_u", options={"normalize_u": True},
                                u=["1", "t/(2 + 0.1*t^2)", "0", "0"]))
    errors, passes = _check_rows_against_geometry_at(
        null, np.array([[2.0, 1.0, 1.2, 1.0], [1.0, 1.0, 1.2, 1.0], [1.0, 9.0, 1.2, 1.0],
                        [0.6, 0.5, 1.0, 1.0]]), order=1)
    assert errors[0] is None and errors[3] is None and passes == [4]
    assert isinstance(errors[1], UnitVectorError) and "near-null" in str(errors[1])
    assert isinstance(errors[2], OutsideDomainError)

    # on a LocallyRW chart
    flrw = charts["flrw_open"]
    points = domain_points(flrw, 6, seed=5)
    points[[1, 4], 0] = [-1.0, 3.0]
    errors, passes = _check_rows_against_geometry_at(flrw, points)
    assert [err is None for err in errors] == [True, False, True, True, False, True]
    assert passes == [6]

    for shape in ((0, 4), (2, 3), (4,)):
        with pytest.raises(GeometryError, match="points must have shape"):
            geometry_chunk(chart, np.full(shape, 1.0))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_fractional_powers_of_huge_bases_evaluate_alike(order):
    """(1e120 (2 + t))^0.01 is about 16 although the cube of its base
    overflows a float: geometry_at evaluates it at every order (at order 3
    the chain rule scales the cube of its gradient, 1e360, by the tiny third
    derivative first), bit for bit as a chunk's row.  t^1.5 at t = 1e210
    overflows to inf: a non-finite metric at a point and in a batch, with
    the same text."""
    doc = dict(OVERFLOW_DOC, metric=[["-1", None, None, None],
                                     [None, "(1e120*(2 + t))^0.01", None, None],
                                     [None, None, "1", None], [None, None, None, "1"]],
               domain=[[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    point = [0.5, 0.5, 0.5, 0.5]
    errors, _ = _check_rows_against_geometry_at(chart_from_dict(doc),
                                                np.array([point, [0.7, 0.1, 0.2, 0.3]]), order)
    assert errors == [None, None]
    assert geometry_at(chart_from_dict(doc), point, order).g[1, 1] == pytest.approx(15.99, abs=0.01)

    doc = dict(doc, metric=[["-1", None, None, None], [None, "t^1.5", None, None],
                            [None, None, "1", None], [None, None, None, "1"]],
               domain=[[1.0, 1e211], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    chart = chart_from_dict(doc)
    for points in ([[2.0, 0.5, 0.5, 0.5], [1e210, 0.5, 0.5, 0.5]], [[1e210, 0.5, 0.5, 0.5]]):
        errors, _ = _check_rows_against_geometry_at(chart, np.array(points), order)
        assert "non-finite metric value or derivative" in str(errors[-1])


def test_normalizing_a_non_finite_u_is_degenerate():
    """An overflowing u on a normalize_u chart is a non-finite u, not a
    near-null one, at a single point and in a batch."""
    doc = dict(OVERFLOW_DOC, metric=[["-1", None, None, None], [None, "1", None, None],
                                     [None, None, "1", None], [None, None, None, "1"]],
               u=["exp(exp(t))", "0", "0", "0"], options={"normalize_u": True})
    chart = chart_from_dict(doc)
    with pytest.raises(DegenerateMetricError, match="non-finite u"):
        geometry_at(chart, [7.0, 0.0, 0.0, 0.0], order=1)
    _, errors = geometry_chunk(chart, [[6.0, 0.0, 0.0, 0.0], [7.0, 0.0, 0.0, 0.0]], order=1)
    assert isinstance(errors[1], DegenerateMetricError) and "non-finite u" in str(errors[1])
