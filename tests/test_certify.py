"""Invariant extraction, residual battery and classification."""

import copy
import importlib
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from rwcert import catalog
from rwcert.certify import (DEFAULT_TOL_MARGIN, CertificationInputError, CertifyConfig,
                            RESIDUAL_KEYS, certify, sample_point)
from rwcert.chart import chart_from_dict
from rwcert.exprs import EvalDomainError
from rwcert.geometry import (Frame, GeometryError, UnitVectorError, adapted_frames, geometry_at,
                             geometry_chunk, take_rows, trace_invariants)

from conftest import domain_points
from oracles import (LOCALLY_RW_IDS, adapted_frame, extract_invariants, ip, isotropy_residuals,
                     sectional_curvature)

certify_module = importlib.import_module("rwcert.certify")   # `rwcert.certify` is the function
geometry_module = importlib.import_module("rwcert.geometry")


def _extract(chart, point):
    geom = geometry_at(chart, point)
    frame = adapted_frame(geom)
    return geom, frame, extract_invariants(geom, frame)


def test_extract_minkowski(charts):
    _, _, (eps, f, h) = _extract(charts["minkowski"], [0.0, 1.0, -1.0, 0.5])
    assert (eps, f, h) == (-1, 0.0, 0.0)


def test_extract_flrw_flat(charts):
    _, _, (eps, f, h) = _extract(charts["flrw_flat_linear"], [2.0, 0.1, 0.2, 0.3])
    assert eps == -1
    assert f == pytest.approx(0.0, abs=1e-13)
    assert h == pytest.approx(0.25, abs=1e-12)


def test_extract_desitter(charts):
    _, _, (eps, f, h) = _extract(charts["desitter_flat"], [0.0, 0.1, 0.2, 0.3])
    assert eps == -1
    assert f == pytest.approx(-1.0, abs=1e-11)
    assert h == pytest.approx(1.0, abs=1e-11)
    assert h - eps * f == pytest.approx(0.0, abs=1e-11)


def test_extract_requires_dim4(plane_chart):
    with pytest.raises(CertificationInputError, match="needs dim >= 4"):
        sample_point(plane_chart, [0.0, 0.0])


def test_isotropy_residuals_flrw_small(charts):
    for chart_id in ("flrw_flat_linear", "flrw_closed_osc", "flrw_open"):
        chart = charts[chart_id]
        point = domain_points(chart, 1, seed=8)[0]
        geom, frame, (eps, f, h) = _extract(chart, point)
        res = isotropy_residuals(geom, frame, f, h)
        assert max(res.values()) < 1e-9, chart_id


def test_isotropy_residuals_schwarzschild_anisotropy(charts):
    chart = charts["schwarzschild_static_observer"]
    geom, frame, (eps, f, h) = _extract(chart, [0.0, 10.0, 1.2, 0.7])
    res = isotropy_residuals(geom, frame, f, h)
    assert res["eq13"] >= 1e-4   # tidal anisotropy scale 3M/r^3 = 3e-3


def test_isotropy_residuals_minkowski_zero(charts):
    geom, frame, (eps, f, h) = _extract(charts["minkowski"], [0.0, 0.0, 0.0, 0.0])
    res = isotropy_residuals(geom, frame, f, h)
    assert max(res.values()) == 0.0


def _structure(chart, point) -> dict:
    """The six differential residuals of the battery at one point."""
    residuals = sample_point(chart, point).residuals
    return {key: residuals[key] for key in RESIDUAL_KEYS[5:]}


def test_structure_residuals_flrw(charts):
    res = _structure(charts["flrw_flat_linear"], [2.0, 0.1, 0.2, 0.3])
    assert res["shear"] is not None
    assert max(v for v in res.values() if v is not None) < 1e-9


def test_structure_residuals_einstein_static(charts):
    res = _structure(charts["einstein_static"], [0.3, 1.0, 1.2, 1.5])
    assert max(v for v in res.values() if v is not None) < 1e-12


def test_goedel_violates_rw_structure(charts):
    chart = charts["goedel"]
    point = [0.0, 0.2, 0.1, -0.3]
    geom, frame, (eps, f, h) = _extract(chart, point)
    iso = isotropy_residuals(geom, frame, f, h)
    struct = _structure(chart, point)
    flagged = {**iso, **struct}
    assert max(flagged[k] for k in ("eq13", "eq14", "bianchi32", "closedness")) > 1e-3


def test_sample_point_keys_complete(charts):
    sample = sample_point(charts["flrw_open"], [1.0, 0.8, 1.1, 0.4])
    assert tuple(sample.residuals) == RESIDUAL_KEYS
    assert all(v is None or (np.isfinite(v) and v >= 0)
               for v in sample.residuals.values())
    assert sample.epsilon in (-1, 1)


def test_certify_catalog_expected(certificates):
    for cid, cert in certificates.items():
        assert cert.classification == catalog.get_entry(cid).expected, cid


def test_certify_constant_curvature_invariant(certificates):
    for cid in ("minkowski", "desitter_flat"):
        cert = certificates[cid]
        assert cert.max_margin < 1e-9
        assert cert.constant_curvature_max < 1e-8


def test_certify_locally_rw_invariant(certificates):
    for cid, cert in certificates.items():
        if cert.classification != "LocallyRW":
            continue
        assert cert.min_margin > cert.tol_margin
        for key, value in cert.residual_max.items():
            # warped-product charts sit far below even the 1e-8 bound
            assert value is None or value < 1e-8, (cid, key)


def test_certify_rejects_low_dimension(plane_chart):
    with pytest.raises(CertificationInputError):
        certify(plane_chart, CertifyConfig(samples=2))


def test_certify_degenerate_on_non_unit_u():
    import json
    doc = json.loads(catalog.get_entry("flrw_flat_linear").source)
    doc["u"] = ["2", "0", "0", "0"]
    doc["name"] = "bad_u"
    cert = certify(chart_from_dict(doc), CertifyConfig(samples=6))
    assert cert.classification == "Degenerate"
    assert cert.degenerate_points


def test_normalize_u_rescues_scaled_field():
    import json
    doc = json.loads(catalog.get_entry("flrw_flat_linear").source)
    doc["u"] = ["2", "0", "0", "0"]
    doc["options"] = {"normalize_u": True}
    doc["name"] = "rescaled_u"
    cert = certify(chart_from_dict(doc), CertifyConfig(samples=6))
    assert cert.classification == "LocallyRW"


def test_implication_eq13_eq14_force_consequences(charts):
    """Small eq13/eq14 must force a43/a44/skewA1 small (checked, not assumed)."""
    for cid in LOCALLY_RW_IDS:
        chart = charts[cid]
        for point in domain_points(chart, 5, seed=23):
            sample = sample_point(chart, point)
            if sample.residuals["eq13"] < 1e-10 and sample.residuals["eq14"] < 1e-10:
                for key in ("a43", "a44", "skewA1"):
                    assert sample.residuals[key] < 1e-8, (cid, key)


def test_extraction_frame_independent(charts):
    """f and h read off the adapted frame equal those read off the frame's
    spatial vectors turned by random rotations (the fibres of these charts
    are definite, so any rotation keeps the frame orthonormal)."""
    rng = np.random.default_rng(29)
    for cid in LOCALLY_RW_IDS:
        chart = charts[cid]
        point = domain_points(chart, 1, seed=29)[0]
        geom, frame, (_, f, h) = _extract(chart, point)
        values = [(f, h)]
        for _ in range(10):
            turn = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            vectors = np.vstack([frame.vectors[:1], turn @ frame.spatial])
            _, f, h = extract_invariants(geom, Frame(vectors, frame.etas, geom.g))
            values.append((f, h))
        fs = [v[0] for v in values]
        hs = [v[1] for v in values]
        assert max(fs) - min(fs) < 1e-9, cid
        assert max(hs) - min(hs) < 1e-9, cid


def test_sectional_curvature_restatement(charts):
    """K of planes containing u agrees over frame vectors; same for orthogonal
    spatial pairs."""
    for cid in LOCALLY_RW_IDS:
        chart = charts[cid]
        point = domain_points(chart, 1, seed=31)[0]
        geom = geometry_at(chart, point)
        frame = adapted_frame(geom)
        with_u = [sectional_curvature(geom, e, geom.u) for e in frame.spatial]
        assert max(with_u) - min(with_u) < 1e-9, cid
        spatial = [sectional_curvature(geom, frame.spatial[i], frame.spatial[j])
                   for i in range(3) for j in range(i + 1, 3)]
        assert max(spatial) - min(spatial) < 1e-9, cid


def test_certify_deterministic_and_thread_invariant(charts):
    chart = charts["flrw_open"]
    one = certify(chart, CertifyConfig(samples=12, seed=5, threads=1))
    two = certify(chart, CertifyConfig(samples=12, seed=5, threads=4))
    assert one.residual_max == two.residual_max
    assert one.min_margin == two.min_margin
    assert one.classification == two.classification


def test_certify_margin_straddle_is_degenerate():
    """A warped product whose margin h - eps f crosses zero inside the domain
    (a = 1 + r^2 has h = eps f exactly at r = 1).  With a margin tolerance wide
    enough that samples land on both sides of the band, every residual still
    passes but the verdict must be Degenerate, naming the offenders."""
    doc = {
        "name": "margin_straddle",
        "dim": 4,
        "coords": ["r", "x", "y", "z"],
        "metric": [["1", None, None, None],
                   [None, "(1 + r^2)^2", None, None],
                   [None, None, "(1 + r^2)^2", None],
                   [None, None, None, "(1 + r^2)^2"]],
        "u": ["1", "0", "0", "0"],
        "params": {},
        "domain": [[0.8, 1.2], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
        "options": {},
    }
    cert = certify(chart_from_dict(doc), CertifyConfig(samples=64, seed=0,
                                                       tol_margin=0.05))
    assert cert.min_margin < 0.05 < cert.max_margin
    assert cert.classification == "Degenerate"
    assert any("margin" in note for note in cert.notes)


def test_certify_all_points_degenerate_has_no_margins():
    """Every point fails the unit-u precondition: no margin was measured."""
    doc = {
        "name": "nonunit", "dim": 4, "coords": ["t", "x", "y", "z"],
        "metric": [["-1", None, None, None], [None, "1", None, None],
                   [None, None, "1", None], [None, None, None, "1"]],
        "u": ["2", "0", "0", "0"], "params": {},
        "domain": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]], "options": {},
    }
    cert = certify(chart_from_dict(doc), CertifyConfig(samples=6, seed=0))
    assert cert.classification == "Degenerate"
    assert cert.min_margin is None and cert.max_margin is None
    assert len(cert.degenerate_points) == 6


# -- the residual battery against plain loops ----------------------------------


def _apply(R, x, y, z):
    """(R(x,y)z)^r = R^r_{smn} z^s x^m y^n by coordinate loops (on Python
    floats, which round as numpy's scalars do but loop faster)."""
    n = len(x)
    x, y, z = x.tolist(), y.tolist(), z.tolist()
    return np.array([sum(R[r][s][m][k] * z[s] * x[m] * y[k]
                         for s in range(n) for m in range(n) for k in range(n))
                     for r in range(n)])


def _oracle_battery(geom, frame, f, h):
    """The five algebraic residuals by loops over spatial frame indices: each
    deviation vector formed in coordinates, and the root of the sum of its
    squared frame norms."""
    R = geom.riemann_up.tolist()
    u, eps, n = geom.u, geom.epsilon, geom.dim
    e, eta, spatial = frame.spatial, frame.etas[1:], range(n - 1)

    def norm(vectors):
        return np.sqrt(sum(frame.norm(v)**2 for v in vectors)) / geom.residual_scale

    S = {(i, j): _apply(R, e[i], u, e[j]) + _apply(R, e[j], u, e[i])
         for i in spatial for j in spatial}
    trace = sum(eta[i] * S[i, i] for i in spatial)
    return {
        "eq13": norm(_apply(R, e[i], u, u) - f * e[i] for i in spatial),
        "eq14": norm(_apply(R, e[i], e[j], e[k])
                     - h * (ip(geom, e[j], e[k]) * e[i] - ip(geom, e[i], e[k]) * e[j])
                     for i in spatial for j in spatial for k in spatial),
        "a43": norm(_apply(R, e[i], e[j], u) for i in spatial for j in spatial),
        "a44": norm(_apply(R, e[i], u, e[j]) + eps * f * ip(geom, e[i], e[j]) * u
                    for i in spatial for j in spatial),
        "skewA1": norm(S[i, j] - trace * ip(geom, e[i], e[j]) / (n - 1)
                       for i in spatial for j in spatial),
    }


# a warped product of signature (2,2): its fibre -t^2 dx^2 + t^2 (dy^2 + dz^2) is indefinite
_NEUTRAL_DOC = {
    "name": "neutral_warped", "dim": 4, "coords": ["t", "x", "y", "z"],
    "metric": [["-1", None, None, None], [None, "-t^2", None, None],
               [None, None, "t^2", None], [None, None, None, "t^2"]],
    "u": ["1", "0", "0", "0"],
    "domain": [[1.5, 3.5], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]}


def test_isotropy_residuals_match_coordinate_loops(charts, pulled_back_charts):
    """The algebraic residuals equal the frame-index loops of _oracle_battery
    to 1e-12 at two points of every catalog chart, of each pulled-back
    chart and of the (2,2) warped product."""
    cases = dict(charts)
    cases.update({f"{cid} pulled back": chart for cid, chart in pulled_back_charts.items()})
    cases["neutral"] = chart_from_dict(_NEUTRAL_DOC)
    for label, chart in cases.items():
        for point in domain_points(chart, 2, seed=37):
            geom = geometry_at(chart, point)
            frame = adapted_frame(geom)
            f, h = trace_invariants(geom)
            got, want = isotropy_residuals(geom, frame, f, h), _oracle_battery(geom, frame, f, h)
            assert got.keys() == want.keys()
            for key in want:
                assert abs(got[key] - want[key]) <= 1e-12, (label, key, got[key], want[key])


_MIXED_CHARTS = {
    # exp(exp(t)) is fine below t ~ 2.04, has a vanishing scaled determinant
    # above it and overflows above t ~ 6.56
    "overflow": {
        "name": "overflow", "dim": 4, "coords": ["t", "x", "y", "z"],
        "metric": [["-1", None, None, None], [None, "exp(exp(t))", None, None],
                   [None, None, "1", None], [None, None, None, "1"]],
        "u": ["1", "0", "0", "0"],
        "domain": [[0.0, 8.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]},
    # the geometry of every point is fine; every sample fails on the unit u
    "u_equals_2": {
        "name": "u_equals_2", "dim": 4, "coords": ["t", "x", "y", "z"],
        "metric": [["-1", None, None, None], [None, "1", None, None],
                   [None, None, "1", None], [None, None, None, "1"]],
        "u": ["2", "0", "0", "0"],
        "domain": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]},
}


def _sample_point_loop(chart, config):
    """certify's samples, drawn as certify draws them and each evaluated by
    sample_point: the reference for the chunked evaluation."""
    lows = np.array([lo for lo, _ in chart.domain])
    highs = np.array([hi for _, hi in chart.domain])
    points = np.random.default_rng(config.seed).uniform(lows, highs,
                                                        size=(config.samples, chart.dim))
    samples, degenerate = [], []
    for point in points:
        try:
            samples.append(sample_point(chart, point, tol_margin=config.tol_margin))
        except (GeometryError, EvalDomainError, ZeroDivisionError) as err:
            degenerate.append((point.tolist(), str(err)))
    return samples, degenerate


@pytest.mark.parametrize("samples", [1, 15, 16, 17, 33])
def test_chunked_certify_equals_a_sample_point_loop(charts, monkeypatch, samples):
    """Chunks of CHUNK points through geometry_chunk give the certificate of
    chunks of one point, and that of one sample_point per point, exactly,
    whatever the sample count's remainder; a point that fails inside a chunk
    keeps its own reason while its neighbours keep their results."""
    assert certify_module.CHUNK == 16
    cases = dict(charts)
    cases.update({name: chart_from_dict(doc) for name, doc in _MIXED_CHARTS.items()})
    for chart_id, chart in cases.items():
        config = CertifyConfig(samples=samples, seed=samples)
        cert = certify(chart, config)
        with monkeypatch.context() as patch:
            patch.setattr(certify_module, "CHUNK", 1)
            assert certify(chart, config) == cert, chart_id
        ref, degenerate = _sample_point_loop(chart, config)
        assert cert.degenerate_points == degenerate, chart_id
        for key in RESIDUAL_KEYS:
            values = [s.residuals[key] for s in ref if s.residuals[key] is not None]
            assert cert.residual_max[key] == max(values, default=None), (chart_id, key)
        margins = [s.nondegeneracy for s in ref]
        assert (cert.min_margin, cert.max_margin, cert.constant_curvature_max) == \
            (min(margins, default=None), max(margins, default=None),
             max((s.cc_residual for s in ref), default=None)), chart_id
        if chart_id == "overflow" and samples == 33:     # chunks mixing both kinds
            assert 0 < len(degenerate) < samples


# -- the chunk battery against the per-sample code ---------------------------------


def _assert_frames(chunk, vectors, etas, label):
    """Every row's frame is adapted to its u and orthonormal: e_0 = u/sqrt|q|
    with q = g(u,u), max|V g V^T - diag etas| <= 1e-13, and as many etas of
    each sign as g has eigenvalues of that sign."""
    for k, (g, u, V, eta) in enumerate(zip(chunk.g, chunk.u, vectors, etas)):
        np.testing.assert_allclose(V[0], u / np.sqrt(abs(u @ g @ u)), rtol=1e-14, atol=0,
                                   err_msg=f"{label} row {k}")
        assert np.abs(V @ g @ V.T - np.diag(eta)).max() <= 1e-13, (label, k)
        assert sorted(eta) == sorted(np.sign(np.linalg.eigvalsh(g))), (label, k)


def _reference_sample(geom, frame, tol_margin):
    """f, h, |h - eps f|, the constant-curvature residual and the six
    structure residuals by the per-sample formulas, f and h the trace
    invariants."""
    n, g, u, du, eps = geom.dim, geom.g, geom.u, geom.du, geom.epsilon
    R, R_low = geom.riemann_up, geom.riemann_low
    ric = np.einsum('rsrn->sn', R)
    dric = np.einsum('prsrn->psn', geom.driemann_up)
    pi = geom.g_inv - eps * np.outer(u, u)
    dpi = geom.dg_inv - eps * (np.einsum('pa,b->pab', du, u) + np.einsum('a,pb->pab', u, du))
    f = float(u @ ric @ u) / (n - 1)
    h = float(np.einsum('rm,sn,rsmn->', pi, pi, R_low)) / ((n - 1) * (n - 2))
    scale = 1.0 + float(np.abs(R_low).max())
    model = h * (np.einsum('rm,sn->rsmn', g, g) - np.einsum('rn,sm->rsmn', g, g))
    cc = float(np.abs(R_low - model).max()) / scale
    df = (np.einsum('psn,s,n->p', dric, u, u) + np.einsum('sn,ps,n->p', ric, du, u)
          + np.einsum('sn,s,pn->p', ric, u, du)) / (n - 1)
    dh = (np.einsum('prm,sn,rsmn->p', dpi, pi, R_low) + np.einsum('rm,psn,rsmn->p', pi, dpi, R_low)
          + np.einsum('rm,sn,prsmn->p', pi, pi, geom.driemann_low)) / ((n - 1) * (n - 2))

    margin = h - eps * f
    spatial = frame.spatial
    nabla = du + np.einsum('nml,l->mn', geom.gamma, u)
    accel = u @ nabla
    M = (spatial @ (nabla @ g)) @ spatial.T
    shear = None
    if abs(margin) > tol_margin:
        coeff = float(dh @ u) / (2.0 * margin)
        shear = float(np.linalg.norm(M.T + coeff * (spatial @ g @ spatial.T), axis=(0, 1))) / scale
    domega = (np.einsum('m,n->mn', dh - eps * df, g @ u)
              + margin * (np.einsum('mns,s->mn', geom.dg, u) + np.einsum('ns,ms->mn', g, du)))
    structure = {
        "bianchi31": float(np.linalg.norm(spatial @ df + margin * (spatial @ g @ accel),
                                          axis=0)) / scale,
        "bianchi32": float(np.linalg.norm(M - M.T, axis=(0, 1))) / scale,
        "bianchi33": float(np.linalg.norm(spatial @ dh, axis=0)) / scale,
        "shear": shear,
        "closedness": float(np.abs(domega - domega.T).max()) / scale,
        "geodesy": float(np.linalg.norm(frame.etas * (frame.vectors @ g @ accel))) / scale,
    }
    return f, h, abs(margin), cc, structure


def test_chunk_battery_matches_the_per_sample_formulas(charts):
    """One battery call over 16 points of each catalog chart, row by row: the
    frames are adapted and orthonormal, f, h, margin, constant-curvature and
    structure residuals equal the per-sample formulas (the arithmetic is the
    same), and the algebraic residuals match the frame-index loops of
    _oracle_battery to 1e-12."""
    for cid in catalog.CATALOG:
        chart = charts[cid]
        chunk, _ = geometry_chunk(chart, domain_points(chart, 16, seed=41))
        vectors, etas, errors = adapted_frames(chunk.g, chunk.u)
        results = certify_module._battery(chunk, DEFAULT_TOL_MARGIN)
        assert errors == [None] * 16, cid
        _assert_frames(chunk, vectors, etas, cid)
        for k, got in enumerate(results):
            geom = take_rows(chunk, k)
            frame = Frame(vectors[k], etas[k], geom.g)
            f, h, margin, cc, structure = _reference_sample(geom, frame, DEFAULT_TOL_MARGIN)
            assert (got.epsilon, got.f, got.h, got.nondegeneracy, got.cc_residual) == \
                (geom.epsilon, f, h, margin, cc), (cid, k)
            assert {key: got.residuals[key] for key in structure} == structure, (cid, k)
            want = _oracle_battery(geom, frame, f, h)
            for key in want:
                assert abs(got.residuals[key] - want[key]) <= 1e-12, (cid, k, key)


def test_frames_are_adapted_and_orthonormal(pulled_back_charts):
    """adapted_frames on 64 points of each chart in generic coordinates and
    of a (2,2) warped product (the battery test checks the catalog's)."""
    cases = {f"{cid} pulled back": chart for cid, chart in pulled_back_charts.items()}
    cases["neutral"] = chart_from_dict(_NEUTRAL_DOC)
    for label, chart in cases.items():
        chunk, _ = geometry_chunk(chart, domain_points(chart, 64, seed=53))
        vectors, etas, errors = adapted_frames(chunk.g, chunk.u)
        assert errors == [None] * len(chunk.g), label
        _assert_frames(chunk, vectors, etas, label)


def test_pulled_back_charts_certify_as_the_catalog_does(pulled_back_charts, certificates):
    """The verdict is coordinate-free: each catalog chart pulled back by a map
    that mixes time and space is LocallyRW with the catalog epsilon at 256
    points for seeds 0-3, and every residual stays at rounding."""
    for cid, chart in pulled_back_charts.items():
        for seed in range(4):
            cert = certify(chart, CertifyConfig(samples=256, seed=seed))
            assert (cert.classification, cert.epsilon) == \
                ("LocallyRW", certificates[cid].epsilon), (cid, seed)
            assert max(cert.residual_max.values()) <= 1e-12, (cid, seed, cert.residual_max)


def test_a_neutral_signature_chart_is_locally_rw():
    chart = chart_from_dict(_NEUTRAL_DOC)
    for seed in range(3):
        cert = certify(chart, CertifyConfig(samples=256, seed=seed))
        assert (cert.classification, cert.epsilon) == ("LocallyRW", -1), seed


def test_residuals_do_not_depend_on_the_spatial_frame(charts, monkeypatch):
    """Every residual and the margin of 16 points of each catalog chart stay
    the same, to 1e-12 of the larger of 1 and the value, when each point's
    spatial frame is turned by a random orthogonal matrix: the catalog's
    fibres are definite, so the turned frame is still orthonormal.  (The
    residuals are relative to 1 + max|R|, so 1e-12 is relative either way.)"""
    rng = np.random.default_rng(59)
    real = certify_module.adapted_frames
    for cid in catalog.CATALOG:
        chart = charts[cid]
        chunk, _ = geometry_chunk(chart, domain_points(chart, 16, seed=59))
        plain = certify_module._battery(chunk, DEFAULT_TOL_MARGIN)
        for _ in range(4):
            turns = np.linalg.qr(rng.normal(size=(16, 3, 3)))[0]

            def turned(g, u):
                vectors, etas, errors = real(g, u)
                return (np.concatenate([vectors[:, :1], turns @ vectors[:, 1:]], axis=1),
                        etas, errors)

            monkeypatch.setattr(certify_module, "adapted_frames", turned)
            results = certify_module._battery(chunk, DEFAULT_TOL_MARGIN)
            monkeypatch.undo()
            for k, (want, got) in enumerate(zip(plain, results)):
                for key in RESIDUAL_KEYS + ("margin",):
                    a, b = (one.residuals.get(key, one.nondegeneracy) for one in (want, got))
                    assert (a is None) == (b is None), (cid, k, key)
                    assert a is None or abs(a - b) <= 1e-12 * max(1.0, a), (cid, k, key, a, b)


def _bump_chart():
    """flrw_flat_linear with g_xx times 1 + 1e-4 exp(-|x - c|^2 / 0.03^2),
    c = (0.3, 0.2, 0.1): RW but for a bump that uniform samples miss."""
    doc = copy.deepcopy(catalog.get_entry("flrw_flat_linear").document)
    doc["name"] = "bump"
    doc["metric"][1][1] = ("(t)^2*(1 + 1e-4*exp(-((x - 0.3)^2 + (y - 0.2)^2 + (z - 0.1)^2)"
                           "/0.03^2))")
    return chart_from_dict(doc)


def test_a_residual_bounds_its_unit_direction_values(charts):
    """On a definite fibre each residual, a Frobenius norm of frame
    components, bounds its deviation at any unit directions: at points of
    schwarzschild, goedel and the bump chart (near the bump), no value at
    64 random unit spatial x, y, z, nor at 64 random orthonormal pairs for
    skewA1, exceeds the reported residual times 1 + 1e-12.  A residual at
    the rounding floor (a43, which vanishes on these charts) bounds them as
    1e-12 does: both sides are rounding there."""
    rng = np.random.default_rng(67)
    cases = [(charts[cid], domain_points(charts[cid], 3, seed=67))
             for cid in ("schwarzschild_static_observer", "goedel")]
    cases.append((_bump_chart(), [[2.5, *(np.array([0.3, 0.2, 0.1]) + 0.02 * rng.normal(size=3))]
                                  for _ in range(3)]))
    for chart, points in cases:
        for point in points:
            sample, geom = sample_point(chart, point), geometry_at(chart, point)
            frame, R, u = adapted_frame(geom), geom.riemann_up, geom.u
            eps, f, h = sample.epsilon, sample.f, sample.h
            assert sample.residuals["eq14"] > 1e-6, (chart.name, point)

            def apply(x, y, z):
                return np.einsum('rsmn,s,m,n->r', R, z, x, y)

            for _ in range(64):
                x, y, z = (c / np.linalg.norm(c) @ frame.spatial for c in rng.normal(size=(3, 3)))
                p, q = np.linalg.qr(rng.normal(size=(3, 2)))[0].T @ frame.spatial
                deviations = {
                    "eq13": apply(x, u, u) - f * x,
                    "eq14": apply(x, y, z) - h * (ip(geom, y, z) * x - ip(geom, x, z) * y),
                    "a43": apply(x, y, u),
                    "a44": apply(x, u, y) + eps * f * ip(geom, x, y) * u,
                    "skewA1": apply(p, u, q) + apply(q, u, p),
                }
                for key, deviation in deviations.items():
                    got = frame.norm(deviation) / geom.residual_scale
                    bound = max(sample.residuals[key] * (1 + 1e-12), 1e-12)
                    assert got <= bound, (chart.name, key, got, bound)


_FLRW5_DOC = {
    "name": "flrw5", "dim": 5, "coords": ["t", "x", "y", "z", "w"],
    "metric": [["-1" if i == j == 0 else "(1 + 0.2*t^2)^2" if i == j else None
                for j in range(5)] for i in range(5)],
    "u": ["1", "0", "0", "0", "0"],
    "domain": [[0.5, 2.5]] + [[-1.0, 1.0]] * 4}


def test_a_five_dimensional_flrw_chart_is_locally_rw():
    """A flat FLRW chart of dimension 5, a = 1 + t^2/5: LocallyRW with
    eps = -1 at seeds 0-2, every residual at rounding, and (f, h) equal to
    the closed forms (-a''/a, a'^2/a^2) to 1e-12."""
    chart = chart_from_dict(_FLRW5_DOC)
    for seed in range(3):
        cert = certify(chart, CertifyConfig(samples=256, seed=seed))
        assert (cert.classification, cert.epsilon) == ("LocallyRW", -1), seed
        assert max(cert.residual_max.values()) <= 1e-12, (seed, cert.residual_max)
    for point in domain_points(chart, 8, seed=71):
        sample, t = sample_point(chart, point), point[0]
        a = 1 + 0.2 * t**2
        assert abs(sample.f + 0.4 / a) <= 1e-12, point
        assert abs(sample.h - (0.4 * t / a)**2) <= 1e-12, point


def test_a_near_null_complement_is_degenerate():
    """g_zz = 1e-8 passes the determinant check, but u's complement holds a
    near-null direction: every point is Degenerate with the FrameError text,
    and the rows that fail warn of nothing."""
    doc = dict(_NEUTRAL_DOC, name="thin_z",
               metric=[["-1", None, None, None], [None, "1", None, None],
                       [None, None, "1", None], [None, None, None, "1e-8"]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify(chart_from_dict(doc), CertifyConfig(samples=16))
    assert cert.classification == "Degenerate"
    assert {reason for _, reason in cert.degenerate_points} == {
        "near-null direction orthogonal to u (|g(w,w)| = 1.000e-08 for a coordinate-unit w)"}


def _same(got, want) -> bool:
    """Two battery results agree: the same error text, or equal samples."""
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return (np.array_equal(got.point, want.point)
            and (got.epsilon, got.f, got.h, got.nondegeneracy, got.cc_residual, got.residuals)
            == (want.epsilon, want.f, want.h, want.nondegeneracy, want.cc_residual,
                want.residuals))


def test_one_battery_call_per_chunk(monkeypatch):
    """certify(33) on the overflow chart makes one battery call per chunk
    with points that evaluate, over exactly those points, also in the chunks
    with points that fail; the degenerate points are those of a sample_point
    loop."""
    chart = chart_from_dict(_MIXED_CHARTS["overflow"])
    config = CertifyConfig(samples=33, seed=33)
    battery, chunk_geometry = certify_module._battery, certify_module.geometry_chunk
    calls, failing = [], []

    def spy_battery(chunk, tol_margin):
        calls.append(chunk.point.tolist())
        return battery(chunk, tol_margin)

    def spy_chunk(*args, **kwargs):
        chunk, errors = chunk_geometry(*args, **kwargs)
        failing.append(any(err is not None for err in errors))
        return chunk, errors

    samples, degenerate = _sample_point_loop(chart, config)
    monkeypatch.setattr(certify_module, "_battery", spy_battery)
    monkeypatch.setattr(certify_module, "geometry_chunk", spy_chunk)
    cert = certify(chart, config)
    assert cert.degenerate_points == degenerate
    bad = {tuple(point) for point, _ in degenerate}
    points = [p.tolist() for p in np.random.default_rng(np.random.SeedSequence(33)).uniform(
        [0.0, -1.0, -1.0, -1.0], [8.0, 1.0, 1.0, 1.0], size=(33, 4))]
    chunks = [[p for p in points[start:start + 16] if tuple(p) not in bad]
              for start in range(0, 33, 16)]
    assert calls == [chunk for chunk in chunks if chunk]
    assert any(failing) and len(samples) == sum(map(len, calls))


def test_failing_points_cost_no_geometry_at_call(monkeypatch):
    """certify(256, seed 3) on the overflow chart makes one geometry_chunk call
    per chunk, each one evaluator pass over its 16 rows, and no geometry_at
    call: its 193 degenerate points (143 with a degenerate metric, 50 with a
    non-finite one) get their reasons, those of a sample_point loop, from
    the chunk's own pass."""
    chart = chart_from_dict(_MIXED_CHARTS["overflow"])
    config = CertifyConfig(samples=256, seed=3)
    _, degenerate = _sample_point_loop(chart, config)
    calls = {"geometry_chunk": 0, "geometry_at": 0}
    for module, name in ((certify_module, "geometry_chunk"), (geometry_module, "geometry_at")):
        def counting(*args, real=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    passes, evaluate = [], geometry_module._evaluate
    monkeypatch.setattr(geometry_module, "_evaluate", lambda chart, points, order: (
        passes.append(points.shape) or evaluate(chart, points, order)))
    cert = certify(chart, config)
    assert calls == {"geometry_chunk": 16, "geometry_at": 0}
    assert passes == [(16, 4)] * 16
    assert cert.degenerate_points == degenerate
    reasons = Counter(reason.split(" at ")[0] for _, reason in degenerate)
    assert reasons == {"metric degenerate": 143, "non-finite metric value or derivative": 50}


def test_a_failing_row_leaves_its_neighbours_alone(charts, monkeypatch):
    """A unit-field failure forced on row 5 of a chunk makes that point
    Degenerate with adapted_frame's message; the other rows give what
    sample_point gives, in the battery and in certify."""
    chart = charts["goedel"]        # off-diagonal: rounding follows the memory layout
    points = domain_points(chart, 16, seed=43)
    real = certify_module.geometry_chunk

    def doubled_u(*args, **kwargs):
        chunk, errors = real(*args, **kwargs)
        chunk.u[5] *= 2.0
        return chunk, errors

    chunk, _ = doubled_u(chart, points)
    with pytest.raises(UnitVectorError) as want:
        adapted_frame(take_rows(chunk, 5))
    results = certify_module._battery(chunk, DEFAULT_TOL_MARGIN)
    assert _same(results[5], want.value)
    for k, point in enumerate(points):
        if k != 5:
            assert _same(results[k], sample_point(chart, point))

    monkeypatch.setattr(certify_module, "geometry_chunk", doubled_u)
    config = CertifyConfig(samples=16, seed=3)
    cert = certify(chart, config)
    monkeypatch.undo()
    samples, _ = _sample_point_loop(chart, config)
    assert len(cert.degenerate_points) == 1
    point, reason = cert.degenerate_points[0]
    assert point == samples[5].point.tolist() and reason.startswith("u is not unit")
    assert reason.endswith("(set options.normalize_u to rescale pointwise)")
    del samples[5]
    assert cert.residual_max == {key: max((s.residuals[key] for s in samples
                                           if s.residuals[key] is not None), default=None)
                                 for key in RESIDUAL_KEYS}


def test_certify_memory_stays_within_its_guard(charts):
    """certify(256) on flrw_closed_osc peaks at no more than 2.7 MB of traced
    allocations (1.72 MB by chunks of 16 points)."""
    chart = charts["flrw_closed_osc"]
    certify(chart, CertifyConfig(samples=16))
    tracemalloc.start()
    try:
        certify(chart, CertifyConfig(samples=256, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.7e6, peak
