"""Invariant extraction, residual battery and classification."""

import numpy as np
import pytest

from rwcert import catalog
from rwcert.certify import (CertificationInputError, CertifyConfig,
                            RESIDUAL_KEYS, certify, extract_invariants,
                            isotropy_residuals, sample_point, structure_residuals)
from rwcert.chart import chart_from_dict
from rwcert.geometry import adapted_frame, geometry_at, sectional_curvature

from conftest import domain_points


def _extract(chart, point, seed=0):
    geom = geometry_at(chart, point)
    frame = adapted_frame(geom, rng=np.random.default_rng(seed))
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
    geom = geometry_at(plane_chart, [0.0, 0.0])
    frame = adapted_frame(geom, rng=np.random.default_rng(0))
    with pytest.raises(CertificationInputError):
        extract_invariants(geom, frame)


def test_isotropy_residuals_flrw_small(charts):
    for chart_id in ("flrw_flat_linear", "flrw_closed_osc", "flrw_open"):
        chart = charts[chart_id]
        point = domain_points(chart, 1, seed=8)[0]
        geom, frame, (eps, f, h) = _extract(chart, point)
        res = isotropy_residuals(geom, frame, f, h, rng=np.random.default_rng(1))
        assert max(res.values()) < 1e-9, chart_id


def test_isotropy_residuals_schwarzschild_anisotropy(charts):
    chart = charts["schwarzschild_static_observer"]
    geom, frame, (eps, f, h) = _extract(chart, [0.0, 10.0, 1.2, 0.7])
    res = isotropy_residuals(geom, frame, f, h, rng=np.random.default_rng(1))
    assert res["eq13"] >= 1e-4   # tidal anisotropy scale 3M/r^3 = 3e-3


def test_isotropy_residuals_minkowski_zero(charts):
    geom, frame, (eps, f, h) = _extract(charts["minkowski"], [0.0, 0.0, 0.0, 0.0])
    res = isotropy_residuals(geom, frame, f, h, rng=np.random.default_rng(1))
    assert max(res.values()) == 0.0


def test_structure_residuals_flrw(charts):
    res = structure_residuals(charts["flrw_flat_linear"], [2.0, 0.1, 0.2, 0.3])
    assert res["shear"] is not None
    assert max(v for v in res.values() if v is not None) < 1e-9


def test_structure_residuals_einstein_static(charts):
    res = structure_residuals(charts["einstein_static"], [0.3, 1.0, 1.2, 1.5])
    assert max(v for v in res.values() if v is not None) < 1e-12


def test_goedel_violates_rw_structure(charts):
    chart = charts["goedel"]
    point = [0.0, 0.2, 0.1, -0.3]
    geom, frame, (eps, f, h) = _extract(chart, point)
    iso = isotropy_residuals(geom, frame, f, h, rng=np.random.default_rng(1))
    struct = structure_residuals(chart, point)
    flagged = {**iso, **struct}
    assert max(flagged[k] for k in ("eq13", "eq14", "bianchi32", "closedness")) > 1e-3


def test_sample_point_keys_complete(charts):
    sample = sample_point(charts["flrw_open"], [1.0, 0.8, 1.1, 0.4],
                          rng=np.random.default_rng(0))
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
    for cid in catalog.LOCALLY_RW_IDS:
        chart = charts[cid]
        for point in domain_points(chart, 5, seed=23):
            sample = sample_point(chart, point, rng=np.random.default_rng(3))
            if sample.residuals["eq13"] < 1e-10 and sample.residuals["eq14"] < 1e-10:
                for key in ("a43", "a44", "skewA1"):
                    assert sample.residuals[key] < 1e-8, (cid, key)


def test_extraction_frame_independent(charts):
    for cid in catalog.LOCALLY_RW_IDS:
        chart = charts[cid]
        point = domain_points(chart, 1, seed=29)[0]
        values = []
        for seed in range(10):
            _, _, (eps, f, h) = _extract(chart, point, seed=seed)
            values.append((f, h))
        fs = [v[0] for v in values]
        hs = [v[1] for v in values]
        assert max(fs) - min(fs) < 1e-9, cid
        assert max(hs) - min(hs) < 1e-9, cid


def test_sectional_curvature_restatement(charts):
    """K of planes containing u agrees over frame vectors; same for orthogonal
    spatial pairs."""
    for cid in catalog.LOCALLY_RW_IDS:
        chart = charts[cid]
        point = domain_points(chart, 1, seed=31)[0]
        geom = geometry_at(chart, point)
        frame = adapted_frame(geom, rng=np.random.default_rng(4))
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
