"""Invariant extraction, residual battery and classification."""

import importlib

import numpy as np
import pytest

from rwcert import catalog
from rwcert.certify import (CertificationInputError, CertifyConfig,
                            RESIDUAL_KEYS, certify, extract_invariants,
                            isotropy_residuals, sample_point, structure_residuals)
from rwcert.chart import chart_from_dict
from rwcert.geometry import FrameError, adapted_frame, geometry_at, sectional_curvature

from conftest import domain_points

certify_module = importlib.import_module("rwcert.certify")   # `rwcert.certify` is the function


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


# -- the residual battery against plain loops ----------------------------------


def _reference_unit_spatial(geom, frame, rng, count):
    """One candidate per draw, as the battery's block draws must replay."""
    out = []
    attempts = 0
    while len(out) < count and attempts < 64 * count:
        attempts += 1
        v = rng.normal(size=frame.dim - 1) @ frame.spatial
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        v = v / norm
        q = geom.ip(v, v)
        if abs(q) < certify_module.PIVOT_TOL:
            continue
        out.append(v / np.sqrt(abs(q)))
    if len(out) < count:
        raise FrameError("could not draw enough non-null unit combinations")
    return np.array(out)


def _reference_pairs(geom, frame, rng, count):
    xs = [frame.vectors[i] for i in range(1, frame.dim) for j in range(i + 1, frame.dim)]
    ys = [frame.vectors[j] for i in range(1, frame.dim) for j in range(i + 1, frame.dim)]
    drawn = attempts = 0
    while drawn < count and attempts < 64 * count:
        attempts += 1
        x = _reference_unit_spatial(geom, frame, rng, 1)[0]
        raw = rng.normal(size=frame.dim - 1) @ frame.spatial
        eta_x = 1.0 if geom.ip(x, x) > 0 else -1.0
        y = raw - eta_x * geom.ip(raw, x) * x
        norm = np.linalg.norm(y)
        if norm < 1e-12:
            continue
        y = y / norm
        q = geom.ip(y, y)
        if abs(q) < certify_module.PIVOT_TOL:
            continue
        xs.append(x)
        ys.append(y / np.sqrt(abs(q)))
        drawn += 1
    return np.array(xs), np.array(ys)


def _apply(R, x, y, z):
    """(R(x,y)z)^r = R^r_{smn} z^s x^m y^n by coordinate loops."""
    n = len(x)
    return np.array([sum(R[r][s][m][k] * z[s] * x[m] * y[k]
                         for s in range(n) for m in range(n) for k in range(n))
                     for r in range(n)])


def _oracle_battery(geom, frame, f, h, pool, xs, ys):
    R = geom.riemann_up.tolist()
    u, eps, ip = geom.u, geom.epsilon, geom.ip
    eq13 = max(frame.norm(_apply(R, x, u, u) - f * x) for x in pool)
    eq14 = max(frame.norm(_apply(R, x, y, z) - h * (ip(y, z) * x - ip(x, z) * y))
               for x in pool for y in pool for z in pool)
    a43 = max(frame.norm(_apply(R, x, y, u)) for x in pool for y in pool)
    a44 = max(frame.norm(_apply(R, x, u, y) + eps * f * ip(x, y) * u)
              for x in pool for y in pool)
    skew = max(frame.norm(_apply(R, x, u, y) + _apply(R, y, u, x)) for x, y in zip(xs, ys))
    scale = geom.residual_scale
    return {"eq13": eq13 / scale, "eq14": eq14 / scale, "a43": a43 / scale,
            "a44": a44 / scale, "skewA1": skew / scale}


def test_isotropy_residuals_match_coordinate_loops(charts, monkeypatch):
    monkeypatch.setattr(certify_module, "RANDOM_COMBINATIONS", 3)
    for cid in catalog.CATALOG:
        chart = charts[cid]
        for index, point in enumerate(domain_points(chart, 2, seed=37)):
            geom, frame, (eps, f, h) = _extract(chart, point, seed=index)
            got = isotropy_residuals(geom, frame, f, h, rng=np.random.default_rng(index))
            rng = np.random.default_rng(index)
            pool = np.vstack([frame.spatial, _reference_unit_spatial(geom, frame, rng, 3)])
            xs, ys = _reference_pairs(geom, frame, rng, 3)
            want = _oracle_battery(geom, frame, f, h, pool, xs, ys)
            assert got.keys() == want.keys()
            for key in want:
                assert abs(got[key] - want[key]) <= 1e-12, (cid, key, got[key], want[key])


def _outcome(draw, *args):
    try:
        return draw(*args)
    except FrameError:
        return None


def test_block_draws_replay_one_at_a_time_rejections(charts, monkeypatch):
    """With PIVOT_TOL raised so that many candidates are near-null, the block
    draws accept the same directions, give up at the same attempt, and leave
    the rng in the same state."""
    geom, frame, _ = _extract(charts["schwarzschild_static_observer"], [0.0, 10.0, 1.2, 0.7])
    probe = np.random.default_rng(5).normal(size=(400, 3)) @ frame.spatial
    probe /= np.linalg.norm(probe, axis=1)[:, None]
    q = np.abs(np.einsum('ai,ij,aj->a', probe, geom.g, probe))
    gave_up = 0
    for quantile in (0.3, 0.7, 0.97):
        monkeypatch.setattr(certify_module, "PIVOT_TOL", float(np.quantile(q, quantile)))
        for seed in range(4):
            block, one = np.random.default_rng(seed), np.random.default_rng(seed)
            for draw, reference in ((certify_module._random_unit_spatial, _reference_unit_spatial),
                                    (certify_module._orthonormal_pairs, _reference_pairs)):
                got = _outcome(draw, geom, frame, block, 16)
                want = _outcome(reference, geom, frame, one, 16)
                assert (got is None) == (want is None), (quantile, seed, draw.__name__)
                gave_up += got is None
                if got is not None:
                    np.testing.assert_allclose(np.asarray(got), np.asarray(want),
                                               rtol=1e-13, atol=1e-15)
                assert block.bit_generator.state == one.bit_generator.state, (quantile, seed)
    assert gave_up   # the near-null cap was exercised too


def test_block_draws_give_up_where_one_at_a_time_does(charts, monkeypatch):
    geom, frame, _ = _extract(charts["schwarzschild_static_observer"], [0.0, 10.0, 1.2, 0.7])
    monkeypatch.setattr(certify_module, "PIVOT_TOL", 1e6)     # every candidate near-null
    block, one = np.random.default_rng(2), np.random.default_rng(2)
    with pytest.raises(FrameError):
        certify_module._random_unit_spatial(geom, frame, block, 16)
    with pytest.raises(FrameError):
        _reference_unit_spatial(geom, frame, one, 16)
    assert block.bit_generator.state == one.bit_generator.state
    with pytest.raises(FrameError):
        certify_module._orthonormal_pairs(geom, frame, block, 16)
    with pytest.raises(FrameError):
        _reference_pairs(geom, frame, one, 16)
    assert block.bit_generator.state == one.bit_generator.state
