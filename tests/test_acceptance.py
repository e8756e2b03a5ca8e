"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Positive-certification oracles are frozen closed forms (verified
by hand/CAS before the build): under this library's sign convention a warped
product eps dt^2 + a^2 sigma_k has f = -a''/a and h = (a'^2 + k)/a^2 for
eps = -1, and h = -a'^2/a^2 (k = 0) for the Riemannian eps = +1 entry.
"""

import subprocess
import sys

import numpy as np
import pytest

from rwcert import catalog
from rwcert.certify import CertifyConfig, certify
from rwcert.exprs import eval_expr
from rwcert.foliation import (loop_residual, same_slice_points,
                              scale_factor_profile, slice_curvature, time_value)
from rwcert.geometry import geometry_at
from rwcert.jets import Jet3
from rwcert.transport import CurveSpec, gram_drift, transport

from conftest import FD_STEPS, domain_points, draw_expr_case, eval_real, fd_partial
from oracles import (adapted_frame, extract_invariants, metric_compatibility_residual,
                     riemann_symmetry_residuals, second_bianchi_residual)

POSITIVE_IDS = ("flrw_flat_linear", "flrw_closed_osc", "flrw_open",
                "einstein_static", "riemannian_grw")

# closed-form (f, h) as functions of the leading coordinate
ORACLES = {
    "flrw_flat_linear": lambda t: (0.0, 1.0 / t**2),
    "flrw_closed_osc": lambda t: (0.5 * np.cos(t) / (2 + 0.5 * np.cos(t)),
                                  (0.25 * np.sin(t)**2 + 1) / (2 + 0.5 * np.cos(t))**2),
    "flrw_open": lambda t: (-0.2 / (2 + 0.1 * t**2),
                            (0.04 * t**2 - 1) / (2 + 0.1 * t**2)**2),
    "einstein_static": lambda t: (0.0, 0.25),
    "riemannian_grw": lambda r: (-2.0 / (1 + r**2), -4.0 * r**2 / (1 + r**2)**2),
}

BASES = {
    "flrw_flat_linear": [2.0, 0.0, 0.0, 0.0],
    "flrw_closed_osc": [3.0, 1.0, 1.5, 1.5],
    "flrw_open": [1.5, 1.0, 1.5, 1.5],
    "einstein_static": [0.0, 1.0, 1.2, 1.5],
    "riemannian_grw": [2.2, 0.0, 0.0, 0.0],
}


def _pass(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def charts100():
    return {cid: catalog.get_chart(cid) for cid in catalog.CATALOG}


@pytest.fixture(scope="module")
def certs100(charts100):
    return {cid: certify(chart, CertifyConfig(samples=100, seed=0))
            for cid, chart in charts100.items()}


def test_criterion_01_engine_self_test(charts100):
    """Riemann symmetries + first Bianchi < 1e-10, second Bianchi < 1e-8,
    metric compatibility < 1e-10 on all 9 catalog metrics at 50 points."""
    worst_sym = worst_b2 = worst_compat = 0.0
    for cid, chart in charts100.items():
        for point in domain_points(chart, 50, seed=101):
            geom = geometry_at(chart, point)
            sym = max(riemann_symmetry_residuals(geom).values())
            b2 = second_bianchi_residual(geom)
            compat = metric_compatibility_residual(geom)
            assert sym < 1e-10, (cid, point)
            assert b2 < 1e-8, (cid, point)
            assert compat < 1e-10, (cid, point)
            worst_sym = max(worst_sym, sym)
            worst_b2 = max(worst_b2, b2)
            worst_compat = max(worst_compat, compat)
    _pass(1, f"9 charts x 50 points: symmetries {worst_sym:.2e}, "
             f"second Bianchi {worst_b2:.2e}, compatibility {worst_compat:.2e}")


def test_criterion_02_jet_correctness():
    """200 random expressions: jet partials of order 1-3 match central finite
    differences with relative error < 1e-5."""
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(200):
        text, node, names, point = draw_expr_case(rng)
        dim = len(names)
        env = {name: Jet3.variable(k, point[name], dim)
               for k, name in enumerate(names)}
        jet = eval_expr(node, env, {})

        def fn(vals):
            return eval_real(node, vals, {})

        for i in range(dim):
            ref = fd_partial(fn, point, (names[i],), FD_STEPS[1])
            err = abs(jet.grad[i] - ref) / (1.0 + abs(ref))
            assert err < 1e-5, text
            worst = max(worst, err)
        for i in range(dim):
            for j in range(i, dim):
                ref = fd_partial(fn, point, (names[i], names[j]), FD_STEPS[2])
                err = abs(jet.hess[i, j] - ref) / (1.0 + abs(ref))
                assert err < 1e-5, text
                worst = max(worst, err)
        for i in range(dim):
            for j in range(i, dim):
                for k in range(j, dim):
                    ref = fd_partial(fn, point, (names[i], names[j], names[k]),
                                     FD_STEPS[3])
                    err = abs(jet.cube[i, j, k] - ref) / (1.0 + abs(ref))
                    assert err < 1e-5, text
                    worst = max(worst, err)
    _pass(2, f"200 expressions, orders 1-3 vs finite differences, worst "
             f"relative error {worst:.2e}")


def test_criterion_03_positive_certification(charts100, certs100):
    """The five RW charts classify LocallyRW at 100 points with every residual
    max < 1e-7, and extracted (f, h) match the closed forms to 1e-8."""
    worst_resid = worst_fh = 0.0
    for cid in POSITIVE_IDS:
        cert = certs100[cid]
        assert cert.classification == "LocallyRW", cid
        for key, value in cert.residual_max.items():
            assert value is not None and value < 1e-7, (cid, key, value)
            worst_resid = max(worst_resid, value)
        chart = charts100[cid]
        oracle = ORACLES[cid]
        for point in domain_points(chart, 20, seed=303):
            geom = geometry_at(chart, point)
            frame = adapted_frame(geom)
            eps, f, h = extract_invariants(geom, frame)
            f_ref, h_ref = oracle(point[0])
            assert abs(f - f_ref) < 1e-8, (cid, point)
            assert abs(h - h_ref) < 1e-8, (cid, point)
            worst_fh = max(worst_fh, abs(f - f_ref), abs(h - h_ref))
    _pass(3, f"5 charts LocallyRW at 100 points; residual max {worst_resid:.2e}, "
             f"(f,h) vs closed forms {worst_fh:.2e}")


def test_criterion_04_constant_curvature_exclusion(certs100):
    """minkowski and desitter_flat: ConstantCurvature with max |h - eps f|
    < 1e-9 and full constant-curvature residual < 1e-8."""
    for cid in ("minkowski", "desitter_flat"):
        cert = certs100[cid]
        assert cert.classification == "ConstantCurvature", cid
        assert cert.max_margin < 1e-9, cid
        assert cert.constant_curvature_max < 1e-8, cid
    _pass(4, "minkowski and desitter_flat excluded as ConstantCurvature "
             f"(margins {certs100['desitter_flat'].max_margin:.2e})")


def test_criterion_05_negative_certification(certs100):
    """schwarzschild_static_observer and goedel: NotIsotropic with at least one
    residual max > 1e-3."""
    for cid in ("schwarzschild_static_observer", "goedel"):
        cert = certs100[cid]
        assert cert.classification == "NotIsotropic", cid
        biggest = max(v for v in cert.residual_max.values() if v is not None)
        assert biggest > 1e-3, (cid, biggest)
    _pass(5, "schwarzschild and goedel rejected with residuals "
             f"{max(v for v in certs100['schwarzschild_static_observer'].residual_max.values() if v is not None):.2e}, "
             f"{max(v for v in certs100['goedel'].residual_max.values() if v is not None):.2e}")


def test_criterion_06_exactness_of_omega(charts100, certs100):
    """20 random rectangular loops per LocallyRW chart: |loop integral| < 1e-8;
    two-path time values agree to 1e-8."""
    worst_loop = worst_path = 0.0
    for cid in POSITIVE_IDS:
        chart = charts100[cid]
        cert = certs100[cid]
        rng = np.random.default_rng(606)
        lows = np.array([lo for lo, _ in chart.domain])
        highs = np.array([hi for _, hi in chart.domain])
        for _ in range(20):
            a, b = rng.uniform(lows, highs, size=(2, chart.dim))
            i, j = rng.choice(chart.dim, size=2, replace=False)
            corner1, corner2 = a.copy(), a.copy()
            corner1[i] = b[i]
            corner2[i], corner2[j] = b[i], b[j]
            corner3 = a.copy()
            corner3[j] = b[j]
            residual = loop_residual(chart, cert, [a, corner1, corner2, corner3, a])
            assert residual < 1e-8, cid
            worst_loop = max(worst_loop, residual)
        base = np.array(BASES[cid])
        target = rng.uniform(lows, highs)
        mid1 = rng.uniform(lows, highs)
        mid2 = rng.uniform(lows, highs)
        direct = time_value(chart, cert, target, base)
        detour = time_value(chart, cert, target, base, path=[base, mid1, mid2, target])
        assert abs(direct - detour) < 1e-8, cid
        worst_path = max(worst_path, abs(direct - detour))
    _pass(6, f"100 loops: worst |loop integral| {worst_loop:.2e}; "
             f"two-path disagreement {worst_path:.2e}")


def test_criterion_07_schur_constancy(charts100, certs100):
    """Per LocallyRW chart: 3 slices x 30 same-slice points with
    stddev(K_tau) < 1e-6 (1 + |K|); k-hat = K a^2 constant across slices
    to 1e-5 relative."""
    worst_spread = worst_khat = 0.0
    for cid in POSITIVE_IDS:
        chart = charts100[cid]
        cert = certs100[cid]
        base = np.array(BASES[cid])
        lows = np.array([lo for lo, _ in chart.domain])
        highs = np.array([hi for _, hi in chart.domain])
        probe_lo, probe_hi = base.copy(), base.copy()
        probe_lo[0] = lows[0] + 0.25 * (highs[0] - lows[0])
        probe_hi[0] = lows[0] + 0.75 * (highs[0] - lows[0])
        tau_lo = time_value(chart, cert, probe_lo, base)
        tau_hi = time_value(chart, cert, probe_hi, base)
        slice_taus = [0.5 * tau_lo, 0.0, 0.5 * tau_hi]

        profile = scale_factor_profile(chart, cert, base, slice_taus)
        k_hats = []
        rng = np.random.default_rng(707)
        for target in slice_taus:
            points = same_slice_points(chart, cert, base, target, 30, rng=rng)
            values = np.array([slice_curvature(chart, p) for p in points])
            spread = values.std() / (1.0 + abs(values.mean()))
            assert spread < 1e-6, (cid, target, spread)
            worst_spread = max(worst_spread, spread)
            idx = int(np.argmin(np.abs(profile.tau - target)))
            k_hats.append(values.mean() * profile.a[idx]**2)
        k_hats = np.array(k_hats)
        khat_rel = (k_hats.max() - k_hats.min()) / (1.0 + np.abs(k_hats).max())
        assert khat_rel < 1e-5, (cid, k_hats)
        worst_khat = max(worst_khat, khat_rel)
    _pass(7, f"3 slices x 30 points per chart: K_tau spread {worst_spread:.2e}, "
             f"k-hat constancy {worst_khat:.2e}")


def test_criterion_08_scale_factor(charts100, certs100):
    """einstein_static reconstructs a = 1 to 1e-9; flrw_flat_linear a-ratios
    match the independent exponential-integral oracle to 1e-6."""
    result = scale_factor_profile(charts100["einstein_static"],
                                  certs100["einstein_static"],
                                  [0.0, 1.0, 1.2, 1.5], np.linspace(-0.5, 0.5, 11))
    assert np.abs(result.a - 1.0).max() < 1e-9

    chart = charts100["flrw_flat_linear"]
    cert = certs100["flrw_flat_linear"]
    grid = np.array([-0.15, -0.075, 0.075, 0.15])
    profile = scale_factor_profile(chart, cert, [2.0, 0.0, 0.0, 0.0], grid)

    def oracle_a(tau_target, steps=20000):
        # independent fine-step trapezoid/RK4 hybrid: flow dt/dtau = -t^2 from
        # t = 2 while accumulating the expansion integral psi = -2 t
        t_val = 2.0
        h = tau_target / steps
        log_sq = 0.0
        for _ in range(steps):
            k1 = -t_val**2
            t_mid = t_val + 0.5 * h * k1
            k2 = -t_mid**2
            t_mid2 = t_val + 0.5 * h * k2
            k3 = -t_mid2**2
            t_end = t_val + h * k3
            k4 = -t_end**2
            log_sq += h / 6 * (-2 * t_val - 4 * t_mid - 4 * t_mid2 - 2 * t_end)
            t_val += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return np.exp(0.5 * log_sq)

    worst = 0.0
    for tau, a in zip(profile.tau, profile.a):
        if tau == 0.0:
            continue
        ref = oracle_a(tau)
        err = abs(a / profile.a[np.searchsorted(profile.tau, 0.0)] - ref)
        assert err < 1e-6, (tau, a, ref)
        worst = max(worst, err)
    _pass(8, f"einstein a=1 exact to {np.abs(result.a - 1.0).max():.2e}; "
             f"flrw ratios vs quadrature oracle {worst:.2e}")


def test_criterion_09_fermi_conservation(charts100, plane_chart):
    """All transport examples hold inner-product drift < 1e-8 over unit length
    at step 1e-3; Fermi transport equals parallel transport on geodesics."""
    mink = charts100["minkowski"]
    flrw = charts100["flrw_flat_linear"]
    battery = [
        ("minkowski geodesic", mink,
         CurveSpec.geodesic([0, 0, 0, 0], [1.0, 0, 0, 0], t1=1.0),
         np.array([[0.0, 1.0, 0.0, 0.0], [0.4, 0.2, -0.7, 0.1]])),
        ("rindler", mink,
         CurveSpec.explicit(["sinh(s)", "cosh(s)", "0", "0"], t1=1.0),
         np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -0.5]])),
        ("flrw comoving", flrw,
         CurveSpec.integral_curve_of_u([2.0, 0.1, 0.2, 0.3], t1=1.0),
         np.array([[0.0, 0.25, 0.0, 0.0], [0.1, 0.0, 0.3, 0.2]])),
        ("plane circle", plane_chart,
         CurveSpec.explicit(["cos(s)", "sin(s)"], t1=1.0),
         np.array([[1.0, 0.0], [0.3, -0.8]])),
    ]
    worst = 0.0
    for label, chart, curve, x0 in battery:
        result = transport(chart, curve, x0, steps=1000)
        drift = gram_drift(result)
        assert drift < 1e-8, (label, drift)
        worst = max(worst, drift)

    # geodesic Fermi == parallel: comoving geodesic in the closed chart
    chart = charts100["flrw_closed_osc"]
    start, velocity = [3.0, 1.0, 1.5, 1.5], [1.0, 0.0, 0.0, 0.0]
    x0 = np.array([0.0, 0.2, 0.1, -0.05])
    fermi = transport(chart, CurveSpec.geodesic(start, velocity, t1=1.0),
                      x0, steps=1000)
    state = np.concatenate([start, velocity, x0])

    def rhs(s):
        x, v, X = s[:4], s[4:8], s[8:]
        geom = geometry_at(chart, x, order=1)
        return np.concatenate([v, -np.einsum('kij,i,j->k', geom.gamma, v, v),
                               -np.einsum('kij,i,j->k', geom.gamma, v, X)])

    h = 1e-3
    for _ in range(1000):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    parallel_err = np.abs(fermi.vectors[-1] - state[8:]).max()
    assert parallel_err < 1e-8
    _pass(9, f"4 curve examples drift {worst:.2e}; geodesic Fermi vs parallel "
             f"{parallel_err:.2e}")


def test_criterion_10_determinism(tmp_path, cli_env):
    """Fixed seed: byte-identical reports; no thread count to vary."""
    def run(name, extra=()):
        out = tmp_path / name
        return subprocess.run(
            [sys.executable, "-m", "rwcert", "check", "flrw_closed_osc",
             "--points", "24", "--seed", "11", "--report", str(out), *extra],
            capture_output=True, text=True, env=cli_env), out

    reports = []
    for name in ("a.json", "b.json"):
        proc, out = run(name)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    threaded, _ = run("c.json", ["--threads", "4"])
    assert threaded.returncode == 2
    assert threaded.stdout == "" and threaded.stderr.count("error:") == 1
    assert "unrecognized arguments: --threads 4" in threaded.stderr

    slice_runs = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "rwcert", "slice", "einstein_static",
             "--base", "0,0.3,0.4,0.5", "--tau-grid", "0:0.4:0.2",
             "--points", "12", "--seed", "3", "--report", str(out)],
            capture_output=True, text=True, env=cli_env)
        assert proc.returncode == 0, proc.stderr
        slice_runs.append(out.read_bytes())
    assert slice_runs[0] == slice_runs[1]
    _pass(10, "check and slice reports byte-identical across reruns; --threads refused")
