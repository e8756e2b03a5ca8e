"""Pointwise isotropy extraction, residual battery and chart classification.

Eleven named residuals are evaluated per sample point.  Five are algebraic
curvature checks against the split form

    R(x,u)u = f x,    R(x,y)z = h (g(y,z) x - g(x,z) y)      (x,y,z | u)

together with its consequences R(x,y)u = 0, R(x,u)y = -eps f g(x,y) u and the
skew symmetry of (x,y) -> R(x,u)y.  Six more are differential: the directional
derivative identities for f and h, symmetry of g(nabla_. u, .), the pure-trace
shear law, closedness of (h - eps f) u-flat, and the geodesy diagnostic
|nabla_u u|.  All residuals are relative to 1 + max |R_{rsmn}| at the point.

Classification is sampled evidence, never proof: the certificate records the
sample count and seed it was computed from.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import numpy as np

from . import __version__
from .chart import ChartSpec
from .exprs import EvalDomainError
from .geometry import (PIVOT_TOL, UNIT_TOL, Frame, FrameError, GeometryError,
                       PointGeometry, adapted_frame, geometry_at,
                       trace_invariant_gradients, trace_invariants)

RESIDUAL_KEYS = ("eq13", "eq14", "a43", "a44", "skewA1",
                 "bianchi31", "bianchi32", "bianchi33",
                 "shear", "closedness", "geodesy")

CLASSIFICATIONS = ("LocallyRW", "ConstantCurvature", "NotIsotropic", "Degenerate")

DEFAULT_TOL_PASS = 1e-7
DEFAULT_TOL_MARGIN = 1e-6
RANDOM_COMBINATIONS = 16


class CertificationInputError(ValueError):
    """Chart cannot be certified at all (e.g. dim < 4)."""


@dataclass(frozen=True)
class CertifyConfig:
    samples: int = 64
    seed: int = 0
    tol_pass: float = DEFAULT_TOL_PASS
    tol_margin: float = DEFAULT_TOL_MARGIN
    threads: int = 1


@dataclass
class IsotropySample:
    point: np.ndarray
    epsilon: int
    f: float
    h: float
    nondegeneracy: float                     # |h - eps f|
    residuals: dict[str, float | None]      # None marks a not-applicable check
    cc_residual: float = float("nan")       # |R - h g^g| relative, for the CC verdict


@dataclass
class Certificate:
    chart_name: str
    classification: str
    residual_max: dict[str, float | None]
    constant_curvature_max: float | None
    min_margin: float | None                 # None when no sample succeeded
    max_margin: float | None
    tol_pass: float
    tol_margin: float
    samples: int
    seed: int
    epsilon: int | None
    degenerate_points: list[tuple[list[float], str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    evidence: str = "sampled"
    tool_version: str = __version__


# -- extraction -----------------------------------------------------------------

def extract_invariants(geom: PointGeometry, frame: Frame) -> tuple[int, float, float]:
    """Read (epsilon, f, h) off the first adapted frame vectors.

    f comes from the plane (e_1, u), h from (e_1, e_2).  Cross-validation over
    random plane choices happens in isotropy_residuals, not here.
    """
    if geom.dim < 4:
        raise CertificationInputError(f"certification needs dim >= 4, got {geom.dim}")
    if abs(abs(geom.u_norm2) - 1.0) > UNIT_TOL:
        raise UnitFieldError(geom.u_norm2)
    if not np.allclose(frame.vectors[0], geom.u, atol=1e-8):
        raise FrameError("frame is not adapted to u (e_0 != u)")
    u = geom.u
    e1, e2 = frame.vectors[1], frame.vectors[2]
    eta1, eta2 = frame.etas[1], frame.etas[2]
    f = eta1 * geom.ip(np.einsum('rsmn,s,m,n->r', geom.riemann_up, u, e1, u), e1)
    h = eta1 * eta2 * geom.ip(np.einsum('rsmn,s,m,n->r', geom.riemann_up, e2, e1, e2), e1)
    return geom.epsilon, float(f), float(h)


class UnitFieldError(GeometryError):
    def __init__(self, norm2: float):
        super().__init__(f"u is not a unit field at the sample point: g(u,u) = {norm2!r} "
                         "(set options.normalize_u to rescale pointwise)")


def _random_unit_spatial(geom: PointGeometry, frame: Frame, rng, count: int) -> np.ndarray:
    """Seeded unit-norm combinations of the spatial frame vectors.

    When the complement of u is indefinite these mix causal characters freely;
    near-null draws (|g(v,v)| < PIVOT_TOL) are rejected and redrawn.
    """
    out = []
    attempts = 0
    while len(out) < count and attempts < 64 * count:
        attempts += 1
        coeff = rng.normal(size=frame.dim - 1)
        v = coeff @ frame.spatial
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        v = v / norm
        q = geom.ip(v, v)
        if abs(q) < PIVOT_TOL:
            continue
        out.append(v / np.sqrt(abs(q)))
    if len(out) < count:
        raise FrameError("could not draw enough non-null unit combinations")
    return np.array(out)


def _orthonormal_pairs(geom: PointGeometry, frame: Frame, rng,
                       count: int) -> tuple[np.ndarray, np.ndarray]:
    """Frame pairs (e_i, e_j), i < j, plus `count` random orthonormal pairs
    spanning planes orthogonal to u."""
    xs = [frame.vectors[i] for i in range(1, frame.dim) for j in range(i + 1, frame.dim)]
    ys = [frame.vectors[j] for i in range(1, frame.dim) for j in range(i + 1, frame.dim)]
    drawn = 0
    attempts = 0
    while drawn < count and attempts < 64 * count:
        attempts += 1
        x = _random_unit_spatial(geom, frame, rng, 1)[0]
        raw = rng.normal(size=frame.dim - 1) @ frame.spatial
        eta_x = 1.0 if geom.ip(x, x) > 0 else -1.0
        y = raw - eta_x * geom.ip(raw, x) * x
        norm = np.linalg.norm(y)
        if norm < 1e-12:
            continue
        y = y / norm
        q = geom.ip(y, y)
        if abs(q) < PIVOT_TOL:
            continue
        xs.append(x)
        ys.append(y / np.sqrt(abs(q)))
        drawn += 1
    return np.array(xs), np.array(ys)


def isotropy_residuals(geom: PointGeometry, frame: Frame, f: float, h: float,
                       rng=None) -> dict[str, float]:
    """The five algebraic residuals, maximized over frame vectors and random
    unit combinations orthogonal to u.

    The four-index contractions are factored into stepwise tensordots: the
    pool has up to n-1+16 vectors and naive einsum over all indices at once is
    the certifier's hot spot.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    u = geom.u
    eps = geom.epsilon
    scale = geom.residual_scale
    pool = np.vstack([frame.spatial,
                      _random_unit_spatial(geom, frame, rng, RANDOM_COMBINATIONS)])
    R = geom.riemann_up
    gram = pool @ geom.g @ pool.T

    # R(x,u)u - f x
    r_uu = np.einsum('rsmn,s,n->rm', R, u, u)
    eq13 = float(frame.batch_norms(pool @ r_uu.T - f * pool).max())

    # R(x,y)z - h (g(y,z) x - g(x,z) y)
    step_z = np.tensordot(pool, R, axes=(1, 1))           # [c,r,m,n]
    step_zx = np.tensordot(pool, step_z, axes=(1, 2))      # [a,c,r,n]
    rxyz = np.tensordot(pool, step_zx, axes=(1, 3))        # [b,a,c,r]
    rxyz = rxyz.transpose(1, 0, 2, 3)                      # [a,b,c,r]
    expected = h * (gram[None, :, :, None] * pool[:, None, None, :]
                    - gram[:, None, :, None] * pool[None, :, None, :])
    eq14 = float(frame.batch_norms(rxyz - expected).max())

    # R(x,y)u
    r_u = np.tensordot(R, u, axes=(1, 0))                  # [r,m,n]
    step_x = np.tensordot(pool, r_u, axes=(1, 1))          # [a,r,n]
    rxy_u = np.tensordot(pool, step_x, axes=(1, 2)).transpose(1, 0, 2)   # [a,b,r]
    a43 = float(frame.batch_norms(rxy_u).max())

    # R(x,u)y + eps f g(x,y) u over arbitrary pairs
    r_n = np.tensordot(R, u, axes=(3, 0))                  # [r,s,m]
    step_y = np.tensordot(pool, r_n, axes=(1, 1))          # [b,r,m]
    rxuy = np.tensordot(pool, step_y, axes=(1, 2))         # [a,b,r]
    a44 = float(frame.batch_norms(
        rxuy + eps * f * gram[:, :, None] * u).max())

    # R(x,u)y + R(y,u)x vanishes only for orthogonal unit pairs (its symmetric
    # part carries the -eps f g(x,y) u term), so pair up orthonormally.
    xs, ys = _orthonormal_pairs(geom, frame, rng, RANDOM_COMBINATIONS)
    wxy = np.einsum('as,am,rsm->ar', ys, xs, r_n)
    wyx = np.einsum('as,am,rsm->ar', xs, ys, r_n)
    skew = float(frame.batch_norms(wxy + wyx).max())

    return {"eq13": eq13 / scale, "eq14": eq14 / scale, "a43": a43 / scale,
            "a44": a44 / scale, "skewA1": skew / scale}


def structure_residuals(chart: ChartSpec, point,
                        tol_margin: float = DEFAULT_TOL_MARGIN,
                        rng=None) -> dict[str, float | None]:
    """The six differential residuals at one point of a chart."""
    geom = geometry_at(chart, point, order=3)
    frame = adapted_frame(geom, rng=np.random.default_rng(0) if rng is None else rng)
    _, f, h = extract_invariants(geom, frame)
    return _structure_residuals(geom, frame, f, h, tol_margin)


def _structure_residuals(geom: PointGeometry, frame: Frame, f: float, h: float,
                         tol_margin: float) -> dict[str, float | None]:
    eps = geom.epsilon
    u = geom.u
    scale = geom.residual_scale
    spatial = frame.spatial

    nabla = geom.nabla_u()
    accel = u @ nabla
    df, dh = trace_invariant_gradients(geom)
    f_tr, h_tr = trace_invariants(geom)
    margin = h - eps * f

    # df(x) = -(h - eps f) g(x, nabla_u u) for x | u
    df_x = spatial @ df
    acc_x = spatial @ geom.g @ accel
    bianchi31 = float(np.abs(df_x + margin * acc_x).max())

    # g(nabla_x u, y) symmetric on the orthogonal complement
    B = nabla @ geom.g                     # B[m, s] = g(nabla_m u, d_s)
    M = (spatial @ B) @ spatial.T          # M[a, b] = g(nabla_{e_a} u, e_b)
    bianchi32 = float(np.abs(M - M.T).max())

    # dh(x) = 0 for x | u
    bianchi33 = float(np.abs(spatial @ dh).max())

    # pure-trace expansion: g(x, nabla_y u) = -dh(u)/(2(h - eps f)) g(x, y)
    if abs(margin) > tol_margin:
        coeff = float(dh @ u) / (2.0 * margin)
        gram = spatial @ geom.g @ spatial.T
        shear = float(np.abs(M.T + coeff * gram).max()) / scale
    else:
        shear = None

    # d[ (h - eps f) u-flat ] = 0, using the differentiable trace fields
    margin_tr = h_tr - eps * f_tr
    dmargin = dh - eps * df
    u_flat = geom.g @ u
    du_flat = np.einsum('mns,s->mn', geom.dg, u) + np.einsum('ns,ms->mn', geom.g, geom.du)
    domega = np.einsum('m,n->mn', dmargin, u_flat) + margin_tr * du_flat
    closedness = float(np.abs(domega - domega.T).max())

    geodesy = frame.norm(accel)

    return {"bianchi31": bianchi31 / scale, "bianchi32": bianchi32 / scale,
            "bianchi33": bianchi33 / scale, "shear": shear,
            "closedness": closedness / scale, "geodesy": geodesy / scale}


# -- sampling and classification ---------------------------------------------------

def sample_point(chart: ChartSpec, point, rng=None,
                 tol_margin: float = DEFAULT_TOL_MARGIN) -> IsotropySample:
    """Full residual evaluation at one point."""
    rng = np.random.default_rng(0) if rng is None else rng
    geom = geometry_at(chart, point, order=3)
    frame = adapted_frame(geom, rng=rng)
    eps, f, h = extract_invariants(geom, frame)
    residuals = isotropy_residuals(geom, frame, f, h, rng=rng)
    residuals.update(_structure_residuals(geom, frame, f, h, tol_margin))
    return IsotropySample(point=np.asarray(point, dtype=float), epsilon=eps, f=f, h=h,
                          nondegeneracy=abs(h - eps * f), residuals=residuals,
                          cc_residual=constant_curvature_residual(geom, h))


def constant_curvature_residual(geom: PointGeometry, h: float) -> float:
    """Relative size of R_{rsmn} - h (g_{rm} g_{sn} - g_{rn} g_{sm})."""
    g = geom.g
    model = h * (np.einsum('rm,sn->rsmn', g, g) - np.einsum('rn,sm->rsmn', g, g))
    return float(np.abs(geom.riemann_low - model).max()) / geom.residual_scale


def certify(chart: ChartSpec, config: CertifyConfig | None = None) -> Certificate:
    """Sample the domain and classify the chart.

    Draws config.samples points uniformly (seeded).  Points where the
    preconditions fail (degenerate metric, non-unit u, expression domain
    errors) make the verdict Degenerate.  Aggregation is an ordered reduction
    over sample index, so reports are identical for any thread count.
    """
    config = config or CertifyConfig()
    if chart.dim < 4:
        raise CertificationInputError(
            f"chart {chart.name!r} has dim {chart.dim}; certification needs dim >= 4")
    if config.samples < 1:
        raise CertificationInputError("sample count must be >= 1")

    seed_seq = np.random.SeedSequence(config.seed)
    point_rng = np.random.default_rng(seed_seq)
    lows = np.array([lo for lo, _ in chart.domain])
    highs = np.array([hi for _, hi in chart.domain])
    points = point_rng.uniform(lows, highs, size=(config.samples, chart.dim))
    children = seed_seq.spawn(config.samples)

    def worker(index: int):
        point = points[index]
        rng = np.random.default_rng(children[index])
        try:
            sample = sample_point(chart, point, rng=rng, tol_margin=config.tol_margin)
            return ("ok", sample, sample.cc_residual)
        except (GeometryError, EvalDomainError, ZeroDivisionError) as err:
            return ("degenerate", point.tolist(), str(err))

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            outcomes = list(pool.map(worker, range(config.samples)))
    else:
        outcomes = [worker(i) for i in range(config.samples)]

    samples: list[IsotropySample] = []
    cc_values: list[float] = []
    degenerate: list[tuple[list[float], str]] = []
    for outcome in outcomes:
        if outcome[0] == "ok":
            samples.append(outcome[1])
            cc_values.append(outcome[2])
        else:
            degenerate.append((outcome[1], outcome[2]))

    notes: list[str] = []
    residual_max: dict[str, float | None] = {}
    for key in RESIDUAL_KEYS:
        values = [s.residuals[key] for s in samples if s.residuals[key] is not None]
        residual_max[key] = max(values) if values else None
    margins = [s.nondegeneracy for s in samples]
    min_margin = min(margins) if margins else None
    max_margin = max(margins) if margins else None
    cc_max = max(cc_values) if cc_values else None
    epsilons = {s.epsilon for s in samples}
    epsilon = samples[0].epsilon if len(epsilons) == 1 else None
    if len(epsilons) > 1:
        notes.append("epsilon is not constant over the sampled points")

    checked = [v for v in residual_max.values() if v is not None]
    all_pass = bool(samples) and all(v < config.tol_pass for v in checked)

    if degenerate:
        classification = "Degenerate"
        notes.append(f"{len(degenerate)} of {config.samples} points failed preconditions")
    elif all_pass and max_margin < config.tol_margin and cc_max < config.tol_pass:
        classification = "ConstantCurvature"
    elif all_pass and min_margin > config.tol_margin:
        classification = "LocallyRW"
    elif all_pass:
        classification = "Degenerate"
        if max_margin >= config.tol_margin:
            offenders = [s.point.tolist() for s in samples
                         if s.nondegeneracy <= config.tol_margin]
            notes.append(f"|h - eps f| within the margin band at {len(offenders)} "
                         f"points, e.g. {offenders[:3]}")
        else:
            notes.append("constant-curvature residual exceeds tol_pass")
    else:
        classification = "NotIsotropic"

    return Certificate(chart_name=chart.name, classification=classification,
                       residual_max=residual_max, constant_curvature_max=cc_max,
                       min_margin=min_margin, max_margin=max_margin,
                       tol_pass=config.tol_pass, tol_margin=config.tol_margin,
                       samples=config.samples, seed=config.seed, epsilon=epsilon,
                       degenerate_points=degenerate, notes=notes)
