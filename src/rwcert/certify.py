"""Pointwise isotropy extraction, residual battery and chart classification.

Eleven named residuals are evaluated per sample point.  Five are algebraic
curvature checks against the split form

    R(x,u)u = f x,    R(x,y)z = h (g(y,z) x - g(x,z) y)      (x,y,z | u)

together with its consequences R(x,y)u = 0, R(x,u)y = -eps f g(x,y) u and the
skew symmetry of (x,y) -> R(x,u)y.  Six more are differential: the directional
derivative identities for f and h, symmetry of g(nabla_. u, .), the pure-trace
shear law, closedness of (h - eps f) u-flat, and the geodesy diagnostic
|nabla_u u|.  All residuals are relative to 1 + max |R_{rsmn}| at the point.

The algebraic residuals are measured in adapted-frame components: the model
term is folded into the curvature once per point, and a few matmuls contract
it with a pool of seeded spatial directions (see isotropy_residuals).  Each
sample draws from its own child of the seed, and samples are evaluated one
after another; a thread pool over them was slower than serial.

certify evaluates the order-3 geometry of its sample points in chunks of
CHUNK = 16 through geometry_batch, one jet program and one set of einsums per
chunk, and then runs each sample's frame and residuals as sample_point does.
The chunk is bounded by memory, not speed: the batch holds every tensor of
every point in it.  certify(256) on the nine catalog charts, in a process of
about 38 MB, peaked 1.3 MB above one-point evaluation at chunk 16, 2.8 MB
at chunk 32 and 12 MB with one chunk of 256, for no further speed past 16.

Classification is sampled evidence, never proof: the certificate records the
sample count and seed it was computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import __version__
from .chart import ChartSpec
from .exprs import EvalDomainError
from .geometry import (PIVOT_TOL, UNIT_TOL, Frame, FrameError, GeometryError,
                       PointGeometry, adapted_frame, geometry_at, geometry_batch,
                       trace_invariant_gradients, trace_invariants)

RESIDUAL_KEYS = ("eq13", "eq14", "a43", "a44", "skewA1",
                 "bianchi31", "bianchi32", "bianchi33",
                 "shear", "closedness", "geodesy")

CLASSIFICATIONS = ("LocallyRW", "ConstantCurvature", "NotIsotropic", "Degenerate")

DEFAULT_TOL_PASS = 1e-7
DEFAULT_TOL_MARGIN = 1e-6
RANDOM_COMBINATIONS = 16
CHUNK = 16               # sample points per geometry_batch call; see the module docstring

# failures that make a sample point Degenerate instead of aborting certify
_PRECONDITION_ERRORS = (GeometryError, EvalDomainError, ZeroDivisionError)


class CertificationInputError(ValueError):
    """Chart cannot be certified at all (e.g. dim < 4)."""


@dataclass(frozen=True)
class CertifyConfig:
    samples: int = 64
    seed: int = 0
    tol_pass: float = DEFAULT_TOL_PASS
    tol_margin: float = DEFAULT_TOL_MARGIN
    threads: int = 1        # accepted for compatibility; samples run serially


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


def _candidates(geom: PointGeometry, frame: Frame, rng,
                count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`count` seeded combinations of the spatial frame vectors, drawn as one
    block: the raw combinations, their unit versions, and which are accepted.

    rng.normal(size=(count, m)) yields the same numbers as `count` calls with
    size=m.  A candidate is rejected when its coordinate norm is below 1e-12 or
    its coordinate-unit version w has |g(w,w)| < PIVOT_TOL (near-null); the
    unit version is rescaled to |g(v,v)| = 1.
    """
    raw = rng.normal(size=(count, frame.dim - 1)) @ frame.spatial
    return (raw, *_unit_rows(raw, geom.g))


def _unit_rows(v: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The acceptance rule of _candidates, applied to the rows of v."""
    norm = np.linalg.norm(v, axis=1)
    long = norm >= 1e-12
    w = v / np.where(long, norm, 1.0)[:, None]
    q = np.abs(((w @ g) * w).sum(axis=1))
    ok = long & (q >= PIVOT_TOL)
    return w / np.sqrt(np.where(ok, q, 1.0))[:, None], ok


def _random_unit_spatial(geom: PointGeometry, frame: Frame, rng, count: int) -> np.ndarray:
    """Seeded unit-norm combinations of the spatial frame vectors.

    When the complement of u is indefinite these mix causal characters freely;
    near-null draws are rejected and redrawn, at most 64 * count draws in all.
    Each block holds only the draws still certain to be needed, so the rng
    ends where drawing one candidate at a time would leave it.
    """
    out = []
    found = attempts = 0
    while found < count and attempts < 64 * count:
        block = min(count - found, 64 * count - attempts)
        _, unit, ok = _candidates(geom, frame, rng, block)
        out.append(unit[ok])
        found += int(ok.sum())
        attempts += block
    if found < count:
        raise FrameError("could not draw enough non-null unit combinations")
    return np.vstack(out)


def _candidate_stream(geom: PointGeometry, frame: Frame, rng, first: int):
    """Candidates one at a time: a block of `first`, then single draws."""
    size = first
    while True:
        yield from zip(*_candidates(geom, frame, rng, size))
        size = 1


def _orthonormal_pairs(geom: PointGeometry, frame: Frame, rng,
                       count: int) -> tuple[np.ndarray, np.ndarray]:
    """Frame pairs (e_i, e_j), i < j, plus up to `count` random orthonormal
    pairs spanning planes orthogonal to u.

    An attempt draws a unit x (redrawn while near-null, at most 64 times) and
    then a raw y, which is made orthogonal to x and unit, or rejected; at most
    64 * count attempts.  A round of attempts that are all certain to happen
    starts with one block of two draws per attempt; a rejected x moves on to
    single draws, so the rng is never drawn past where the one-at-a-time loop
    would stop.
    """
    k = frame.dim - 1
    xs = [frame.spatial[[i for i in range(k) for j in range(i + 1, k)]]]
    ys = [frame.spatial[[j for i in range(k) for j in range(i + 1, k)]]]
    drawn = attempts = 0
    while drawn < count and attempts < 64 * count:
        certain = min(count - drawn, 64 * count - attempts)
        stream = _candidate_stream(geom, frame, rng, 2 * certain)
        picked = []
        for _ in range(certain):
            for _ in range(64):
                _, x, ok = next(stream)
                if ok:
                    break
            else:
                raise FrameError("could not draw enough non-null unit combinations")
            raw, _, _ = next(stream)
            picked.append((x, raw))
        attempts += certain
        x, raw = np.array(picked).transpose(1, 0, 2)
        eta_x = np.where(((x @ geom.g) * x).sum(axis=1) > 0, 1.0, -1.0)
        y, ok = _unit_rows(raw - (eta_x * ((raw @ geom.g) * x).sum(axis=1))[:, None] * x,
                           geom.g)
        xs.append(x[ok])
        ys.append(y[ok])
        drawn += int(ok.sum())
    return np.vstack(xs), np.vstack(ys)


def isotropy_residuals(geom: PointGeometry, frame: Frame, f: float, h: float,
                       rng=None) -> dict[str, float]:
    """The five algebraic residuals, maximized over frame vectors and random
    unit combinations orthogonal to u.

    Every residual vector w is measured by the frame norm |M w| with
    M = diag(etas) V g (V the frame rows), so each check is a tensor in frame
    components contracted with the pool.  The model term of the split form is
    folded into the curvature once,

        D[a,s,m,n] = (M R)[a,s,m,n] - h (g_ns M_am - g_ms M_an),

    and D, (M R) with u, and f M are stacked with the x slot leading, so three
    matmuls contract the pool into x, then y, then z (eq14 only).  Each
    maximum is taken over sums of squares, with one square root at the end.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    n = geom.dim
    u, g = geom.u, geom.g
    pool = np.vstack([frame.spatial,
                      _random_unit_spatial(geom, frame, rng, RANDOM_COMBINATIONS)])
    size = len(pool)
    M = frame.etas[:, None] * (frame.vectors @ g)
    MR = (M @ geom.riemann_up.reshape(n, -1)).reshape(n, n, n, n)     # [a,s,m,n]
    D = MR - h * (g[None, :, None, :] * M[:, None, :, None]
                  - g[None, :, :, None] * M[:, None, None, :])
    MR_u = MR @ u                                                        # [a,s,m]
    u_MR = (u @ MR.reshape(n, n, -1)).reshape(n, n, n)                  # [a,m,n]
    Mu = M @ u

    # x slot (m) leading; the y slot is last in each of the first three blocks
    stacked = np.concatenate([
        D.transpose(2, 1, 0, 3).reshape(n, -1),                          # eq14 [m,s,a,n]
        u_MR.transpose(1, 0, 2).reshape(n, -1),                          # a43  [m,a,n]
        (MR_u + geom.epsilon * f * Mu[:, None, None] * g).transpose(2, 0, 1)
        .reshape(n, -1),                                                 # a44  [m,a,s]
        (u_MR @ u - f * M).T,                                            # eq13 [m,a]
    ], axis=1)
    with_x = pool @ stacked                                              # [x, ...]
    eq13 = _squares(with_x[:, -n:], 'xa')
    with_xy = (with_x[:, :-n].reshape(-1, n) @ pool.T).reshape(size, -1, size)
    a43 = _squares(with_xy[:, n * n:n * n + n], 'xay')
    a44 = _squares(with_xy[:, n * n + n:], 'xay')
    eq14_xy = with_xy[:, :n * n].reshape(size, n, n, size).transpose(1, 0, 2, 3)   # [s,x,a,y]
    eq14 = _squares((pool @ eq14_xy.reshape(n, -1)).reshape(size, size, n, size), 'zxay')

    # R(x,u)y + R(y,u)x vanishes only for orthogonal unit pairs (its symmetric
    # part carries the -eps f g(x,y) u term), so pair up orthonormally.
    xs, ys = _orthonormal_pairs(geom, frame, rng, RANDOM_COMBINATIONS)
    sym = (MR_u + MR_u.transpose(0, 2, 1)).reshape(n, -1)
    skew = _squares((ys[:, :, None] * xs[:, None, :]).reshape(len(xs), -1) @ sym.T, 'pa')

    scale = geom.residual_scale
    return {key: float(np.sqrt(value)) / scale for key, value in
            (("eq13", eq13), ("eq14", eq14), ("a43", a43), ("a44", a44), ("skewA1", skew))}


def _squares(comps: np.ndarray, axes: str) -> float:
    """Largest sum of squares over the frame-component axis 'a'."""
    return float(np.einsum(f"{axes},{axes}->{axes.replace('a', '')}", comps, comps).max())


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
    """Full residual evaluation at one point (certify's per-sample reference)."""
    rng = np.random.default_rng(0) if rng is None else rng
    return _sample(geometry_at(chart, point, order=3), rng, tol_margin)


def _sample(geom: PointGeometry, rng, tol_margin: float) -> IsotropySample:
    """Everything a sample computes after its order-3 geometry."""
    frame = adapted_frame(geom, rng=rng)
    eps, f, h = extract_invariants(geom, frame)
    residuals = isotropy_residuals(geom, frame, f, h, rng=rng)
    residuals.update(_structure_residuals(geom, frame, f, h, tol_margin))
    return IsotropySample(point=geom.point, epsilon=eps, f=f, h=h,
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
    errors) make the verdict Degenerate.  The geometry is evaluated
    CHUNK points at a time by geometry_batch; a chunk in which any point
    fails is evaluated again point by point, so each point keeps its own
    result or reason.  Each sample draws from its own child of the seed, and
    aggregation is an ordered reduction over sample index; config.threads is
    ignored.
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

    samples: list[IsotropySample] = []
    degenerate: list[tuple[list[float], str]] = []
    for start in range(0, config.samples, CHUNK):
        chunk = points[start:start + CHUNK]
        try:
            geoms = geometry_batch(chart, chunk, order=3)
        except _PRECONDITION_ERRORS:
            geoms = None
        for k, point in enumerate(chunk):
            rng = np.random.default_rng(children[start + k])
            try:
                geom = geometry_at(chart, point, order=3) if geoms is None else geoms[k]
                samples.append(_sample(geom, rng, config.tol_margin))
            except _PRECONDITION_ERRORS as err:
                degenerate.append((point.tolist(), str(err)))
    cc_values = [s.cc_residual for s in samples]

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
