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
it with a pool of seeded spatial directions (see _isotropy).

certify works on chunks of CHUNK = 16 sample points: geometry_chunk evaluates
a chunk's order-3 geometry in one pass, and one call of the battery
(_battery) computes the frames, invariants and residuals of all its points as
array operations over a leading chunk axis.  Each sample draws its random
directions from its own child of the seed, in rounds of one block per point
(see _draws), so a point's draws do not depend on its neighbours; per point
stays only eq14's (pool, pool, n, pool) product.  Rows whose frame fails
leave the chunk by take_rows, whose rows round as the chunk's did.
sample_point runs the same body on a chunk of one, which geometry_chunk
builds from its point's own arrays; it is on no hot path.

The chunk is bounded by memory, not speed: it holds every tensor of every
point in it.  certify(256) on flrw_closed_osc peaks at 1.69 MB of traced
allocations, against 1.72 MB one sample at a time; eq14's product formed for
a whole chunk would add about 14 MB.  Chunks of 32 or 256 points were no
faster than 16 in the geometry and held 2x and 9x its memory.

Classification is sampled evidence, never proof: the certificate records the
sample count and seed it was computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import __version__
from .chart import ChartSpec
from .geometry import (PIVOT_TOL, Frame, FrameError, PointGeometry, _apply, _bilinear,
                       _dot, _scalar, adapted_frames, geometry_chunk, take_rows,
                       trace_invariants)

RESIDUAL_KEYS = ("eq13", "eq14", "a43", "a44", "skewA1",
                 "bianchi31", "bianchi32", "bianchi33",
                 "shear", "closedness", "geodesy")

CLASSIFICATIONS = ("LocallyRW", "ConstantCurvature", "NotIsotropic", "Degenerate")

DEFAULT_TOL_PASS = 1e-7
DEFAULT_TOL_MARGIN = 1e-6
RANDOM_COMBINATIONS = 16
CHUNK = 16               # sample points per geometry_chunk call; see the module docstring


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

def extract_invariants(geom: PointGeometry, frame: Frame) -> tuple:
    """Read (epsilon, f, h) off the first adapted frame vectors, at a point or
    over a chunk.

    f comes from the plane (e_1, u), h from (e_1, e_2).  The frame comes from
    adapted_frames: e_0 is u, the spatial vectors are the metric's
    eigenvectors on u's orthogonal complement, and a row with a non-unit u
    or a near-null complement is rejected.  Cross-validation over random
    plane choices happens in _isotropy.
    """
    u, R = geom.u, geom.riemann_up
    e1, e2 = frame.vectors[..., 1, :], frame.vectors[..., 2, :]
    eta1, eta2 = frame.etas[..., 1], frame.etas[..., 2]
    f = eta1 * _bilinear(np.einsum('...rsmn,...s,...m,...n->...r', R, u, e1, u), geom.g, e1)
    h = eta1 * eta2 * _bilinear(np.einsum('...rsmn,...s,...m,...n->...r', R, e2, e1, e2),
                                geom.g, e1)
    return geom.epsilon, _scalar(f), _scalar(h)


def _unit_rows(v: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of v made unit, and which are accepted (also over a chunk).

    A candidate is rejected when its coordinate norm is below 1e-12 or its
    coordinate-unit version w has |g(w,w)| < PIVOT_TOL (near-null); the unit
    version is rescaled to |g(v,v)| = 1.
    """
    norm = np.linalg.norm(v, axis=-1)
    long = norm >= 1e-12
    w = v / np.where(long, norm, 1.0)[..., None]
    q = np.abs(((w @ g) * w).sum(axis=-1))
    ok = long & (q >= PIVOT_TOL)
    return w / np.sqrt(np.where(ok, q, 1.0))[..., None], ok


def _draws(frame: Frame, rngs: list) -> tuple:
    """Per row of a chunk: its pool (spatial frame vectors, then random unit
    combinations), its pairs (frame pairs, then random orthonormal pairs)
    and its FrameError or None.

    A round draws normal(3 count, n-1) from each row's rng: count pool
    candidates, then count (x, y) pairs, y made g-orthogonal to x.  A row
    takes its first candidates and pairs that are not near-null, in draw
    order; rounds are drawn while some row is short, at most 64.  A row
    still short of pool candidates gets a FrameError, one short of pairs
    repeats its last pair.  Only rows that rejected something are gathered.
    """
    count, spatial, g = RANDOM_COMBINATIONS, frame.spatial, frame.g
    k = spatial.shape[-2]
    draws = []
    for _ in range(64):
        blocks = np.array([rng.normal(size=(3 * count, k)) for rng in rngs])
        raw = np.concatenate([blocks[:, :count] @ spatial, blocks[:, count:] @ spatial], axis=1)
        unit, ok = _unit_rows(raw, g)
        x, raw_y = unit[:, count::2], raw[:, count + 1::2]
        eta_x = np.where(((x @ g) * x).sum(axis=-1) > 0, 1.0, -1.0)
        y, ok_y = _unit_rows(raw_y - (eta_x * ((raw_y @ g) * x).sum(axis=-1))[..., None] * x, g)
        draws.append((unit[:, :count], ok[:, :count], x, y, ok[:, count::2] & ok_y))
        units, kept, xs, ys, paired = (np.concatenate(part, axis=1) for part in zip(*draws))
        if (kept.sum(axis=1) >= count).all() and (paired.sum(axis=1) >= count).all():
            break
    i, j = np.triu_indices(k, 1)
    pool = np.concatenate([spatial, units[:, :count]], axis=1)
    pair_x = np.concatenate([spatial[:, i], xs[:, :count]], axis=1)
    pair_y = np.concatenate([spatial[:, j], ys[:, :count]], axis=1)
    errors = [None] * len(rngs)
    for b in np.flatnonzero(~(kept[:, :count].all(axis=1) & paired[:, :count].all(axis=1))):
        take = np.flatnonzero(kept[b])[:count]
        if len(take) < count:
            errors[b] = FrameError("could not draw enough non-null unit combinations")
            continue
        pool[b, k:] = units[b, take]
        rows = np.concatenate([np.arange(len(i)), len(i) + np.flatnonzero(paired[b])[:count]])
        rows = rows[np.minimum(np.arange(pair_x.shape[1]), len(rows) - 1)]
        pair_x[b] = np.concatenate([spatial[b, i], xs[b]])[rows]
        pair_y[b] = np.concatenate([spatial[b, j], ys[b]])[rows]
    return pool, pair_x, pair_y, errors


def _isotropy(geom: PointGeometry, frame: Frame, f: np.ndarray, h: np.ndarray,
              rngs: list) -> tuple[dict, list]:
    """The five algebraic residuals at each row of a chunk, maximized over
    frame vectors and random unit combinations orthogonal to u: each residual
    as a list over rows, and each row's FrameError or None.

    Every residual vector w is measured by the frame norm |M w| with
    M = diag(etas) V g (V the frame rows), so each check is a tensor in frame
    components contracted with the pool.  The model term of the split form is
    folded into the curvature once,

        D[a,s,m,n] = (M R)[a,s,m,n] - h (g_ns M_am - g_ms M_an),

    and D, (M R) with u, and f M are stacked with the x slot leading, so three
    matmuls contract the pool into x, then y, then z (eq14 only).  Each
    maximum is taken over sums of squares, with one square root at the end.
    eq14's (pool, pool, n, pool) product is formed one row at a time: for a
    whole chunk it would raise peak memory by about 15%.
    """
    n = geom.dim
    pool, xs, ys, errors = _draws(frame, rngs)
    size = pool.shape[1]
    u, g = geom.u, geom.g
    M = frame.etas[..., None] * (frame.vectors @ g)
    MR = (M @ geom.riemann_up.reshape(-1, n, n**3)).reshape(-1, n, n, n, n)    # [b,a,s,m,n]
    D = MR - h[:, None, None, None, None] * (g[:, None, :, None, :] * M[:, :, None, :, None]
                                             - g[:, None, :, :, None] * M[:, :, None, None, :])
    MR_u = _apply(MR, u[:, None, None])                                      # [b,a,s,m]
    u_MR = (u[:, None, None] @ MR.reshape(-1, n, n, n * n)).reshape(-1, n, n, n)  # [b,a,m,n]
    eps_f = (geom.epsilon * f)[:, None, None, None]

    # x slot (m) leading; the y slot is last in each of the first three blocks
    with_x = pool @ np.concatenate([                                         # [b,x,...]
        D.transpose(0, 3, 2, 1, 4).reshape(-1, n, n**3),                     # eq14 [m,s,a,n]
        u_MR.transpose(0, 2, 1, 3).reshape(-1, n, n * n),                    # a43  [m,a,n]
        (MR_u + eps_f * _apply(M, u)[:, :, None, None] * g[:, None])
        .transpose(0, 3, 1, 2).reshape(-1, n, n * n),                        # a44  [m,a,s]
        (_apply(u_MR, u[:, None]) - f[:, None, None] * M).swapaxes(1, 2),    # eq13 [m,a]
    ], axis=2)
    eq13 = _squares(with_x[..., -n:], 'xa')
    eq14 = np.empty(len(pool))
    for b, (row, p) in enumerate(zip(with_x[..., :n**3], pool)):
        xy = (row.reshape(-1, n) @ p.T).reshape(size, n, n, size).transpose(1, 0, 2, 3)  # [s,x,a,y]
        eq14[b] = _squares((p @ xy.reshape(n, -1)).reshape(size, size, n, size), 'zxay')
    with_xy = (with_x[..., n**3:-n].reshape(len(pool), -1, n) @ pool.swapaxes(1, 2))
    with_xy = with_xy.reshape(len(pool), size, 2 * n, size)
    a43, a44 = _squares(with_xy[:, :, :n], 'xay'), _squares(with_xy[:, :, n:], 'xay')

    # R(x,u)y + R(y,u)x vanishes only for orthogonal unit pairs (its symmetric
    # part carries the -eps f g(x,y) u term), so pair up orthonormally.
    sym = (MR_u + MR_u.swapaxes(-1, -2)).reshape(-1, n, n * n)
    skew = _squares((ys[..., :, None] * xs[..., None, :]).reshape(len(xs), -1, n * n)
                    @ sym.swapaxes(1, 2), 'pa')

    scale = geom.residual_scale
    return {key: (np.sqrt(value) / scale).tolist() for key, value in
            (("eq13", eq13), ("eq14", eq14), ("a43", a43), ("a44", a44),
             ("skewA1", skew))}, errors


def _squares(comps: np.ndarray, axes: str):
    """Largest sum of squares over the frame-component axis 'a', per row."""
    summed = np.einsum(f"...{axes},...{axes}->...{axes.replace('a', '')}", comps, comps)
    return summed.max(axis=tuple(range(1 - len(axes), 0)))


def _structure_residuals(geom: PointGeometry, frame: Frame, f: np.ndarray, h: np.ndarray,
                         tol_margin: float) -> dict[str, list]:
    """The six differential residuals over a chunk, as lists over rows."""
    eps = geom.epsilon
    u, g = geom.u, geom.g
    scale = geom.residual_scale
    spatial = frame.spatial
    spatial_T = spatial.swapaxes(-1, -2)

    nabla = geom.nabla_u()
    accel = (u[:, None] @ nabla)[:, 0]
    f_tr, h_tr, df, dh = trace_invariants(geom, gradients=True)
    margin = h - eps * f

    # df(x) = -(h - eps f) g(x, nabla_u u) for x | u
    df_x = _apply(spatial, df)
    acc_x = _apply(spatial @ g, accel)
    bianchi31 = np.abs(df_x + margin[:, None] * acc_x).max(axis=-1)

    # g(nabla_x u, y) symmetric on the orthogonal complement
    B = nabla @ g                          # B[m, s] = g(nabla_m u, d_s)
    M = (spatial @ B) @ spatial_T          # M[a, b] = g(nabla_{e_a} u, e_b)
    M_T = M.swapaxes(-1, -2)
    bianchi32 = np.abs(M - M_T).max(axis=(-2, -1))

    # dh(x) = 0 for x | u
    bianchi33 = np.abs(_apply(spatial, dh)).max(axis=-1)

    # pure-trace expansion: g(x, nabla_y u) = -dh(u)/(2(h - eps f)) g(x, y),
    # checked only outside the margin band
    band = np.abs(margin) > tol_margin
    coeff = _dot(dh, u) / (2.0 * np.where(band, margin, 1.0))
    gram = spatial @ g @ spatial_T
    shear = np.abs(M_T + coeff[:, None, None] * gram).max(axis=(-2, -1)) / scale

    # d[ (h - eps f) u-flat ] = 0, using the differentiable trace fields
    margin_tr = h_tr - eps * f_tr
    dmargin = dh - eps[:, None] * df
    u_flat = _apply(g, u)
    du_flat = (np.einsum('...mns,...s->...mn', geom.dg, u)
               + np.einsum('...ns,...ms->...mn', g, geom.du))
    domega = (np.einsum('...m,...n->...mn', dmargin, u_flat)
              + margin_tr[:, None, None] * du_flat)
    closedness = np.abs(domega - domega.swapaxes(-1, -2)).max(axis=(-2, -1))

    geodesy = frame.norm(accel)

    return {"bianchi31": (bianchi31 / scale).tolist(), "bianchi32": (bianchi32 / scale).tolist(),
            "bianchi33": (bianchi33 / scale).tolist(),
            "shear": [s if ok else None for s, ok in zip(shear.tolist(), band)],
            "closedness": (closedness / scale).tolist(), "geodesy": (geodesy / scale).tolist()}


# -- sampling and classification ---------------------------------------------------

def _require_dim4(chart: ChartSpec) -> None:
    if chart.dim < 4:
        raise CertificationInputError(
            f"chart {chart.name!r} has dim {chart.dim}; certification needs dim >= 4")


def sample_point(chart: ChartSpec, point, rng=None,
                 tol_margin: float = DEFAULT_TOL_MARGIN) -> IsotropySample:
    """Full residual evaluation at one point: the battery on a chunk of one."""
    _require_dim4(chart)
    rng = np.random.default_rng(0) if rng is None else rng
    chunk, errors = geometry_chunk(chart, [point], order=3)
    result = errors[0] or _battery(chunk, [rng], tol_margin)[0]
    if isinstance(result, Exception):
        raise result
    return result


def _battery(chunk: PointGeometry, rngs: list, tol_margin: float) -> list:
    """The residual battery at each point of a chunk, point b drawing its
    random directions from rngs[b] (its frame involves no random choice):
    per point its IsotropySample, or the GeometryError that makes it
    Degenerate."""
    vectors, etas, results = adapted_frames(chunk.g, chunk.u)
    live = [b for b, err in enumerate(results) if err is None]
    if not live:
        return results
    if len(live) < len(results):
        chunk = take_rows(chunk, live)
        rngs, vectors, etas = [rngs[b] for b in live], vectors[live], etas[live]
    frame = Frame(vectors, etas, chunk.g)
    eps, f, h = extract_invariants(chunk, frame)
    residuals, errors = _isotropy(chunk, frame, f, h, rngs)
    residuals.update(_structure_residuals(chunk, frame, f, h, tol_margin))
    # the constant-curvature residual |R_{rsmn} - h (g_rm g_sn - g_rn g_sm)|, relative
    g = chunk.g
    model = h[:, None, None, None, None] * (np.einsum('...rm,...sn->...rsmn', g, g)
                                            - np.einsum('...rn,...sm->...rsmn', g, g))
    cc = np.abs(chunk.riemann_low - model).max(axis=(1, 2, 3, 4)) / chunk.residual_scale
    for i, b in enumerate(live):
        results[b] = errors[i] or IsotropySample(
            point=chunk.point[i], epsilon=int(eps[i]), f=float(f[i]), h=float(h[i]),
            nondegeneracy=float(abs(h[i] - eps[i] * f[i])), cc_residual=float(cc[i]),
            residuals={key: residuals[key][i] for key in RESIDUAL_KEYS})
    return results


def certify(chart: ChartSpec, config: CertifyConfig | None = None) -> Certificate:
    """Sample the domain and classify the chart.

    Draws config.samples points uniformly (seeded).  Points where the
    preconditions fail (degenerate metric, non-unit u, a near-null direction
    orthogonal to u, expression domain errors) make the verdict Degenerate.
    Points are evaluated CHUNK at a time (see the module docstring);
    geometry_chunk gives each point of a chunk its own geometry or reason,
    and only the points that evaluate go on to the battery.  Aggregation is
    an ordered reduction over sample index; config.threads is ignored.
    """
    config = config or CertifyConfig()
    _require_dim4(chart)
    if config.samples < 1:
        raise CertificationInputError("sample count must be >= 1")

    seed_seq = np.random.SeedSequence(config.seed)
    point_rng = np.random.default_rng(seed_seq)
    lows, highs = np.array(chart.domain, dtype=float).T
    points = point_rng.uniform(lows, highs, size=(config.samples, chart.dim))
    children = seed_seq.spawn(config.samples)

    samples: list[IsotropySample] = []
    degenerate: list[tuple[list[float], str]] = []
    for start in range(0, config.samples, CHUNK):
        chunk = points[start:start + CHUNK]
        geoms, results = geometry_chunk(chart, chunk, order=3)
        evaluated = [k for k, err in enumerate(results) if err is None]
        if evaluated:
            rngs = [np.random.default_rng(children[start + k]) for k in evaluated]
            for k, result in zip(evaluated, _battery(geoms, rngs, config.tol_margin)):
                results[k] = result
        for point, result in zip(chunk, results):
            if isinstance(result, IsotropySample):
                samples.append(result)
            else:
                degenerate.append((point.tolist(), str(result)))

    notes: list[str] = []
    residual_max = {key: max((s.residuals[key] for s in samples
                              if s.residuals[key] is not None), default=None)
                    for key in RESIDUAL_KEYS}
    margins = [s.nondegeneracy for s in samples]
    min_margin, max_margin = min(margins, default=None), max(margins, default=None)
    cc_max = max((s.cc_residual for s in samples), default=None)
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
