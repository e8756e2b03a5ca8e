"""Residual battery and chart classification.

Eleven named residuals are evaluated per sample point.  Five are algebraic
curvature checks against the split form

    R(x,u)u = f x,    R(x,y)z = h (g(y,z) x - g(x,z) y)      (x,y,z | u)

together with its consequences R(x,y)u = 0, R(x,u)y = -eps f g(x,y) u and the
skew symmetry of (x,y) -> R(x,u)y.  Six more are differential: the directional
derivative identities for f and h, symmetry of g(nabla_. u, .), the pure-trace
shear law, closedness of (h - eps f) u-flat, and the geodesy diagnostic
|nabla_u u|.  f and h are the frame-free trace invariants.  All residuals
are relative to 1 + max |R_{rsmn}| at the point.

The algebraic residuals are Frobenius norms of their deviation tensors in
the components of the adapted frame (see _isotropy).  A multilinear form
vanishes exactly when its components in a basis do, so no random direction
is drawn: the battery makes no random choice, and on a definite fibre no
residual depends on which orthonormal spatial frame it is read in.

certify works on chunks of CHUNK = 16 sample points: geometry_chunk evaluates
a chunk's order-3 geometry in one pass, and one call of the battery
(_battery) computes the frames, invariants and residuals of all its points as
array operations over a leading chunk axis.  Rows whose frame fails leave
the chunk by take_rows, whose rows round as the chunk's did.  sample_point
runs the same body on a chunk of one, which geometry_chunk builds from its
point's own arrays; it is on no hot path.

The chunk is bounded by memory, not speed: it holds every tensor of every
point in it.  certify(256) on flrw_closed_osc peaks at 1.72 MB of traced
allocations.  Chunks of 32 or 256 points were no faster than 16 in the
geometry and held 2x and 9x its memory.

Classification is sampled evidence, never proof: the certificate records the
sample count and seed it was computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import __version__
from .chart import ChartSpec
from .geometry import (Frame, PointGeometry, _apply, _dot, adapted_frames, geometry_chunk,
                       take_rows, trace_invariants)

RESIDUAL_KEYS = ("eq13", "eq14", "a43", "a44", "skewA1",
                 "bianchi31", "bianchi32", "bianchi33",
                 "shear", "closedness", "geodesy")

CLASSIFICATIONS = ("LocallyRW", "ConstantCurvature", "NotIsotropic", "Degenerate")

DEFAULT_TOL_PASS = 1e-7
DEFAULT_TOL_MARGIN = 1e-6
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


# -- residuals ---------------------------------------------------------------------

def _isotropy(geom: PointGeometry, frame: Frame, f: np.ndarray, h: np.ndarray) -> dict:
    """The five algebraic residuals at each row of a chunk, as lists over rows.

    Each is the Frobenius norm of a deviation tensor in adapted-frame
    components.  M = diag(etas) V g takes a vector to its frame components,
    and with W the frame rows with u in place of e_0,

        C[a,s,m,n] = (M R)(W_s; W_m, W_n),  the a-th component of R(W_m,W_n)W_s.

    With the spatial indices i, j, k over e_1..e_{n-1}, where the metric is
    G = diag(eta_1..eta_{n-1}), the deviations are

        eq13    R(e_i,u)u - f e_i
        eq14    R(e_i,e_j)e_k - h (G_jk e_i - G_ik e_j)
        a43     R(e_i,e_j)u
        a44     R(e_i,u)e_j + eps f G_ij u
        skewA1  the G-traceless part of S_ij = R(e_i,u)e_j + R(e_j,u)e_i.

    A multilinear form vanishes exactly when its components in a basis do, so
    no choice of directions could see more; on a definite fibre each norm
    bounds the form's value at any unit directions (skewA1, S's value at any
    orthonormal pair).
    """
    n = geom.dim
    g, u = geom.g, geom.u
    M = frame.etas[..., None] * (frame.vectors @ g)
    W = np.concatenate([u[:, None], frame.spatial], axis=1)
    MR = (M @ geom.riemann_up.reshape(-1, n, n**3)).reshape(-1, n, n, n, n)    # [b,a,s,m,n]
    C = W[:, None, None] @ (MR @ W.swapaxes(-1, -2)[:, None, None])           # m and n
    C = (W[:, None] @ C.reshape(-1, n, n, n * n)).reshape(-1, n, n, n, n)     # then s
    eta = frame.etas[:, 1:]
    G = eta[:, :, None] * np.eye(n - 1)                                       # [b,i,j]
    E = np.eye(n)[:, 1:]                                                      # [a,i]: e_i
    S = C[:, :, 1:, 1:, 0]                                                    # [b,a,j,i]
    S = S + S.swapaxes(-1, -2)
    trace = (S.diagonal(axis1=-2, axis2=-1) * eta[:, None]).sum(axis=-1)
    deviations = {
        "eq13": C[:, :, 0, 1:, 0] - f[:, None, None] * E,
        "eq14": C[:, :, 1:, 1:, 1:] - h[:, None, None, None, None] * (
            E[:, None, :, None] * G[:, None, :, None, :]
            - E[:, None, None, :] * G[:, None, :, :, None]),                  # [b,a,k,i,j]
        "a43": C[:, :, 0, 1:, 1:],
        "a44": C[:, :, 1:, 1:, 0] + (geom.epsilon * f)[:, None, None, None]
        * _apply(M, u)[:, :, None, None] * G[:, None],
        "skewA1": S - (trace / (n - 1))[:, :, None, None] * G[:, None],
    }
    scale = geom.residual_scale
    return {key: (np.linalg.norm(value.reshape(len(value), -1), axis=1) / scale).tolist()
            for key, value in deviations.items()}


def _structure_residuals(geom: PointGeometry, frame: Frame, f: np.ndarray, h: np.ndarray,
                         df: np.ndarray, dh: np.ndarray, tol_margin: float) -> dict[str, list]:
    """The six differential residuals over a chunk, as lists over rows, from
    the trace invariants f, h and their gradients.  The first four are
    Frobenius norms of spatial frame components, so like the algebraic ones
    they do not depend on the choice of the spatial frame on a definite
    fibre."""
    eps = geom.epsilon
    u, g = geom.u, geom.g
    scale = geom.residual_scale
    spatial = frame.spatial
    spatial_T = spatial.swapaxes(-1, -2)

    nabla = geom.nabla_u()
    accel = (u[:, None] @ nabla)[:, 0]
    margin = h - eps * f

    # df(x) = -(h - eps f) g(x, nabla_u u) for x | u
    df_x = _apply(spatial, df)
    acc_x = _apply(spatial @ g, accel)
    bianchi31 = np.linalg.norm(df_x + margin[:, None] * acc_x, axis=-1)

    # g(nabla_x u, y) symmetric on the orthogonal complement
    B = nabla @ g                          # B[m, s] = g(nabla_m u, d_s)
    M = (spatial @ B) @ spatial_T          # M[a, b] = g(nabla_{e_a} u, e_b)
    M_T = M.swapaxes(-1, -2)
    bianchi32 = np.linalg.norm(M - M_T, axis=(-2, -1))

    # dh(x) = 0 for x | u
    bianchi33 = np.linalg.norm(_apply(spatial, dh), axis=-1)

    # pure-trace expansion: g(x, nabla_y u) = -dh(u)/(2(h - eps f)) g(x, y),
    # checked only outside the margin band
    band = np.abs(margin) > tol_margin
    coeff = _dot(dh, u) / (2.0 * np.where(band, margin, 1.0))
    gram = spatial @ g @ spatial_T
    shear = np.linalg.norm(M_T + coeff[:, None, None] * gram, axis=(-2, -1)) / scale

    # d[ (h - eps f) u-flat ] = 0
    dmargin = dh - eps[:, None] * df
    u_flat = _apply(g, u)
    du_flat = (np.einsum('...mns,...s->...mn', geom.dg, u)
               + np.einsum('...ns,...ms->...mn', g, geom.du))
    domega = (np.einsum('...m,...n->...mn', dmargin, u_flat)
              + margin[:, None, None] * du_flat)
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
    """Full residual evaluation at one point: the battery on a chunk of one.

    rng is accepted and unused, since the battery makes no random choice;
    bench/baseline.py still passes one.
    """
    _require_dim4(chart)
    chunk, errors = geometry_chunk(chart, [point], order=3)
    result = errors[0] or _battery(chunk, tol_margin)[0]
    if isinstance(result, Exception):
        raise result
    return result


def _battery(chunk: PointGeometry, tol_margin: float) -> list:
    """The residual battery at each point of a chunk: per point its
    IsotropySample, or the GeometryError that makes it Degenerate."""
    vectors, etas, results = adapted_frames(chunk.g, chunk.u)
    live = [b for b, err in enumerate(results) if err is None]
    if not live:
        return results
    if len(live) < len(results):
        chunk = take_rows(chunk, live)
        vectors, etas = vectors[live], etas[live]
    frame = Frame(vectors, etas, chunk.g)
    eps = chunk.epsilon
    f, h, df, dh = trace_invariants(chunk, gradients=True)
    residuals = _isotropy(chunk, frame, f, h)
    residuals.update(_structure_residuals(chunk, frame, f, h, df, dh, tol_margin))
    # the constant-curvature residual |R_{rsmn} - h (g_rm g_sn - g_rn g_sm)|, relative
    g = chunk.g
    model = h[:, None, None, None, None] * (np.einsum('...rm,...sn->...rsmn', g, g)
                                            - np.einsum('...rn,...sm->...rsmn', g, g))
    cc = np.abs(chunk.riemann_low - model).max(axis=(1, 2, 3, 4)) / chunk.residual_scale
    for i, b in enumerate(live):
        results[b] = IsotropySample(
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

    lows, highs = np.array(chart.domain, dtype=float).T
    points = np.random.default_rng(config.seed).uniform(lows, highs,
                                                        size=(config.samples, chart.dim))

    samples: list[IsotropySample] = []
    degenerate: list[tuple[list[float], str]] = []
    for start in range(0, config.samples, CHUNK):
        chunk = points[start:start + CHUNK]
        geoms, results = geometry_chunk(chart, chunk, order=3)
        evaluated = [k for k, err in enumerate(results) if err is None]
        if evaluated:
            for k, result in zip(evaluated, _battery(geoms, config.tol_margin)):
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
