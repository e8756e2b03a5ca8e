"""Pointwise curvature from order-truncated jet evaluation of the metric.

Conventions, fixed once for the whole library:

    Gamma^k_ij   = 1/2 g^{km} (g_{mj,i} + g_{mi,j} - g_{ij,m})
    R^r_{smn}    = d_m Gamma^r_{ns} - d_n Gamma^r_{ms}
                   + Gamma^r_{ml} Gamma^l_{ns} - Gamma^r_{nl} Gamma^l_{ms}
    R_{rsmn}     = g_{ra} R^a_{smn}
    (R(X,Y)Z)^r  = R^r_{smn} Z^s X^m Y^n

With these choices and signature (-,+,+,+), a warped metric -dt^2 + a(t)^2 s_k
yields the plane invariants f = -a''/a and h = (a'^2 + k)/a^2.  Under the other
overall Riemann sign the two invariants flip sign together, so only the
documented convention distinguishes reports, never the verdicts.

All matrix-valued results carry first coordinate derivatives; with order=3 the
lowered Riemann tensor does too, which is what the differential checks (df, dh,
closedness, second Bianchi) consume.  Residuals are reported relative to
1 + max |R_{rsmn}| at the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import ChartSpec
from .jets import Jet3

UNIT_TOL = 1e-8          # |g(u,u)| must be within this of 1
PIVOT_TOL = 1e-6         # Gram-Schmidt rejects pivots with |g(v,v)| below this
DET_TOL = 1e-10          # scaled |det g| below this is degenerate
PLANE_TOL = 1e-10        # scaled Gram determinant below this is a degenerate plane
MAX_PIVOT_TRIES = 32


class GeometryError(ValueError):
    pass


class OutsideDomainError(GeometryError):
    pass


class DegenerateMetricError(GeometryError):
    pass


class DegeneratePlaneError(GeometryError):
    pass


class UnitVectorError(GeometryError):
    pass


class FrameError(GeometryError):
    pass


@dataclass
class PointGeometry:
    """Metric, connection and curvature at one point, with first derivatives.

    Index layout: a leading index on a `d`-prefixed array is the coordinate
    derivative, e.g. dg[l, i, j] = d_l g_ij and dgamma[l, k, i, j] = d_l
    Gamma^k_ij.  riemann_up is R^r_{smn} indexed [r, s, m, n]; riemann_low has
    the first index lowered.  driemann_* are None when built with order=2.
    """

    point: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    g_inv: np.ndarray
    dg_inv: np.ndarray
    gamma: np.ndarray
    dgamma: np.ndarray | None
    riemann_up: np.ndarray | None
    riemann_low: np.ndarray | None
    driemann_up: np.ndarray | None
    driemann_low: np.ndarray | None
    signature: tuple[int, ...]
    u: np.ndarray
    du: np.ndarray          # du[l, k] = d_l u^k
    u_norm2: float          # g(u, u)
    order: int

    @property
    def dim(self) -> int:
        return self.point.shape[0]

    @property
    def epsilon(self) -> int:
        return 1 if self.u_norm2 > 0 else -1

    @property
    def residual_scale(self) -> float:
        if self.riemann_low is None:
            raise GeometryError("curvature requires geometry evaluated with order >= 2")
        return 1.0 + float(np.abs(self.riemann_low).max())

    def ip(self, v: np.ndarray, w: np.ndarray) -> float:
        return float(v @ self.g @ w)

    def nabla_u(self) -> np.ndarray:
        """(nabla_mu u)^nu = d_mu u^nu + Gamma^nu_{mu lam} u^lam, indexed [mu, nu]."""
        return self.du + np.einsum('nml,l->mn', self.gamma, self.u)

    def acceleration(self) -> np.ndarray:
        return self.u @ self.nabla_u()


def geometry_at(chart: ChartSpec, point, order: int = 3) -> PointGeometry:
    """Evaluate the chart's geometry at a point inside its domain.

    The metric and u are evaluated by the chart's compiled programs
    (ChartSpec.programs) over jets truncated at `order`.  order=3 (default)
    also produces the coordinate gradient of the Riemann tensor; order=2 skips
    it and is noticeably cheaper for quadrature loops; order=1 stops at the
    connection (enough for transport integrators).  A non-finite metric or u
    value or derivative is a DegenerateMetricError.
    """
    if order not in (1, 2, 3):
        raise GeometryError(f"order must be 1, 2 or 3, got {order!r}")
    n = chart.dim
    point = np.asarray(point, dtype=float)
    if point.shape != (n,):
        raise GeometryError(f"point must have {n} coordinates, got shape {point.shape}")
    if not chart.contains(point):
        raise OutsideDomainError(f"point {point.tolist()} outside domain of chart {chart.name!r}")

    programs = chart.programs
    env = {name: Jet3.variable(k, point[k], n, order) for k, name in enumerate(chart.coords)}

    g = programs.metric_constant.copy()
    dg = np.zeros((n, n, n))
    d2g = np.zeros((n, n, n, n)) if order >= 2 else None
    d3g = np.zeros((n, n, n, n, n)) if order >= 3 else None
    # an overflowing chart leaves inf or nan, which is rejected below as a
    # degenerate point; numpy's warnings about it would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for i, j, program in programs.metric_varying:
                jet = program(env)
                g[i, j] = g[j, i] = jet.value
                dg[:, i, j] = dg[:, j, i] = jet.grad
                if order >= 2:
                    d2g[:, :, i, j] = d2g[:, :, j, i] = jet.hess
                if order >= 3:
                    d3g[:, :, :, i, j] = d3g[:, :, :, j, i] = jet.cube
        except OverflowError as err:
            raise _overflow(point, "metric", err) from err
        _require_finite(point, "metric", g, dg, d2g, d3g)

        # numpy powers overflow to inf instead of raising; an overflowing
        # determinant gives nan, which is degenerate too
        scale = np.float64(max(float(np.abs(g).max()), 1e-300))
        scaled_det = abs(float(np.linalg.det(g))) / scale**n
    if not scaled_det > DET_TOL:
        raise DegenerateMetricError(
            f"metric degenerate at {point.tolist()} (scaled |det g| = {scaled_det:.3e})")

    g_inv = np.linalg.inv(g)
    g_inv = 0.5 * (g_inv + g_inv.T)
    g_inv_dg = g_inv @ dg                                    # [l,i,b] = g^ia d_l g_ab
    dg_inv = -(g_inv_dg @ g_inv)

    T = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg   # T[m,i,j] = g_mj,i + g_mi,j - g_ij,m
    gamma = 0.5 * np.einsum('km,mij->kij', g_inv, T)

    dgamma = riemann_up = riemann_low = driemann_up = driemann_low = None
    if order >= 2:
        dT = d2g.transpose(0, 2, 1, 3) + d2g.transpose(0, 2, 3, 1) - d2g   # d_l T
        dgamma = 0.5 * (np.einsum('lkm,mij->lkij', dg_inv, T)
                        + np.einsum('km,lmij->lkij', g_inv, dT))
        riemann_up = (np.einsum('mrns->rsmn', dgamma) - np.einsum('nrms->rsmn', dgamma)
                      + np.einsum('rml,lns->rsmn', gamma, gamma)
                      - np.einsum('rnl,lms->rsmn', gamma, gamma))
        riemann_low = np.einsum('ar,rsmn->asmn', g, riemann_up)
    if order >= 3:
        d2g_inv = -((dg_inv[None] @ dg[:, None]) @ g_inv
                    + (g_inv @ d2g) @ g_inv
                    + g_inv_dg[:, None] @ dg_inv[None])
        d2g_inv = 0.5 * (d2g_inv + d2g_inv.transpose(1, 0, 2, 3))
        d2T = d3g.transpose(0, 1, 3, 2, 4) + d3g.transpose(0, 1, 3, 4, 2) - d3g   # d_p d_l T
        d2gamma = 0.5 * (np.einsum('plkm,mij->plkij', d2g_inv, T)
                         + np.einsum('lkm,pmij->plkij', dg_inv, dT)
                         + np.einsum('pkm,lmij->plkij', dg_inv, dT)
                         + np.einsum('km,plmij->plkij', g_inv, d2T))
        driemann_up = (np.einsum('pmrns->prsmn', d2gamma) - np.einsum('pnrms->prsmn', d2gamma)
                       + np.einsum('prml,lns->prsmn', dgamma, gamma)
                       + np.einsum('rml,plns->prsmn', gamma, dgamma)
                       - np.einsum('prnl,lms->prsmn', dgamma, gamma)
                       - np.einsum('rnl,plms->prsmn', gamma, dgamma))
        driemann_low = (np.einsum('par,rsmn->pasmn', dg, riemann_up)
                        + np.einsum('ar,prsmn->pasmn', g, driemann_up))

    u = programs.u_constant.copy()
    du = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k, program in programs.u_varying:
                jet = program(env)
                u[k] = jet.value
                du[:, k] = jet.grad
        except OverflowError as err:
            raise _overflow(point, "u", err) from err
        if chart.normalize_u:
            # u / sqrt|q| with q = g(u,u); du follows from d_l q = d_l g(u,u) + 2 g(d_l u, u)
            q = float(u @ g @ u)
            if abs(q) < 1e-12:
                raise UnitVectorError(f"cannot normalize a near-null u (g(u,u) = {q:.3e})")
            dq = np.einsum('lab,a,b->l', dg, u, u) + 2.0 * (du @ (g @ u))
            root = np.sqrt(abs(q))
            u, du = u / root, du / root - np.outer(0.5 * dq / (q * root), u)
        _require_finite(point, "u", u, du)
    u_norm2 = float(u @ g @ u)

    if order >= 2:
        eigenvalues = np.linalg.eigvalsh(g)
        signature = tuple(1 if ev > 0 else -1 for ev in eigenvalues)
    else:
        signature = ()

    return PointGeometry(point=point, g=g, dg=dg, g_inv=g_inv, dg_inv=dg_inv,
                         gamma=gamma, dgamma=dgamma,
                         riemann_up=riemann_up, riemann_low=riemann_low,
                         driemann_up=driemann_up, driemann_low=driemann_low,
                         signature=signature, u=u, du=du, u_norm2=u_norm2, order=order)


def _require_finite(point: np.ndarray, what: str, *arrays) -> None:
    """Overflowing expressions leave inf or nan, which no check downstream
    could interpret: reject them as a degenerate point."""
    for arr in arrays:
        if arr is not None and not np.isfinite(arr).all():
            raise DegenerateMetricError(
                f"non-finite {what} value or derivative at {point.tolist()}")


def _overflow(point: np.ndarray, what: str, err: OverflowError) -> DegenerateMetricError:
    """Python float powers inside the jets raise where numpy would give inf."""
    return DegenerateMetricError(f"{what} overflows at {point.tolist()}: {err}")


def sectional_curvature(geom: PointGeometry, v, w) -> float:
    """K(span(v, w)) = R(v,w,w,v) / (g(v,v) g(w,w) - g(v,w)^2)."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    vn = v / np.linalg.norm(v) if np.linalg.norm(v) > 0 else v
    wn = w / np.linalg.norm(w) if np.linalg.norm(w) > 0 else w
    scaled_gram = geom.ip(vn, vn) * geom.ip(wn, wn) - geom.ip(vn, wn)**2
    if abs(scaled_gram) <= PLANE_TOL:
        raise DegeneratePlaneError(
            f"plane degenerate (scaled Gram determinant {scaled_gram:.3e})")
    numerator = float(np.einsum('asmn,a,s,m,n->', geom.riemann_low, v, w, v, w))
    denominator = geom.ip(v, v) * geom.ip(w, w) - geom.ip(v, w)**2
    return numerator / denominator


@dataclass
class Frame:
    """Orthonormal frame rows e_0..e_{n-1} with e_0 = u; etas[a] = g(e_a, e_a)."""

    vectors: np.ndarray
    etas: np.ndarray
    g: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def spatial(self) -> np.ndarray:
        return self.vectors[1:]

    def components(self, w: np.ndarray) -> np.ndarray:
        """Coefficients of w in the frame (Riemannianized: always well-scaled)."""
        return self.etas * (self.vectors @ self.g @ w)

    def norm(self, w: np.ndarray) -> float:
        """Positive-definite norm: Euclidean length of the frame components."""
        return float(np.linalg.norm(self.components(w)))


def adapted_frame(geom: PointGeometry, u_value=None, rng=None) -> Frame:
    """Complete u to an orthonormal frame by pivoted Gram-Schmidt.

    Pivot candidates are the coordinate axes in rng-shuffled order; a candidate
    is rejected when, after projection, its unit-coordinate-norm version has
    |g(v,v)| < PIVOT_TOL (this is what near-null directions look like).  Up to
    MAX_PIVOT_TRIES random axis mixtures are tried afterwards.  Deterministic
    for a given rng state.
    """
    u = geom.u if u_value is None else np.asarray(u_value, dtype=float)
    rng = np.random.default_rng(0) if rng is None else rng
    n = geom.dim
    q = geom.ip(u, u)
    if abs(abs(q) - 1.0) > UNIT_TOL:
        raise UnitVectorError(f"u is not unit: g(u,u) = {q!r}")

    vectors = [u / np.sqrt(abs(q))]
    etas = [1 if q > 0 else -1]
    candidates = [_axis(k, n) for k in rng.permutation(n)]
    for _ in range(n - 1):
        accepted = None
        tries = 0
        while accepted is None and tries < MAX_PIVOT_TRIES:
            if candidates:
                trial = candidates.pop(0)
            else:
                mix = rng.normal(size=n)
                trial = mix / np.linalg.norm(mix)
            tries += 1
            v = trial.astype(float).copy()
            for e, eta in zip(vectors, etas):
                v -= eta * geom.ip(v, e) * e
            norm = np.linalg.norm(v)
            if norm < 1e-12:
                continue
            v /= norm
            q_v = geom.ip(v, v)
            if abs(q_v) < PIVOT_TOL:
                continue
            accepted = v / np.sqrt(abs(q_v))
        if accepted is None:
            raise FrameError(
                f"Gram-Schmidt failed after {MAX_PIVOT_TRIES} pivot candidates")
        vectors.append(accepted)
        etas.append(1 if geom.ip(accepted, accepted) > 0 else -1)
    return Frame(np.array(vectors), np.array(etas, dtype=float), geom.g)


def _axis(k: int, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[k] = 1.0
    return v


# -- derived scalar fields -----------------------------------------------------

def trace_invariants(geom: PointGeometry) -> tuple[float, float]:
    """Frame-free forms of the two plane invariants.

    f = Ric(u,u)/(n-1) and h = pi^{rm} pi^{sn} R_{rsmn} / ((n-1)(n-2)) with
    pi the projector onto the orthogonal complement of u.  These coincide with
    the frame-extracted values exactly when the curvature has the isotropic
    form, and being fields they can be differentiated.
    """
    n = geom.dim
    eps = geom.epsilon
    ric = np.einsum('rsrn->sn', geom.riemann_up)
    f = float(geom.u @ ric @ geom.u) / (n - 1)
    pi_up = geom.g_inv - eps * np.outer(geom.u, geom.u)
    s = float(np.einsum('rm,sn,rsmn->', pi_up, pi_up, geom.riemann_low))
    h = s / ((n - 1) * (n - 2))
    return f, h


def trace_invariant_gradients(geom: PointGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate gradients (d_l f, d_l h) of the trace-form invariants."""
    if geom.driemann_up is None:
        raise GeometryError("gradients require geometry evaluated with order=3")
    n = geom.dim
    eps = geom.epsilon
    u, du = geom.u, geom.du
    ric = np.einsum('rsrn->sn', geom.riemann_up)
    dric = np.einsum('prsrn->psn', geom.driemann_up)
    df = (np.einsum('psn,s,n->p', dric, u, u)
          + np.einsum('sn,ps,n->p', ric, du, u)
          + np.einsum('sn,s,pn->p', ric, u, du)) / (n - 1)
    pi_up = geom.g_inv - eps * np.outer(u, u)
    dpi_up = geom.dg_inv - eps * (np.einsum('pa,b->pab', du, u) + np.einsum('a,pb->pab', u, du))
    ds = (np.einsum('prm,sn,rsmn->p', dpi_up, pi_up, geom.riemann_low)
          + np.einsum('rm,psn,rsmn->p', pi_up, dpi_up, geom.riemann_low)
          + np.einsum('rm,sn,prsmn->p', pi_up, pi_up, geom.driemann_low))
    dh = ds / ((n - 1) * (n - 2))
    return df, dh


# -- tensor identity residuals (engine self-checks) ----------------------------

def riemann_symmetry_residuals(geom: PointGeometry) -> dict[str, float]:
    """Relative residuals of the algebraic Riemann identities."""
    R = geom.riemann_low
    scale = geom.residual_scale
    return {
        "antisym_first_pair": float(np.abs(R + np.einsum('srmn->rsmn', R)).max()) / scale,
        "antisym_second_pair": float(np.abs(R + np.einsum('rsnm->rsmn', R)).max()) / scale,
        "pair_exchange": float(np.abs(R - np.einsum('mnrs->rsmn', R)).max()) / scale,
        "first_bianchi": float(np.abs(R + np.einsum('rmns->rsmn', R)
                                      + np.einsum('rnsm->rsmn', R)).max()) / scale,
    }


def covariant_riemann_derivative(geom: PointGeometry) -> np.ndarray:
    """nabla_p R_{rsmn} from the stored gradient plus connection corrections."""
    if geom.driemann_low is None:
        raise GeometryError("second Bianchi requires geometry evaluated with order=3")
    R, gamma = geom.riemann_low, geom.gamma
    return (geom.driemann_low
            - np.einsum('apr,asmn->prsmn', gamma, R)
            - np.einsum('aps,ramn->prsmn', gamma, R)
            - np.einsum('apm,rsan->prsmn', gamma, R)
            - np.einsum('apn,rsma->prsmn', gamma, R))


def second_bianchi_residual(geom: PointGeometry) -> float:
    nabla_r = covariant_riemann_derivative(geom)
    cyc = (nabla_r + np.einsum('mrsnp->prsmn', nabla_r) + np.einsum('nrspm->prsmn', nabla_r))
    return float(np.abs(cyc).max()) / (1.0 + float(np.abs(nabla_r).max()))


def metric_compatibility_residual(geom: PointGeometry) -> float:
    nabla_g = (geom.dg - np.einsum('ali,aj->lij', geom.gamma, geom.g)
               - np.einsum('alj,ia->lij', geom.gamma, geom.g))
    return float(np.abs(nabla_g).max()) / (1.0 + float(np.abs(geom.dg).max()))
