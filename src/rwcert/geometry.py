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
closedness) consume.  Only certify's residual battery evaluates order 3: the
foliation runs on order 2 and transport on order 1.  Residuals are reported
relative to 1 + max |R_{rsmn}| at the point.

geometry_at evaluates one point and geometry_chunk a batch of them, both in
one evaluator body (_evaluate), with the batch shape first: () at a point,
(B,) over a chunk.  A batch of one is its point's arrays viewed with a chunk
axis, and take_rows selects rows.  Every row equals geometry_at bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .chart import ChartSpec
from .jets import Jet3

UNIT_TOL = 1e-8          # |g(u,u)| must be within this of 1
PIVOT_TOL = 1e-6         # a coordinate-unit direction w with |g(w,w)| below this is near-null
DET_TOL = 1e-10          # scaled |det g| below this is degenerate


class GeometryError(ValueError):
    pass


class OutsideDomainError(GeometryError):
    pass


class DegenerateMetricError(GeometryError):
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
    From geometry_chunk the arrays, and u_norm2, carry a leading chunk axis;
    the properties below, nabla_u and the trace invariants serve a point and
    a chunk alike.
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
    u: np.ndarray
    du: np.ndarray          # du[l, k] = d_l u^k
    u_norm2: float          # g(u, u)
    order: int

    @property
    def dim(self) -> int:
        return self.point.shape[-1]

    @property
    def epsilon(self):
        if isinstance(self.u_norm2, float):
            return 1 if self.u_norm2 > 0 else -1
        return np.where(self.u_norm2 > 0, 1, -1)

    @property
    def residual_scale(self):
        if self.riemann_low is None:
            raise GeometryError("curvature requires geometry evaluated with order >= 2")
        return _scalar(1.0 + np.abs(self.riemann_low).max(axis=(-4, -3, -2, -1)))

    def nabla_u(self) -> np.ndarray:
        """(nabla_mu u)^nu = d_mu u^nu + Gamma^nu_{mu lam} u^lam, indexed [mu, nu]."""
        return self.du + np.einsum('...nml,...l->...mn', self.gamma, self.u)

    def acceleration(self) -> np.ndarray:
        return self.u @ self.nabla_u()


def geometry_at(chart: ChartSpec, point, order: int = 3) -> PointGeometry:
    """Evaluate the chart's geometry at a point inside its domain.

    The metric and u are evaluated by the chart's compiled programs
    (ChartSpec.programs) over jets truncated at `order`.  order=3 (default)
    also produces the coordinate gradient of the Riemann tensor; order=2 skips
    it and is noticeably cheaper for the foliation's flows and quadrature;
    order=1 stops at the connection (enough for transport integrators).  A
    non-finite metric or u value or derivative is a DegenerateMetricError.

    This runs the evaluator that geometry_chunk runs, with no batch axis.
    """
    _check_order(order)
    n = chart.dim
    point = np.asarray(point, dtype=float)
    if point.shape != (n,):
        raise GeometryError(f"point must have {n} coordinates, got shape {point.shape}")
    return _point_geometry(_evaluate(chart, point, order)[0], order)


def geometry_chunk(chart: ChartSpec, points, order: int = 3) -> tuple[PointGeometry | None, list]:
    """geometry_at at every row of a (B, n) array of points, in one pass.

    Returns the geometry of the rows that evaluate, in order, as one
    PointGeometry with a leading chunk axis (None if no row evaluates), and
    per row None or the exception that geometry_at raises there, of the same
    type and with the same text.  The jets' slots are written with the batch
    axis first, and the tensor algebra runs over it, so B points cost one jet
    program and one set of einsums.  A row that fails a check of geometry_at
    is dropped from the pass with its exception, and costs its neighbours
    nothing.  A batch of one is its point's pass, the arrays viewed with a
    leading axis.  Jets that raise (an expression domain error, a zero
    division) stop the pass: each row then gets its error from a pass of its
    own, and one pass runs over the rows that have none.  Every row of the
    chunk equals geometry_at at its point bit for bit.
    """
    _check_order(order)
    n = chart.dim
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != n or not len(points):
        raise GeometryError(f"points must have shape (B, {n}) with B >= 1, "
                            f"got shape {points.shape}")
    if len(points) > 1:
        try:
            fields, rows, errors = _evaluate(chart, points, order)
            return (_point_geometry(fields, order) if len(rows) else None), errors
        except (GeometryError, ArithmeticError):     # the jets stopped the pass
            pass
    errors = [None] * len(points)
    for b, point in enumerate(points):
        try:
            fields = _evaluate(chart, point, order)[0]
        except (GeometryError, ArithmeticError) as err:
            errors[b] = err
    passed = [b for b, err in enumerate(errors) if err is None]
    if not passed:
        return None, errors
    if len(passed) == 1:        # the fields of the one point that passed
        fields = tuple(None if a is None else a[None] for a in fields)
    else:
        fields = _evaluate(chart, points[passed], order)[0]
    return _point_geometry(fields, order), errors


def take_rows(chunk: PointGeometry, rows) -> PointGeometry:
    """The chunk at `rows` (indices or a mask), each array indexed on its
    chunk axis.  numpy's indexing keeps an array's memory order, which
    einsum's summation order follows, so the rows round as they did."""
    arrays = (getattr(chunk, f.name) for f in fields(PointGeometry)[:-1])
    return PointGeometry(*(None if a is None else a[rows] for a in arrays), chunk.order)


def _check_order(order) -> None:
    if order not in (1, 2, 3):
        raise GeometryError(f"order must be 1, 2 or 3, got {order!r}")


def _point_geometry(fields: tuple, order: int) -> PointGeometry:
    """PointGeometry from the evaluator's arrays, of a point or a chunk."""
    point, g, *tensors, u, du = fields
    u_norm2 = _bilinear(u, g, u) if u.ndim > 1 else float(u @ g @ u)
    return PointGeometry(point, g, *tensors, u, du, u_norm2, order)


def _evaluate(chart: ChartSpec, points: np.ndarray, order: int) -> tuple:
    """The geometry of points of shape (n,) or (B, n) as arrays with the same
    leading batch shape: one body for geometry_at and geometry_chunk.  Returns
    the arrays, in PointGeometry's field order up to du (_point_geometry
    derives u_norm2), and over a batch the indices of the rows they hold and
    per row None or its exception.

    The checks come in one order: the domain, a finite and non-degenerate
    metric, then a u that can be normalized and is finite.  At a point a
    failed check raises; over a batch it drops the rows that fail it (_keep)
    and records for each the exception that geometry_at raises at its point,
    so a row outside the domain never reaches the jets and only rows that
    pass every check reach the curvature, which comes last.  Jets that raise
    stop a batch too.

    Jets hold the batch as a trailing axis (see jets); each slot is written
    once as its .T, which puts that axis first at a point and over a batch
    alike, and every contraction names its axes relative to the end.  .T also
    reverses a slot's derivative indices, and the slots are symmetric only to
    rounding, so hess and cube go through views of d2g and d3g that reverse them.
    """
    n = chart.dim
    lead = points.ndim - 1          # 1 over a batch
    rows, errors = (np.arange(len(points)), [None] * len(points)) if lead else (None, None)
    listed = points.tolist()        # the domain test is cheaper on floats
    inside = np.array([chart.contains(p) for p in listed]) if lead else chart.contains(listed)

    def at(k):
        """The point of kept row k (k = () at a point) as the messages show it."""
        return listed[rows[k]] if lead else listed

    rows, points = _keep(inside, lambda k: OutsideDomainError(
        f"point {at(k)} outside domain of chart {chart.name!r}"), errors, rows, points)
    programs = chart.programs
    env = _variables(chart, points, order)
    batch = points.shape[:-1]
    g = np.empty(batch + (n, n))
    g[...] = programs.metric_constant
    dg = np.zeros(batch + (n, n, n))
    d2g = np.zeros(batch + (n, n, n, n)) if order >= 2 else None
    d3g = np.zeros(batch + (n, n, n, n, n)) if order >= 3 else None
    d2g_rev = None if d2g is None else d2g.swapaxes(-4, -3)
    d3g_rev = None if d3g is None else d3g.swapaxes(-5, -3)
    # an overflowing chart leaves inf or nan, which is rejected below as a
    # degenerate point; numpy's warnings about it would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j, program in programs.metric_varying:
            jet = program(env)
            g[..., i, j] = g[..., j, i] = jet.value
            dg[..., i, j] = dg[..., j, i] = jet.grad.T
            if order >= 2:
                d2g_rev[..., i, j] = d2g_rev[..., j, i] = jet.hess.T
            if order >= 3:
                d3g_rev[..., i, j] = d3g_rev[..., j, i] = jet.cube.T
        rows, points, g, dg, d2g, d3g = _keep(
            _finite(lead, g, dg, d2g, d3g), lambda k: DegenerateMetricError(
                f"non-finite metric value or derivative at {at(k)}"),
            errors, rows, points, g, dg, d2g, d3g)

        # numpy powers overflow to inf instead of raising; an overflowing
        # determinant gives nan, which is degenerate too
        scale = np.abs(g).max(axis=(-2, -1), initial=1e-300)
        scaled_det = abs(np.linalg.det(g)) / scale**n
        rows, points, g, dg, d2g, d3g = _keep(
            scaled_det > DET_TOL, lambda k: DegenerateMetricError(
                f"metric degenerate at {at(k)} (scaled |det g| = {scaled_det[k]:.3e})"),
            errors, rows, points, g, dg, d2g, d3g)

        if points.shape[:-1] != batch:      # rows were dropped
            batch = points.shape[:-1]
            env = _variables(chart, points, order)
        u = np.empty(batch + (n,))
        u[...] = programs.u_constant
        du = np.zeros(batch + (n, n))
        for k, program in programs.u_varying:
            jet = program(env)
            u[..., k] = jet.value
            du[..., k] = jet.grad.T
        if chart.normalize_u:
            # u / sqrt|q| with q = g(u,u); du follows from d_l q = d_l g(u,u) + 2 g(d_l u, u)
            q = _bilinear(u, g, u)
            # a nan q fails the finite check below instead
            rows, points, u, du, q, g, dg, d2g, d3g = _keep(
                ~(np.abs(q) < 1e-12), lambda k: UnitVectorError(
                    f"cannot normalize a near-null u (g(u,u) = {q[k]:.3e})"),
                errors, rows, points, u, du, q, g, dg, d2g, d3g)
            dq = (np.einsum('...lab,...a,...b->...l', dg, u, u)
                  + 2.0 * _apply(du, _apply(g, u)))
            root = np.sqrt(np.abs(q))
            u, du = (u / root[..., None],
                     du / root[..., None, None]
                     - (0.5 * dq / (q * root)[..., None])[..., :, None] * u[..., None, :])
        rows, points, u, du, g, dg, d2g, d3g = _keep(
            _finite(lead, u, du), lambda k: DegenerateMetricError(
                f"non-finite u value or derivative at {at(k)}"),
            errors, rows, points, u, du, g, dg, d2g, d3g)

    g_inv = np.linalg.inv(g)
    g_inv = 0.5 * (g_inv + g_inv.swapaxes(-1, -2))
    g_inv_l = g_inv[..., None, :, :]                        # broadcast over a derivative index
    g_inv_dg = g_inv_l @ dg                                 # [l,i,b] = g^ia d_l g_ab
    dg_inv = -(g_inv_dg @ g_inv_l)

    # T[m,i,j] = g_mj,i + g_mi,j - g_ij,m; swaps of the derivative index with
    # either metric index suffice because g_ab is symmetric
    T = dg.swapaxes(-3, -2) + dg.swapaxes(-3, -1) - dg
    gamma = 0.5 * np.einsum('...km,...mij->...kij', g_inv, T)

    dgamma = riemann_up = riemann_low = driemann_up = driemann_low = None
    if order >= 2:
        dT = d2g.swapaxes(-3, -2) + d2g.swapaxes(-3, -1) - d2g        # d_l T
        dgamma = 0.5 * (np.einsum('...lkm,...mij->...lkij', dg_inv, T)
                        + np.einsum('...km,...lmij->...lkij', g_inv, dT))
        riemann_up = (np.einsum('...mrns->...rsmn', dgamma)
                      - np.einsum('...nrms->...rsmn', dgamma)
                      + np.einsum('...rml,...lns->...rsmn', gamma, gamma)
                      - np.einsum('...rnl,...lms->...rsmn', gamma, gamma))
        riemann_low = np.einsum('...ar,...rsmn->...asmn', g, riemann_up)
    if order >= 3:
        g_inv_2 = g_inv[..., None, None, :, :]
        d2g_inv = -((dg_inv[..., None, :, :, :] @ dg[..., :, None, :, :]) @ g_inv_2
                    + (g_inv_2 @ d2g) @ g_inv_2
                    + g_inv_dg[..., :, None, :, :] @ dg_inv[..., None, :, :, :])
        d2g_inv = 0.5 * (d2g_inv + d2g_inv.swapaxes(-4, -3))
        d2T = d3g.swapaxes(-3, -2) + d3g.swapaxes(-3, -1) - d3g        # d_p d_l T
        # a batch's largest arrays are freed as soon as they have been used
        del d3g
        d2gamma = 0.5 * (np.einsum('...plkm,...mij->...plkij', d2g_inv, T)
                         + np.einsum('...lkm,...pmij->...plkij', dg_inv, dT)
                         + np.einsum('...pkm,...lmij->...plkij', dg_inv, dT)
                         + np.einsum('...km,...plmij->...plkij', g_inv, d2T))
        del d2T
        driemann_up = (np.einsum('...pmrns->...prsmn', d2gamma)
                       - np.einsum('...pnrms->...prsmn', d2gamma)
                       + np.einsum('...prml,...lns->...prsmn', dgamma, gamma)
                       + np.einsum('...rml,...plns->...prsmn', gamma, dgamma)
                       - np.einsum('...prnl,...lms->...prsmn', dgamma, gamma)
                       - np.einsum('...rnl,...plms->...prsmn', gamma, dgamma))
        del d2gamma
        driemann_low = (np.einsum('...par,...rsmn->...pasmn', dg, riemann_up)
                        + np.einsum('...ar,...prsmn->...pasmn', g, driemann_up))

    return (points, g, dg, g_inv, dg_inv, gamma, dgamma,
            riemann_up, riemann_low, driemann_up, driemann_low, u, du), rows, errors


def _keep(ok, error, errors, *arrays):
    """The arrays, the row indices first, at the rows where `ok` holds.  At a
    point `ok` is one bool, and error(()) is raised where it does not hold;
    over a batch each row k that it drops gets errors[arrays[0][k]] =
    error(k), the exception geometry_at raises at its point."""
    if not isinstance(ok, np.ndarray):
        if not ok:
            raise error(())
        return arrays
    if ok.all():
        return arrays
    for k in np.flatnonzero(~ok):
        errors[arrays[0][k]] = error(k)
    return tuple(None if a is None else a[ok] for a in arrays)


def _variables(chart: ChartSpec, points: np.ndarray, order: int) -> dict:
    """The coordinate jets at a point or along the rows of a batch."""
    columns = points.T
    return {name: Jet3.variable(k, columns[k], chart.dim, order)
            for k, name in enumerate(chart.coords)}


def _finite(lead: int, *arrays):
    """Whether every entry of the arrays is finite: a bool at a point, per row
    over a batch (lead = 1)."""
    ok = True
    for a in arrays:
        if a is not None:
            if lead:
                ok = ok & np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
            elif not np.isfinite(a).all():
                return False
    return ok


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for matrices and vectors with the same leading batch shape."""
    return (m @ v[..., :, None])[..., 0]


def _bilinear(v: np.ndarray, g: np.ndarray, w: np.ndarray):
    """v @ g @ w for vectors and matrices with the same leading batch shape."""
    if v.ndim == 1:
        return v @ g @ w
    return (v[..., None, :] @ g @ w[..., :, None])[..., 0, 0]


def _dot(v: np.ndarray, w: np.ndarray):
    """v @ w row by row; like _apply and _bilinear, this runs the BLAS call
    that the unbatched expression runs, so rows match it bit for bit."""
    return (v[..., None, :] @ w[..., :, None])[..., 0, 0]


def _scalar(value):
    """A float for a point, the array over a chunk."""
    return float(value) if getattr(value, "ndim", 0) == 0 else value


@dataclass
class Frame:
    """Orthonormal frame rows e_0..e_{n-1} with e_0 = u; etas[a] = g(e_a, e_a).

    Over a chunk each array carries a leading chunk axis.
    """

    vectors: np.ndarray
    etas: np.ndarray
    g: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[-1]

    @property
    def spatial(self) -> np.ndarray:
        return self.vectors[..., 1:, :]

    def norm(self, w: np.ndarray):
        """Positive-definite norm: Euclidean length of the frame components
        etas * (V g w) of w (Riemannianized: always well-scaled)."""
        c = self.etas * _apply(self.vectors @ self.g, w)
        return _scalar(np.sqrt(_dot(c, c)))


def adapted_frames(g: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Complete u to an orthonormal frame at each row of (B, n, n) metrics
    and (B, n) fields u: the frame vectors [b, a, :], their etas [b, a] and
    each row's exception, None where the row has its frame.

    e_0 = u / sqrt|g(u,u)|.  The last n - 1 columns of a complete QR of g u
    are a Euclidean-orthonormal basis of u's g-orthogonal complement; the
    eigenvectors of the metric restricted to it, w = basis Q, are still
    Euclidean-unit and diagonalize g, so the spatial frame is w / sqrt|lam|
    with etas sign(lam).  A row whose complement holds a direction with
    |g(w,w)| = |lam| < PIVOT_TOL is near-null and gets a FrameError.  numpy's
    qr and eigh factor each matrix on its own, so a row's frame does not
    depend on its neighbours.
    """
    q = _bilinear(u, g, u)
    errors = [UnitVectorError(f"u is not unit: g(u,u) = {x!r} "
                              "(set options.normalize_u to rescale pointwise)")
              if abs(abs(x) - 1.0) > UNIT_TOL else None for x in q.tolist()]
    basis = np.linalg.qr(_apply(g, u)[..., None], mode="complete")[0][..., 1:]
    lam, Q = np.linalg.eigh(basis.swapaxes(-1, -2) @ g @ basis)
    weight = np.abs(lam).min(axis=-1)
    for b in np.flatnonzero(weight < PIVOT_TOL):
        errors[b] = errors[b] or FrameError(
            f"near-null direction orthogonal to u (|g(w,w)| = {weight[b]:.3e} "
            "for a coordinate-unit w)")
    live = np.array([err is None for err in errors])
    e0 = u / np.sqrt(np.where(live, np.abs(q), 1.0))[:, None]
    scale = np.sqrt(np.where(live[:, None], np.abs(lam), 1.0))
    spatial = (basis @ Q).swapaxes(-1, -2) / scale[..., None]
    vectors = np.concatenate([e0[:, None], spatial], axis=1)
    etas = np.where(np.concatenate([q[:, None], lam], axis=1) > 0, 1.0, -1.0)
    return vectors, etas, errors


# -- derived scalar fields -----------------------------------------------------

def _projector(geom: PointGeometry) -> tuple[np.ndarray, np.ndarray]:
    """pi^{ab} = g^{ab} - eps u^a u^b, and eps shaped to scale matrices."""
    eps = np.asarray(geom.epsilon)[..., None, None]
    return geom.g_inv - eps * (geom.u[..., :, None] * geom.u[..., None, :]), eps


def trace_invariants(geom: PointGeometry, gradients: bool = False) -> tuple:
    """Frame-free forms of the two plane invariants.

    f = Ric(u,u)/(n-1) and h = pi^{rm} pi^{sn} R_{rsmn} / ((n-1)(n-2)) with
    pi the projector onto the orthogonal complement of u.  These coincide with
    the frame-extracted values exactly when the curvature has the isotropic
    form, and being fields they can be differentiated: gradients=True gives
    (f, h, d_l f, d_l h) from the same Ricci tensor and projector.  Floats at
    a point, arrays over a chunk.
    """
    if gradients and geom.driemann_up is None:
        raise GeometryError("gradients require geometry evaluated with order=3")
    n, u, du = geom.dim, geom.u, geom.du
    ric = np.einsum('...rsrn->...sn', geom.riemann_up)
    f = _bilinear(u, ric, u) / (n - 1)
    pi_up, eps = _projector(geom)
    s = np.einsum('...rm,...sn,...rsmn->...', pi_up, pi_up, geom.riemann_low)
    invariants = _scalar(f), _scalar(s / ((n - 1) * (n - 2)))
    if not gradients:
        return invariants
    dric = np.einsum('...prsrn->...psn', geom.driemann_up)
    df = (np.einsum('...psn,...s,...n->...p', dric, u, u)
          + np.einsum('...sn,...ps,...n->...p', ric, du, u)
          + np.einsum('...sn,...s,...pn->...p', ric, u, du)) / (n - 1)
    dpi_up = geom.dg_inv - eps[..., None] * (np.einsum('...pa,...b->...pab', du, u)
                                             + np.einsum('...a,...pb->...pab', u, du))
    ds = (np.einsum('...prm,...sn,...rsmn->...p', dpi_up, pi_up, geom.riemann_low)
          + np.einsum('...rm,...psn,...rsmn->...p', pi_up, dpi_up, geom.riemann_low)
          + np.einsum('...rm,...sn,...prsmn->...p', pi_up, pi_up, geom.driemann_low))
    return invariants + (df, ds / ((n - 1) * (n - 2)))
