"""Reference implementations kept outside the package.

Nothing in rwcert calls these; the tests compare the package against them.
The Riemann-identity residuals self-check the curvature engine, `ip` is
g(v, w) at a point, `sectional_curvature` restates the plane invariants from
their definition, `extract_invariants` reads them off two frame planes,
`adapted_frame` and `isotropy_residuals` are the batched frame and algebraic
residuals on one point, `fermi_derivative` states the transport law
point by point for the batched generators, and `format_expr` prints an AST
for the parser's round-trip test.
"""

from dataclasses import fields

import numpy as np

from rwcert.catalog import CATALOG
from rwcert.certify import _isotropy
from rwcert.exprs import BinOp, Call, CoordRef, Expr, Neg, Num, ParamRef
from rwcert.geometry import (UNIT_TOL, Frame, GeometryError, PointGeometry, _bilinear, _scalar,
                             adapted_frames, take_rows)
from rwcert.transport import TransportError

PLANE_TOL = 1e-10        # scaled Gram determinant below this is a degenerate plane

LOCALLY_RW_IDS = tuple(e.entry_id for e in CATALOG.values() if e.expected == "LocallyRW")


class DegeneratePlaneError(GeometryError):
    pass


# -- geometry ------------------------------------------------------------------

def chunk_rows(chunk: PointGeometry) -> list[PointGeometry]:
    """Each row of a geometry_chunk chunk as a point's geometry, its arrays
    views into the chunk's."""
    return [take_rows(chunk, b) for b in range(len(chunk.point))]


def stack(geoms: list[PointGeometry]) -> PointGeometry:
    """geometry_at results as one chunk, the rows in order.  np.concatenate
    keeps the points' memory order, which einsum's summation order follows,
    so each row rounds as its point does."""
    def rows(values):
        return None if values[0] is None else np.concatenate([np.asarray(v)[None] for v in values])

    return PointGeometry(*(rows([getattr(geom, f.name) for geom in geoms])
                           for f in fields(PointGeometry)[:-1]), geoms[0].order)


def ip(geom: PointGeometry, v, w) -> float:
    """g(v, w) at a point."""
    return float(v @ geom.g @ w)


def sectional_curvature(geom: PointGeometry, v, w) -> float:
    """K(span(v, w)) = R(v,w,w,v) / (g(v,v) g(w,w) - g(v,w)^2)."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    vn = v / np.linalg.norm(v) if np.linalg.norm(v) > 0 else v
    wn = w / np.linalg.norm(w) if np.linalg.norm(w) > 0 else w
    scaled_gram = ip(geom, vn, vn) * ip(geom, wn, wn) - ip(geom, vn, wn)**2
    if abs(scaled_gram) <= PLANE_TOL:
        raise DegeneratePlaneError(
            f"plane degenerate (scaled Gram determinant {scaled_gram:.3e})")
    numerator = float(np.einsum('asmn,a,s,m,n->', geom.riemann_low, v, w, v, w))
    denominator = ip(geom, v, v) * ip(geom, w, w) - ip(geom, v, w)**2
    return numerator / denominator


def adapted_frame(geom: PointGeometry) -> Frame:
    """Complete u to an orthonormal frame: e_0 = u / sqrt|g(u,u)|, then the
    eigenvectors of the metric on u's orthogonal complement, each scaled to
    |g(e,e)| = 1.  This is adapted_frames on a chunk of one."""
    vectors, etas, errors = adapted_frames(geom.g[None], geom.u[None])
    if errors[0] is not None:
        raise errors[0]
    return Frame(vectors[0], etas[0], geom.g)


def extract_invariants(geom: PointGeometry, frame: Frame) -> tuple:
    """Read (epsilon, f, h) off the first adapted frame vectors, at a point or
    over a chunk: f from the plane (e_1, u), h from (e_1, e_2).  On a chart
    of the RW form these are the trace invariants; elsewhere they depend on
    the frame."""
    u, R = geom.u, geom.riemann_up
    e1, e2 = frame.vectors[..., 1, :], frame.vectors[..., 2, :]
    eta1, eta2 = frame.etas[..., 1], frame.etas[..., 2]
    f = eta1 * _bilinear(np.einsum('...rsmn,...s,...m,...n->...r', R, u, e1, u), geom.g, e1)
    h = eta1 * eta2 * _bilinear(np.einsum('...rsmn,...s,...m,...n->...r', R, e2, e1, e2),
                                geom.g, e1)
    return geom.epsilon, _scalar(f), _scalar(h)


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


# -- certify -------------------------------------------------------------------

def isotropy_residuals(geom: PointGeometry, frame: Frame, f: float, h: float) -> dict[str, float]:
    """The five algebraic residuals as frame-component norms: _isotropy on a
    chunk of one."""
    residuals = _isotropy(*_chunk_of_one(geom, frame), np.array([f]), np.array([h]))
    return {key: values[0] for key, values in residuals.items()}


def _chunk_of_one(geom: PointGeometry, frame: Frame) -> tuple[PointGeometry, Frame]:
    return stack([geom]), Frame(frame.vectors[None], frame.etas[None], frame.g[None])


# -- transport -----------------------------------------------------------------

def fermi_derivative(geom: PointGeometry, u, accel, X, dX) -> np.ndarray:
    """D_u X from the pointwise data (dX is nabla_u X)."""
    u = np.asarray(u, dtype=float)
    q = ip(geom, u, u)
    if abs(abs(q) - 1.0) > UNIT_TOL:
        raise TransportError(f"transport direction is not unit: g(u,u) = {q!r}")
    eps = 1.0 if q > 0 else -1.0
    X = np.asarray(X, dtype=float)
    accel = np.asarray(accel, dtype=float)
    return (np.asarray(dX, dtype=float)
            + eps * ip(geom, X, accel) * u - eps * ip(geom, X, u) * accel)


# -- exprs ---------------------------------------------------------------------

def format_expr(node: Expr) -> str:
    """Fully parenthesized rendering; reparsing yields a structurally equal AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (CoordRef, ParamRef)):
        return node.name
    if isinstance(node, Neg):
        return f"(-{format_expr(node.child)})"
    if isinstance(node, BinOp):
        return f"({format_expr(node.left)} {node.op} {format_expr(node.right)})"
    if isinstance(node, Call):
        return f"{node.fn}({format_expr(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")
