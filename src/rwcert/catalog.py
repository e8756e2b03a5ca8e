"""Built-in chart catalog.

Every entry is an ordinary chart document (the same JSON schema accepted from
files), so the catalog doubles as format documentation.  `notes` records the
closed forms the regression tests check against, under the library's sign
convention (f = -a''/a and h = (a'^2 + k)/a^2 for the Lorentzian entries).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .chart import ChartSpec, chart_from_dict


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: str
    expected: str  # expected classification under default tolerances
    notes: str
    document: dict

    @property
    def source(self) -> str:
        return json.dumps(self.document, indent=2)

    def chart(self) -> ChartSpec:
        return chart_from_dict(self.document, source=self.source)


def _flrw(name: str, a: str, curvature: int, t_domain, notes: str, expected: str,
          spatial_domain=None) -> CatalogEntry:
    if curvature == 0:
        metric = [["-1", None, None, None],
                  [None, f"({a})^2", None, None],
                  [None, None, f"({a})^2", None],
                  [None, None, None, f"({a})^2"]]
        coords = ["t", "x", "y", "z"]
        domain = [list(t_domain), [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]
    else:
        radial = "sin(chi)" if curvature > 0 else "sinh(chi)"
        metric = [["-1", None, None, None],
                  [None, f"({a})^2", None, None],
                  [None, None, f"({a})^2*{radial}^2", None],
                  [None, None, None, f"({a})^2*{radial}^2*sin(theta)^2"]]
        coords = ["t", "chi", "theta", "phi"]
        spatial = spatial_domain or [[0.4, 2.0], [0.5, 2.6], [0.0, 3.0]]
        domain = [list(t_domain)] + [list(pair) for pair in spatial]
    doc = {
        "name": name,
        "dim": 4,
        "coords": coords,
        "metric": metric,
        "u": ["1", "0", "0", "0"],
        "params": {},
        "domain": domain,
        "options": {},
    }
    return CatalogEntry(name, expected, notes, doc)


_ENTRIES = [
    CatalogEntry(
        "minkowski", "ConstantCurvature",
        "flat: f = h = 0, every curvature residual vanishes identically",
        {
            "name": "minkowski",
            "dim": 4,
            "coords": ["t", "x", "y", "z"],
            "metric": [["-1", None, None, None],
                       [None, "1", None, None],
                       [None, None, "1", None],
                       [None, None, None, "1"]],
            "u": ["1", "0", "0", "0"],
            "params": {},
            "domain": [[-3.0, 3.0], [-3.0, 3.0], [-3.0, 3.0], [-3.0, 3.0]],
            "options": {},
        }),
    _flrw("flrw_flat_linear", "t", 0, (1.5, 3.5),
          "a(t) = t, k = 0: f = 0, h = 1/t^2; K_tau = 0 (flat slices)",
          "LocallyRW"),
    _flrw("flrw_closed_osc", "2 + 0.5*cos(t)", +1, (0.0, 6.0),
          "a(t) = 2 + cos(t)/2, k = +1: f = cos(t)/(2a), h = (sin(t)^2/4 + 1)/a^2",
          "LocallyRW"),
    _flrw("flrw_open", "2 + 0.1*t^2", -1, (0.5, 2.5),
          "a(t) = 2 + t^2/10, k = -1: f = -0.2/a, h = (0.04 t^2 - 1)/a^2",
          "LocallyRW"),
    _flrw("einstein_static", "2", +1, (-4.5, 4.5),
          "a = 2, k = +1: f = 0, h = 1/4; totally geodesic slices, K_tau = 1/4",
          "LocallyRW",
          spatial_domain=[[0.05, 2.0], [0.15, 2.6], [0.0, 3.0]]),
    _flrw("desitter_flat", "exp(t)", 0, (-0.5, 0.5),
          "a(t) = e^t: f = -1, h = 1, h - eps*f = 0 (constant curvature +1)",
          "ConstantCurvature"),
    CatalogEntry(
        "schwarzschild_static_observer", "NotIsotropic",
        "static u: radial plane curvature -2M/r^3 vs tangential +M/r^3 "
        "(anisotropy 3M/r^3); |accel| = M/(r^2 sqrt(1-2M/r))",
        {
            "name": "schwarzschild_static_observer",
            "dim": 4,
            "coords": ["t", "r", "theta", "phi"],
            "metric": [["-(1 - 2*M/r)", None, None, None],
                       [None, "1/(1 - 2*M/r)", None, None],
                       [None, None, "r^2", None],
                       [None, None, None, "r^2*sin(theta)^2"]],
            "u": ["1/sqrt(1 - 2*M/r)", "0", "0", "0"],
            "params": {"M": 1.0},
            "domain": [[-4.0, 4.0], [8.0, 12.0], [0.6, 2.5], [0.0, 3.0]],
            "options": {},
        }),
    CatalogEntry(
        "goedel", "NotIsotropic",
        "rotating congruence: u is geodesic but g(nabla_x u, y) has an "
        "antisymmetric part of size e^x/2, so the orthogonality checks fail",
        {
            "name": "goedel",
            "dim": 4,
            "coords": ["t", "x", "y", "z"],
            "metric": [["-1", None, None, "-exp(x)"],
                       [None, "1", None, None],
                       [None, None, "1", None],
                       ["-exp(x)", None, None, "-exp(2*x)/2"]],
            "u": ["1", "0", "0", "0"],
            "params": {},
            "domain": [[-1.0, 1.0], [-0.5, 0.5], [-1.0, 1.0], [-1.0, 1.0]],
            "options": {},
        }),
    CatalogEntry(
        "riemannian_grw", "LocallyRW",
        "eps = +1 warped product a(r) = 1 + r^2 over flat 3-space: "
        "f = -2/(1+r^2), h = -4r^2/(1+r^2)^2",
        {
            "name": "riemannian_grw",
            "dim": 4,
            "coords": ["r", "x", "y", "z"],
            "metric": [["1", None, None, None],
                       [None, "(1 + r^2)^2", None, None],
                       [None, None, "(1 + r^2)^2", None],
                       [None, None, None, "(1 + r^2)^2"]],
            "u": ["1", "0", "0", "0"],
            "params": {},
            "domain": [[1.5, 3.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
            "options": {},
        }),
]

CATALOG = {entry.entry_id: entry for entry in sorted(_ENTRIES, key=lambda e: e.entry_id)}


def list_catalog() -> list[CatalogEntry]:
    """Catalog entries in stable (id-sorted) order."""
    return list(CATALOG.values())


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return CATALOG[entry_id]
    except KeyError:
        raise KeyError(f"no catalog entry named {entry_id!r}; "
                       f"known ids: {', '.join(CATALOG)}") from None


def get_chart(entry_id: str) -> ChartSpec:
    return get_entry(entry_id).chart()
