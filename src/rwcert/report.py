"""Deterministic JSON reports.

Serialization rules that make reports byte-identical across runs and thread
counts: keys are emitted in schema order (Python dict insertion order), floats
are rendered with up to 17 significant digits (round-trip exact for IEEE
doubles), and no volatile data (wall clock, host, paths) enters the document.
Wall-clock timing is CLI chatter on stderr, never report content.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from . import __version__
from .certify import RESIDUAL_KEYS, Certificate
from .foliation import FLAT_BAND, FLOW_A_TOL, QUAD_TOL, SLICE_TOL, FoliationResult

REPORT_VERSION = 1
_TRANSPORT_TABLE_ROWS = 33


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} cannot enter a report")
    text = format(float(x), ".17g")
    # normalize "-0" so byte identity does not hinge on rounding direction
    return "0" if text in ("-0", "-0.0") else text


def to_json(obj, indent: int = 0) -> str:
    """Canonical JSON: insertion-ordered keys, .17g floats, two-space indent."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [to_json(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{_escape(str(k))}: {to_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _escape(text: str) -> str:
    out = ["\""]
    for ch in text:
        if ch in ("\"", "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append("\"")
    return "".join(out)


def render_report(document: dict) -> str:
    return to_json(document) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def certificate_payload(cert: Certificate) -> dict:
    return {
        "chart": cert.chart_name,
        "classification": cert.classification,
        "evidence": cert.evidence,
        "samples": cert.samples,
        "seed": cert.seed,
        "tolerances": {"pass": cert.tol_pass, "margin": cert.tol_margin},
        "epsilon": cert.epsilon,
        "residual_max": {key: cert.residual_max.get(key) for key in RESIDUAL_KEYS},
        "constant_curvature_max": cert.constant_curvature_max,
        "margin": {"min": cert.min_margin, "max": cert.max_margin},
        "degenerate_points": [{"point": p, "reason": reason}
                              for p, reason in cert.degenerate_points],
        "notes": list(cert.notes),
        "tool_version": cert.tool_version,
    }


def foliation_payload(result: FoliationResult) -> dict:
    return {
        "base_point": [float(x) for x in result.base_point],
        "epsilon": result.epsilon,
        "curvature_sign": result.curvature_sign,
        "tolerances": {"quadrature": QUAD_TOL, "flow": FLOW_A_TOL,
                       "slice": SLICE_TOL, "flat_band": FLAT_BAND},
        "loop_residual": result.loop_residual,
        "samples": [
            {"tau": float(t), "a": float(a), "k_slice": float(k),
             "k_hat": float(kh), "psi": float(p), "proper_time": float(s)}
            for t, a, k, kh, p, s in zip(result.tau, result.a, result.k_slice,
                                         result.k_hat, result.psi, result.proper_time)
        ],
        "a_of_s": [[float(s), float(a)] for s, a in result.a_of_s],
    }


def transport_payload(result, drift: float, curve_desc: dict) -> dict:
    stride = max(1, result.steps // (_TRANSPORT_TABLE_ROWS - 1))
    last = result.taus.shape[0] - 1
    rows = []
    # every stride-th row from row 0, then the transported endpoint
    for i in [*range(0, last, stride), last]:
        vec = result.vectors[i]
        rows.append({
            "tau": float(result.taus[i]),
            "point": [float(x) for x in result.points[i]],
            "vectors": ([[float(v) for v in row] for row in vec]
                        if vec.ndim == 2 else [float(v) for v in vec]),
        })
    return {
        "curve": curve_desc,
        "steps": result.steps,
        "refined_steps": result.refined_steps,
        "endpoint_change": result.endpoint_change,
        "epsilon": result.epsilon,
        "gram_drift": drift,
        "table_stride": stride,
        "table": rows,
    }


def build_report(subcommand: str, chart_name: str, chart_source: str, seed: int,
                 flags: dict, certificate: dict | None = None,
                 foliation: dict | None = None, transport: dict | None = None) -> dict:
    """Assemble the full document.  `flags` must already exclude anything that
    cannot influence report content (--report)."""
    document = {
        "report_version": REPORT_VERSION,
        "tool_version": __version__,
        "chart": {"name": chart_name, "sha256": sha256_text(chart_source)},
        "command": {"subcommand": subcommand, **flags},
        "seed": seed,
        "certificate": certificate,
    }
    if foliation is not None:
        document["foliation"] = foliation
    if transport is not None:
        document["transport"] = transport
    return document
