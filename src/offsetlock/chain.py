"""Exact frequency bookkeeping through the optical conversion chain.

Nominal frequencies are exact integers (SHG doubles, degenerate PDC halves,
SFG adds, a double-pass AOM shifts by 2*f_rf); no floating point touches a
carrier.  Absolute instabilities propagate to first order: perfectly
correlated through SHG/PDC, in quadrature through SFG when the inputs have
disjoint provenance, linearly otherwise.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Tuple

import numpy as np

from .errors import MALFORMED, ParameterError
from .noisegen import CombModel, exact_int, json_fields


@dataclass(frozen=True)
class ChainNode:
    """An optical frequency with instability and systematic-offset bookkeeping.

    ``sigma_abs_hz`` is the absolute instability at averaging time
    ``sigma_tau_s``; combining nodes tagged with different taus is a
    parameter error (ADEV is tau-dependent).
    """

    nominal_hz: int
    sigma_abs_hz: float = 0.0
    sigma_tau_s: float = 1.0
    offset_hz: float = 0.0
    provenance: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nominal_hz", exact_int(self.nominal_hz, "nominal_hz"))
        if self.nominal_hz <= 0:
            raise ParameterError("nominal_hz must be > 0")
        if self.sigma_abs_hz < 0.0:
            raise ParameterError("sigma_abs_hz must be >= 0")
        object.__setattr__(self, "provenance", tuple(self.provenance))


@dataclass(frozen=True)
class AfcSpec:
    """Absorption window the converted photon must hit."""

    center_hz: int
    width_hz: float
    stability_target_hz: float

    def __post_init__(self):
        object.__setattr__(self, "center_hz", exact_int(self.center_hz, "center_hz"))
        if not 0.0 < self.stability_target_hz < self.width_hz:
            raise ParameterError("need 0 < stability_target_hz < width_hz")


def shg(a: ChainNode) -> ChainNode:
    """Second harmonic: nominal, sigma and offset all double (self-correlated)."""
    return replace(a, nominal_hz=a.nominal_hz * 2, sigma_abs_hz=a.sigma_abs_hz * 2.0,
                   offset_hz=a.offset_hz * 2.0)


def pdc_degenerate(pump: ChainNode) -> ChainNode:
    """Degenerate downconversion: exact halving of nominal, sigma and offset."""
    if pump.nominal_hz % 2 != 0:
        raise ParameterError("degenerate PDC needs an even pump carrier "
                             "(offset the carrier by 1 Hz upstream)")
    return replace(pump, nominal_hz=pump.nominal_hz // 2, sigma_abs_hz=pump.sigma_abs_hz / 2.0,
                   offset_hz=pump.offset_hz / 2.0)


def sfg(a: ChainNode, b: ChainNode) -> ChainNode:
    """Sum frequency: exact integer addition of nominals.

    Offsets add linearly.  Sigmas combine in quadrature when provenance is
    disjoint (independent sources), linearly otherwise (common mode).
    """
    if a.sigma_tau_s != b.sigma_tau_s:
        raise ParameterError("cannot combine sigmas tagged with different taus")
    independent = not (set(a.provenance) & set(b.provenance))
    if independent:
        sigma = float(np.hypot(a.sigma_abs_hz, b.sigma_abs_hz))
    else:
        sigma = a.sigma_abs_hz + b.sigma_abs_hz
    return ChainNode(
        nominal_hz=a.nominal_hz + b.nominal_hz,
        sigma_abs_hz=sigma,
        sigma_tau_s=a.sigma_tau_s,
        offset_hz=a.offset_hz + b.offset_hz,
        provenance=a.provenance + tuple(p for p in b.provenance if p not in a.provenance),
    )


def aom_double_pass(a: ChainNode, f_rf_hz: int) -> ChainNode:
    """Double-pass AOM: shift nominal by 2*f_rf (sigma unchanged)."""
    return replace(a, nominal_hz=a.nominal_hz + 2 * exact_int(f_rf_hz, "f_rf_hz"))


def comb_beat(nu_hz, comb: CombModel):
    """Nearest comb line and beat: n = round((nu - f_ceo)/f_rep), ties toward lower n.

    Accepts a scalar integer or an integer ndarray; the beat never exceeds f_rep/2.
    """
    if np.asarray(nu_hz).dtype.kind not in "iu":
        raise ParameterError("nu must be integer-typed")
    if np.any(nu_hz <= comb.f_ceo_hz):
        raise ParameterError("nu must exceed f_ceo")
    q, r = divmod(nu_hz - comb.f_ceo_hz, comb.f_rep_hz)
    up = 2 * r > comb.f_rep_hz
    return q + up, r + up * (comb.f_rep_hz - 2 * r)


def afc_budget(node: ChainNode, afc: AfcSpec) -> dict:
    """Check a chain output against the AFC stability and centering budget, as the chain's
    ``budget`` JSON holds it: the node, the window, and each check's pass flag and margin."""
    stability_margin = afc.stability_target_hz - node.sigma_abs_hz
    mismatch = abs(node.nominal_hz + node.offset_hz - afc.center_hz)
    offset_margin = afc.width_hz / 2.0 - (mismatch + node.sigma_abs_hz)
    return {"node": asdict(node), "afc": asdict(afc), "stability_pass": bool(stability_margin >= 0.0),
            "offset_pass": bool(offset_margin >= 0.0), "stability_margin_hz": float(stability_margin),
            "offset_margin_hz": float(offset_margin)}


# ---------------------------------------------------------------------------
# Chain-description JSON: sources plus a DAG of operations.

#: Each op's function, how many nodes its ``in`` names (two as a list, one as a bare name), and
#: the keys it takes besides op, in and out, whose values follow the nodes as its arguments.
_OPS = {"shg": (shg, 1, ()), "pdc": (pdc_degenerate, 1, ()), "sfg": (sfg, 2, ()),
        "aom": (aom_double_pass, 1, ("f_rf_hz",))}


def evaluate_chain(doc: dict) -> dict:
    """Evaluate a chain-description document; returns its nodes and AFC budget.

    Document layout::

        {"sources": {name: {nominal_hz, sigma_abs_hz, ...}},
         "operations": [{"op": "shg"|"pdc"|"sfg"|"aom", "in": ..., "out": name, ...}],
         "afc": {center_hz, width_hz, stability_target_hz},   # optional
         "budget_node": name}                                 # required with afc

    Any malformed document raises ParameterError.
    """
    doc = json_fields(doc, "$", ("sources", "operations", "afc", "budget_node"),
                      needs={"afc": "budget_node", "budget_node": "afc"})
    try:
        nodes = {}
        for name, src in doc.get("sources", {}).items():
            node = json_fields(src, f"sources.{name}", ChainNode)
            names = node.setdefault("provenance", [name])
            if not (isinstance(names, list) and all(isinstance(p, str) for p in names)):
                raise ParameterError(f"sources.{name}: provenance must be a list of names")
            try:
                nodes[name] = ChainNode(**node)
            except ParameterError as exc:
                raise ParameterError(f"sources.{name}: {exc}") from None
        for i, op in enumerate(doc.get("operations", [])):
            path = f"operations[{i}]"
            kind = op.get("op") if isinstance(op, dict) else None
            fn, n_in, extra = _OPS[kind] if isinstance(kind, str) and kind in _OPS else (None, 1, ())
            keys = ("op", "in", "out") + extra
            op = json_fields(op, path, keys, required=keys)
            out = op["out"]
            if not isinstance(out, str) or not out:
                raise ParameterError(f"{path}.out: must be a non-empty node name")
            if fn is None:
                raise ParameterError(f"{path}: unknown op {kind!r}")
            ins = op["in"] if n_in == 2 else [op["in"]]
            try:
                nodes[out] = fn(*(nodes[n] for n in ins), *(op[key] for key in extra))
            except KeyError as exc:
                raise ParameterError(f"{path}: unresolved node {exc}") from None
            except ParameterError as exc:
                raise ParameterError(f"{path}: {exc}") from None
        result = {"nodes": {name: asdict(n) for name, n in nodes.items()}}
        if "afc" in doc:
            afc = AfcSpec(**json_fields(doc["afc"], "afc", AfcSpec))
            budget_name = doc.get("budget_node")
            if budget_name not in nodes:
                raise ParameterError(f"budget_node {budget_name!r} is not a defined node")
            result["budget"] = afc_budget(nodes[budget_name], afc)
        return result
    except ParameterError:
        raise
    except MALFORMED as exc:
        raise ParameterError(f"malformed chain description ({type(exc).__name__}: {exc})") from None
