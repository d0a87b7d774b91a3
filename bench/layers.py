"""Per-layer metrics of a traced run.

Layers are the homcurv modules.  Each metric names the layer function it
times; the end-to-end metric it should move, and on which workload, is
recorded in TRAJECTORY.md.  Every metric is reported on every workload, as
0 where the workload never calls the layer.
"""
from __future__ import annotations

import json
import os

from spans import ITEM, Tracer

import homcurv.obstructions

MODULES = ("curvature", "certify", "obstructions", "metrics", "isotypic",
           "spaces", "algebra", "serialize", "cli", "acceptance")


def _observe_certify(c, report, args, kwargs):
    finals = report.start_minima
    c["certify.starts"] += report.starts
    c["certify.converged"] += report.converged_starts
    c["certify.failed_starts"] += sum(f is None for f in finals)
    c["certify.succeeded"] += sum(f is not None for f in finals)


def _observe_found(name):
    def observe(c, witness, args, kwargs):
        c[f"{name}.found"] += bool(witness.found)
    return observe


def _observe_minimize(c, res, args, kwargs):
    c["obstructions.minimize.nfev"] += res.nfev
    c["obstructions.minimize.accepted"] += float(res.fun) < homcurv.obstructions.ACCEPT


def _observe_bytes(name, measure):
    def observe(c, result, args, kwargs):
        c[f"{name}.bytes"] += measure(result, args)
    return observe


def make_tracer() -> Tracer:
    return Tracer(observers={
        "certify.certify": _observe_certify,
        "obstructions.commuting_witness": _observe_found("obstructions.commuting_witness"),
        "obstructions.min_eigenvalue_witness":
            _observe_found("obstructions.min_eigenvalue_witness"),
        "obstructions.minimize": _observe_minimize,
        "serialize.space_document": _observe_bytes(
            "serialize.space_document", lambda doc, args: len(json.dumps(doc))),
        "serialize.space_from_document": _observe_bytes(
            "serialize.space_from_document", lambda _, args: len(json.dumps(args[0]))),
        "serialize.atomic_write_json": _observe_bytes(
            "serialize.atomic_write_json", lambda _, args: os.path.getsize(args[0])),
    })


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer: Tracer, raw: dict) -> tuple[dict, dict, list[str]]:
    """(metrics, units, printable lines) of a traced run."""
    spans = tracer.summary()
    c = tracer.counters
    wall = sum(raw["traced_walls"])
    out: dict[str, tuple[float, str]] = {}

    def stat(name):
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def calls(name):
        out[f"{name}.calls"] = (stat(name)["calls"], "count")

    def self_per_call(name, scale, unit):
        s = stat(name)
        out[f"{name}.self_{unit}_per_call"] = (scale * _ratio(s["self_s"], s["calls"]), unit)

    def per_call(name):
        s = stat(name)
        out[f"{name}.ms_per_call"] = (1e3 * _ratio(s["total_s"], s["calls"]), "ms")

    for fn in ("sectional", "sectional_gradient", "numerator"):
        calls(f"curvature.{fn}")
        self_per_call(f"curvature.{fn}", 1e6, "us")
    curvature_self = sum(s["self_s"] for n, s in spans.items() if n.startswith("curvature."))
    out["curvature.share"] = (_ratio(curvature_self, wall), "frac")

    cert = stat("certify.certify")
    sec_in = tracer.count_under("curvature.sectional", "certify.certify")
    grad_in = tracer.count_under("curvature.sectional_gradient", "certify.certify")
    steps = grad_in - c["certify.succeeded"]
    out["certify.certify.calls"] = (cert["calls"], "count")
    out["certify.certify.self_s"] = (_ratio(cert["self_s"], cert["calls"]), "s")
    out["certify.sectional_per_call"] = (_ratio(sec_in, cert["calls"]), "count")
    out["certify.gradient_per_call"] = (_ratio(grad_in, cert["calls"]), "count")
    out["certify.backtracks_per_step"] = (_ratio(sec_in - steps, steps), "count")
    out["certify.converged_frac"] = (_ratio(c["certify.converged"], c["certify.starts"]), "frac")
    out["certify.failed_starts"] = (c["certify.failed_starts"], "count")

    for fn in ("commuting_witness", "min_eigenvalue_witness"):
        name = f"obstructions.{fn}"
        calls(name)
        self_per_call(name, 1e3, "ms")
        out[f"{name}.found_frac"] = (_ratio(c[f"{name}.found"], stat(name)["calls"]), "frac")
    name = "obstructions.minimize"
    calls(name)
    per_call(name)
    out[f"{name}.nfev_per_call"] = (_ratio(c[f"{name}.nfev"], stat(name)["calls"]), "count")
    out[f"{name}.accept_frac"] = (_ratio(c[f"{name}.accepted"], stat(name)["calls"]), "frac")

    for name in ("metrics.sample_metric", "isotypic.symmetric_commutant_basis",
                 "metrics.validate_metric", "isotypic.decompose", "spaces.catalog_build",
                 "algebra.build_algebra", "obstructions.rank_parity_check"):
        calls(name)
        per_call(name)
    for fn in ("space_document", "space_from_document", "atomic_write_json"):
        name = f"serialize.{fn}"
        calls(name)
        per_call(name)
        out[f"{name}.bytes"] = (_ratio(c[f"{name}.bytes"], stat(name)["calls"]), "B")
    calls("cli.main")
    self_per_call("cli.main", 1e3, "ms")
    calls("acceptance.run_one")
    per_call("acceptance.run_one")

    untraced = sum(raw["walls"])
    out["trace.overhead_frac"] = (_ratio(wall - untraced, untraced), "frac")
    for module in MODULES:
        own = sum(s["self_s"] for n, s in spans.items() if n.split(".")[0] == module)
        out[f"share.{module}"] = (_ratio(own, wall), "frac")
    out["share.outside"] = (_ratio(stat(ITEM)["self_s"], wall), "frac")

    lines = [f"{name:46s} {value:14.4f} {unit}" for name, (value, unit) in out.items()]
    return ({k: v for k, (v, _) in out.items()}, {k: u for k, (_, u) in out.items()},
            lines)
