"""JSON documents for spaces, decompositions, witnesses and reports.

Every document carries schema_version 1 and a kind tag.  Writes are atomic:
the payload lands in a sibling temporary file first and is moved into place
with os.replace.  Documents are standard JSON: a witness objective or certify
minimum that is not finite is null, and any other non-finite float an error.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .algebra import algebra_from_name
from .certify import CertifyReport
from .isotypic import IsotypicDecomposition
from .obstructions import PlaneWitness, RankParity, Sp2Symmetrization
from .spaces import HomogeneousSpace

SCHEMA_VERSION = 1


def sparse_triplets(tensor: np.ndarray) -> list[list]:
    """Encode the nonzero entries of a tensor as [index..., value] rows."""
    idx = np.nonzero(tensor)
    return [[*map(int, ijk), float(v)] for *ijk, v in zip(*idx, tensor[idx])]


def dense_from_triplets(shape: tuple[int, ...], rows: list[list]) -> np.ndarray:
    """Inverse of `sparse_triplets`, as one index assignment; ValueError
    unless every row holds len(shape) integer indices in range and a finite
    value."""
    out = np.zeros(shape)
    if any(len(row) != out.ndim + 1 for row in rows):
        raise ValueError(f"each triplet must hold {out.ndim} indices and a value")
    table = np.asarray(rows, dtype=float).reshape(len(rows), out.ndim + 1)
    index, values = table[:, :-1], table[:, -1]
    if not (np.all(np.isfinite(values)) and np.all(
            (index == np.floor(index)) & (index >= 0) & (index < out.shape))):
        raise ValueError("a triplet has a non-finite value or an index that is "
                         f"not an integer in range for shape {out.shape}")
    out[tuple(index.astype(int).T)] = values
    return out


def jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def document(kind: str, body: dict) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    doc.update(jsonable(body))
    return doc


def encode(doc: dict) -> str:
    """A document's text, on stdout and in files alike: indented standard
    JSON and a newline."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def atomic_write_json(path: str, doc: dict) -> None:
    text = encode(doc)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".homcurv-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def space_document(space: HomogeneousSpace) -> dict:
    body = {
        "label": space.label,
        "params": dict(space.params),
        "ambient": space.ambient.name,
        "dim_k": space.ambient.dim,
        "dim_h": space.dim_h,
        "dim_p": space.dim_p,
        "has_torus_generator": space.torus_generator is not None,
        "notes": space.notes,
        "h_basis": space.h_basis,
        "p_basis": space.p_basis,
    }
    if space.torus_generator is not None:
        body["torus_generator"] = space.torus_generator
    body["structure_constants"] = {
        "shape": list(space.ambient.structure_constants.shape),
        "triplets": sparse_triplets(space.ambient.structure_constants),
    }
    return document("space", body)


def space_from_document(doc: dict) -> HomogeneousSpace:
    """Rebuild a space from its document, bit for bit.

    The ambient algebra is reconstructed from its name; stored structure
    constants and derived dimensions, if present, must match the rebuilt
    ones exactly.
    """
    if doc.get("kind") != "space":
        raise ValueError(f"expected a space document, got kind={doc.get('kind')!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    if "h_basis" not in doc or "p_basis" not in doc:
        raise ValueError("document lacks bases; regenerate it with `homcurv build`")
    ambient = algebra_from_name(doc["ambient"])
    stored = doc.get("structure_constants")
    if stored is not None:
        try:
            c = dense_from_triplets(tuple(stored["shape"]), stored["triplets"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"structure_constants: {exc}") from None
        if not np.array_equal(c, ambient.structure_constants):
            raise ValueError("stored structure constants do not match the "
                             f"rebuilt ambient algebra {doc['ambient']}")

    def array(field):
        try:
            arr = np.asarray(doc[field], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{field}: {exc}") from None
        return arr.reshape(0, ambient.dim) if arr.size == 0 else arr

    space = HomogeneousSpace(
        label=doc["label"],
        params=tuple((k, int(v)) for k, v in doc.get("params", {}).items()),
        ambient=ambient,
        h_basis=array("h_basis"),
        p_basis=array("p_basis"),
        torus_generator=(None if doc.get("torus_generator") is None
                         else array("torus_generator")),
        notes=doc.get("notes", ""),
    )
    derived = {"dim_k": ambient.dim, "dim_h": space.dim_h, "dim_p": space.dim_p,
               "has_torus_generator": space.torus_generator is not None}
    for field, value in derived.items():
        if field in doc and doc[field] != value:
            raise ValueError(f"{field} is {doc[field]!r}, but the bases give {value!r}")
    return space


def decomposition_document(dec: IsotypicDecomposition) -> dict:
    return document("decomposition", {
        "label": dec.label,
        "dim_p": dec.dim_p,
        "commutant_dim": dec.commutant_dim,
        "components": [
            {
                "dim": c.dim,
                "multiplicity": c.multiplicity,
                "summand_dim": c.summand_dim,
                "division_type": c.division_type,
                "weight": c.weight,
            }
            for c in dec.components
        ],
    })


def metric_document(space: HomogeneousSpace, metric: np.ndarray,
                    report: dict, provenance: str) -> dict:
    return document("metric", {
        "label": space.label,
        "dim_p": space.dim_p,
        "matrix": metric,
        "residuals": report,
        "metric_provenance": provenance,
    })


def witness_document(w: PlaneWitness) -> dict:
    return document("witness", {
        "witness_kind": w.kind,
        "found": w.found,
        "objective": w.objective if np.isfinite(w.objective) else None,
        "numerator": w.numerator,
        "x": w.x,
        "y": w.y,
        "message": w.message,
        "decided": w.decided,
    })


def parity_document(rp: RankParity) -> dict:
    return document("rank-parity", {
        "rank_ambient": rp.rank_ambient,
        "rank_isotropy": rp.rank_isotropy,
        "dim_p": rp.dim_p,
        "difference": rp.difference,
        "parity_consistent": rp.parity_consistent,
    })


def symmetrization_document(s: Sp2Symmetrization) -> dict:
    return document("symmetrization", {
        "psi": s.psi,
        "residual": s.residual,
        "det_involution": s.det_involution,
        "metric": s.metric,
    })


def certify_document(r: CertifyReport, provenance: str) -> dict:
    return document("certify", {
        "label": r.label,
        "metric_provenance": provenance,
        "verdict": r.verdict,
        "min_sectional": r.min_sectional if np.isfinite(r.min_sectional) else None,
        "plane_x": list(r.plane_x),
        "plane_y": list(r.plane_y),
        "start_minima": list(r.start_minima),
        "converged_starts": r.converged_starts,
        "stop_reasons": list(r.stop_reasons),
        "starts": r.starts,
        "max_iters": r.max_iters,
        "grad_tol": r.grad_tol,
        "zero_tol": r.zero_tol,
        "zero_threshold": r.zero_threshold,
        "seed": r.seed,
        "disclaimer": r.disclaimer,
        "draw_scheme": r.draw_scheme,
        "wall_time": r.wall_time,
    })
