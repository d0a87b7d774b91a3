"""Command line interface.

Subcommands: catalog, build, decompose, metric, curvature, obstruct,
certify, suite.  Results are JSON on stdout (or --out FILE, written
atomically); the resolved seed and package version go to stderr.

Spaces are named either by catalog label (with --n/--p/--q parameters) or by
the path of a JSON file produced by `build --full`, so documents round-trip
through the pipeline.  Exit code 0 means the command ran to completion, with
findings reported in the JSON; 1 means a verification failed (a suite
criterion, an inconsistent rank parity, an inconclusive search); 2 is a
usage error, reported as JSON on stderr.

The default seed is 0; the HOMCURV_SEED environment variable overrides the
default, and an explicit --seed overrides both.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .certify import certify
from .curvature import DEPENDENT_TOL, Curvature
from .isotypic import decompose
from .metrics import metric_from_spec, metric_sampler, validate_metric
from .numerics import rng_from
from .obstructions import (
    commuting_witness,
    min_eigenvalue_witness,
    rank_parity_check,
    symmetrize_sp2_31,
)
from .serialize import (
    SCHEMA_VERSION,
    atomic_write_json,
    certify_document,
    decomposition_document,
    document,
    load_json,
    metric_document,
    parity_document,
    space_document,
    space_from_document,
    symmetrization_document,
    witness_document,
)
from .spaces import CatalogError, catalog_build, catalog_entries, catalog_labels


class CliError(Exception):
    pass


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("HOMCURV_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"HOMCURV_SEED must be an integer, got {env!r}")
    return 0


def _space_from_args(args):
    source = getattr(args, "source", None)
    flag = getattr(args, "space", None)
    if source is not None and flag is not None:
        raise CliError("give either a positional space or --space, not both")
    if source is None and flag is None:
        raise CliError("a space is required: a catalog label, a JSON file "
                       "from `build --full`, or --space LABEL")
    name = flag if flag is not None else source
    if name not in catalog_labels() and (
            name.endswith(".json") or os.path.sep in name
            or os.path.isfile(name)):
        try:
            return space_from_document(load_json(name))
        except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
            raise CliError(f"cannot load space from {name}: {exc}")
    params = {}
    for key in ("n", "p", "q"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    try:
        return catalog_build(name, **params)
    except CatalogError as exc:
        raise CliError(str(exc))


def _resolve_metric(space, spec: str, seed: int) -> np.ndarray:
    if not spec.startswith("file:"):
        try:
            return metric_from_spec(space, spec, seed=seed)
        except ValueError as exc:
            raise CliError(str(exc))
    path = spec[5:]
    try:
        doc = load_json(path)
        metric = np.asarray(doc["matrix"], dtype=float)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read metric from {path}: {exc}")
    try:
        validate_metric(space, metric)
    except ValueError as exc:
        raise CliError(f"metric in {path} is invalid: {exc}")
    return metric


def _resolve_plane(space, spec: str) -> tuple[np.ndarray, np.ndarray]:
    if spec.startswith("random:"):
        try:
            rng = rng_from(int(spec[7:]))
        except ValueError:
            raise CliError(f"bad plane spec {spec!r}")
        return rng.standard_normal(space.dim_p), rng.standard_normal(space.dim_p)
    try:
        doc = load_json(spec)
        x = np.asarray(doc["x"], dtype=float)
        y = np.asarray(doc["y"], dtype=float)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read plane from {spec}: {exc}")
    if x.shape != (space.dim_p,) or y.shape != (space.dim_p,):
        raise CliError(f"plane vectors must have length {space.dim_p}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise CliError(f"--plane {spec}: plane vectors have non-finite entries")
    return x, y


def _emit(doc: dict, output: str | None) -> None:
    if output:
        atomic_write_json(output, doc)
    else:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _add_space_arguments(sub):
    sub.add_argument("source", nargs="?",
                     help="catalog label or a space JSON file")
    sub.add_argument("--space", help="catalog label (alternative form)")
    sub.add_argument("--n", type=int, help="size parameter")
    sub.add_argument("--p", type=int, help="first weight")
    sub.add_argument("--q", type=int, help="second weight")


def _cmd_catalog(args, seed: int) -> int:
    _emit(document("catalog", {"entries": catalog_entries()}), args.output)
    return 0


def _cmd_build(args, seed: int) -> int:
    space = _space_from_args(args)
    _emit(space_document(space, full=not args.summary), args.output)
    return 0


def _cmd_decompose(args, seed: int) -> int:
    space = _space_from_args(args)
    _emit(decomposition_document(decompose(space, seed=seed)), args.output)
    return 0


def _cmd_metric(args, seed: int) -> int:
    space = _space_from_args(args)
    metric = _resolve_metric(space, args.metric, seed)
    report = validate_metric(space, metric)
    _emit(metric_document(space, metric, report, provenance=args.metric),
          args.output)
    return 0


def _cmd_curvature(args, seed: int) -> int:
    space = _space_from_args(args)
    metric = _resolve_metric(space, args.metric, seed)
    x, y = _resolve_plane(space, args.plane)
    cv = Curvature(space, metric)
    # the vectors are finite, so a Gram determinant that is not finite
    # overflowed, and one whose dependence bound DEPENDENT_TOL |x|²_G |y|²_G
    # is below the normal range underflowed; the dependence test would
    # misreport either
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        gram = cv.gram(x, y)
        bound = DEPENDENT_TOL * (x @ metric @ x) * (y @ metric @ y)
    if not np.isfinite(gram):
        raise CliError(f"--plane {args.plane}: the Gram determinant of the "
                       f"plane vectors overflows; scale them down")
    if x.any() and y.any() and bound < np.finfo(float).tiny:
        raise CliError(f"--plane {args.plane}: the Gram determinant of the "
                       f"plane vectors underflows; scale them up")
    try:
        sec = cv.sectional(x, y)
    except ValueError as exc:
        raise CliError(str(exc))
    _emit(document("curvature", {
        "label": space.label,
        "sectional": sec,
        "numerator": cv.numerator(x, y),
        "gram": gram,
    }), args.output)
    return 0


def _require_counts(args, *names: str) -> None:
    """Usage error for a count option given below 1."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise CliError(f"--{name} must be at least 1, got {value}")


def _metric_check(check: str, space, metric, seed: int, starts: int):
    """Run one metric-dependent check; returns (document, fired)."""
    if check == "commuting":
        w = commuting_witness(space, metric, seed=seed, starts=starts)
        return witness_document(w), w.found
    if check == "min-eigenvalue":
        w = min_eigenvalue_witness(space, metric, seed=seed, draws=2 * starts)
        return witness_document(w), w.found
    try:
        s = symmetrize_sp2_31(space, metric)
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc))
    return symmetrization_document(s), False


def _cmd_obstruct(args, seed: int) -> int:
    _require_counts(args, "starts", "samples")
    space = _space_from_args(args)
    checks = (["commuting", "min-eigenvalue", "rank"]
              if args.check == "all" else [args.check])
    body = {"label": space.label, "metric_provenance": args.metric}
    parity_ok = True
    if "rank" in checks:
        rp = rank_parity_check(space)
        body["rank"] = parity_document(rp)
        parity_ok = rp.parity_consistent
    metric_checks = [c for c in checks if c != "rank"]
    fired = False
    if args.samples is None:
        metric = _resolve_metric(space, args.metric, seed)
        body["checks"] = {}
        for check in metric_checks:
            doc, hit = _metric_check(check, space, metric, seed, args.starts)
            body["checks"][check] = doc
            fired |= hit
    else:
        if not args.metric.startswith("sample:"):
            raise CliError("--samples needs a sample:SEED metric family")
        try:
            base = int(args.metric[7:])
        except ValueError:
            raise CliError(f"bad sample metric spec {args.metric!r}")
        rows = []
        draw = metric_sampler(space)
        for i in range(args.samples):
            metric = draw(base + i)
            row = {"metric_seed": base + i, "witness": None}
            for check in metric_checks:
                doc, hit = _metric_check(check, space, metric, seed,
                                         args.starts)
                if check == "symmetrize":
                    row["symmetrization"] = doc
                elif hit:
                    row["witness"] = doc
                    break
            rows.append(row)
        body["samples"] = rows
        body["sample_count"] = args.samples
        body["witness_count"] = sum(r["witness"] is not None for r in rows)
        fired = body["witness_count"] > 0
    body["obstruction_found"] = fired or not parity_ok
    _emit(document("obstruct", body), args.output)
    return 0 if parity_ok else 1


def _cmd_certify(args, seed: int) -> int:
    _require_counts(args, "starts")
    if args.max_iters < 0:
        raise CliError(f"--max-iters must be at least 0, got {args.max_iters}")
    for flag, value in (("--grad-tol", args.grad_tol),
                        ("--zero-tol", args.zero_tol)):
        if not math.isfinite(value):
            raise CliError(f"{flag} must be finite, got {value}")
    space = _space_from_args(args)
    metric = _resolve_metric(space, args.metric, seed)
    report = certify(space, metric, seed=seed, starts=args.starts,
                     max_iters=args.max_iters, grad_tol=args.grad_tol,
                     zero_tol=args.zero_tol)
    _emit(certify_document(report, provenance=args.metric), args.output)
    return 0 if report.verdict in ("positive", "nonpositive-witness") else 1


def _cmd_suite(args, seed: int) -> int:
    from .acceptance import criterion_names, run_all

    wanted = [t for t in (args.only or "").split(",") if t]
    if wanted and not any(any(t in n for t in wanted)
                          for n in criterion_names()):
        raise CliError(f"no acceptance criteria match {args.only!r}; "
                       f"known: {', '.join(criterion_names())}")
    results = []
    for r in run_all(wanted or None):
        results.append(r)
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.detail})",
              flush=True)
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} acceptance criteria passed")
    if args.output:
        atomic_write_json(args.output, document("suite", {
            "criteria": [{"name": r.name, "passed": r.passed,
                          "detail": r.detail, "elapsed": r.elapsed,
                          "budget": r.budget} for r in results],
            "passed": len(results) - failed,
            "failed": failed,
        }))
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Building it costs a few milliseconds.  Reuse saves that on every later
    in-process `main` call (tests, benchmarks, the suite) but nothing for a
    process that runs one command.  Parsing leaves the parser unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="homcurv",
        description="invariant metrics and sectional curvature on compact "
                    "homogeneous spaces")
    parser.add_argument("--version", action="version",
                        version=f"homcurv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(s):
        s.add_argument("--seed", type=int, default=None,
                       help="override the default seed (and HOMCURV_SEED)")
        s.add_argument("--out", "--output", dest="output", metavar="FILE",
                       help="write the JSON document to this file")

    s = sub.add_parser("catalog", help="list the space catalog")
    common(s)
    s.set_defaults(func=_cmd_catalog)

    s = sub.add_parser("build", help="construct a space as a loadable document")
    _add_space_arguments(s)
    s.add_argument("--summary", action="store_true",
                   help="omit the bases and structure constants")
    common(s)
    s.set_defaults(func=_cmd_build)

    s = sub.add_parser("decompose", help="isotypic decomposition of p")
    _add_space_arguments(s)
    common(s)
    s.set_defaults(func=_cmd_decompose)

    s = sub.add_parser("metric", help="resolve and validate a metric")
    _add_space_arguments(s)
    s.add_argument("--metric", default="normal",
                   help="normal | diag:T0,T1,... | sample:SEED | file:PATH")
    common(s)
    s.set_defaults(func=_cmd_metric)

    s = sub.add_parser("curvature", help="sectional curvature of one plane")
    _add_space_arguments(s)
    s.add_argument("--metric", default="normal")
    s.add_argument("--plane", required=True,
                   help="random:SEED or a JSON file with x and y")
    common(s)
    s.set_defaults(func=_cmd_curvature)

    s = sub.add_parser("obstruct", help="run obstruction witnesses")
    _add_space_arguments(s)
    s.add_argument("--metric", default="normal")
    s.add_argument("--check", default="all",
                   choices=["all", "commuting", "min-eigenvalue", "rank",
                            "symmetrize"])
    s.add_argument("--starts", type=int, default=32)
    s.add_argument("--samples", type=int, default=None,
                   help="run the checks over N consecutively sampled metrics")
    common(s)
    s.set_defaults(func=_cmd_obstruct)

    s = sub.add_parser("certify", help="multistart search for nonpositive planes")
    _add_space_arguments(s)
    s.add_argument("--metric", default="normal")
    s.add_argument("--starts", type=int, default=64)
    s.add_argument("--max-iters", type=int, default=500)
    s.add_argument("--grad-tol", type=float, default=1e-10)
    s.add_argument("--zero-tol", type=float, default=1e-9,
                   help="a plane counts as nonpositive when its sectional "
                        "curvature is at most ZERO_TOL / (largest metric "
                        "eigenvalue); the document records this threshold "
                        "as zero_threshold (default: %(default)s)")
    common(s)
    s.set_defaults(func=_cmd_certify)

    s = sub.add_parser("suite", help="run the acceptance battery")
    s.add_argument("--only", help="comma separated criterion name filters")
    common(s)
    s.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = _resolve_seed(getattr(args, "seed", None))
        print(f"homcurv {__version__} seed={seed}", file=sys.stderr)
        return args.func(args, seed)
    except CliError as exc:
        json.dump({"schema_version": SCHEMA_VERSION, "error": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2
    except Exception as exc:              # unexpected failure, still as JSON
        json.dump({"schema_version": SCHEMA_VERSION,
                   "error": f"{type(exc).__name__}: {exc}"}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
