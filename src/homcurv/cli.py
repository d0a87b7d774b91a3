"""Command line interface.

Subcommands: catalog, build, decompose, metric, curvature, obstruct,
certify, suite.  Results are JSON on stdout (or --out FILE, written
atomically); the package version goes to stderr.

A space is named positionally, by catalog label (with --n/--p/--q) or by the
path of a `build` document, so documents round-trip through the pipeline;
`homcurv.metrics.metric_from_spec` parses --metric.  Exit code 0 means the
command ran to completion, with findings reported in the JSON; 1 means a
verification failed (a suite criterion, an inconsistent rank parity, an
inconclusive search); 2 is a usage error, argparse's included, reported as
JSON on stderr.

Only the plane searches draw from a seed: `obstruct` and `certify` take
--seed (default 0) and record it in their documents.  Every other draw is
named by its input, as `sample:SEED` metrics and `random:SEED` planes are.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .certify import certify
from .curvature import Curvature
from .isotypic import decompose
from .metrics import metric_from_spec, metric_sampler, sample_seed, validate_metric
from .numerics import DRAW_SCHEME, rng_from
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
    encode,
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise CliError, so that they
    reach stderr as the JSON error document; subparsers inherit the class."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _space_from_args(args):
    name = args.source
    if name is None:
        raise CliError("a space is required: a catalog label or a JSON file from `build`")
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


def _resolve_metric(space, spec: str) -> np.ndarray:
    try:
        return metric_from_spec(space, spec)
    except ValueError as exc:
        raise CliError(str(exc))


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
    return x, y


def _emit(doc: dict, output: str | None) -> None:
    if output:
        atomic_write_json(output, doc)
    else:
        sys.stdout.write(encode(doc))


def _add_space_arguments(sub):
    sub.add_argument("source", nargs="?",
                     help="catalog label or a space JSON file")
    sub.add_argument("--n", type=int, help="size parameter")
    sub.add_argument("--p", type=int, help="first weight")
    sub.add_argument("--q", type=int, help="second weight")


def _cmd_catalog(args) -> int:
    _emit(document("catalog", {"entries": catalog_entries()}), args.output)
    return 0


def _cmd_build(args) -> int:
    space = _space_from_args(args)
    _emit(space_document(space), args.output)
    return 0


def _cmd_decompose(args) -> int:
    space = _space_from_args(args)
    _emit(decomposition_document(decompose(space)), args.output)
    return 0


def _cmd_metric(args) -> int:
    space = _space_from_args(args)
    metric = _resolve_metric(space, args.metric)
    report = validate_metric(space, metric)
    _emit(metric_document(space, metric, report, provenance=args.metric),
          args.output)
    return 0


def _cmd_curvature(args) -> int:
    space = _space_from_args(args)
    metric = _resolve_metric(space, args.metric)
    x, y = _resolve_plane(space, args.plane)
    cv = Curvature(space, metric)
    try:
        sec = cv.sectional(x, y)
    except ValueError as exc:
        raise CliError(f"--plane {args.plane}: {exc}")
    _emit(document("curvature", {
        "label": space.label,
        "metric_provenance": args.metric,
        "plane": args.plane,
        "sectional": sec,
        "numerator": cv.numerator(x, y),
        "gram": cv.gram(x, y),
    }), args.output)
    return 0


def _require_counts(args, *names: str) -> None:
    """Usage error for a count option given below 1."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise CliError(f"--{name} must be at least 1, got {value}")


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as the draw keys need."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _metric_check(check: str, space, metric, seed: int, starts: int):
    """Run one metric-dependent check; returns (document, fired)."""
    if check == "commuting":
        w = commuting_witness(space, metric, seed=seed, starts=starts)
        return witness_document(w), w.found
    if check == "min-eigenvalue":
        w = min_eigenvalue_witness(space, metric, seed=seed, starts=2 * starts)
        return witness_document(w), w.found
    try:
        s = symmetrize_sp2_31(space, metric)
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc))
    return symmetrization_document(s), False


def _cmd_obstruct(args) -> int:
    _require_counts(args, "starts", "samples")
    checks = (["commuting", "min-eigenvalue", "rank"]
              if args.check == "all" else [args.check])
    metric_checks = [c for c in checks if c != "rank"]
    if args.samples is not None and not metric_checks:
        raise CliError("--samples needs a check that reads the metric; "
                       "--check rank reads none")
    space = _space_from_args(args)
    body = {"label": space.label, "metric_provenance": args.metric,
            "draw_scheme": DRAW_SCHEME, "seed": args.seed}
    parity_ok = True
    if "rank" in checks:
        rp = rank_parity_check(space)
        body["rank"] = parity_document(rp)
        parity_ok = rp.parity_consistent
    fired = False
    if args.samples is None:
        metric = _resolve_metric(space, args.metric) if metric_checks else None
        body["checks"] = {}
        for check in metric_checks:
            doc, hit = _metric_check(check, space, metric, args.seed,
                                     args.starts)
            body["checks"][check] = doc
            fired |= hit
    else:
        try:
            base = sample_seed(args.metric)
        except ValueError as exc:
            raise CliError(f"--samples: {exc}")
        rows = []
        draw = metric_sampler(space)
        for i in range(args.samples):
            metric = draw(base + i)
            row = {"metric_seed": base + i, "witness": None}
            for check in metric_checks:
                doc, hit = _metric_check(check, space, metric, args.seed,
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


def _cmd_certify(args) -> int:
    _require_counts(args, "starts")
    if args.max_iters < 0:
        raise CliError(f"--max-iters must be at least 0, got {args.max_iters}")
    space = _space_from_args(args)
    metric = _resolve_metric(space, args.metric)
    try:
        report = certify(space, metric, seed=args.seed, starts=args.starts,
                         max_iters=args.max_iters)
    except ValueError as exc:
        raise CliError(str(exc))
    _emit(certify_document(report, provenance=args.metric), args.output)
    return 0 if report.verdict in ("positive", "nonpositive-witness") else 1


def _cmd_suite(args) -> int:
    from .acceptance import run_all

    try:
        selected = run_all(args.only)
    except ValueError as exc:
        raise CliError(str(exc))
    results = []
    for r in selected:
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
    parser = _Parser(
        prog="homcurv",
        description="invariant metrics and sectional curvature on compact "
                    "homogeneous spaces")
    parser.add_argument("--version", action="version",
                        version=f"homcurv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(s):
        s.add_argument("--out", dest="output", metavar="FILE",
                       help="write the JSON document to this file")

    s = sub.add_parser("catalog", help="list the space catalog")
    common(s)
    s.set_defaults(func=_cmd_catalog)

    s = sub.add_parser("build", help="construct a space as a loadable document")
    _add_space_arguments(s)
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
    s.add_argument("--seed", type=_seed, default=0,
                   help="seed of the witness searches' starts")
    common(s)
    s.set_defaults(func=_cmd_obstruct)

    s = sub.add_parser("certify", help="multistart search for nonpositive planes")
    _add_space_arguments(s)
    s.add_argument("--metric", default="normal")
    s.add_argument("--starts", type=int, default=64)
    s.add_argument("--max-iters", type=int, default=500)
    s.add_argument("--seed", type=_seed, default=0,
                   help="seed of the search's starts")
    common(s)
    s.set_defaults(func=_cmd_certify)

    s = sub.add_parser("suite", help="run the acceptance battery")
    s.add_argument("--only", help="comma separated criterion name filters")
    common(s)
    s.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        print(f"homcurv {__version__}", file=sys.stderr)
        return args.func(args)
    except Exception as exc:        # usage errors and unexpected failures alike
        error = (str(exc) if isinstance(exc, CliError)
                 else f"{type(exc).__name__}: {exc}")
        json.dump({"schema_version": SCHEMA_VERSION, "error": error}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
