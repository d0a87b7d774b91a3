"""The four closed-loop workloads of the homcurv benchmark.

Each workload is one client in one thread: the next item starts only when the
previous one has returned, as for a researcher or a CI job waiting on a
verdict.  A pass is the workload's fixed item list.  Pass k of a run with
seed s draws its inputs from ``1000 * s + k`` (certify start frames, sampled
metric seeds, CLI `sample:K` and `random:K` specs), so a seed fixes the
inputs of every pass and passes never repeat one another.

Every item has an independent check.  A check returns None when the output
is right and a one-line reason otherwise; an item that raises is wrong too.

Why these workloads (details and predictions in TRAJECTORY.md):

* certify-positive -- most of the time goes into certify starts that reach
  the minimum and then stagnate: the gradient stays above grad_tol, so they
  run to max_iters at up to 25-30 line-search evaluations per step, while cpn
  and hpn mostly converge.  max_iters is 60 rather than the default 500: at
  500 one stagnating start costs about 1.5 s and a run's time is a lottery
  over how many starts stagnate.  At 60 the starts that end without
  converging are a quarter of the starts and about half of the time, at 3.9
  sectional evaluations per gradient against 2.0, and a run averages over
  several times more starts.
* cli-pipeline -- the document workflow through `homcurv.cli.main`: build,
  decompose, metric, curvature and obstruct on files, two witness checks, one
  small certify and the fast acceptance criteria.  Only here do cli,
  serialize, spaces, algebra, isotypic.decompose and acceptance do most of
  the work.
* certify-witness -- descents that converge, at 1-2.5 sectional evaluations
  per gradient, so stopping stagnation should not move it, while a cheaper
  curvature evaluation should.  sp3mix (dim p 15) is the largest space.
* obstruct-sweep -- the `obstruct --samples` loop as library calls: scipy BFGS
  inside `commuting_witness` and `min_eigenvalue_witness`, and the commutant
  basis rebuilt by every `sample_metric`.  It never calls certify.

The last two are run by hand; BENCHMARK.json lists the first two.
"""
from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import homcurv.acceptance  # noqa: F401  (loaded up front so the tracer can wrap it)
import homcurv.certify
import homcurv.cli
import homcurv.metrics
import homcurv.obstructions
from homcurv.algebra import coords_of, matrix_of
from homcurv.curvature import Curvature
from homcurv.isotypic import decompose
from homcurv.metrics import diagonal_metric, normal_metric, sample_metric
from homcurv.serialize import load_json, space_from_document
from homcurv.spaces import catalog_build

ZERO_TOL = 1e-9        # certify's default: a plane at or below this is a witness
PLANE_TOL = 1e-9       # re-evaluated witness plane against the reported value
MIN_TOL = 1e-9         # reported minimum against the pair's reference minimum, relative
FLAT_TOL = 1e-9        # squared bracket over Gram of a commuting witness plane


@dataclass(frozen=True)
class Item:
    """One unit of closed-loop work and its independent check."""
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    witness: Callable[[object], bool] = lambda out: False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_pct: float                      # fixed percentile reported as item_tail_ms
    setup: Callable[[str], object]       # work directory -> context
    items: Callable[[object, int], list[Item]]   # (context, input seed) -> one pass


# shared helpers ------------------------------------------------------------

def resolve_metric(space, spec: str) -> np.ndarray:
    if spec == "normal":
        return normal_metric(space)
    if spec.startswith("sample:"):
        return sample_metric(space, seed=int(spec[7:]))
    return diagonal_metric(decompose(space), [float(t) for t in spec[5:].split(",")])


def matrix_bracket(space, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] in ambient coordinates, through the matrix realization."""
    alg = space.ambient
    mx = matrix_of(alg, space.p_basis.T @ x)
    my = matrix_of(alg, space.p_basis.T @ y)
    return coords_of(alg, mx @ my - my @ mx)


def closed_form_normal(space, x: np.ndarray, y: np.ndarray) -> float:
    """Sectional curvature of the normal metric: (|[x,y]_p|^2/4 + |[x,y]_h|^2) / Gram."""
    c = matrix_bracket(space, x, y)
    cp = space.p_basis @ c
    ch2 = float(c @ c - cp @ cp)
    gram = float((x @ x) * (y @ y) - (x @ y) ** 2)
    return (0.25 * float(cp @ cp) + ch2) / gram


# certify pools --------------------------------------------------------------

# (label, parameters, metric spec, reference minimum of the sectional curvature)
POSITIVE_POOL = (
    ("berger7", {}, "normal", 0.05),
    ("wallach6", {}, "diag:1,1,0.5", 0.0625),
    ("w11", {}, "normal", 0.0016393442622950824),
    ("aloffwallach-su3", {"p": 1, "q": 1}, "diag:0.3,1", 0.0375),
    ("cpn", {"n": 2}, "normal", 0.5),
    ("hpn", {"n": 2}, "normal", 0.25),
)
WITNESS_POOL = (
    ("wallach6", {}, "normal", 0.0),
    ("stiefel", {}, "normal", 0.0),
    ("stiefel", {}, "sample:0", -48.509608627),
    ("s3s3circle", {"p": 2, "q": 1}, "sample:0", 0.0),
    ("su3circle", {"p": 1, "q": 0}, "normal", 0.0),
    ("sp3mix", {}, "normal", 0.0),
)
STARTS = 16
POSITIVE_MAX_ITERS = 60


def _check_certify(space, metric, spec, expected, reference):
    def check(report) -> str | None:
        if report.verdict != expected:
            return f"verdict {report.verdict}, expected {expected}"
        found = report.min_sectional
        if abs(found - reference) > MIN_TOL * max(1.0, abs(reference)):
            return f"min_sectional {found:.12g}, reference {reference:.12g}"
        if expected != "nonpositive-witness":
            return None
        x, y = np.array(report.plane_x), np.array(report.plane_y)
        again = Curvature(space, np.array(metric, copy=True)).sectional(x, y)
        if abs(again - found) > PLANE_TOL or again > ZERO_TOL:
            return f"witness plane re-evaluates to {again:.3e}, reported {found:.3e}"
        if spec == "normal":
            closed = closed_form_normal(space, x, y)
            if abs(closed - found) > PLANE_TOL:
                return f"closed form gives {closed:.3e}, reported {found:.3e}"
        return None
    return check


def certify_workload(name: str, why: str, pool, expected: str, max_iters: int,
                     tail_pct: float) -> Workload:
    def setup(workdir):
        return [(f"{label} {spec}", space, resolve_metric(space, spec), spec, ref)
                for label, params, spec, ref in pool
                for space in [catalog_build(label, **params)]]

    def items(pairs, seed):
        return [Item(label,
                     lambda s=space, g=metric: homcurv.certify.certify(
                         s, g, seed=seed, starts=STARTS, max_iters=max_iters),
                     _check_certify(space, metric, spec, expected, ref),
                     lambda r: r.verdict == "nonpositive-witness")
                for label, space, metric, spec, ref in pairs]

    return Workload(name, why, tail_pct, setup, items)


# obstruction sweep ------------------------------------------------------------

SWEEP_SPACES = (
    ("stiefel", {}),
    ("s3s3circle", {"p": 2, "q": 1}),
    ("sp2circle", {"p": 3, "q": 1}),
    ("su3circle", {"p": 1, "q": 0}),
    ("sp3mix", {}),
)


def _sweep_item(space, metric_seed: int) -> Item:
    def run():
        metric = homcurv.metrics.sample_metric(space, seed=metric_seed)
        w = homcurv.obstructions.commuting_witness(space, metric, seed=0)
        if not w.found:
            w = homcurv.obstructions.min_eigenvalue_witness(space, metric, seed=0)
        return metric, w

    def check(out) -> str | None:
        metric, w = out
        if not w.found:
            return None
        again = Curvature(space, np.array(metric, copy=True)).sectional(w.x, w.y)
        if again > ZERO_TOL:
            return f"{w.kind} witness plane has sectional curvature {again:.3e}"
        if w.kind == "commuting":
            c = matrix_bracket(space, w.x, w.y)
            gram = (w.x @ w.x) * (w.y @ w.y) - (w.x @ w.y) ** 2
            if c @ c / gram > FLAT_TOL:
                return f"commuting witness has |[x,y]|^2/Gram {c @ c / gram:.3e}"
        return None

    return Item(f"{space.label} sample:{metric_seed}", run, check,
                lambda out: out[1].found)


def sweep_workload() -> Workload:
    def setup(workdir):
        return [catalog_build(label, **params) for label, params in SWEEP_SPACES]

    def items(spaces, seed):
        return [_sweep_item(space, seed) for space in spaces]

    return Workload("obstruct-sweep", "scipy BFGS witness searches and commutant rebuilds; "
                    "no certify", 85.0, setup, items)


# CLI pipeline -------------------------------------------------------------------

CLI_SPACES = (
    ("sp3mix", {}),
    ("berger13", {}),
    ("wallach12", {}),
    ("aloffwallach-su3", {"p": 1, "q": 1}),
    ("stiefel", {}),
    ("sp2circle", {"p": 3, "q": 1}),
)
SUITE_ONLY = "01-,02-,03-,05-,06-,07-,10-"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """homcurv.cli.main in process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = homcurv.cli.main(argv)
    return code, err.getvalue()


def _exit_zero(result) -> str | None:
    code, err = result
    return None if code == 0 else f"exit {code}: {err.strip()[-200:]}"


def _cli_item(label: str, argv: list[str], check=_exit_zero) -> Item:
    return Item(label, lambda: run_cli(argv), check)


def _check_build(path: str, label: str, params: dict):
    def check(result) -> str | None:
        bad = _exit_zero(result)
        if bad:
            return bad
        loaded = space_from_document(load_json(path))
        ref = catalog_build(label, **params)
        for field in ("h_basis", "p_basis"):
            if not np.array_equal(getattr(loaded, field), getattr(ref, field)):
                return f"reloaded {field} differs from catalog_build"
        if not np.array_equal(loaded.ambient.structure_constants,
                              ref.ambient.structure_constants):
            return "reloaded structure constants differ from catalog_build"
        return None
    return check


def cli_workload() -> Workload:
    def setup(workdir):
        os.makedirs(workdir, exist_ok=True)
        return workdir

    def items(workdir, seed):
        out = []
        for label, params in CLI_SPACES:
            flags = [a for k, v in params.items() for a in (f"--{k}", str(v))]
            stem = os.path.join(workdir, "-".join([label, *map(str, params.values())]))
            doc, metric = f"{stem}.json", f"{stem}.metric.json"
            out += [
                _cli_item(f"build {label}", ["build", label, *flags, "--out", doc],
                          _check_build(doc, label, params)),
                _cli_item(f"decompose {label}",
                          ["decompose", doc, "--out", f"{stem}.dec.json"]),
                _cli_item(f"metric {label}", ["metric", doc, "--metric", f"sample:{seed}",
                                              "--out", metric]),
                _cli_item(f"curvature {label}",
                          ["curvature", doc, "--metric", f"file:{metric}",
                           "--plane", f"random:{seed}", "--out", f"{stem}.curv.json"]),
                _cli_item(f"obstruct {label}", ["obstruct", doc, "--check", "rank",
                                                "--out", f"{stem}.rank.json"]),
            ]
        stiefel, sp2circle = (os.path.join(workdir, f"{s}.json") for s in ("stiefel", "sp2circle-3-1"))
        out.append(_cli_item("obstruct stiefel min-eigenvalue", [
            "obstruct", stiefel, "--metric", f"sample:{seed}", "--check", "min-eigenvalue",
            "--out", os.path.join(workdir, "witness-min.json")]))
        out.append(_cli_item("obstruct sp2circle commuting", [
            "obstruct", sp2circle, "--metric", f"sample:{seed}", "--check", "commuting",
            "--starts", "4", "--out", os.path.join(workdir, "witness-commuting.json")]))
        out.append(_cli_item("certify cpn", [
            "certify", "cpn", "--n", "2", "--starts", "2", "--seed", str(seed),
            "--out", os.path.join(workdir, "certify.json")]))
        out.append(_cli_item("suite", ["suite", "--only", SUITE_ONLY,
                                       "--out", os.path.join(workdir, "suite.json")]))
        return out

    return Workload("cli-pipeline", "document workflow through homcurv.cli.main",
                    98.0, setup, items)


WORKLOADS = {
    w.name: w for w in (
        certify_workload(
            "certify-positive", "certify starts that stagnate at the minimum",
            POSITIVE_POOL, "positive", POSITIVE_MAX_ITERS, 90.0),
        certify_workload(
            "certify-witness", "certify descents that converge to a flat plane",
            WITNESS_POOL, "nonpositive-witness", 500, 60.0),
        sweep_workload(),
        cli_workload(),
    )
}
