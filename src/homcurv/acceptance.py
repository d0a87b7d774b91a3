"""Acceptance battery: the checks CI gates on.

Each criterion is a standalone function returning (passed, detail).  The
registry pairs it with a wall-clock budget in seconds (None when untimed);
`run_one` times the function and fails the criterion when it overruns,
the one case where it adds to the criterion's detail.
The CLI `suite` subcommand and the acceptance tests both drive this module,
so there is a single source of truth for what "green" means.

Everything is deterministic: draws come from fixed seeds, and the sampled
metrics, grids and pools are frozen alongside the expected outcomes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .algebra import (
    bracket,
    build_algebra,
    centralizer_subalgebra,
    direct_sum,
    group_element,
    quaternion_to_complex,
)
from .certify import certify
from .curvature import Curvature, b_plus
from .isotypic import decompose
from .metrics import (
    diagonal_metric,
    metric_from_spec,
    metric_sampler,
    normal_metric,
)
from .numerics import rng_from
from .obstructions import (
    commuting_witness,
    min_eigenvalue_witness,
    rank_parity_check,
    symmetrize_sp2_31,
)
from .spaces import catalog_build, catalog_labels, listing_params


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float | None


def _check_algebra_invariants() -> tuple[bool, str]:
    """Jacobi < 1e-12 and inner-product invariance < 1e-10, 1000 triples each."""
    algebras = [
        build_algebra("so", 7),
        build_algebra("su", 5),
        build_algebra("sp", 3),
        direct_sum(build_algebra("su", 3), build_algebra("so", 3)),
    ]
    worst_jacobi = worst_inv = 0.0
    for k, alg in enumerate(algebras):
        rng = rng_from(1, k)
        x, y, z = rng.standard_normal((3, 1000, alg.dim))
        xy = bracket(alg, x, y)
        jac = (bracket(alg, x, bracket(alg, y, z))
               + bracket(alg, y, bracket(alg, z, x))
               + bracket(alg, z, xy))
        worst_jacobi = max(worst_jacobi, np.linalg.norm(jac, axis=1).max())
        inv = np.vecdot(xy, z) + np.vecdot(y, bracket(alg, x, z))
        worst_inv = max(worst_inv, np.abs(inv).max())
    ok = worst_jacobi < 1e-12 and worst_inv < 1e-10
    return ok, f"jacobi {worst_jacobi:.1e}, invariance {worst_inv:.1e}"


def _check_round_sphere() -> tuple[bool, str]:
    """Every plane on the identity-metric 4-sphere has value 1/2."""
    space = catalog_build("sphere-so", n=4)
    cv = Curvature(space, np.eye(space.dim_p))
    # one draw of 1000 pairs yields the numbers of 1000 draws of one pair
    draws = rng_from(2).standard_normal((1000, 2, space.dim_p))
    x, y = draws[:, 0], draws[:, 1]
    worst = float(np.max(np.abs(cv.sectional(x, y) - 0.5)))
    return worst <= 1e-8, f"max deviation from 1/2: {worst:.1e}"


def _check_identity_reduction() -> tuple[bool, str]:
    """At the identity metric the numerator collapses to a two-norm formula."""
    worst = 0.0
    for k, (label, params) in enumerate([
            ("wallach6", {}), ("stiefel", {}),
            ("aloffwallach-su3", {"p": 1, "q": 1})]):
        space = catalog_build(label, **params)
        cv = Curvature(space, np.eye(space.dim_p))
        pb = space.p_basis
        # one draw of 1000 pairs yields the numbers of 1000 draws of one pair
        draws = rng_from(3, k).standard_normal((1000, 2, space.dim_p))
        x, y = draws[:, 0], draws[:, 1]
        amb = bracket(space.ambient, x @ pb, y @ pb)
        cp2 = np.vecdot(amb @ pb.T, amb @ pb.T)
        closed = 0.25 * cp2 + (np.vecdot(amb, amb) - cp2)
        worst = max(worst, float(np.max(np.abs(cv.numerator(x, y) - closed))))
    return worst < 1e-10, f"max formula residual {worst:.1e}"


def _check_bplus_in_complement() -> tuple[bool, str]:
    """The symmetric bracket-metric term never leaks out of the complement."""
    labels = [("berger7", {}), ("wallach6", {}), ("stiefel", {}),
              ("sp2circle", {"p": 3, "q": 1}), ("s3s3circle", {"p": 2, "q": 1})]
    worst = 0.0
    for k, (label, params) in enumerate(labels):
        space = catalog_build(label, **params)
        pb = space.p_basis
        rng = rng_from(4, k)
        sample = metric_sampler(space)
        for draw in range(200):
            g = sample(1000 * k + draw)
            x, y = rng.standard_normal((2, space.dim_p))
            bp = b_plus(space, g, x, y)
            leak = np.linalg.norm(bp - pb.T @ (pb @ bp))
            worst = max(worst, leak)
    return worst < 1e-9, f"max leak {worst:.1e} over 1000 draws"


def _check_rank_parity() -> tuple[bool, str]:
    """Rank difference in {0, 1} matching dim p mod 2, for every entry."""
    bad = []
    for label in catalog_labels():
        space = catalog_build(label, **listing_params(label))
        if not rank_parity_check(space).parity_consistent:
            bad.append(label)
    n = len(catalog_labels())
    detail = f"{n - len(bad)}/{n} entries consistent"
    if bad:
        detail += f" (failed: {', '.join(bad)})"
    return not bad, detail


def _check_involution_centralizers() -> tuple[bool, str]:
    """Centralizer dimensions of two specific involutions, exactly."""
    su5 = build_algebra("su", 5)
    iota5 = np.diag([-1.0, -1.0, -1.0, -1.0, 1.0]).astype(complex)
    dim5 = centralizer_subalgebra(su5, group_element(su5, iota5)).shape[0]
    sp2 = build_algebra("sp", 2)
    iota2 = quaternion_to_complex(np.diag([-1.0, 1.0]), np.zeros((2, 2)))
    dim2 = centralizer_subalgebra(sp2, group_element(sp2, iota2)).shape[0]
    ok = dim5 == 16 and dim2 == 6
    return ok, f"dims {dim5} and {dim2} (want 16 and 6)"


def _check_isotypic_dimensions() -> tuple[bool, str]:
    """Component dimension patterns of three circle and diagonal quotients."""
    got = []
    d31 = decompose(catalog_build("sp2circle", p=3, q=1)).dims()
    got.append(d31 == (1, 4, 2, 2))
    d53 = decompose(catalog_build("sp2circle", p=5, q=3)).dims()
    got.append(d53 == (1, 2, 2, 2, 2))
    dst = decompose(catalog_build("stiefel"))
    got.append(dst.dims() == (3, 6) and dst.multiplicities() == (3, 3))
    detail = (f"(3,1): {d31}; (5,3): {d53}; "
              f"diagonal: {dst.dims()} mult {dst.multiplicities()}")
    return all(got), detail


def _check_zero_curvature_witnesses() -> tuple[bool, str]:
    """50/50 sampled metrics admit a commuting-eigenvector flat plane."""
    space = catalog_build("s3s3circle", p=2, q=1)
    hits = 0
    worst = 0.0
    sample = metric_sampler(space)
    for s in range(50):
        g = sample(s)
        w = commuting_witness(space, g, seed=0)
        if not w.found:
            continue
        value = abs(Curvature(space, g).sectional(w.x, w.y))
        worst = max(worst, value)
        hits += value < 1e-9
    return hits == 50, f"{hits}/50 witnesses, worst plane value {worst:.1e}"


def _check_bottom_eigenvalue_witnesses() -> tuple[bool, str]:
    """50/50 sampled metrics yield a nonpositive plane from the bottom eigenspace."""
    space = catalog_build("stiefel")
    hits = 0
    worst = -np.inf
    sample = metric_sampler(space)
    for s in range(50):
        g = sample(s)
        w = min_eigenvalue_witness(space, g, seed=0)
        if not w.found:
            continue
        value = Curvature(space, g).sectional(w.x, w.y)
        worst = max(worst, value)
        hits += value <= 1e-9
    return hits == 50, f"{hits}/50 witnesses, largest plane value {worst:.1e}"


def _check_symmetrization() -> tuple[bool, str]:
    """Phase choice conjugates 20 sampled metrics into the involution's centralizer."""
    space = catalog_build("sp2circle", p=3, q=1)
    worst_res = worst_det = 0.0
    hits = 0
    sample = metric_sampler(space)
    for s in range(20):
        sym = symmetrize_sp2_31(space, sample(s))
        worst_res = max(worst_res, sym.residual)
        worst_det = max(worst_det, abs(sym.det_involution + 1.0))
        hits += sym.residual < 1e-8 and abs(sym.det_involution + 1.0) <= 1e-10
    ok = hits == 20
    return ok, f"{hits}/20, residual {worst_res:.1e}, det drift {worst_det:.1e}"


def _check_positivity_searches() -> tuple[bool, str]:
    """Known positive and non-positive metrics come out as expected."""
    parts = []
    ok = True

    space = catalog_build("berger7")
    r = certify(space, normal_metric(space), seed=0, starts=64)
    ok &= r.verdict == "positive" and r.min_sectional > 0
    parts.append(f"berger7 {r.verdict} min {r.min_sectional:.3f}")

    space = catalog_build("aloffwallach-su3", p=1, q=1)
    dec = decompose(space)
    found_t = None
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        r = certify(space, diagonal_metric(dec, (t, 1.0)), seed=0, starts=64)
        if r.verdict == "positive":
            found_t = t
            break
    ok &= found_t is not None
    parts.append(f"aloffwallach grid hit t={found_t}")

    space = catalog_build("wallach6")
    dec = decompose(space)
    r_flat = certify(space, normal_metric(space), seed=0, starts=64)
    ok &= r_flat.verdict == "nonpositive-witness"
    r_pos = certify(space, diagonal_metric(dec, (1.0, 1.0, 0.5)), seed=0,
                    starts=64)
    ok &= r_pos.verdict == "positive"
    parts.append(f"wallach6 normal {r_flat.verdict}, scaled {r_pos.verdict}")

    return ok, "; ".join(parts)


AGREEMENT_POOL = (
    ("s3s3circle", {"p": 2, "q": 1}, "sample:0"),
    ("s3s3circle", {"p": 2, "q": 1}, "sample:1"),
    ("s3s3circle", {"p": 2, "q": 1}, "sample:2"),
    ("stiefel", {}, "sample:0"),
    ("stiefel", {}, "sample:1"),
    ("stiefel", {}, "sample:2"),
    ("sp2circle", {"p": 5, "q": 3}, "diag:1,2,0.7,1.3,0.9"),
    ("sp2circle", {"p": 3, "q": 1}, "diag:1,0.8,1.4,0.6"),
    ("wallach6", {}, "normal"),
    ("aloffwallach-su3", {"p": 1, "q": 1}, "normal"),
)


def _check_witness_agreement() -> tuple[bool, str]:
    """Whenever a witness fires, the multistart search concurs."""
    agree = 0
    for label, params, spec in AGREEMENT_POOL:
        space = catalog_build(label, **params)
        g = metric_from_spec(space, spec)
        w = commuting_witness(space, g, seed=0)
        if not w.found:
            w = min_eigenvalue_witness(space, g, seed=0)
        if not w.found:
            continue
        r = certify(space, g, seed=0, starts=16)
        agree += r.verdict == "nonpositive-witness"
    n = len(AGREEMENT_POOL)
    return agree == n, f"{agree}/{n} witnessed pairs confirmed"


CRITERIA: tuple[tuple[str, object, float | None], ...] = (
    ("01-algebra-invariants", _check_algebra_invariants, 10.0),
    ("02-round-sphere", _check_round_sphere, 5.0),
    ("03-identity-reduction", _check_identity_reduction, None),
    ("04-bplus-in-complement", _check_bplus_in_complement, None),
    ("05-rank-parity", _check_rank_parity, 5.0),
    ("06-involution-centralizers", _check_involution_centralizers, None),
    ("07-isotypic-dimensions", _check_isotypic_dimensions, None),
    ("08-zero-curvature-witnesses", _check_zero_curvature_witnesses, 30.0),
    ("09-bottom-eigenvalue-witnesses", _check_bottom_eigenvalue_witnesses, 120.0),
    ("10-metric-symmetrization", _check_symmetrization, 10.0),
    ("11-positivity-searches", _check_positivity_searches, 600.0),
    ("12-witness-certifier-agreement", _check_witness_agreement, None),
)


def criterion_names() -> list[str]:
    return [name for name, _, _ in CRITERIA]


def run_one(name: str) -> CriterionResult:
    for cname, fn, budget in CRITERIA:
        if cname == name:
            break
    else:
        raise KeyError(f"unknown criterion {name!r}")
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:              # a crashed criterion is a failure
        passed, detail = False, f"error: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        passed = False
        detail += f"; over budget: {elapsed:.1f}s of {budget:.0f}s"
    return CriterionResult(name, bool(passed), detail, elapsed, budget)


def run_all(only: str | None = None):
    """Run in registry order, yielding results as they finish, the criteria
    whose names contain a comma separated token of `only` (all when none);
    raises ValueError, before any criterion runs, if no criterion matches."""
    tokens = [t for t in (only or "").split(",") if t]
    names = [n for n in criterion_names()
             if not tokens or any(t in n for t in tokens)]
    if not names:
        raise ValueError(f"no acceptance criteria match {only!r}; "
                         f"known: {', '.join(criterion_names())}")
    return map(run_one, names)
