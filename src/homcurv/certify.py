"""Multistart descent search for nonpositively curved planes.

The search runs in the coordinates x′ = Lᵀx (G = LLᵀ) of `Curvature`, where
the metric is the identity.  One call of rng_from(seed, 2) draws one axis per
start (draw scheme 3), so fewer starts draw a prefix of more.  For a unit
axis x the planes (x, y) with y orthogonal to x take the Rayleigh quotients
of the Jacobi operator J_x as their values, so f(x), the lowest eigenvalue of
J_x on the complement of x, is the lowest plane through x, and its lowest
eigenvector is the best partner.  Each start descends f on the sphere of
axes (variable projection, Golub and Pereyra 1973): one batched eigenproblem
per evaluation (`PlaneForm.lowest_planes`) gives the value, the partner
and, by the envelope theorem, the gradient.  On many metrics f is constant
and every start stops at its first evaluation.  The descent takes a
Barzilai-Borwein trial step with nonmonotone Armijo backtracking.  The Armijo
test compares a trial with the largest of the start's last NONMONOTONE
values, not with its current one (Grippo-Lampariello-Lucidi), so most
Barzilai-Borwein steps pass at once; a value may rise for a while, and each
start reports the lowest value it reached and the plane where it reached it.
All starts descend as one batch: every round evaluates the axes of the
starts still running in one eigenproblem batch, while each start keeps its
own step, its own backtracking and its own stop.  A start stops as
`converged` when its gradient, measured in the metric's scale, falls below
GRAD_TOL, as `line-search` when no step passes the Armijo test, at
`max-iters`, or as `failed` when its drawn axis is zero or not finite or a
value is not finite.  No rule stops a start on its value alone: a descent
that creeps down an ill-conditioned valley toward a flat plane keeps going
until its gradient vanishes or its iterations run out.

Finding a plane at or below the zero threshold is conclusive.  The threshold
is ZERO_TOL / λ_max(G): it equals ZERO_TOL for the normal metric and, like
sectional curvature, scales by 1/λ under G -> λG.  Otherwise the
verdict is `positive` when at least half the starts converged, that is,
reached a critical point, and `inconclusive` when fewer did; `positive` only
reports that the search found nothing, which is evidence, not proof, of
positive curvature.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .curvature import Curvature
from .numerics import DRAW_SCHEME, rng_from
from .spaces import HomogeneousSpace

DISCLAIMER = ("a positive verdict means no nonpositively curved plane was "
              "found by a finite random search; it is not a certificate of "
              "positive curvature")


# The Armijo reference of a start is the largest of its last NONMONOTONE values.
NONMONOTONE = 10
GRAD_TOL = 1e-10     # the stop test |∇| <= GRAD_TOL · unit of every descent
ZERO_TOL = 1e-9      # the zero threshold ZERO_TOL / λ_max(G)
ARMIJO = 1e-4
MAX_BACKTRACKS = 40
CONVERGED, LINE_SEARCH, MAX_ITERS, FAILED = STOP_REASONS = (
    "converged", "line-search", "max-iters", "failed")
_CODE = {reason: k for k, reason in enumerate(STOP_REASONS)}


@dataclass(frozen=True)
class CertifyReport:
    label: str
    verdict: str                     # "positive" | "nonpositive-witness" | "inconclusive"
    min_sectional: float
    plane_x: tuple[float, ...]       # p-coordinates of the G-orthonormal minimizing frame
    plane_y: tuple[float, ...]
    start_minima: tuple              # per-start lowest value, None on failure
    converged_starts: int            # starts that stopped "converged", at a critical point
    stop_reasons: tuple[str, ...]    # per start, one of STOP_REASONS
    starts: int
    max_iters: int
    grad_tol: float
    zero_tol: float
    zero_threshold: float            # zero_tol / λ_max(G), what the minimum is compared with
    seed: int
    disclaimer: str
    draw_scheme: int = DRAW_SCHEME   # how the starts were drawn
    wall_time: float = field(compare=False, default=0.0)


def _line_search(evaluate, v: np.ndarray, grad: np.ndarray, ref: np.ndarray,
                 gn2: np.ndarray, step: np.ndarray):
    """Armijo backtracking from every axis at once, each with its own step.

    A trial passes when its value is at most its row's reference `ref` less
    ARMIJO * step * |grad|²; rows that fail halve their step and try again.
    Returns the mask of rows that found a step and, on those rows, the
    accepted trial's evaluation (the other rows hold a rejected trial).
    """
    trial = evaluate(v - step[:, None] * grad)
    accepted = trial[1] <= ref - ARMIJO * step * gn2
    rows = np.flatnonzero(~accepted)
    for _ in range(MAX_BACKTRACKS - 1):
        if not rows.size:
            break
        step = 0.5 * step
        again = evaluate(v[rows] - step[rows, None] * grad[rows])
        good = again[1] <= ref[rows] - ARMIJO * step[rows] * gn2[rows]
        done = rows[good]
        for whole, part in zip(trial, again):
            whole[done] = part[good]
        accepted[done] = True
        rows = rows[~good]
    return accepted, trial


def _descend(evaluate, coeffs: np.ndarray, max_iters: int, unit: float):
    """Minimize the lowest plane value through the axis of every row of
    `coeffs` in one batch.

    `evaluate` is a `PlaneForm.lowest_planes` with its bases bound: it maps
    axis coefficients to their unit rows, the values, the gradients in the
    coefficients and the partners.  Each start keeps its own
    Barzilai-Borwein step, nonmonotone Armijo backtracking and stop rule;
    every round evaluates all starts still descending together.  Returns
    each row's lowest value and the unit coefficients and partner that
    reached it, and its stop reason (a failed row's value is not a result).

    When every start stops at its first evaluation, no descent state is
    built.  Otherwise each start's lowest value, axis, partner and stop
    reason (an index into STOP_REASONS) live in arrays over all rows,
    written at `run`, the rows still descending; the rest of its state
    (axis, gradient, step and recent values) follows `run`, and a row that
    stops is dropped from it.  A row stops on its gradient, a failed line
    search, a value that is not finite or max_iters, never on its value
    alone.  A step length carries the unit 1/curvature: `unit` is a
    curvature scale of the operator (certify passes 1/λ_max(G)), and under
    G -> λG the operator, the gradient and `unit` all scale by 1/λ.
    So the stop test |∇| <= GRAD_TOL · unit, the first step
    1 / max(unit, |∇|) and the Barzilai-Borwein clamp [1e-12, 1e6] / unit
    read the same on every multiple of a metric.
    """
    best_v, best, grad, best_y = evaluate(coeffs)
    gn2 = np.vecdot(grad, grad)
    failed = np.isinf(best) | ~np.isfinite(gn2)
    reason = np.full(len(best), _CODE[MAX_ITERS])
    reason[gn2 <= (GRAD_TOL * unit) ** 2] = _CODE[CONVERGED]
    reason[failed] = _CODE[FAILED]
    run = np.flatnonzero(reason == _CODE[MAX_ITERS])
    if not run.size or not max_iters:
        return best, best_v, best_y, [STOP_REASONS[k] for k in reason.tolist()]
    v, grad, gn2 = best_v[run], grad[run], gn2[run]
    recent = np.full((len(run), NONMONOTONE), -np.inf)
    recent[:, 0] = best[run]
    step = 1.0 / np.maximum(unit, np.sqrt(gn2))
    for it in range(1, max_iters + 1):
        accepted, (trial_v, sec, trial_grad, y) = _line_search(
            evaluate, v, grad, recent.max(axis=1), gn2, step)
        if not accepted.all():
            reason[run[~accepted]] = _CODE[LINE_SEARCH]
            run, v, grad, recent, trial_v, sec, trial_grad, y = (
                a[accepted] for a in (run, v, grad, recent, trial_v, sec,
                                      trial_grad, y))
            if not run.size:
                break
        dv, dg = trial_v - v, trial_grad - grad
        v, grad, gn2 = trial_v, trial_grad, np.vecdot(trial_grad, trial_grad)
        denom = np.vecdot(dg, dg)
        step = np.divide(np.abs(np.vecdot(dv, dg)), denom,
                         out=np.ones_like(denom), where=denom > 1e-300)
        step = np.minimum(np.maximum(step, 1e-12 / unit), 1e6 / unit)
        recent[:, it % NONMONOTONE] = sec
        lower = sec < best[run]
        up = run[lower]
        best[up], best_v[up], best_y[up] = sec[lower], v[lower], y[lower]
        failed, converged = ~np.isfinite(gn2), gn2 <= (GRAD_TOL * unit) ** 2
        done = failed | converged
        if done.any():
            reason[run[done]] = np.where(failed, _CODE[FAILED],
                                         _CODE[CONVERGED])[done]
            run, v, grad, gn2, step, recent = (a[~done] for a in (
                run, v, grad, gn2, step, recent))
            if not run.size:
                break
    return best, best_v, best_y, [STOP_REASONS[k] for k in reason.tolist()]


def certify(space: HomogeneousSpace, metric: np.ndarray, seed: int = 0,
            starts: int = 64, max_iters: int = 500) -> CertifyReport:
    """Search the plane Grassmannian for nonpositive sectional curvature.

    Raises ValueError for parameters that no search would back, starts < 1
    or max_iters < 0, and for a space with dim p < 2, which has no plane to
    search.
    """
    if starts < 1 or max_iters < 0:
        raise ValueError(f"need starts >= 1 and max_iters >= 0, "
                         f"got {starts}, {max_iters}")
    if space.dim_p < 2:
        named = " ".join([space.label, *(f"{k}={v}" for k, v in space.params)])
        raise ValueError(f"{named} has dim p = {space.dim_p}: no plane to search")
    t0 = time.perf_counter()
    cv = Curvature(space, metric)
    zero_threshold = ZERO_TOL / cv.max_eigenvalue
    n = space.dim_p
    draws = rng_from(seed, 2).standard_normal((starts, n))
    secs, axes, partners, reasons = _descend(
        cv.lowest_planes, draws @ cv.factor, max_iters, 1.0 / cv.max_eigenvalue)
    finals = tuple(None if r == FAILED else s
                   for s, r in zip(secs.tolist(), reasons))
    succeeded = [i for i, r in enumerate(reasons) if r != FAILED]
    best, plane = np.nan, np.zeros((2, n))
    if succeeded:
        i = min(succeeded, key=lambda k: secs[k])
        best, plane = secs[i], np.stack([axes[i], partners[i]]) @ cv.basis
    converged = reasons.count(CONVERGED)
    if best <= zero_threshold:          # False for NaN, when no start finished
        verdict = "nonpositive-witness"
    elif 2 * converged < starts:
        verdict = "inconclusive"       # quorum: half the starts must converge
    else:
        verdict = "positive"
    return CertifyReport(
        label=space.label,
        verdict=verdict,
        min_sectional=float(best),
        plane_x=tuple(plane[0].tolist()),
        plane_y=tuple(plane[1].tolist()),
        start_minima=finals,
        converged_starts=converged,
        stop_reasons=tuple(reasons),
        starts=starts,
        max_iters=max_iters,
        grad_tol=GRAD_TOL,
        zero_tol=ZERO_TOL,
        zero_threshold=zero_threshold,
        seed=seed,
        disclaimer=DISCLAIMER,
        wall_time=time.perf_counter() - t0,
    )
