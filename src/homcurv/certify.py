"""Multistart descent search for nonpositively curved planes.

The search runs in the coordinates x′ = Lᵀx (G = LLᵀ) of `Curvature`, where
the metric is the identity.  One call of rng_from(seed, 1) draws all starts
(draw scheme 2), so fewer starts draw a prefix of more.  Each start pairs
its drawn axis x with its best partner: for a unit x, the planes (x, y) with
y orthogonal to x have the Rayleigh quotients of the Jacobi operator J_x as
their values, so the start frame's y is the lowest eigenvector of J_x on the
complement of x.  On many metrics that plane is already a critical point at
the minimum, and the start stops before its first step.  From that frame
each start descends the sectional curvature of the spanned plane, with a
Barzilai-Borwein trial step, nonmonotone Armijo backtracking and an
orthonormalized frame after every accepted step.  The Armijo test compares
a trial with the largest of the start's last NONMONOTONE values, not with
its current one (Grippo-Lampariello-Lucidi), so most Barzilai-Borwein steps
pass at once; a value may rise for a while, and each start reports the
lowest value it reached and the plane where it reached it.
All starts descend as one batch: every round evaluates the planes of the
starts still running in one product against the curvature operator, while
each start keeps its own step, its own backtracking and its own stop.  Every
trial is evaluated once, at its orthonormal frame, where the Gram determinant
is 1: the value and the gradients come from one call, and an accepted trial
hands both to the next round.  A trial whose Gram determinant fails the
dependence test (DEPENDENT_TOL) or whose value is not finite is rejected.  A
start stops as `converged` when its gradient, measured in the metric's scale,
falls below GRAD_TOL, as `line-search` when no step passes the Armijo test,
at `max-iters`, or as `failed` when its start frame is dependent or its
values are not finite.  No rule stops a start on its value alone: a descent
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

from .curvature import DEPENDENT_TOL, Curvature, PlaneForm
from .numerics import DRAW_SCHEME, rng_from
from .spaces import HomogeneousSpace

DISCLAIMER = ("a positive verdict means no nonpositively curved plane was "
              "found by a finite random search; it is not a certificate of "
              "positive curvature")


# The Armijo reference of a start is the largest of its last NONMONOTONE values.
NONMONOTONE = 10
GRAD_TOL = 1e-10     # the stop test |∇| <= GRAD_TOL / λ_max(G)
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


def _orthonormalize(x: np.ndarray, y: np.ndarray):
    """Orthonormal frames of the rows' planes and the mask of dependent rows.

    A row is dependent when the Gram determinant of its plane is at most
    DEPENDENT_TOL times |x|² |y|², a test that scaling leaves unchanged.
    """
    x = x / np.sqrt(np.vecdot(x, x))[:, None]
    along = np.vecdot(y, x)
    y = y - along[:, None] * x
    ny2 = np.vecdot(y, y)
    # the Gram determinant of (x̂, y) is ny², and |y|² = along² + ny²
    dependent = ny2 <= DEPENDENT_TOL * (along * along + ny2)
    ny = np.sqrt(np.where(dependent, 1.0, ny2))[:, None]
    return x, y / ny, dependent


def _evaluate(cv: PlaneForm, frames: np.ndarray, within: tuple | None = None):
    """Move every row (x then y) to its orthonormal frame and evaluate it.

    Returns the frames, their sectional values (+inf where a row is dependent
    or its value is not finite) and their gradients, projected by `within`.
    """
    n = frames.shape[1] // 2
    x, y, dependent = _orthonormalize(frames[:, :n], frames[:, n:])
    sec, dx, dy = cv.orthonormal_gradient(x, y)
    if within is not None:
        dx, dy = dx @ within[0], dy @ within[1]
    sec = np.where(dependent | ~np.isfinite(sec), np.inf, sec)
    return (np.concatenate([x, y], axis=1), sec,
            np.concatenate([dx, dy], axis=1))


def _partner_frames(cv: PlaneForm, draws: np.ndarray) -> np.ndarray:
    """Each drawn frame with its y replaced by the best partner of its x, the
    lowest eigenvector of J_x on the complement of x.

    The unit x is projected out of J_x and shifted above its spectrum, so the
    eigenproblem never returns it.  Rows that are dependent or not finite are
    returned as drawn, so they still fail.
    """
    n = draws.shape[1] // 2
    x, _, dependent = _orthonormalize(draws[:, :n], draws[:, n:])
    ok = ~dependent & np.isfinite(draws).all(axis=1)
    x = x[ok]
    jac = cv.jacobi_operator(x)
    xx = x[:, :, None] * x[:, None, :]
    proj = np.eye(n) - xx
    top = np.linalg.norm(jac, axis=(1, 2))
    shift = np.where(top > 0, 2.0 * top, 1.0)[:, None, None]
    out = draws.copy()
    out[ok, n:] = np.linalg.eigh(proj @ jac @ proj + shift * xx)[1][:, :, 0]
    return out


def _line_search(cv: PlaneForm, v: np.ndarray, grad: np.ndarray,
                 ref: np.ndarray, gn2: np.ndarray, step: np.ndarray,
                 within: tuple | None):
    """Armijo backtracking from every frame at once, each with its own step.

    A trial passes when its value is at most its row's reference `ref` less
    ARMIJO * step * |grad|²; rows that fail halve their step and try again.
    Returns the mask of rows that found a step and, on those rows, the
    accepted trial's orthonormal frame, value and gradient (the other rows
    hold a rejected trial).
    """
    frames, secs, grads = _evaluate(cv, v - step[:, None] * grad, within)
    accepted = secs <= ref - ARMIJO * step * gn2
    rows = np.flatnonzero(~accepted)
    for _ in range(MAX_BACKTRACKS - 1):
        if not rows.size:
            break
        step = 0.5 * step
        t, vals, g = _evaluate(cv, v[rows] - step[rows, None] * grad[rows],
                               within)
        good = vals <= ref[rows] - ARMIJO * step[rows] * gn2[rows]
        done = rows[good]
        frames[done], secs[done], grads[done] = t[good], vals[good], g[good]
        accepted[done] = True
        rows = rows[~good]
    return accepted, frames, secs, grads


def _descend(cv: PlaneForm, draws: np.ndarray, max_iters: int,
             grad_tol: float, unit: float, within: tuple | None = None):
    """Minimize the sectional value of every start's plane in one batch.

    `draws` holds one start frame per row, x then y.  Each start keeps its
    own Barzilai-Borwein step, nonmonotone Armijo backtracking and stop rule;
    every round evaluates all starts still descending together.  Projectors
    `within` for x and y keep frames drawn in two equal or orthogonal
    subspaces, or in one subspace and all of p, inside them.  Returns each
    row's lowest value and the frame that reached it, and its stop reason
    (a failed row's value is not a result).

    The start frames are evaluated once; after that every frame, value and
    gradient is the line search's accepted trial, evaluated at its
    orthonormal frame.  Each start's lowest value, its frame and its stop
    reason (an index into STOP_REASONS) live in arrays over all rows, written
    at `run`, the rows still descending; the rest of its state (frame,
    gradient, step and recent values) follows `run`, and a row that stops is
    dropped from it.  A row stops on its gradient, a failed line search, a
    value that is not finite or max_iters, never on its value alone.  A step
    length carries the unit 1/curvature: `unit` is a curvature scale of the
    operator (certify passes 1/λ_max(G)), and under G -> λG the operator, the
    gradient and `unit` all scale by 1/λ.
    So the stop test |∇| <= grad_tol · unit, the first step
    1 / max(unit, |∇|) and the Barzilai-Borwein clamp [1e-12, 1e6] / unit
    read the same on every multiple of a metric.
    """
    v, sec, grad = _evaluate(cv, draws, within)
    # a dependent or non-finite start fails before the first round
    failed = np.isinf(sec)
    reason = np.where(failed, _CODE[FAILED], _CODE[MAX_ITERS])
    best, best_v = sec, np.where(failed[:, None], draws, v)
    run = np.flatnonzero(~failed)
    v, sec, grad = v[run], sec[run], grad[run]
    recent = np.full((len(run), NONMONOTONE), -np.inf)
    gn2 = np.vecdot(grad, grad)
    step = 1.0 / np.maximum(unit, np.sqrt(gn2))
    for it in range(max_iters + 1):
        recent[:, it % NONMONOTONE] = sec
        lower = sec < best[run]
        up = run[lower]
        best[up], best_v[up] = sec[lower], v[lower]
        failed, converged = ~np.isfinite(gn2), gn2 <= (grad_tol * unit) ** 2
        done = failed | converged
        if done.any():
            reason[run[done]] = np.where(failed, _CODE[FAILED],
                                         _CODE[CONVERGED])[done]
            run, v, sec, grad, gn2, step, recent = (a[~done] for a in (
                run, v, sec, grad, gn2, step, recent))
        if it == max_iters or not run.size:
            break
        accepted, frames, secs, grads = _line_search(
            cv, v, grad, recent.max(axis=1), gn2, step, within)
        if not accepted.all():
            reason[run[~accepted]] = _CODE[LINE_SEARCH]
            run, v, grad, recent = (a[accepted] for a in (run, v, grad, recent))
            frames, secs, grads = frames[accepted], secs[accepted], grads[accepted]
        dv, dg = frames - v, grads - grad
        v, sec, grad, gn2 = frames, secs, grads, np.vecdot(grads, grads)
        denom = np.vecdot(dg, dg)
        step = np.divide(np.abs(np.vecdot(dv, dg)), denom,
                         out=np.ones_like(denom), where=denom > 1e-300)
        step = np.minimum(np.maximum(step, 1e-12 / unit), 1e6 / unit)
    return best, best_v, [STOP_REASONS[k] for k in reason.tolist()]


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
    draws = rng_from(seed, 1).standard_normal((starts, 2, n))
    secs, frames, reasons = _descend(
        cv, _partner_frames(cv, (draws @ cv.factor).reshape(starts, 2 * n)),
        max_iters, GRAD_TOL, 1.0 / cv.max_eigenvalue)
    finals = tuple(None if r == FAILED else float(s)
                   for s, r in zip(secs, reasons))
    succeeded = [i for i, r in enumerate(reasons) if r != FAILED]
    best, best_v = np.nan, np.zeros((2, n))
    if succeeded:
        i = min(succeeded, key=lambda k: secs[k])
        best, best_v = secs[i], frames[i].reshape(2, n) @ cv.basis
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
        plane_x=tuple(float(c) for c in best_v[0]),
        plane_y=tuple(float(c) for c in best_v[1]),
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
