"""Multistart descent search for nonpositively curved planes.

The search runs in the coordinates x′ = Lᵀx (G = LLᵀ) of `Curvature`, where
the metric is the identity.  Each start draws a random axis x and pairs it
with its best partner: for a unit x, the planes (x, y) with y orthogonal to
x have the Rayleigh quotients of the Jacobi operator J_x as their values, so
the start frame's y is the lowest eigenvector of J_x on the complement of x.
On many metrics that plane is already a critical point at the minimum, and
the start stops before its first step.  From that frame each start descends
the sectional curvature of the spanned plane, with a Barzilai-Borwein trial
step, nonmonotone Armijo backtracking and an orthonormalized frame after
every accepted step.  The Armijo test compares a trial with the largest of the
start's last NONMONOTONE values, not with its current one
(Grippo-Lampariello-Lucidi), so most Barzilai-Borwein steps pass at once; a
value may rise for a while, and each start reports the lowest value it
reached and the plane where it reached it.
All starts descend as one batch: every round evaluates the planes of the
starts still running in one product against the curvature operator, while
each start keeps its own step, its own backtracking and its own stop.  Every
trial is evaluated once, at its orthonormal frame, where the Gram
determinant is 1: the value and the gradients come from one call, and an
accepted trial hands both to the next round.  A trial whose Gram determinant
fails the dependence test (DEPENDENT_TOL) or whose value is not finite is
rejected.  A start stops as `converged` when its gradient, measured in the
metric's scale, falls below grad_tol, as `stalled` when its value has stopped
moving either way relative to the curvature scale (see STALL_TOL), as
`line-search` when no step passes the Armijo test, at `max-iters`, or as
`failed` when its start frame is dependent or its values are not finite.

Finding a plane at or below the zero threshold is conclusive.  The threshold
is zero_tol / λ_max(G): it equals zero_tol for the normal metric and, like
sectional curvature, scales by 1/λ under G -> λG.  Otherwise the
verdict is `positive` when at least half the starts finished, and
`inconclusive` when fewer did; `positive` only reports that the search found
nothing, which is evidence, not proof, of positive curvature.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .curvature import DEPENDENT_TOL, Curvature, PlaneForm
from .numerics import rng_from
from .spaces import HomogeneousSpace

DISCLAIMER = ("a positive verdict means no nonpositively curved plane was "
              "found by a finite random search; it is not a certificate of "
              "positive curvature")


# A start stops as "stalled" after STALL_STEPS consecutive accepted steps that
# each move its sectional value, up or down, by at most STALL_TOL times the
# larger of |sec| and |R̂|_F; both scale like sectional curvature under
# G -> λG.  At the minimum the gradient's rounding floor can stay above
# grad_tol, and such starts would otherwise backtrack to max_iters without
# moving.
STALL_TOL = 1e-13
STALL_STEPS = 3
# The Armijo reference of a start is the largest of its last NONMONOTONE values.
NONMONOTONE = 10
ARMIJO = 1e-4
MAX_BACKTRACKS = 40
CONVERGED, STALLED, LINE_SEARCH, MAX_ITERS, FAILED = STOP_REASONS = (
    "converged", "stalled", "line-search", "max-iters", "failed")


@dataclass(frozen=True)
class CertifyReport:
    label: str
    verdict: str                     # "positive" | "nonpositive-witness" | "inconclusive"
    min_sectional: float
    plane_x: tuple[float, ...]       # p-coordinates of the G-orthonormal minimizing frame
    plane_y: tuple[float, ...]
    start_minima: tuple              # per-start lowest value, None on failure
    converged_starts: int            # starts that stopped "converged" or "stalled"
    stop_reasons: tuple[str, ...]    # per start, one of STOP_REASONS
    starts: int
    max_iters: int
    grad_tol: float
    zero_tol: float
    zero_threshold: float            # zero_tol / λ_max(G), what the minimum is compared with
    seed: int
    disclaimer: str
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
    if not ok.any():
        return draws
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
    orthonormal frame.  A step length carries the unit 1/curvature: `unit`
    is a curvature scale of the operator (certify passes 1/λ_max(G)), and
    under G -> λG the operator, the gradient and `unit` all scale by 1/λ.
    So the stop test |∇| <= grad_tol · unit, the first step
    1 / max(unit, |∇|) and the Barzilai-Borwein clamp [1e-12, 1e6] / unit
    read the same on every multiple of a metric.
    """
    starts = len(draws)
    final_sec = np.full(starts, np.nan)
    final_v = np.zeros_like(draws)
    reasons = [MAX_ITERS] * starts
    stall_scale = float(np.linalg.norm(cv.operator))

    def retire(st, mask, reason):
        """Record why the masked rows stopped (one reason or one per row); drop them."""
        rows = st["row"][mask]
        for r, why in zip(rows, np.broadcast_to(reason, mask.shape)[mask]):
            reasons[r] = str(why)
        final_sec[rows], final_v[rows] = st["best"][mask], st["best_v"][mask]
        return {k: a[~mask] for k, a in st.items()}

    st = {"row": np.arange(starts), "v": draws, "grad": np.zeros_like(draws),
          "sec": np.full(starts, np.inf), "stalls": np.zeros(starts, dtype=int),
          "best": np.full(starts, np.inf), "best_v": draws,
          "recent": np.full((starts, NONMONOTONE), -np.inf)}
    v, sec, grad = _evaluate(cv, draws, within)
    # a dependent or non-finite start has no value for the stall test to
    # compare; it fails before the first round
    failed = np.isinf(sec)
    if failed.any():
        st = retire(st, failed, FAILED)
        v, sec, grad = v[~failed], sec[~failed], grad[~failed]
    for it in range(max_iters + 1):
        gn2 = np.vecdot(grad, grad)
        no_progress = (np.abs(st["sec"] - sec)
                       <= STALL_TOL * np.maximum(np.abs(sec), stall_scale))
        stalls = np.where(no_progress, st["stalls"] + 1, 0)
        lower = sec < st["best"]
        st["recent"][:, it % NONMONOTONE] = sec
        st.update(prev_v=st["v"], prev_grad=st["grad"], v=v, sec=sec,
                  grad=grad, gn2=gn2, stalls=stalls,
                  best=np.where(lower, sec, st["best"]),
                  best_v=np.where(lower[:, None], v, st["best_v"]))
        failed = ~np.isfinite(gn2)
        converged = gn2 <= (grad_tol * unit) ** 2
        done = failed | converged | (stalls >= STALL_STEPS)
        if done.any():
            st = retire(st, done, np.where(failed, FAILED, np.where(
                converged, CONVERGED, STALLED)))
        if it == max_iters or not st["row"].size:
            break
        if it == 0:
            step = 1.0 / np.maximum(unit, np.sqrt(st["gn2"]))
        else:
            dv, dg = st["v"] - st["prev_v"], st["grad"] - st["prev_grad"]
            denom = np.vecdot(dg, dg)
            step = np.divide(np.abs(np.vecdot(dv, dg)), denom,
                             out=np.ones_like(denom), where=denom > 1e-300)
            step = np.minimum(np.maximum(step, 1e-12 / unit), 1e6 / unit)
        accepted, v, sec, grad = _line_search(
            cv, st["v"], st["grad"], st["recent"].max(axis=1), st["gn2"],
            step, within)
        if not accepted.all():
            st = retire(st, ~accepted, LINE_SEARCH)
            v, sec, grad = v[accepted], sec[accepted], grad[accepted]
    retire(st, np.ones(st["row"].size, dtype=bool), MAX_ITERS)
    return final_sec, final_v, reasons


def certify(space: HomogeneousSpace, metric: np.ndarray, seed: int = 0,
            starts: int = 64, max_iters: int = 500, grad_tol: float = 1e-10,
            zero_tol: float = 1e-9) -> CertifyReport:
    """Search the plane Grassmannian for nonpositive sectional curvature.

    Raises ValueError for parameters that no search would back: starts < 1,
    max_iters < 0, or a tolerance that is not finite.
    """
    if (starts < 1 or max_iters < 0
            or not np.isfinite([grad_tol, zero_tol]).all()):
        raise ValueError(f"need starts >= 1, max_iters >= 0 and finite "
                         f"tolerances, got {starts}, {max_iters}, "
                         f"{grad_tol}, {zero_tol}")
    t0 = time.perf_counter()
    cv = Curvature(space, metric)
    zero_threshold = zero_tol / cv.max_eigenvalue
    n = space.dim_p
    draws = np.array([rng_from(seed, s).standard_normal(2 * n)
                      for s in range(starts)]).reshape(starts, 2, n)
    secs, frames, reasons = _descend(
        cv, _partner_frames(cv, (draws @ cv.factor).reshape(starts, 2 * n)),
        max_iters, grad_tol, 1.0 / cv.max_eigenvalue)
    finals = tuple(None if r == FAILED else float(s)
                   for s, r in zip(secs, reasons))
    succeeded = [i for i, r in enumerate(reasons) if r != FAILED]
    best = np.nan
    best_v = np.zeros((2, n))
    if succeeded:
        i = min(succeeded, key=lambda k: secs[k])
        best, best_v = secs[i], frames[i].reshape(2, n) @ cv.basis
    if not succeeded:
        verdict = "inconclusive"
    elif best <= zero_threshold:
        verdict = "nonpositive-witness"
    elif 2 * len(succeeded) < starts:
        verdict = "inconclusive"       # quorum: half the starts must finish
    else:
        verdict = "positive"
    return CertifyReport(
        label=space.label,
        verdict=verdict,
        min_sectional=float(best),
        plane_x=tuple(float(c) for c in best_v[0]),
        plane_y=tuple(float(c) for c in best_v[1]),
        start_minima=finals,
        converged_starts=sum(r in (CONVERGED, STALLED) for r in reasons),
        stop_reasons=tuple(reasons),
        starts=starts,
        max_iters=max_iters,
        grad_tol=grad_tol,
        zero_tol=zero_tol,
        zero_threshold=zero_threshold,
        seed=seed,
        disclaimer=DISCLAIMER,
        wall_time=time.perf_counter() - t0,
    )
