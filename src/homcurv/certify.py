"""Multistart descent search for nonpositively curved planes.

Each start draws a random 2-frame and descends the sectional curvature of the
spanned plane, with a Barzilai-Borwein trial step, nonmonotone Armijo
backtracking and a G-orthonormalized frame after every accepted step.  The
Armijo test compares a trial with the largest of the start's last NONMONOTONE
values, not with its current one (Grippo-Lampariello-Lucidi), so most
Barzilai-Borwein steps pass at once; a value may rise for a while, and each
start reports the lowest value it reached and the plane where it reached it.
All starts descend as one batch: every round evaluates the planes of the
starts still running in one product against the curvature operator, while
each start keeps its own step, its own backtracking and its own stop.  A
start stops as `converged` when its gradient, measured in the metric's scale,
falls below grad_tol, as `stalled` when its value has stopped moving either
way relative to the curvature scale (see STALL_TOL), as `line-search` when no
step passes the Armijo test, at `max-iters`, or as `failed` when its frame
degenerates or its values are not finite.

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

from .curvature import Curvature, PlaneForm
from .numerics import rng_from
from .spaces import HomogeneousSpace

DISCLAIMER = ("a positive verdict means no nonpositively curved plane was "
              "found by a finite random search; it is not a certificate of "
              "positive curvature")


# A start stops as "stalled" after STALL_STEPS consecutive accepted steps that
# each move its sectional value, up or down, by at most STALL_TOL times the
# larger of |sec| and |M|_F / |G|_2^2; both scale like sectional curvature
# under G -> λG.  At the minimum the gradient's rounding floor can stay above
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
    plane_x: tuple[float, ...]       # p-coordinates of the minimizing frame
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


def _g_orthonormalize(gm: np.ndarray, x: np.ndarray, y: np.ndarray):
    """G-orthonormal frames of the rows' planes, and the mask of degenerate rows.

    A row is degenerate when projecting x out of y leaves at most 1e-12 of
    the G-norm of y, a test that G -> λG leaves unchanged.
    """
    gx = x @ gm.T
    norm = np.sqrt(np.vecdot(x, gx))[:, None]
    x, gx = x / norm, gx / norm
    along = np.vecdot(y, gx)
    y = y - along[:, None] * x
    ny = np.sqrt(np.vecdot(y, y @ gm.T))
    # |y|_G² = along² + ny², so this compares ny with 1e-12 |y|_G
    degenerate = ny <= 1e-12 * np.abs(along)
    return x, y / np.where(degenerate, 1.0, ny)[:, None], degenerate


def _trial_values(cv: PlaneForm, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sectional values of the rows' planes, +inf where a plane is degenerate."""
    try:
        return cv.sectional(x, y)
    except ValueError:
        keep = ~cv.dependent(x, y)
        vals = np.full(len(x), np.inf)
        vals[keep] = cv.sectional(x[keep], y[keep])
        return vals


def _line_search(cv: PlaneForm, v: np.ndarray, grad: np.ndarray,
                 ref: np.ndarray, gn2: np.ndarray, step: np.ndarray):
    """Armijo backtracking from every frame at once, each with its own step.

    A trial passes when its value is at most its row's reference `ref` less
    ARMIJO * step * |grad|².  Returns the accepted trial frames (rows that
    found no step are unset) and the mask of rows that found one.
    """
    n = v.shape[1] // 2
    trial = np.empty_like(v)
    accepted = np.zeros(len(v), dtype=bool)
    rows = np.arange(len(v))
    for _ in range(MAX_BACKTRACKS):
        t = v - step[:, None] * grad
        vals = _trial_values(cv, t[:, :n], t[:, n:])
        good = np.isfinite(vals) & (vals <= ref - ARMIJO * step * gn2)
        if good.any():
            trial[rows[good]] = t[good]
            accepted[rows[good]] = True
            if good.all():
                break
            keep = ~good
            rows, v, grad, ref, gn2, step = (
                a[keep] for a in (rows, v, grad, ref, gn2, step))
        step = 0.5 * step
    return trial, accepted


def _descend(cv: PlaneForm, draws: np.ndarray, max_iters: int,
             grad_tol: float, within: tuple | None = None):
    """Minimize the sectional value of every start's plane in one batch.

    `draws` holds one start frame per row, x then y.  Each start keeps its
    own Barzilai-Borwein step, nonmonotone Armijo backtracking and stop rule;
    every round evaluates all starts still descending together.  Projectors
    `within` for x and y keep frames drawn in two equal or G-orthogonal
    subspaces, or in one subspace and all of p, inside them.  Returns each
    row's lowest value and the frame that reached it, and its stop reason
    (a failed row's value is not a result).

    Under G -> λG the G-orthonormal frames and the gradient both scale by
    1/√λ, so the stop test |∇|² λ_max(G) <= grad_tol² and the first step
    1 / max(1, |∇| √λ_max(G)) read the same on every multiple of a metric.
    """
    starts, n = len(draws), draws.shape[1] // 2
    final_sec = np.full(starts, np.nan)
    final_v = np.zeros_like(draws)
    reasons = [MAX_ITERS] * starts
    lam_max = cv.max_eigenvalue
    stall_scale = float(np.linalg.norm(cv.operator)) / lam_max ** 2

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
    trial = draws
    for it in range(max_iters + 1):
        # move every start to its G-orthonormalized trial frame
        x, y, degenerate = _g_orthonormalize(cv.gm, trial[:, :n], trial[:, n:])
        if degenerate.any():
            st = retire(st, degenerate, FAILED)
            x, y = x[~degenerate], y[~degenerate]
        sec, gx, gy = cv.sectional_gradient(x, y)
        if within is not None:
            gx, gy = gx @ within[0], gy @ within[1]
        grad = np.concatenate([gx, gy], axis=1)
        gn2 = np.vecdot(grad, grad)
        v = np.concatenate([x, y], axis=1)
        no_progress = (np.abs(st["sec"] - sec)
                       <= STALL_TOL * np.maximum(np.abs(sec), stall_scale))
        stalls = np.where(no_progress, st["stalls"] + 1, 0)
        lower = sec < st["best"]
        st["recent"][:, it % NONMONOTONE] = sec
        st.update(prev_v=st["v"], prev_grad=st["grad"], v=v, sec=sec,
                  grad=grad, gn2=gn2, stalls=stalls,
                  best=np.where(lower, sec, st["best"]),
                  best_v=np.where(lower[:, None], v, st["best_v"]))
        failed = ~np.isfinite(gn2 + sec)
        converged = gn2 * lam_max <= grad_tol * grad_tol
        done = failed | converged | (stalls >= STALL_STEPS)
        if done.any():
            st = retire(st, done, np.where(failed, FAILED, np.where(
                converged, CONVERGED, STALLED)))
        if it == max_iters or not st["row"].size:
            break
        if it == 0:
            step = 1.0 / np.maximum(1.0, np.sqrt(st["gn2"] * lam_max))
        else:
            dv, dg = st["v"] - st["prev_v"], st["grad"] - st["prev_grad"]
            denom = np.vecdot(dg, dg)
            step = np.divide(np.abs(np.vecdot(dv, dg)), denom,
                             out=np.ones_like(denom), where=denom > 1e-300)
            step = np.minimum(np.maximum(step, 1e-12), 1e6)
        trial, accepted = _line_search(cv, st["v"], st["grad"],
                                       st["recent"].max(axis=1), st["gn2"],
                                       step)
        if not accepted.all():
            st = retire(st, ~accepted, LINE_SEARCH)
            trial = trial[accepted]
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
                      for s in range(starts)]).reshape(starts, 2 * n)
    secs, frames, reasons = _descend(cv, draws, max_iters, grad_tol)
    finals = tuple(None if r == FAILED else float(s)
                   for s, r in zip(secs, reasons))
    succeeded = [i for i, r in enumerate(reasons) if r != FAILED]
    best = np.nan
    best_v = np.zeros(2 * n)
    if succeeded:
        i = min(succeeded, key=lambda k: secs[k])
        best, best_v = secs[i], frames[i]
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
        plane_x=tuple(float(c) for c in best_v[:n]),
        plane_y=tuple(float(c) for c in best_v[n:]),
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
