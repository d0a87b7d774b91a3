"""Obstruction witnesses against positively curved invariant metrics.

Three mechanisms are implemented.  A pair of commuting metric eigenvectors
spans a plane whose curvature numerator vanishes identically.  The bracket is
linear in x∧y, so on small eigenspace blocks the pair is found, or proved
absent, by linear algebra; larger blocks are searched by certify's batched
descent of |[x, y]|² / Gram, kept inside the eigenspaces.  An eigenvector for
the smallest metric eigenvalue together with any commuting partner z in p
yields the plane (x, G^-1 z) with nonpositive numerator.  Finally the parity
check compares the ambient and isotropy ranks: a difference outside {0, 1}
rules out positive curvature regardless of the metric.

The quotient of the rank-two symplectic group by its (3, 1) circle carries an
extra involution-type normalizer element; `symmetrize_sp2_31` conjugates any
invariant metric into the form fixed by it, which is where the witness planes
of that space become visible.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import (
    ad_operator,
    bracket,
    group_element,
    quaternion_to_complex,
    rank,
)
from .certify import FAILED, _descend
from .curvature import Curvature, PlaneForm
from .metrics import conjugate_metric
from .numerics import cluster_values, kernel_and_gap, rng_from
from .spaces import HomogeneousSpace

ACCEPT = 1e-9       # bracket ratio below this certifies a commuting pair
REJECT = 1e-6       # objective above this means no pair at these starts
NONPOS_TOL = 1e-10  # numerator bound for the min-eigenvalue plane
SEARCH_ITERS = 300  # descent limits of the witness searches
SEARCH_GRAD_TOL = 1e-10

# The quadratic forms whose zeros are the rank-one 2 x 2 coefficient blocks
# (det, on row-major entries) and the decomposable elements of Λ²R⁴
# (Pfaffian, on the entries s < t in triu order).  Both have eigenvalues ±1/2.
_DET_2X2 = 0.5 * np.fliplr(np.diag([1.0, -1.0, -1.0, 1.0]))
_PFAFFIAN_4 = 0.5 * np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]))


@dataclass(frozen=True)
class PlaneWitness:
    kind: str                    # "commuting" | "min-eigenvalue"
    found: bool
    objective: float             # best squared-bracket plane objective reached
    numerator: float | None      # curvature numerator on the witness plane
    x: np.ndarray | None         # p-coordinates, unit length
    y: np.ndarray | None
    message: str
    decided: str                 # "exact" (linear algebra only) | "search" (a plane descent ran)


@dataclass(frozen=True)
class RankParity:
    rank_ambient: int
    rank_isotropy: int
    dim_p: int
    difference: int
    parity_consistent: bool


@dataclass(frozen=True)
class Sp2Symmetrization:
    psi: float                   # rotation angle of the conjugating element
    metric: np.ndarray           # conjugated metric, fixed by the involution
    residual: float              # commutator norm with the involution action
    det_involution: float        # determinant of the involution action on p


def _commutator_form(space: HomogeneousSpace) -> PlaneForm:
    """|[x, y]|² / Gram as a plane form: BᵀB with B(e_a ∧ e_b) = [e_a, e_b], G = Id."""
    i, j = np.triu_indices(space.dim_p, 1)
    b = bracket(space.ambient, space.p_basis[i], space.p_basis[j])
    return PlaneForm(b @ b.T, np.eye(space.dim_p), 1.0)


def _bracket_ratio(space: HomogeneousSpace, x: np.ndarray,
                   y: np.ndarray) -> float:
    """|[x, y]|² over the Gram determinant, from one bracket of p-vectors."""
    c = bracket(space.ambient, space.p_embed(x), space.p_embed(y))
    return float(c @ c / ((x @ x) * (y @ y) - (x @ y) ** 2))


def _search_planes(space: HomogeneousSpace, basis_x: np.ndarray,
                   basis_y: np.ndarray, coeffs: np.ndarray):
    """Descend the commutator form from every row of `coeffs` (coefficients
    on basis_x, then on basis_y) with x and y kept in the spans of those
    orthonormal rows.

    Returns every start's final value (inf if it failed) and frame x, y.
    """
    kx, n = basis_x.shape
    draws = np.concatenate([coeffs[:, :kx] @ basis_x,
                            coeffs[:, kx:] @ basis_y], axis=1)
    vals, frames, reasons = _descend(
        _commutator_form(space), draws, SEARCH_ITERS, SEARCH_GRAD_TOL,
        within=(basis_x.T @ basis_x, basis_y.T @ basis_y))
    vals[np.array(reasons) == FAILED] = np.inf
    return vals, frames[:, :n], frames[:, n:]


# Unused: bench/spans.py traces it by name until the next benchmark revision.
def minimize(*args, **kwargs):
    raise NotImplementedError("the witness searches use certify's descent")


def _metric_eigenspaces(metric: np.ndarray):
    vals, vecs = np.linalg.eigh(metric)
    spaces = []
    for idx in cluster_values(vals):
        spaces.append((float(np.mean(vals[idx])), vecs[:, idx].T.copy()))
    return spaces


def _pair_plane(w: np.ndarray, bx: np.ndarray, by: np.ndarray, same: bool):
    """The plane (x, y) of a rank-one kernel element w of the block of
    eigenspace bases bx, by, or of a decomposable w in Λ² of bx when `same`."""
    if same:
        omega = np.zeros((len(bx), len(bx)))
        omega[np.triu_indices(len(bx), 1)] = w
        u, _, _ = np.linalg.svd(omega - omega.T)
        return u[:, 0] @ bx, u[:, 1] @ bx
    u, _, vt = np.linalg.svd(w.reshape(len(bx), len(by)))
    return u[:, 0] @ bx, vt[0] @ by


def _decide_block(block: np.ndarray, form: np.ndarray | None):
    """Decide one small eigenspace block by linear algebra.

    `block` maps coefficient vectors to brackets; a commuting pair is a
    rank-one (decomposable) element of its kernel, that is a zero of `form`
    on the kernel, or any nonzero kernel element when `form` is None.
    Returns (w, None) with w such an element (or, when the form is nearly
    singular, the kernel element closest to one; the caller re-checks its
    plane), (None, bound) when `bound`, a lower bound on the block's plane
    objective, is at least REJECT, and (None, None) when the block needs the
    search.
    """
    kernel, gap = kernel_and_gap(block)
    if kernel.shape[0] == 0:
        return (None, gap ** 2) if gap ** 2 >= REJECT else (None, None)
    if form is None:
        return kernel[0], None
    lam, vec = np.linalg.eigh(kernel @ form @ kernel.T)
    if lam[0] < 0 < lam[-1]:
        # a zero of the indefinite form
        c = np.sqrt(lam[-1]) * vec[:, 0] + np.sqrt(-lam[0]) * vec[:, -1]
        return c @ kernel, None
    # Definite or singular.  A unit zero w = k + r of the form, k in the
    # kernel and r orthogonal to it, has mu |k|^2 <= |k||r| + |r|^2 / 2
    # (the form has norm 1/2), so |r| >= t, and its plane objective
    # |block @ w|^2 is at least (gap t)^2, up to the kernel's 1e-10 cut.
    k = int(np.argmin(np.abs(lam)))
    mu = abs(lam[k])
    t = 2 * mu / (1 + np.sqrt(1 + 4 * mu * (mu + 0.5)))
    if (gap * t) ** 2 >= REJECT:
        return None, float((gap * t) ** 2)
    return vec[:, k] @ kernel, None


def _exact_block(brackets: np.ndarray, offsets: np.ndarray, i: int, j: int):
    """The bracket block of eigenspaces (i, j) and its rank-one form, or
    None when the block is too large to decide exactly.

    Columns are [u_s, v_t] in row-major order for i != j and [u_s, u_t],
    s < t, for Λ²E_i.  Decided: Λ²E with dim E <= 4, one side of dimension
    1, and two sides of dimension 2.
    """
    di, dj = offsets[i + 1] - offsets[i], offsets[j + 1] - offsets[j]
    if i == j:
        if di > 4:
            return None
        iu, ju = np.triu_indices(di, 1)
        return (brackets[offsets[i] + iu, offsets[i] + ju].T,
                _PFAFFIAN_4 if di == 4 else None)
    if min(di, dj) > 1 and not di == dj == 2:
        return None
    block = brackets[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]]
    return (block.reshape(di * dj, -1).T,
            _DET_2X2 if di == dj == 2 else None)


def commuting_witness(space: HomogeneousSpace, metric: np.ndarray,
                      seed: int = 0, starts: int = 32) -> PlaneWitness:
    """Find two commuting eigenvectors of the metric, or show there are none.

    Visits every pair of metric eigenspaces in order.  Small blocks are
    decided exactly from the kernel of the bracket on E_i ⊗ E_j (Λ²E_i on the
    diagonal); blocks that are larger, or whose decision falls between
    ACCEPT and REJECT, get a batched multistart descent of the plane
    objective |[x, y]|² / Gram with x and y kept in the two eigenspaces.
    A pair is accepted when its bracket ratio is below 1e-9; a search whose
    best objective stays below 1e-6 triggers a warning.
    """
    eig = _metric_eigenspaces(metric)
    cv = Curvature(space, metric)
    pairs = [(i, j) for i in range(len(eig)) for j in range(i, len(eig))
             if i != j or eig[i][1].shape[0] > 1]
    # brackets of every pair of eigenvectors, in eigenspace order
    amb = np.vstack([basis for _, basis in eig]) @ space.p_basis
    brackets = bracket(space.ambient, amb[:, None], amb[None])
    offsets = np.cumsum([0] + [basis.shape[0] for _, basis in eig])
    best = bound = np.inf
    proved = 0
    for pidx, (i, j) in enumerate(pairs):
        bx, by = eig[i][1], eig[j][1]
        exact = _exact_block(brackets, offsets, i, j)
        if exact is not None:
            w, lower = _decide_block(*exact)
            if lower is not None:
                proved += 1
                bound = min(bound, lower)
                continue
            if w is not None:
                x, y = _pair_plane(w, bx, by, i == j)
                found = _commuting_found(space, cv, x, y, i, j, "exact")
                if found is not None:
                    return found
        n_starts = 1 if (bx.shape[0] == 1 and by.shape[0] == 1) else starts
        coeffs = np.array([rng_from(seed, pidx, s).standard_normal(
            bx.shape[0] + by.shape[0]) for s in range(n_starts)])
        vals, xs, ys = _search_planes(space, bx, by, coeffs)
        best = min(best, float(vals.min()))
        for k in np.flatnonzero(vals < ACCEPT):
            found = _commuting_found(space, cv, xs[k], ys[k], i, j, "search")
            if found is not None:
                return found
    objective = float(min(best, bound))
    if proved == len(pairs):
        return PlaneWitness(
            kind="commuting", found=False, objective=objective,
            numerator=None, x=None, y=None, decided="exact",
            message=f"no commuting pair: all {proved} eigenspace pairs "
                    f"proved empty (objective at least {bound:.3e})")
    if best < REJECT:
        warnings.warn(f"commuting search is ambiguous (best objective "
                      f"{best:.3e}); treating as not found", stacklevel=2)
        msg = f"ambiguous: best objective {best:.3e} at {starts} starts"
    else:
        msg = f"no commuting pair found at {starts} starts per eigenspace pair"
    if proved:
        msg += f"; {proved} of {len(pairs)} pairs proved empty"
    return PlaneWitness(kind="commuting", found=False, objective=objective,
                        numerator=None, x=None, y=None, message=msg,
                        decided="search")


def _commuting_found(space: HomogeneousSpace, cv: Curvature, x: np.ndarray,
                     y: np.ndarray, i: int, j: int,
                     decided: str) -> PlaneWitness | None:
    """The witness on the orthonormal pair (x, y) if its bracket ratio is
    below ACCEPT."""
    f = _bracket_ratio(space, x, y)
    if not f < ACCEPT:
        return None
    return PlaneWitness(
        kind="commuting", found=True, objective=float(f),
        numerator=cv.numerator(x, y), x=x, y=y, decided=decided,
        message=f"commuting eigenvector pair in eigenspaces ({i}, {j})")


def _kernel_partner(space: HomogeneousSpace, x: np.ndarray):
    """Second-smallest singular value of ad_x on p and its right singular vector.

    ad_x always kills x itself, so a second (near-)zero singular value means a
    commuting partner z in p, returned in p-coordinates.
    """
    pt = space.p_basis.T
    ad = ad_operator(space.ambient, pt @ x)
    _, s, vt = np.linalg.svd(ad @ pt)       # columns [x, e_k] in ambient coordinates
    if len(s) < 2:
        return np.inf, None
    return s[-2], vt[-2]


def min_eigenvalue_witness(space: HomogeneousSpace, metric: np.ndarray,
                           seed: int = 0, draws: int = 64) -> PlaneWitness:
    """Witness plane built from the smallest metric eigenvalue.

    Finds x in the bottom eigenspace and z in p with [x, z] = 0, then checks
    that the plane (x, G^-1 z) has numerator at most 1e-10.  Each basis
    vector of the eigenspace is tried by the SVD kernel test first; a batched
    multistart descent of |[x, z]|² / Gram, with x kept in the eigenspace,
    runs only when none of them has a partner.  A pair is kept only when
    its bracket ratio, re-checked with one bracket, is below ACCEPT.
    """
    eig = _metric_eigenspaces(metric)
    lam, bottom = eig[0]
    cv = Curvature(space, metric)

    candidates = []
    objective = np.inf
    decided = "exact"
    for vec in bottom:
        vec = vec / np.linalg.norm(vec)
        sigma2, partner = _kernel_partner(space, vec)
        objective = min(objective, float(sigma2 ** 2))
        if sigma2 < 1e-8:
            candidates = [(vec, partner)]
            break
    if not candidates and bottom.shape[0] == 1:
        if sigma2 < REJECT:
            warnings.warn(f"min-eigenvalue kernel is ambiguous (second "
                          f"singular value {sigma2:.3e})", stacklevel=2)
    elif not candidates:
        decided = "search"
        coeffs = np.array([rng_from(seed, s).standard_normal(
            bottom.shape[0] + space.dim_p) for s in range(draws)])
        vals, xs, zs = _search_planes(space, bottom, np.eye(space.dim_p),
                                      coeffs)
        objective = float(vals.min())
        candidates = [(xs[k], zs[k]) for k in np.flatnonzero(vals < ACCEPT)]
        if not candidates and objective < REJECT:
            warnings.warn(f"min-eigenvalue search is ambiguous (best "
                          f"objective {objective:.3e})", stacklevel=2)

    pairs = [(cx, cz - (cx @ cz) * cx) for cx, cz in candidates]
    pairs = [pair for pair in pairs if _bracket_ratio(space, *pair) < ACCEPT]
    if not pairs:
        return PlaneWitness(
            kind="min-eigenvalue", found=False, objective=float(objective),
            numerator=None, x=None, y=None, decided=decided,
            message=f"no commuting partner for the bottom eigenspace "
                    f"(eigenvalue {lam:.6g})")

    x, z = pairs[0]
    y = cv.gm_inv @ z
    y /= np.linalg.norm(y)
    num = cv.numerator(x, y)
    if num > NONPOS_TOL:
        return PlaneWitness(
            kind="min-eigenvalue", found=False, objective=float(objective),
            numerator=num, x=x, y=y, decided=decided,
            message=f"commuting partner found but numerator {num:.3e} "
                    f"exceeds {NONPOS_TOL}")
    return PlaneWitness(
        kind="min-eigenvalue", found=True, objective=float(objective),
        numerator=num, x=x, y=y, decided=decided,
        message=f"nonpositive plane at the bottom eigenvalue {lam:.6g}")


def rank_parity_check(space: HomogeneousSpace) -> RankParity:
    """Rank difference test: positive curvature needs difference 0 or 1."""
    rk = rank(space.ambient)
    rh = rank(space.ambient, basis=space.h_basis)
    diff = rk - rh
    consistent = diff in (0, 1) and (space.dim_p - diff) % 2 == 0
    return RankParity(rank_ambient=rk, rank_isotropy=rh, dim_p=space.dim_p,
                      difference=diff, parity_consistent=consistent)


def symmetrize_sp2_31(space: HomogeneousSpace,
                      metric: np.ndarray) -> Sp2Symmetrization:
    """Conjugate a metric on the (3, 1) circle quotient into symmetric form.

    The normalizer element a = diag(j, j) flips the circle and acts on p with
    determinant -1.  Conjugating by a diagonal phase element b makes the
    metric's off-diagonal phase on the 4-dimensional weight-2 component real,
    after which the metric commutes with the action of a.
    """
    if space.label != "sp2circle" or space.params_dict != {"p": 3, "q": 1}:
        raise ValueError("symmetrization applies to the (3, 1) circle "
                         "quotient of the rank-two symplectic group only")
    from .algebra import coords_of

    alg = space.ambient
    a_mat = quaternion_to_complex(np.zeros((2, 2)), np.eye(2))
    ga = group_element(alg, a_mat)
    img = ga.ad @ space.p_basis.T
    aa = space.p_basis @ img
    if np.linalg.norm(img - space.p_basis.T @ aa) > 1e-9:
        raise RuntimeError("involution does not preserve p")
    det_a = float(np.linalg.det(aa))

    # the circle acts on p with weights 0, 2, 4 and 6, so the weight-2
    # component is the -4 eigenspace of the square of its action
    t_act = space.p_basis @ ad_operator(alg, space.torus_generator) @ space.p_basis.T
    t_sq = t_act @ t_act
    f1 = space.p_coords(coords_of(alg, quaternion_to_complex(
        np.zeros((2, 2)), np.diag([0.0, 1.0]))))
    f2 = space.p_coords(coords_of(alg, quaternion_to_complex(
        np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros((2, 2)))))
    f1 /= np.linalg.norm(f1)
    f2 /= np.linalg.norm(f2)
    if (np.linalg.norm(t_sq @ f1 + 4 * f1) > 1e-9
            or np.linalg.norm(t_sq @ f2 + 4 * f2) > 1e-9):
        raise RuntimeError("reference vectors left the weight-2 component")

    jmat = t_act / 2.0
    h12 = complex(f1 @ metric @ f2, f1 @ metric @ (jmat @ f2))
    phi = float(np.angle(h12)) if abs(h12) > 1e-14 else 0.0

    best = None
    for psi in (phi / 2, -phi / 2, phi / 2 + np.pi / 2, -phi / 2 + np.pi / 2):
        phase = np.exp(1j * psi)
        b_mat = np.diag([phase, phase, phase.conjugate(), phase.conjugate()])
        gb = group_element(alg, b_mat)
        conj = conjugate_metric(space, metric, gb)
        r = float(np.max(np.abs(conj @ aa - aa @ conj)))
        if best is None or r < best[1]:
            best = (psi, r, conj)
    psi, residual, conj = best
    if residual > 1e-8:
        raise RuntimeError(f"symmetrization failed (residual {residual:.3e})")
    return Sp2Symmetrization(psi=psi, metric=conj, residual=residual,
                             det_involution=det_a)
