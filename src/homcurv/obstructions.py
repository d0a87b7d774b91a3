"""Obstruction witnesses against positively curved invariant metrics.

Three mechanisms are implemented.  A pair of commuting metric eigenvectors
spans a plane whose curvature numerator vanishes identically.  An
eigenvector x for the smallest metric eigenvalue together with any commuting
partner z in p yields the plane (x, G^-1 z) with nonpositive numerator.  Both
witnesses look for their pair with one block decision: the bracket is linear
in x∧y, so on small blocks of two subspaces the pair is found, or proved
absent, by linear algebra, and larger blocks are searched by certify's
batched descent of |[x, y]|² / Gram, kept inside the subspaces.  The
commuting witness passes pairs of eigenspaces; the min-eigenvalue witness
passes (v, v^⊥) for each basis vector v of the bottom eigenspace E_0, and
(E_0, p) when dim E_0 > 1.  Finally the parity check compares the ambient
and isotropy ranks: a difference outside {0, 1} rules out positive curvature
regardless of the metric.

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
from .curvature import PlaneForm, four_term_numerator
from .metrics import conjugate_metric
from .numerics import cluster_values, kernel_and_gap, nullspace, rng_from
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
    """|[x, y]|² / Gram as a plane form: BᵀB with B(e_a ∧ e_b) = [e_a, e_b]."""
    i, j = np.triu_indices(space.dim_p, 1)
    b = bracket(space.ambient, space.p_basis[i], space.p_basis[j])
    return PlaneForm(b @ b.T, space.dim_p)


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
        _commutator_form(space), draws, SEARCH_ITERS, SEARCH_GRAD_TOL, 1.0,
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
    """The plane (x, y) of a rank-one kernel element w of the block of the
    bases bx, by, or of a decomposable w in Λ² of bx when `same`."""
    if same:
        omega = np.zeros((len(bx), len(bx)))
        omega[np.triu_indices(len(bx), 1)] = w
        u, _, _ = np.linalg.svd(omega - omega.T)
        return u[:, 0] @ bx, u[:, 1] @ bx
    u, _, vt = np.linalg.svd(w.reshape(len(bx), len(by)))
    return u[:, 0] @ bx, vt[0] @ by


def _decide_block(block: np.ndarray, form: np.ndarray | None):
    """Decide one small block by linear algebra.

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


def _exact_block(space: HomogeneousSpace, bx: np.ndarray, by: np.ndarray,
                 same: bool):
    """The bracket block of the bases bx, by and its rank-one form, or None
    when the block is too large to decide exactly.

    Columns are [u_s, v_t] in row-major order for two bases and [u_s, u_t],
    s < t, for Λ² of bx when `same`.  Decided: Λ²E with dim E <= 4, one side
    of dimension 1, and two sides of dimension 2, when the two spans are
    orthogonal (otherwise the kernel holds the degenerate pairs x ⊗ x).
    """
    ax = bx @ space.p_basis
    if same:
        if len(bx) > 4:
            return None
        iu, ju = np.triu_indices(len(bx), 1)
        return (bracket(space.ambient, ax[iu], ax[ju]).T,
                _PFAFFIAN_4 if len(bx) == 4 else None)
    if ((min(len(bx), len(by)) > 1 and not len(bx) == len(by) == 2)
            or np.abs(bx @ by.T).max() > 1e-9):
        return None
    block = bracket(space.ambient, ax[:, None], (by @ space.p_basis)[None])
    return (block.reshape(len(bx) * len(by), -1).T,
            _DET_2X2 if len(bx) == len(by) == 2 else None)


def _find_pair(space: HomogeneousSpace, blocks: list, starts: int):
    """The first commuting pair x in span bx, y in span by over the blocks
    (bx, by, same, key), with orthonormal basis rows; `same` puts y in span
    bx too.

    Small blocks are decided exactly: a pair, or a lower bound of at least
    REJECT on the block's plane objective, which proves it empty.  The other
    blocks, and those the linear algebra leaves undecided, get `starts`
    descents drawn from rng_from(*key, s) (one when both sides are lines).
    A pair is kept only when its bracket ratio is below ACCEPT.  Returns
    (x, y, k) for a pair from block k or None, how it was decided ("exact"
    when the pair came from linear algebra or every block was proved empty),
    the objective (the pair's ratio, else the lower of the best searched
    value and the proved bound) and the number of blocks proved empty.
    """
    best = bound = np.inf
    proved = 0
    for k, (bx, by, same, key) in enumerate(blocks):
        exact = _exact_block(space, bx, by, same)
        w, lower = _decide_block(*exact) if exact is not None else (None, None)
        if lower is not None:
            proved += 1
            bound = min(bound, lower)
            continue
        if w is not None:
            x, y = _pair_plane(w, bx, by, same)
            ratio = _bracket_ratio(space, x, y)
            if ratio < ACCEPT:
                return (x, y, k), "exact", ratio, proved
        n_starts = 1 if len(bx) == len(by) == 1 else starts
        coeffs = np.array([rng_from(*key, s).standard_normal(len(bx) + len(by))
                           for s in range(n_starts)])
        vals, xs, ys = _search_planes(space, bx, by, coeffs)
        best = min(best, float(vals.min()))
        for s in np.flatnonzero(vals < ACCEPT):
            ratio = _bracket_ratio(space, xs[s], ys[s])
            if ratio < ACCEPT:
                return (xs[s], ys[s], k), "search", ratio, proved
    if proved == len(blocks):
        return None, "exact", bound, proved
    if best < REJECT:
        warnings.warn(f"commuting-pair search is ambiguous (best objective "
                      f"{best:.3e}); treating as not found", stacklevel=3)
    return None, "search", min(best, bound), proved


def commuting_witness(space: HomogeneousSpace, metric: np.ndarray,
                      seed: int = 0, starts: int = 32) -> PlaneWitness:
    """Find two commuting eigenvectors of the metric, or show there are none.

    Passes every pair of metric eigenspaces (E_i, E_j), i <= j, to the
    block decision of `_find_pair`: small blocks are decided exactly from
    the kernel of the bracket on E_i ⊗ E_j (Λ²E_i on the diagonal), the rest
    get a batched multistart descent of |[x, y]|² / Gram with x and y kept
    in the two eigenspaces.  A pair is accepted when its bracket ratio is
    below 1e-9; a search whose best objective stays below 1e-6 triggers a
    warning.
    """
    eig = _metric_eigenspaces(metric)
    pairs = [(i, j) for i in range(len(eig)) for j in range(i, len(eig))
             if i != j or eig[i][1].shape[0] > 1]
    blocks = [(eig[i][1], eig[j][1], i == j, (seed, pidx))
              for pidx, (i, j) in enumerate(pairs)]
    pair, decided, objective, proved = _find_pair(space, blocks, starts)
    if pair is not None:
        x, y, k = pair
        num = four_term_numerator(space, metric, np.linalg.inv(metric), x, y)
        return PlaneWitness(
            kind="commuting", found=True, objective=float(objective),
            numerator=num, x=x, y=y, decided=decided,
            message=f"commuting eigenvector pair in eigenspaces {pairs[k]}")
    if decided == "exact":
        msg = (f"no commuting pair: all {proved} eigenspace pairs proved "
               f"empty (objective at least {objective:.3e})")
    elif objective < REJECT:
        msg = f"ambiguous: best objective {objective:.3e} at {starts} starts"
    else:
        msg = f"no commuting pair found at {starts} starts per eigenspace pair"
    if decided == "search" and proved:
        msg += f"; {proved} of {len(pairs)} pairs proved empty"
    return PlaneWitness(kind="commuting", found=False,
                        objective=float(objective), numerator=None, x=None,
                        y=None, message=msg, decided=decided)


def min_eigenvalue_witness(space: HomogeneousSpace, metric: np.ndarray,
                           seed: int = 0, draws: int = 64) -> PlaneWitness:
    """Witness plane built from the smallest metric eigenvalue.

    Finds x in the bottom eigenspace E_0 and z in p with [x, z] = 0, then
    checks that the plane (x, G^-1 z) has numerator at most 1e-10.  The
    pair comes from the block decision of `_find_pair`: one block (v, v^⊥)
    per basis vector v of E_0, with v^⊥ the orthogonal complement of v in p,
    is decided exactly, and when dim E_0 > 1 the block (E_0, p) is searched
    by a batched multistart descent of |[x, z]|² / Gram with x kept in E_0.
    """
    lam, bottom = _metric_eigenspaces(metric)[0]
    blocks = [(v[None], nullspace(v[None]), False, (seed, k))
              for k, v in enumerate(bottom)]
    if len(bottom) > 1:
        blocks.append((bottom, np.eye(space.dim_p), False, (seed,)))
    pair, decided, objective, _ = _find_pair(space, blocks, draws)
    if pair is None:
        return PlaneWitness(
            kind="min-eigenvalue", found=False, objective=float(objective),
            numerator=None, x=None, y=None, decided=decided,
            message=f"no commuting partner for the bottom eigenspace "
                    f"(eigenvalue {lam:.6g})")

    x, z, _ = pair
    metric_inv = np.linalg.inv(metric)
    y = metric_inv @ z
    y /= np.linalg.norm(y)
    num = four_term_numerator(space, metric, metric_inv, x, y)
    found = bool(num <= NONPOS_TOL)
    return PlaneWitness(
        kind="min-eigenvalue", found=found, objective=float(objective),
        numerator=num, x=x, y=y, decided=decided,
        message=(f"nonpositive plane at the bottom eigenvalue {lam:.6g}"
                 if found else f"commuting partner found but numerator "
                 f"{num:.3e} exceeds {NONPOS_TOL}"))


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
