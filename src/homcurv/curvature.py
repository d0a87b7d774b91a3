"""Sectional curvature of invariant metrics as one operator on Λ²p.

For tangent vectors x, y in p and an invariant metric G the unnormalized
curvature of the plane they span is a sum of four bracket terms,

    ⟨B⁻(x, y), [x, y]⟩ − ¾ |[x, y]_p|²_G + |B⁺(x, y)|²_{G⁻¹} − ⟨B⁺(x, x), B⁺(y, y)⟩_{G⁻¹},

with B^±(x, y) = ½([x, Gy] ∓ [Gx, y]), the bi-invariant inner product in the
first term and G or G⁻¹ on the p-parts in the others (G = Id collapses it to
the familiar quarter/full split between the p- and h-parts of [x, y]).
`_bracket_terms` gives [x, y], [x, Gy] and [Gx, y] for any batch of planes.
With G = LLᵀ the rows of L⁻¹ are a G-orthonormal basis of p, in which x has
the coordinates x′ = Lᵀx and the metric is the identity.  On the pairs of
that basis the brackets (one ad product) make the normalized operator R̂ on
Λ²p: a 4-tensor polarised into an algebraic curvature tensor and restricted
to a < b, c < d.  A plane's numerator is then wᵀR̂w with w = x′ ∧ y′, its
Gram determinant is |w|², so sectional curvature is a Rayleigh quotient of
R̂, and its gradients are (2Ωy′, −2Ωx′) with Ω the antisymmetric matrix of
R̂w.  `PlaneForm` does these Euclidean evaluations for any symmetric
operator (the witness searches use it for |[x, y]|²), with no quotient on
the orthonormal frames of the plane searches.  For a fixed x the numerator
is a quadratic form in y, the Jacobi operator J_x = A R̂ Aᵀ with row b of A
equal to x ∧ e_b (`jacobi_operator`), and the plane searches descend on the
axis x alone: `lowest_planes` pairs each axis with the lowest eigenvector of
J_x on the complement of x.  `Curvature` holds L and L⁻¹,
and its public evaluations take p-coordinates.  On the planes themselves
the brackets give `four_term_numerator`: one batch for the planes so close
to flat that wᵀR̂w is within its own rounding noise (see NOISE_BAND), and
the witness planes.
"""
from __future__ import annotations

import functools

import numpy as np

from .algebra import ad_operator, bracket
from .metrics import validate_metric
from .spaces import HomogeneousSpace

DEPENDENT_TOL = 1e-14   # Gram determinant relative to |x|²|y|²
# wᵀR̂w carries a rounding error of about dim Λ²p · eps · |R̂| |w|² however small
# the value, while each of the four bracket terms vanishes on a flat plane and
# keeps its relative accuracy there.  Values inside this band of |R̂| |w|² are
# recomputed from the bracket terms, so descents onto flat planes converge.
NOISE_BAND = 1e-8


def _bracket_terms(space: HomogeneousSpace, metric: np.ndarray,
                   x: np.ndarray, y: np.ndarray):
    """[x, y], [x, Gy] and [Gx, y] in ambient coordinates for p-vectors x, y;
    broadcasts over their leading axes."""
    alg, p = space.ambient, space.p_basis
    xa, ya = x @ p, y @ p
    return (bracket(alg, xa, ya), bracket(alg, xa, y @ metric.T @ p),
            bracket(alg, x @ metric.T @ p, ya))


def four_term_numerator(space: HomogeneousSpace, metric: np.ndarray,
                        metric_inv: np.ndarray, x: np.ndarray,
                        y: np.ndarray):
    """The numerator of the planes (x, y) from the four bracket terms, with
    five brackets per batch; broadcasts over the leading axes of x and y."""
    p = space.p_basis
    c, x_gy, gx_y = _bracket_terms(space, metric, x, y)
    xy = np.stack(np.broadcast_arrays(x, y))
    # B⁺(x, x) = [x, Gx] and B⁺(y, y) = [y, Gy], on p
    bxx, byy = bracket(space.ambient, xy @ p, xy @ metric.T @ p) @ p.T
    cp, bp = c @ p.T, 0.5 * (x_gy - gx_y) @ p.T
    return (0.5 * np.vecdot(x_gy + gx_y, c)
            - 0.75 * np.vecdot(cp, cp @ metric.T)
            + np.vecdot(bp, bp @ metric_inv.T)
            - np.vecdot(bxx, byy @ metric_inv.T))


@functools.cache
def pair_tables(n: int):
    """The pairs a < b of Λ²R^n as index arrays i, j, and the (n², pairs) map
    W with vec(x ⊗ y) @ W = x ∧ y; built once per n and read-only."""
    i, j = np.triu_indices(n, 1)
    wedge = np.zeros((n * n, len(i)))
    wedge[i * n + j, np.arange(len(i))] = 1.0
    wedge[j * n + i, np.arange(len(i))] = -1.0
    i.flags.writeable = j.flags.writeable = wedge.flags.writeable = False
    return i, j, wedge


def curvature_operator(space: HomogeneousSpace, metric: np.ndarray,
                       metric_inv: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Curvature operator on Λ²p in the basis e_a ∧ e_b, a < b, where e_a are
    the rows of `basis` in p-coordinates.

    Row (a, b) and column (c, d) hold R(e_a, e_b, e_c, e_d) in the convention
    where the numerator of the plane (x, y) is R(x, y, x, y).  One product of
    ad_{e_a} with the stacked rows (e; Ge) gives [e_a, e_b] and [e_a, G e_b];
    [G e_a, e_b] = −[e_b, G e_a] is the second set transposed.
    """
    n, p = space.dim_p, space.p_basis
    e, ge = basis @ p, basis @ metric.T @ p
    both = np.concatenate([e, ge]) @ ad_operator(space.ambient, e).swapaxes(1, 2)
    # row (a, b): [e_a, e_b], [e_a, G e_b] and [G e_a, e_b], shape (n², dim k)
    br, br_g, g_br = (t.reshape(n * n, -1) for t in (
        both[:, :n], both[:, n:], -both[:, n:].transpose(1, 0, 2)))
    # p-parts of [e_a, e_b], B⁺(e_a, e_b) and [e_a, G e_b] (B⁺(x, x) = [x, Gx])
    br_p, bp, br_g_p = br @ p.T, 0.5 * (br_g - g_br) @ p.T, br_g @ p.T
    # rows x_a y_b, columns x_c y_d: the B⁻, [x, y]_p and B⁺(x, y) terms
    mixed = (0.5 * (br_g + g_br) @ br.T - 0.75 * br_p @ metric @ br_p.T
             + bp @ metric_inv @ bp.T)
    # rows x_a x_b, columns y_c y_d
    split = br_g_p @ metric_inv @ br_g_p.T
    # s[a, b, c, d] x_a x_b y_c y_d sums to the numerator
    s = mixed.reshape(n, n, n, n).transpose(0, 2, 1, 3) - split.reshape(n, n, n, n)
    s = 0.5 * (s + s.transpose(1, 0, 2, 3))
    s = 0.5 * (s + s.transpose(0, 1, 3, 2))
    # op[(a, b), (c, d)] = R(e_a, e_b, e_c, e_d) = ⅔(s[a, c, d, b] − s[a, d, c, b]),
    # gathered from the blocks s[a, :, :, b] of the pairs a < b
    i, j, _ = pair_tables(n)
    block = s.transpose(0, 3, 1, 2)[i, j]
    op = (2.0 / 3.0) * (block[:, i, j] - block[:, j, i])
    return 0.5 * (op + op.T)        # exactly symmetric, as the gradients assume


class PlaneForm:
    """Planes evaluated against a symmetric operator M on Λ²R^n.

    Plane vectors are arrays of shape (..., n) in coordinates where the
    metric is the identity: every evaluation broadcasts over the leading
    axes, and one plane is a batch with none.  Every evaluation is a
    contraction.
    """

    def __init__(self, operator: np.ndarray, n: int):
        self.operator = operator
        # vec(x ⊗ y) @ W = x ∧ y, and (Mw) @ Wᵀ is vec(Ω) for the antisymmetric
        # Ω with upper triangle Mw; each entry has one nonzero term, so both
        # products are exact
        self._wedge_map = pair_tables(n)[2]
        # |J_x| <= |M| for unit x, so 2|M| lifts x above the spectrum of J_x
        self._norm = float(np.linalg.norm(operator))
        self._shift = 2.0 * self._norm if self._norm > 0 else 1.0

    def _wedge(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        outer = x[..., :, None] * y[..., None, :]
        flat = outer.reshape(outer.shape[:-2] + (x.shape[-1] ** 2,))
        return flat @ self._wedge_map

    def _value(self, w: np.ndarray, mw: np.ndarray, x: np.ndarray,
               y: np.ndarray):
        """The numerator wᵀMw."""
        return np.vecdot(w, mw)

    def _frame_terms(self, x: np.ndarray, y: np.ndarray):
        """The numerator wᵀMw and (2Ωy, −2Ωx), for the antisymmetric Ω
        whose upper triangle is Mw."""
        w, n = self._wedge(x, y), x.shape[-1]
        mw = w @ self.operator
        omega = (mw @ self._wedge_map.T).reshape(mw.shape[:-1] + (n, n))
        return (self._value(w, mw, x, y), 2.0 * (omega @ y[..., None])[..., 0],
                -2.0 * (omega @ x[..., None])[..., 0])

    def _gram_terms(self, x: np.ndarray, y: np.ndarray, check: bool = False):
        """The Gram entries xx, yy, xy and the Gram determinant.  With `check`,
        raises ValueError, with no floating-point warning, if any plane is
        dependent or, first, where the test would misreport it: non-finite
        vectors, an overflowed Gram determinant or an underflowed bound."""
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            xx, yy, xy = np.vecdot(x, x), np.vecdot(y, y), np.vecdot(x, y)
            d, bound = xx * yy - xy * xy, DEPENDENT_TOL * xx * yy
        # one test passes every plane that is independent at a normal bound
        if check and not ((d > bound) & (bound >= np.finfo(float).tiny)).all():
            if not np.isfinite(d).all():
                if not (np.isfinite(x).all() and np.isfinite(y).all()):
                    raise ValueError("plane vectors have non-finite entries")
                raise ValueError("the Gram determinant of the plane vectors "
                                 "overflows; scale them down")
            if (x.any(axis=-1) & y.any(axis=-1)
                    & (bound < np.finfo(float).tiny)).any():
                raise ValueError("the Gram determinant of the plane vectors "
                                 "underflows; scale them up")
            raise ValueError("plane vectors are numerically dependent")
        return xx, yy, xy, d

    def _numerator(self, x: np.ndarray, y: np.ndarray):
        w = self._wedge(x, y)
        return self._value(w, w @ self.operator, x, y)

    # the evaluation of the plane searches ---------------------------------

    def _axis_wedges(self, x: np.ndarray) -> np.ndarray:
        """A, shape (..., n, pairs), whose row b is x ∧ e_b."""
        n, pairs = x.shape[-1], self._wedge_map.shape[1]
        return (x @ self._wedge_map.reshape(n, -1)).reshape(
            x.shape[:-1] + (n, pairs))

    def jacobi_operator(self, x: np.ndarray) -> np.ndarray:
        """The Jacobi operators J_x = A M Aᵀ, shape (..., n, n): yᵀJ_x y =
        wᵀMw for w = x ∧ y, and J_x x = 0."""
        a = self._axis_wedges(x)
        return a @ self.operator @ np.swapaxes(a, -1, -2)

    def lowest_planes(self, c: np.ndarray, bx: np.ndarray | None = None,
                      by: np.ndarray | None = None):
        """The lowest plane through each axis x = c @ bx (c itself when bx is
        None) with its partner y in the span of the orthonormal rows `by`
        (all of R^n when None); c has one axis per row.

        For a unit x the planes (x, y) with y ⊥ x take the Rayleigh quotients
        of the Jacobi operator J_x = A M Aᵀ, row b of A equal to x ∧ e_b, as
        their values.  So y is the lowest eigenvector of B M Bᵀ, B = by A,
        with x shifted above the spectrum so that it is never returned, and
        the value is wᵀMw at w = x ∧ y = Bᵀu.  By the envelope theorem the
        gradient of that lowest value in c is the x half of the frame
        gradient, bx(2Ωy) − 2·sec·c.  Returns the unit coefficients, the
        values (inf where c is zero or not finite, or the value is not
        finite), the gradients in c and the partners y.
        """
        norm = np.sqrt(np.vecdot(c, c))
        ok = np.isfinite(norm) & (norm > 0)
        # a failed row evaluates the stand-in axis (1, ..., 1) and reports inf
        c = (np.where(ok[:, None], c, 1.0)
             / np.where(ok, norm, np.sqrt(c.shape[1]))[:, None])
        x = c if bx is None else c @ bx
        n, a = x.shape[1], self._axis_wedges(x)
        b, along = (a, x) if by is None else (by @ a, x @ by.T)
        bm = b @ self.operator
        jac = bm @ b.swapaxes(1, 2)
        jac += self._shift * along[:, :, None] * along[:, None, :]
        u = np.linalg.eigh(jac)[1][:, :, :1].swapaxes(1, 2)
        y = u[:, 0] if by is None else u[:, 0] @ by
        mw = (u @ bm)[:, 0]
        sec = self._value((u @ b)[:, 0], mw, x, y)
        omega = (mw @ self._wedge_map.T).reshape(-1, n, n)
        fx = 2.0 * (omega @ y[:, :, None])[:, :, 0]
        grad = (fx if bx is None else fx @ bx.T) - 2.0 * sec[:, None] * c
        return c, np.where(ok & np.isfinite(sec), sec, np.inf), grad, y


class Curvature(PlaneForm):
    """The plane form of the normalized operator R̂ of one space and metric.

    With G = LLᵀ, `factor` is L and the rows of `basis` = L⁻¹ are a
    G-orthonormal basis in p-coordinates.  The plane searches' evaluations
    take coordinates x′ = x @ factor in that basis; `numerator`, `gram`,
    `sectional` and `sectional_gradient` take p-coordinates.
    """

    def __init__(self, space: HomogeneousSpace, metric: np.ndarray):
        metric = np.asarray(metric, dtype=float)
        self.max_eigenvalue = validate_metric(space, metric)["max_eigenvalue"]
        self.space, self.gm = space, metric
        self.factor = np.linalg.cholesky(metric)
        self.basis = np.linalg.inv(self.factor)
        self.gm_inv = self.basis.T @ self.basis      # G⁻¹ = L⁻ᵀL⁻¹
        super().__init__(curvature_operator(space, metric, self.gm_inv,
                                            self.basis), space.dim_p)
        self._noise_scale = NOISE_BAND * self._norm

    # evaluations in p-coordinates; bench/spans.py times numerator, sectional
    # and sectional_gradient by their names on this class
    def numerator(self, x: np.ndarray, y: np.ndarray):
        return self._numerator(x @ self.factor, y @ self.factor)

    def gram(self, x: np.ndarray, y: np.ndarray):
        return self._gram_terms(x @ self.factor, y @ self.factor)[-1]

    def sectional(self, x: np.ndarray, y: np.ndarray):
        """Numerator over Gram determinant, after `_gram_terms`' checks."""
        x, y = x @ self.factor, y @ self.factor
        d = self._gram_terms(x, y, check=True)[-1]
        return self._numerator(x, y) / d

    def sectional_gradient(self, x: np.ndarray, y: np.ndarray):
        """Sectional value plus its gradients in both plane vectors."""
        x, y = x @ self.factor, y @ self.factor
        xx, yy, xy, d = self._gram_terms(x, y, check=True)
        num, fx, fy = self._frame_terms(x, y)
        sec = num / d
        # the quotient rule, with ½∇d = (yy·x − xy·y, xx·y − xy·x)
        s2, xx, yy, xy, d = (a[..., None] for a in (2 * sec, xx, yy, xy, d))
        dx = (fx - s2 * (yy * x - xy * y)) / d
        dy = (fy - s2 * (xx * y - xy * x)) / d
        return sec, dx @ self.factor.T, dy @ self.factor.T

    def _value(self, w: np.ndarray, mw: np.ndarray, x: np.ndarray,
               y: np.ndarray):
        """wᵀR̂w, or the four bracket terms where that is within rounding noise."""
        f = np.vecdot(w, mw)
        flagged = np.abs(f) <= self._noise_scale * np.vecdot(w, w)
        if not flagged.any():
            return f
        x, y = np.broadcast_arrays(x, y)
        f = np.array(f)
        f[flagged] = four_term_numerator(self.space, self.gm, self.gm_inv,
                                         x[flagged] @ self.basis,
                                         y[flagged] @ self.basis)
        return f[()]


def b_plus(space: HomogeneousSpace, metric: np.ndarray,
           x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """B⁺(x, y) = ½([x, Gy] − [Gx, y]) in unprojected ambient coordinates,
    from brackets alone: it builds no curvature operator."""
    _, x_gy, gx_y = _bracket_terms(space, np.asarray(metric, float), x, y)
    return 0.5 * (x_gy - gx_y)
