"""Sectional curvature of invariant metrics as one operator on Λ²p.

For tangent vectors x, y in p and an invariant metric G the unnormalized
curvature of the plane they span is a sum of four bracket terms,

    ⟨B⁻(x, y), [x, y]⟩ − ¾ |[x, y]_p|²_G + |B⁺(x, y)|²_{G⁻¹} − ⟨B⁺(x, x), B⁺(y, y)⟩_{G⁻¹},

with B^±(x, y) = ½([x, Gy] ∓ [Gx, y]), the bi-invariant inner product in the
first term and G or G⁻¹ on the p-parts in the others (G = Id collapses it to
the familiar quarter/full split between the p- and h-parts of [x, y]).  Each
term is quadratic in x and in y, so `Curvature` contracts all four once per
(space, metric) into a 4-tensor, polarises it into an algebraic curvature
tensor and keeps its restriction to a < b, c < d: the symmetric curvature
operator M on Λ²p.  Every plane is then the quadratic form wᵀMw with
w = x ∧ y, the numerator's gradients are (2Ωy, −2Ωx) with Ω the
antisymmetric matrix of Mw, and sectional curvature divides by the metric
Gram determinant.  `PlaneForm` does these evaluations for any symmetric
operator and metric (the witness searches use it for |[x, y]|²).  The
four-term formula is the operator's constructor, the tests' per-plane
oracle, and the value of the rare plane so close to flat that wᵀMw is within
its own rounding noise (see NOISE_BAND).
"""
from __future__ import annotations

import numpy as np

from .algebra import bracket
from .metrics import check_symmetric_positive
from .spaces import HomogeneousSpace

DEPENDENT_TOL = 1e-14   # Gram determinant relative to (xᵀGx)(yᵀGy)
# wᵀMw carries a rounding error of about dim Λ²p · eps · |M| |w|² however small
# the value, while each of the four bracket terms vanishes on a flat plane and
# keeps its relative accuracy there.  Values inside this band of |M| |w|² are
# recomputed from the bracket terms, so descents onto flat planes converge.
NOISE_BAND = 1e-8


def curvature_operator(space: HomogeneousSpace, metric: np.ndarray,
                       metric_inv: np.ndarray) -> np.ndarray:
    """Curvature operator on Λ²p in the basis e_a ∧ e_b, a < b, of p-coordinates.

    Row (a, b) and column (c, d) hold R(e_a, e_b, e_c, e_d) in the convention
    where the numerator of the plane (x, y) is R(x, y, x, y).
    """
    n = space.dim_p
    p = space.p_basis
    # [e_a, e_b] and [e_a, G e_b] in ambient coordinates, shape (n, n, dim k)
    br = np.tensordot(p, np.tensordot(p, space.ambient.structure_constants,
                                      axes=(1, 1)), axes=(1, 1))
    br_g = np.einsum("ajk,jb->abk", br, metric)
    g_br = -br_g.transpose(1, 0, 2)                  # [G e_a, e_b]
    b_minus = 0.5 * (br_g + g_br)
    b_plus = 0.5 * (br_g - g_br)

    def rows(t):                                     # (n², dim k)
        return t.reshape(n * n, -1)

    def p_rows(t):                                   # (n², n), p-part only
        return rows(t) @ p.T

    # rows x_a y_b, columns x_c y_d
    mixed = (rows(b_minus) @ rows(br).T
             - 0.75 * p_rows(br) @ metric @ p_rows(br).T
             + p_rows(b_plus) @ metric_inv @ p_rows(b_plus).T)
    # rows x_a x_b, columns y_c y_d
    split = p_rows(br_g) @ metric_inv @ p_rows(br_g).T
    # s[a, b, c, d] x_a x_b y_c y_d sums to the numerator
    s = mixed.reshape(n, n, n, n).transpose(0, 2, 1, 3) - split.reshape(n, n, n, n)
    s = 0.5 * (s + s.transpose(1, 0, 2, 3))
    s = 0.5 * (s + s.transpose(0, 1, 3, 2))
    r = (2.0 / 3.0) * (np.einsum("acdb->abcd", s) - np.einsum("adcb->abcd", s))
    i, j = np.triu_indices(n, 1)
    op = r[i, j][:, i, j]
    return 0.5 * (op + op.T)        # exactly symmetric, as the gradients assume


def _twisted_brackets(space: HomogeneousSpace, metric: np.ndarray,
                      x: np.ndarray, y: np.ndarray):
    """[x, Gy] and [Gx, y] in ambient coordinates, for one pair of p-vectors."""
    pt, alg = space.p_basis.T, space.ambient
    return (bracket(alg, pt @ x, pt @ (metric @ y)),
            bracket(alg, pt @ (metric @ x), pt @ y))


class PlaneForm:
    """Planes evaluated against a symmetric operator M on Λ²p and a metric G.

    Plane vectors are given in p-coordinates, as arrays of shape (..., dim p):
    every evaluation broadcasts over the leading axes, and one plane is a
    batch with none.  Every evaluation is a contraction.
    """

    def __init__(self, operator: np.ndarray, metric: np.ndarray,
                 max_eigenvalue: float):
        self.operator = operator
        self.gm = metric
        self.max_eigenvalue = max_eigenvalue
        # vec(x ⊗ y) @ W = x ∧ y, and (Mw) @ Wᵀ is vec(Ω) for the antisymmetric
        # Ω with upper triangle Mw; each entry has one nonzero term, so both
        # products are exact
        n = metric.shape[0]
        i, j = np.triu_indices(n, 1)
        pairs = np.arange(len(i))
        self._wedge_map = np.zeros((n * n, len(i)))
        self._wedge_map[i * n + j, pairs] = 1.0
        self._wedge_map[j * n + i, pairs] = -1.0

    def _wedge(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        outer = x[..., :, None] * y[..., None, :]
        flat = outer.reshape(outer.shape[:-2] + (x.shape[-1] ** 2,))
        return flat @ self._wedge_map

    def _value(self, w: np.ndarray, mw: np.ndarray, x: np.ndarray,
               y: np.ndarray):
        """The numerator wᵀMw."""
        return np.vecdot(w, mw)

    def _gradients(self, mw: np.ndarray, x: np.ndarray, y: np.ndarray):
        """(2Ωy, −2Ωx) for the antisymmetric Ω whose upper triangle is mw."""
        n = x.shape[-1]
        omega = (mw @ self._wedge_map.T).reshape(mw.shape[:-1] + (n, n))
        return (2.0 * (omega @ y[..., None])[..., 0],
                -2.0 * (omega @ x[..., None])[..., 0])

    def _gram_terms(self, x: np.ndarray, y: np.ndarray, check: bool = False):
        """Gx, Gy, the Gram entries xx, yy, xy and the Gram determinant; with
        `check`, raises if any plane is numerically dependent."""
        gx, gy = x @ self.gm.T, y @ self.gm.T
        xx, yy, xy = np.vecdot(x, gx), np.vecdot(y, gy), np.vecdot(x, gy)
        d = xx * yy - xy * xy
        if check and (d <= DEPENDENT_TOL * xx * yy).any():
            raise ValueError("plane vectors are numerically dependent")
        return gx, gy, xx, yy, xy, d

    # public evaluations ----------------------------------------------------

    def dependent(self, x: np.ndarray, y: np.ndarray):
        """True for each plane whose two vectors are numerically dependent."""
        _, _, xx, yy, _, d = self._gram_terms(x, y)
        return d <= DEPENDENT_TOL * xx * yy

    def numerator(self, x: np.ndarray, y: np.ndarray):
        w = self._wedge(x, y)
        return self._value(w, w @ self.operator, x, y)

    def gram(self, x: np.ndarray, y: np.ndarray):
        return self._gram_terms(x, y)[-1]

    def sectional(self, x: np.ndarray, y: np.ndarray):
        """Numerator over Gram determinant; raises if any plane is dependent."""
        d = self._gram_terms(x, y, check=True)[-1]
        return self.numerator(x, y) / d

    def numerator_gradient(self, x: np.ndarray,
                           y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of the numerator in both plane vectors."""
        return self._gradients(self._wedge(x, y) @ self.operator, x, y)

    def sectional_gradient(self, x: np.ndarray, y: np.ndarray):
        """Sectional value plus its gradients in both plane vectors."""
        gx_m, gy_m, xx, yy, xy, d = self._gram_terms(x, y, check=True)
        w = self._wedge(x, y)
        mw = w @ self.operator
        sec = self._value(w, mw, x, y) / d
        fx, fy = self._gradients(mw, x, y)
        s2, xx, yy, xy, d = (t[..., None] for t in (2 * sec, xx, yy, xy, d))
        return (sec, (fx - s2 * (yy * gx_m - xy * gy_m)) / d,
                (fy - s2 * (xx * gy_m - xy * gx_m)) / d)


class Curvature(PlaneForm):
    """The plane form of the curvature operator of one space and metric."""

    def __init__(self, space: HomogeneousSpace, metric: np.ndarray):
        metric = np.asarray(metric, dtype=float)
        if metric.shape != (space.dim_p, space.dim_p):
            raise ValueError(f"metric shape {metric.shape} does not match "
                             f"dim p = {space.dim_p}")
        _, eigs = check_symmetric_positive(metric)
        self.space = space
        self.gm_inv = np.linalg.inv(metric)
        super().__init__(curvature_operator(space, metric, self.gm_inv),
                         metric, float(eigs[-1]))
        self._noise_scale = NOISE_BAND * float(np.linalg.norm(self.operator))

    # bench/spans.py times these by their names on this class
    numerator = PlaneForm.numerator
    sectional = PlaneForm.sectional
    sectional_gradient = PlaneForm.sectional_gradient

    def _four_term_numerator(self, x: np.ndarray, y: np.ndarray) -> float:
        p = self.space.p_basis
        x_gy, gx_y = _twisted_brackets(self.space, self.gm, x, y)
        c = bracket(self.space.ambient, p.T @ x, p.T @ y)
        cp = p @ c
        b_minus = 0.5 * (x_gy + gx_y)
        b_plus = p @ (0.5 * (x_gy - gx_y))
        bxx = p @ _twisted_brackets(self.space, self.gm, x, x)[0]
        byy = p @ _twisted_brackets(self.space, self.gm, y, y)[0]
        return float(b_minus @ c - 0.75 * cp @ self.gm @ cp
                     + b_plus @ self.gm_inv @ b_plus - bxx @ self.gm_inv @ byy)

    def _value(self, w: np.ndarray, mw: np.ndarray, x: np.ndarray,
               y: np.ndarray):
        """wᵀMw, or the four bracket terms where that is within rounding noise."""
        f = np.vecdot(w, mw)
        flagged = np.abs(f) <= self._noise_scale * np.vecdot(w, w)
        if not flagged.any():
            return f
        f = np.array(f)
        for idx in map(tuple, np.argwhere(flagged)):
            f[idx] = self._four_term_numerator(x[idx], y[idx])
        return f[()]

    def b_plus(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Symmetric bracket-metric term, unprojected ambient coordinates."""
        return b_plus(self.space, self.gm, x, y)


def sectional_curvature(space: HomogeneousSpace, metric: np.ndarray,
                        x: np.ndarray, y: np.ndarray) -> float:
    return Curvature(space, metric).sectional(x, y)


def b_plus(space: HomogeneousSpace, metric: np.ndarray,
           x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """B⁺(x, y) = ½([x, Gy] − [Gx, y]) in unprojected ambient coordinates.

    Needs only two brackets, so it builds no curvature operator.
    """
    x_gy, gx_y = _twisted_brackets(space, np.asarray(metric, dtype=float), x, y)
    return 0.5 * (x_gy - gx_y)
