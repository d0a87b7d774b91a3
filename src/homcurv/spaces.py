"""Homogeneous-space fixtures: ambient algebra, subalgebra h, complement p.

A space is stored as an ambient `LieAlgebra` together with orthonormal bases
of the subalgebra h and its Q-orthogonal complement p, both as coordinate
rows.  The catalog covers the classical positively curved families (spheres
under their transitive classical groups, projective spaces, the two Berger
spaces, the Wallach flags, the Aloff-Wallach family) plus a set of
circle-quotient comparison spaces that carry flat or nonpositively curved
planes for every invariant metric.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    LieAlgebra,
    ad_operator,
    bracket,
    build_algebra,
    coords_of,
    direct_sum,
    matrix_of,
    quaternion_to_complex,
)
from .numerics import nullspace, orthonormalize_rows


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class HomogeneousSpace:
    label: str
    params: tuple[tuple[str, int], ...]
    ambient: LieAlgebra
    h_basis: np.ndarray          # (dim_h, dim_k) orthonormal rows
    p_basis: np.ndarray          # (dim_p, dim_k) orthonormal rows
    torus_generator: np.ndarray | None  # ambient coords of the integer-weight circle
    notes: str = ""

    # the checked (dim h, dim p, dim p) stack of ad_v on p, v in h_basis; read-only
    isotropy_actions: np.ndarray = field(init=False, compare=False, repr=False)
    # [h, h] = 0 up to 1e-10, from the closure check's bracket
    h_is_abelian: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        """Raise CatalogError unless the bases are 2-d and the torus generator
        a vector, each with rows of dim k = dim h + dim p, all finite, h is a
        subalgebra acting by skew maps on an invariant p, the rows of both
        bases are orthonormal and the torus generator lies in h.  The 1e-12
        bounds keep each isotropy action skew and inside p."""
        hb, pb, tg, alg = self.h_basis, self.p_basis, self.torus_generator, self.ambient
        for name, arr, ndim in (("h_basis", hb, 2), ("p_basis", pb, 2),
                                ("torus_generator", tg, 1)):
            if arr is not None and (arr.ndim != ndim or arr.shape[-1] != alg.dim):
                raise CatalogError(f"{self.label}: {name} has shape {arr.shape}, "
                                   f"not {ndim}-d with rows of dim k = {alg.dim}")
        for name, arr in vars(self).items():
            if isinstance(arr, np.ndarray) and not np.isfinite(arr).all():
                raise CatalogError(f"{self.label}: {name} has a non-finite entry")
        if self.dim_h + self.dim_p != alg.dim:
            raise CatalogError(f"{self.label}: dim h + dim p != dim k")
        # closure of h: [h, h] stays inside h (and a NaN leak fails the test)
        hb_br = bracket(alg, hb[:, None], hb[None])
        leak = np.max(np.abs(hb_br - (hb_br @ hb.T) @ hb), initial=0.0)
        if not leak <= 1e-9:
            raise CatalogError(f"{self.label}: h is not closed under the "
                               f"bracket (leak {leak:.3e})")
        # invariance of p: [h, p] stays inside p.  [v, p] is one product per
        # v in h_basis: a batched ad_operator (a GEMM, not a GEMV) would change
        # the last bits of the actions, and with them every `sample:K` draw
        hp = np.array([ad_operator(alg, v) @ pb.T for v in hb]).reshape(-1, *pb.T.shape)
        leak = np.max(np.abs(hb @ hp), initial=0.0)
        if not leak <= 1e-12:
            raise CatalogError(f"{self.label}: p is not invariant under h "
                               f"(leak {leak:.3e})")
        acts = pb @ hp
        skew = np.max(np.abs(acts + acts.swapaxes(1, 2)), initial=0.0)
        if not skew <= 1e-12:
            raise CatalogError(f"{self.label}: h does not act on p by skew "
                               f"maps (skewness {skew:.3e})")
        rows = np.vstack([hb, pb])
        error = np.max(np.abs(rows @ rows.T - np.eye(alg.dim)))
        if not error <= 1e-12:
            raise CatalogError(f"{self.label}: the rows of h_basis and p_basis "
                               f"are not orthonormal (error {error:.3e})")
        if tg is not None:
            distance = np.linalg.norm(tg - hb.T @ (hb @ tg))
            if not distance <= 1e-12 * np.linalg.norm(tg):
                raise CatalogError(f"{self.label}: torus_generator does not "
                                   f"lie in h (distance {distance:.3e})")
        acts.flags.writeable = False
        object.__setattr__(self, "isotropy_actions", acts)
        object.__setattr__(self, "h_is_abelian",
                           bool(np.max(np.abs(hb_br), initial=0.0) < 1e-10))

    @property
    def dim_h(self) -> int:
        return self.h_basis.shape[0]

    @property
    def dim_p(self) -> int:
        return self.p_basis.shape[0]

    def p_coords(self, v: np.ndarray) -> np.ndarray:
        return self.p_basis @ v

    def p_embed(self, c: np.ndarray) -> np.ndarray:
        return self.p_basis.T @ c


def make_space(label: str, ambient: LieAlgebra, h_matrices: list[np.ndarray],
               params: dict[str, int] | None = None,
               torus_matrix: np.ndarray | None = None,
               notes: str = "") -> HomogeneousSpace:
    """Assemble and validate a space from ambient + spanning matrices of h."""
    seeds = []
    for m in h_matrices:
        c = coords_of(ambient, m)
        resid = np.linalg.norm(matrix_of(ambient, c) - m)
        if not resid <= 1e-9 * max(1.0, np.linalg.norm(m)):
            raise CatalogError(
                f"{label}: subalgebra seed does not lie in {ambient.name} "
                f"(residual {resid:.3e})")
        seeds.append(c)
    h_basis = orthonormalize_rows(np.array(seeds)) if seeds else np.zeros((0, ambient.dim))
    p_basis = nullspace(h_basis) if h_basis.shape[0] else np.eye(ambient.dim)
    tg = None
    if torus_matrix is not None:
        tg = coords_of(ambient, torus_matrix)
    return HomogeneousSpace(
        label=label,
        params=tuple(sorted((params or {}).items())),
        ambient=ambient,
        h_basis=h_basis,
        p_basis=p_basis,
        torus_generator=tg,
        notes=notes,
    )


def restriction(ad: np.ndarray, basis: np.ndarray, what: str) -> np.ndarray:
    """The ambient map `ad` restricted to the span of the orthonormal rows
    `basis`, in those coordinates; ValueError naming `what` when the image
    leaks out of the span by more than 1e-9."""
    img = ad @ basis.T
    restr = basis @ img
    leak = np.linalg.norm(img - basis.T @ restr)
    if leak > 1e-9:
        raise ValueError(f"{what} (leak {leak:.3e})")
    return restr


def fixed_subalgebra_in_h(space: HomogeneousSpace, ad: np.ndarray) -> np.ndarray:
    """Orthonormal basis (ambient coordinate rows) of the part of h fixed by
    the Ad matrix `ad`."""
    if space.dim_h == 0:
        return np.zeros((0, space.ambient.dim))
    restr = restriction(ad, space.h_basis,
                        f"group element does not normalize h of {space.label}")
    fixed = nullspace(restr - np.eye(space.dim_h), rtol=1e-9)
    return fixed @ space.h_basis


# ---------------------------------------------------------------------------
# catalog constructions
# ---------------------------------------------------------------------------

def _corner(mats: np.ndarray, size: int) -> np.ndarray:
    """A k x k matrix, or each of a stack of them, in the upper-left corner
    of a size x size zero matrix."""
    k = mats.shape[-1]
    out = np.zeros(mats.shape[:-2] + (size, size), dtype=complex)
    out[..., :k, :k] = mats
    return out


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = _corner(a, len(a) + len(b))
    out[len(a):, len(a):] = b
    return out


def _sp_entry(n: int, i: int, j: int, a: complex = 0, b: complex = 0) -> np.ndarray:
    """Quaternionic n x n matrix with a + b j in entry (i, j), complex form."""
    am = np.zeros((n, n), dtype=complex)
    bm = np.zeros((n, n), dtype=complex)
    am[i, j] = a
    bm[i, j] = b
    return quaternion_to_complex(am, bm)


def _sp_slot_quaternions(n: int, k: int) -> list[np.ndarray]:
    """i, j, k quaternion units in diagonal slot k of sp(n)."""
    return [_sp_entry(n, k, k, a=1j), _sp_entry(n, k, k, b=1.0),
            _sp_entry(n, k, k, b=1j)]


def spin32_matrices() -> list[np.ndarray]:
    """Generators of the 3-dimensional maximal subalgebra of sp(2).

    Image of the irreducible 4-dimensional complex representation of su(2),
    rotated into the standard symplectic-unitary realization so that the
    torus generator becomes the quaternionic diagonal diag(3i, i).
    """
    s3 = np.sqrt(3.0)
    jz = np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex)
    jp = np.zeros((4, 4), dtype=complex)
    jp[0, 1] = s3
    jp[1, 2] = 2.0
    jp[2, 3] = s3
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    t = np.zeros((4, 4), dtype=complex)
    t[0, 0] = 1
    t[1, 1] = 1
    t[3, 2] = 1
    t[2, 3] = -1
    return [t.conj().T @ (1j * jk) @ t for jk in (jx, jy, jz)]


def _corner_seeds(family: str, n: int) -> list[np.ndarray]:
    """The basis matrices of family(n) in the upper corner of family(n + 1),
    the quaternionic corner for sp; none when family(n) is zero."""
    if n < (2 if family in ("so", "su") else 1):
        return []
    m = build_algebra(family, n).realization.basis_matrices
    if family != "sp":
        return list(_corner(m, n + 1))
    # the a and b blocks of each a + b j, each in its own corner
    return list(quaternion_to_complex(_corner(m[:, :n, :n], n + 1),
                                      _corner(m[:, :n, n:], n + 1)))


def _idiag(*entries: complex) -> np.ndarray:
    return np.diag([complex(0, e) for e in entries])


def _sp_idiag(*entries: float) -> np.ndarray:
    """Quaternionic diagonal with purely imaginary entries i*e_k, complex form."""
    n = len(entries)
    return quaternion_to_complex(_idiag(*entries), np.zeros((n, n)))


# A builder takes an entry's parameters and returns its construction: the
# ambient algebra, spanning matrices of h, the torus matrix or None, and the
# notes.  `catalog_build` checks the parameters first and names the space.

def _build_sphere_so(n: int) -> tuple:
    return (build_algebra("so", n + 1), _corner_seeds("so", n), None,
            f"round sphere S^{n}; kernel trivial; N(H)/H = Z2 for n >= 2")


def _build_sphere_su(n: int) -> tuple:
    return (build_algebra("su", n + 1), _corner_seeds("su", n), None,
            f"sphere S^{2 * n + 1}; kernel trivial; N(H)/H = S1 for n >= 2")


def _build_sphere_u(n: int) -> tuple:
    return (build_algebra("u", n + 1), _corner_seeds("u", n), None,
            f"sphere S^{2 * n + 1}; kernel trivial; N(H)/H = S1")


def _build_sphere_sp(n: int) -> tuple:
    return (build_algebra("sp", n + 1), _corner_seeds("sp", n), None,
            f"sphere S^{4 * n + 3}; kernel trivial; N(H)/H = Sp(1)")


def _build_sphere_spsp1(n: int) -> tuple:
    h = [_corner(m, 2 * n + 4) for m in _corner_seeds("sp", n)]
    h += [_block_diag(big, small) for big, small
          in zip(_sp_slot_quaternions(n + 1, n), _sp_slot_quaternions(1, 0))]
    return (direct_sum(build_algebra("sp", n + 1), build_algebra("sp", 1)), h, None,
            f"sphere S^{4 * n + 3}; kernel diagonal Z2; N(H)/H = Z2")


def _build_sphere_spu1(n: int) -> tuple:
    h = [_corner(m, 2 * n + 3) for m in _corner_seeds("sp", n)]
    h.append(_block_diag(_sp_entry(n + 1, n, n, a=1j), 1j * np.eye(1)))
    return (direct_sum(build_algebra("sp", n + 1), build_algebra("u", 1)), h, None,
            f"sphere S^{4 * n + 3}; kernel diagonal Z2; N(H)/H = S1")


def _build_cpn(n: int) -> tuple:
    h = _corner_seeds("su", n) + [_idiag(*([1.0] * n + [-float(n)]))]
    return (build_algebra("su", n + 1), h, None,
            f"CP^{n}; kernel Z_{n + 1}; N(H)/H trivial for n >= 2")


def _build_hpn(n: int) -> tuple:
    h = _corner_seeds("sp", n) + _sp_slot_quaternions(n + 1, n)
    return (build_algebra("sp", n + 1), h, None,
            f"HP^{n}; kernel Z2; N(H)/H trivial for n >= 2")


def _build_cp2n1(n: int) -> tuple:
    h = _corner_seeds("sp", n) + [_sp_entry(n + 1, n, n, a=1j)]
    return (build_algebra("sp", n + 1), h, None,
            f"CP^{2 * n + 1}; kernel Z2; N(H)/H = Z2")


def _build_berger13() -> tuple:
    h = list(_corner(build_algebra("sp", 2).realization.basis_matrices, 5))
    return (build_algebra("su", 5), h + [_idiag(1, 1, 1, 1, -4)], None,
            "13-dim; h normalizes the 4-dim symplectic block; kernel Z5; N(H)/H trivial")


def _build_berger7() -> tuple:
    return (build_algebra("sp", 2), spin32_matrices(), _sp_idiag(3, 1),
            "7-dim; h is the unique 3-dim maximal subalgebra; kernel Z2; N(H)/H trivial")


def _build_w11() -> tuple:
    su2 = build_algebra("su", 2)
    h = [_block_diag(_corner(m, 3), ad_operator(su2, e))
         for m, e in zip(su2.realization.basis_matrices, np.eye(su2.dim))]
    return (direct_sum(build_algebra("su", 3), build_algebra("so", 3)),
            h + [_corner(_idiag(1, 1, -2), 6)], None,
            "7-dim; h = u(2) over the diagonally embedded su(2) (2-fold cover onto "
            "the rotation factor); kernel Z3; N(H)/H trivial")


def _build_wallach6() -> tuple:
    return (build_algebra("su", 3), [_idiag(1, -1, 0), _idiag(0, 1, -1)], None,
            "6-dim flag; kernel Z3; N(H)/H = Sym(3)")


def _build_wallach12() -> tuple:
    h = sum((_sp_slot_quaternions(3, k) for k in range(3)), [])
    return build_algebra("sp", 3), h, None, "12-dim flag; kernel Z2; N(H)/H = Sym(3)"


def _su3_over_circle(p: int, q: int) -> tuple:
    """su(3) over its circle diag(ip, iq, -i(p + q)), without notes."""
    gen = _idiag(p, q, -(p + q))
    return build_algebra("su", 3), [gen], gen


def _build_aloffwallach_su3(p: int, q: int) -> tuple:
    return (*_su3_over_circle(p, q), "7-dim; kernel Z3 iff p = q mod 3; "
            "N(H)/H = S1 for p > q, SO(3) for p = q")


def _build_su3circle(p: int, q: int) -> tuple:
    return (*_su3_over_circle(p, q), "7-dim circle quotient with q = 0 allowed; "
            "the (1,0) case carries no positively curved invariant metric")


def _build_aloffwallach_u3(p: int, q: int) -> tuple:
    gen = _idiag(p, q, -(p + q))
    return (build_algebra("u", 3), [gen, _idiag(1, 0, 0)], gen,
            f"7-dim; kernel Z_{p + 2 * q}; N(H)/H = S1")


def _sp2_over_circle(p: int, q: int) -> tuple:
    """sp(2) over its circle diag(ip, iq), quaternionic, without notes."""
    gen = _sp_idiag(p, q)
    return build_algebra("sp", 2), [gen], gen


def _build_sp2circle(p: int, q: int) -> tuple:
    return (*_sp2_over_circle(p, q),
            "9-dim circle quotient; no invariant positively curved metric")


def _build_stiefel() -> tuple:
    return (*_sp2_over_circle(1, 1), "9-dim frame manifold, the (1,1) circle "
            "quotient; every invariant metric has a nonpositively curved plane")


def _build_s3s3circle(p: int, q: int) -> tuple:
    gen = _block_diag(_idiag(p, -p), _idiag(q, -q))
    return (direct_sum(build_algebra("su", 2), build_algebra("su", 2)), [gen], gen,
            "5-dim circle quotient of a product of 3-spheres; "
            "flat planes exist for every invariant metric")


def _build_sp3mix() -> tuple:
    h = _sp_slot_quaternions(3, 0)
    h += [a + b for a, b in zip(_sp_slot_quaternions(3, 1), _sp_slot_quaternions(3, 2))]
    return (build_algebra("sp", 3), h, None,
            "15-dim; h couples the last two quaternionic slots diagonally; "
            "no invariant positively curved metric")


# label: (builder, listing parameters, expects positive, least n or q).  The
# listing parameters' names are the entry's parameters, and `catalog_entries`
# lists each entry at them.  A (p, q) entry needs p >= q >= least, p >= 1 and
# gcd(p, q) = 1.
_CATALOG = {
    "sphere-so": (_build_sphere_so, {"n": 4}, True, 1),
    "sphere-su": (_build_sphere_su, {"n": 2}, True, 1),
    "sphere-u": (_build_sphere_u, {"n": 2}, True, 0),
    "sphere-sp": (_build_sphere_sp, {"n": 1}, True, 0),
    "sphere-spsp1": (_build_sphere_spsp1, {"n": 1}, True, 1),
    "sphere-spu1": (_build_sphere_spu1, {"n": 1}, True, 1),
    "cpn": (_build_cpn, {"n": 2}, True, 1),
    "hpn": (_build_hpn, {"n": 2}, True, 1),
    "cp2n1": (_build_cp2n1, {"n": 1}, True, 1),
    "berger13": (_build_berger13, {}, True, 0),
    "berger7": (_build_berger7, {}, True, 0),
    "w11": (_build_w11, {}, True, 0),
    "wallach6": (_build_wallach6, {}, True, 0),
    "wallach12": (_build_wallach12, {}, True, 0),
    "aloffwallach-su3": (_build_aloffwallach_su3, {"p": 1, "q": 1}, True, 1),
    "aloffwallach-u3": (_build_aloffwallach_u3, {"p": 1, "q": 1}, True, 1),
    "stiefel": (_build_stiefel, {}, False, 0),
    "sp2circle": (_build_sp2circle, {"p": 3, "q": 1}, False, 0),
    "su3circle": (_build_su3circle, {"p": 1, "q": 0}, False, 0),
    "s3s3circle": (_build_s3s3circle, {"p": 2, "q": 1}, False, 1),
    "sp3mix": (_build_sp3mix, {}, False, 0),
}


def catalog_labels() -> list[str]:
    return list(_CATALOG)


def listing_params(label: str) -> dict[str, int]:
    """Default parameters used when listing or batch-building the catalog."""
    return dict(_CATALOG[label][1]) if label in _CATALOG else {}


def catalog_build(label: str, **params: int) -> HomogeneousSpace:
    """Build a catalog space; raises CatalogError on bad labels or parameters."""
    if label not in _CATALOG:
        raise CatalogError(f"unknown catalog label {label!r}; "
                           f"known: {', '.join(_CATALOG)}")
    build, listing, _, least = _CATALOG[label]
    needed = tuple(listing)
    missing = [a for a in needed if a not in params]
    extra = [a for a in params if a not in needed]
    if missing or extra:
        raise CatalogError(
            f"{label}: expected parameters {needed or '()'}, got {tuple(params)}")
    for k, v in params.items():
        if not isinstance(v, (int, np.integer)):
            raise CatalogError(f"{label}: parameter {k} must be an integer, got {v!r}")
    if "n" in params and params["n"] < least:
        raise CatalogError(f"{label}: need n >= {least}, got {params['n']}")
    if "p" in params:
        p, q = params["p"], params["q"]
        if p < q or q < least or p < 1:
            raise CatalogError(f"{label}: need p >= q >= {least} and p >= 1, got ({p}, {q})")
        if math.gcd(p, q) != 1:
            raise CatalogError(f"{label}: need gcd(p, q) = 1, got ({p}, {q})")
    ambient, h, torus, notes = build(**params)
    return make_space(label, ambient, h, params=params, torus_matrix=torus, notes=notes)


def catalog_entries() -> list[dict]:
    """Listing rows: label, parameter names, dims at the listing defaults, notes."""
    rows = []
    for label, (_, listing, positive, _) in _CATALOG.items():
        space = catalog_build(label, **listing)
        rows.append({
            "label": label,
            "parameters": list(listing),
            "expects_positive": positive,
            "example_params": dict(listing),
            "dim_k": space.ambient.dim,
            "dim_h": space.dim_h,
            "dim_p": space.dim_p,
            "notes": space.notes,
        })
    return rows
