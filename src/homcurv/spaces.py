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
from dataclasses import dataclass

import numpy as np

from .algebra import (
    GroupElement,
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


@dataclass(frozen=True)
class HomogeneousSpace:
    label: str
    params: tuple[tuple[str, int], ...]
    ambient: LieAlgebra
    h_basis: np.ndarray          # (dim_h, dim_k) orthonormal rows
    p_basis: np.ndarray          # (dim_p, dim_k) orthonormal rows
    torus_generator: np.ndarray | None  # ambient coords of the integer-weight circle
    notes: str = ""

    @property
    def dim_h(self) -> int:
        return self.h_basis.shape[0]

    @property
    def dim_p(self) -> int:
        return self.p_basis.shape[0]

    @property
    def params_dict(self) -> dict[str, int]:
        return dict(self.params)

    def project_h(self, v: np.ndarray) -> np.ndarray:
        """Component of an ambient vector along h, as an ambient vector."""
        if self.dim_h == 0:
            return np.zeros_like(v)
        return self.h_basis.T @ (self.h_basis @ v)

    def project_p(self, v: np.ndarray) -> np.ndarray:
        return self.p_basis.T @ (self.p_basis @ v)

    def p_coords(self, v: np.ndarray) -> np.ndarray:
        return self.p_basis @ v

    def p_embed(self, c: np.ndarray) -> np.ndarray:
        return self.p_basis.T @ c


class CatalogError(ValueError):
    pass


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
    space = HomogeneousSpace(
        label=label,
        params=tuple(sorted((params or {}).items())),
        ambient=ambient,
        h_basis=h_basis,
        p_basis=p_basis,
        torus_generator=tg,
        notes=notes,
    )
    _validate_space(space)
    return space


def _validate_space(space: HomogeneousSpace) -> None:
    hb, pb = space.h_basis, space.p_basis
    for name, arr in vars(space).items():
        if isinstance(arr, np.ndarray) and not np.isfinite(arr).all():
            raise CatalogError(f"{space.label}: {name} has a non-finite entry")
    if space.dim_h + space.dim_p != space.ambient.dim:
        raise CatalogError(f"{space.label}: dim h + dim p != dim k")
    alg = space.ambient
    if space.dim_h:
        # closure of h: [h, h] stays inside h (and a NaN leak fails the test)
        hb_br = bracket(alg, hb[:, None], hb[None])
        leak = np.max(np.abs(hb_br - (hb_br @ hb.T) @ hb))
        if not leak <= 1e-9:
            raise CatalogError(f"{space.label}: h is not closed under the "
                               f"bracket (leak {leak:.3e})")
        # invariance of p: [h, p] stays inside p
        leak = np.max(np.abs(bracket(alg, hb[:, None], pb[None]) @ hb.T))
        if not leak <= 1e-9:
            raise CatalogError(f"{space.label}: p is not invariant under h "
                               f"(leak {leak:.3e})")


def isotropy_actions(space: HomogeneousSpace) -> list[np.ndarray]:
    """Matrices of ad_v restricted to p, one per h-basis vector.

    Each matrix is skew (the action is orthogonal for Q) and the off-p leakage
    is checked to vanish.
    """
    acts = []
    for v in space.h_basis:
        ad = ad_operator(space.ambient, v)
        full = ad @ space.p_basis.T           # columns: [v, p_j] in ambient coords
        act = space.p_basis @ full
        leak = np.linalg.norm(full - space.p_basis.T @ act)
        if leak > 1e-10:
            raise RuntimeError(f"{space.label}: isotropy action leaks off p ({leak:.3e})")
        skew = np.linalg.norm(act + act.T)
        if skew > 1e-10:
            raise RuntimeError(f"{space.label}: isotropy action not skew ({skew:.3e})")
        acts.append(act)
    return acts


def fixed_subalgebra_in_h(space: HomogeneousSpace, g: GroupElement) -> np.ndarray:
    """Orthonormal basis (ambient coordinate rows) of the Ad_g-fixed part of h."""
    if space.dim_h == 0:
        return np.zeros((0, space.ambient.dim))
    img = g.ad @ space.h_basis.T              # images of the h-basis
    restr = space.h_basis @ img
    leak = np.linalg.norm(img - space.h_basis.T @ restr)
    if leak > 1e-9:
        raise ValueError(
            f"group element does not normalize h of {space.label} (leak {leak:.3e})")
    fixed = nullspace(restr - np.eye(space.dim_h), rtol=1e-9)
    return fixed @ space.h_basis


# ---------------------------------------------------------------------------
# catalog constructions
# ---------------------------------------------------------------------------

def _embed(mat: np.ndarray, size: int, r: int = 0) -> np.ndarray:
    out = np.zeros((size, size), dtype=complex)
    k = mat.shape[0]
    out[r:r + k, r:r + k] = mat
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


def _block_diag(*mats: np.ndarray) -> np.ndarray:
    size = sum(m.shape[0] for m in mats)
    out = np.zeros((size, size), dtype=complex)
    r = 0
    for m in mats:
        k = m.shape[0]
        out[r:r + k, r:r + k] = m
        r += k
    return out


def _check_pq(label: str, p: int, q: int, q_min: int) -> None:
    if p < q or q < q_min or p < 1:
        raise CatalogError(f"{label}: need p >= q >= {q_min} and p >= 1, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise CatalogError(f"{label}: need gcd(p, q) = 1, got ({p}, {q})")


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


def _su_block_seeds(n_small: int, n_big: int) -> list[np.ndarray]:
    small = build_algebra("su", n_small)
    return [_embed(m, n_big) for m in small.realization.basis_matrices]


def _u_block_seeds(n_small: int, n_big: int) -> list[np.ndarray]:
    small = build_algebra("u", n_small)
    return [_embed(m, n_big) for m in small.realization.basis_matrices]


def _so_block_seeds(n_small: int, n_big: int) -> list[np.ndarray]:
    small = build_algebra("so", n_small)
    return [_embed(m, n_big) for m in small.realization.basis_matrices]


def _sp_block_seeds(n_small: int, n_big: int) -> list[np.ndarray]:
    """sp(n_small) in the upper quaternionic corner of sp(n_big)."""
    small = build_algebra("sp", n_small)
    out = []
    for m in small.realization.basis_matrices:
        a = m[:n_small, :n_small]
        b = m[:n_small, n_small:]
        abig = np.zeros((n_big, n_big), dtype=complex)
        bbig = np.zeros((n_big, n_big), dtype=complex)
        abig[:n_small, :n_small] = a
        bbig[:n_small, :n_small] = b
        out.append(quaternion_to_complex(abig, bbig))
    return out


def _idiag(*entries: complex) -> np.ndarray:
    return np.diag([complex(0, e) for e in entries])


def _sp_idiag(*entries: float) -> np.ndarray:
    """Quaternionic diagonal with purely imaginary entries i*e_k, complex form."""
    n = len(entries)
    return quaternion_to_complex(_idiag(*entries), np.zeros((n, n)))


def _build_sphere_so(n: int) -> HomogeneousSpace:
    amb = build_algebra("so", n + 1)
    h = _so_block_seeds(n, n + 1) if n >= 2 else []
    return make_space("sphere-so", amb, h, params={"n": n},
                      notes=f"round sphere S^{n}; kernel trivial; N(H)/H = Z2 for n >= 2")


def _build_sphere_su(n: int) -> HomogeneousSpace:
    amb = build_algebra("su", n + 1)
    h = _su_block_seeds(n, n + 1) if n >= 2 else []
    return make_space("sphere-su", amb, h, params={"n": n},
                      notes=f"sphere S^{2 * n + 1}; kernel trivial; N(H)/H = S1 for n >= 2")


def _build_sphere_u(n: int) -> HomogeneousSpace:
    amb = build_algebra("u", n + 1)
    h = _u_block_seeds(n, n + 1) if n >= 1 else []
    return make_space("sphere-u", amb, h, params={"n": n},
                      notes=f"sphere S^{2 * n + 1}; kernel trivial; N(H)/H = S1")


def _build_sphere_sp(n: int) -> HomogeneousSpace:
    amb = build_algebra("sp", n + 1)
    h = _sp_block_seeds(n, n + 1) if n >= 1 else []
    return make_space("sphere-sp", amb, h, params={"n": n},
                      notes=f"sphere S^{4 * n + 3}; kernel trivial; N(H)/H = S3")


def _build_sphere_spsp1(n: int) -> HomogeneousSpace:
    amb = direct_sum(build_algebra("sp", n + 1), build_algebra("sp", 1))
    z2 = np.zeros((2, 2), dtype=complex)
    h = [_block_diag(m, z2) for m in _sp_block_seeds(n, n + 1)]
    for big, small in zip(_sp_slot_quaternions(n + 1, n), _sp_slot_quaternions(1, 0)):
        h.append(_block_diag(big, small))
    return make_space("sphere-spsp1", amb, h, params={"n": n},
                      notes=f"sphere S^{4 * n + 3}; kernel diagonal Z2; N(H)/H = Z2")


def _build_sphere_spu1(n: int) -> HomogeneousSpace:
    amb = direct_sum(build_algebra("sp", n + 1), build_algebra("u", 1))
    z1 = np.zeros((1, 1), dtype=complex)
    h = [_block_diag(m, z1) for m in _sp_block_seeds(n, n + 1)]
    h.append(_block_diag(_sp_entry(n + 1, n, n, a=1j), 1j * np.eye(1)))
    return make_space("sphere-spu1", amb, h, params={"n": n},
                      notes=f"sphere S^{4 * n + 3}; kernel diagonal Z2; N(H)/H = S1")


def _build_cpn(n: int) -> HomogeneousSpace:
    amb = build_algebra("su", n + 1)
    h = _su_block_seeds(n, n + 1) if n >= 2 else []
    h = h + [_idiag(*([1.0] * n + [-float(n)]))]
    return make_space("cpn", amb, h, params={"n": n},
                      notes=f"CP^{n}; kernel Z_{n + 1}; N(H)/H trivial for n >= 2")


def _build_hpn(n: int) -> HomogeneousSpace:
    amb = build_algebra("sp", n + 1)
    h = _sp_block_seeds(n, n + 1) + _sp_slot_quaternions(n + 1, n)
    return make_space("hpn", amb, h, params={"n": n},
                      notes=f"HP^{n}; kernel Z2; N(H)/H trivial for n >= 2")


def _build_cp2n1(n: int) -> HomogeneousSpace:
    amb = build_algebra("sp", n + 1)
    h = _sp_block_seeds(n, n + 1) + [_sp_entry(n + 1, n, n, a=1j)]
    return make_space("cp2n1", amb, h, params={"n": n},
                      notes=f"CP^{2 * n + 1}; kernel Z2; N(H)/H = Z2")


def _build_berger13() -> HomogeneousSpace:
    amb = build_algebra("su", 5)
    sp2 = build_algebra("sp", 2)
    h = [_embed(m, 5) for m in sp2.realization.basis_matrices]
    h.append(_idiag(1, 1, 1, 1, -4))
    return make_space("berger13", amb, h,
                      notes="13-dim; h normalizes the 4-dim symplectic block; "
                            "kernel Z5; N(H)/H trivial")


def _build_berger7() -> HomogeneousSpace:
    amb = build_algebra("sp", 2)
    return make_space("berger7", amb, spin32_matrices(),
                      torus_matrix=_sp_idiag(3, 1),
                      notes="7-dim; h is the unique 3-dim maximal subalgebra; "
                            "kernel Z2; N(H)/H trivial")


def _build_w11() -> HomogeneousSpace:
    su2 = build_algebra("su", 2)
    amb = direct_sum(build_algebra("su", 3), build_algebra("so", 3))
    h = []
    for i in range(su2.dim):
        left = _embed(su2.realization.basis_matrices[i], 3)
        right = ad_operator(su2, np.eye(su2.dim)[i]).astype(complex)
        h.append(_block_diag(left, right))
    h.append(_block_diag(_idiag(1, 1, -2), np.zeros((3, 3), dtype=complex)))
    return make_space("w11", amb, h,
                      notes="7-dim; h = u(2) over the diagonally embedded su(2) "
                            "(2-fold cover onto the rotation factor); kernel Z3; "
                            "N(H)/H trivial")


def _build_wallach6() -> HomogeneousSpace:
    amb = build_algebra("su", 3)
    h = [_idiag(1, -1, 0), _idiag(0, 1, -1)]
    return make_space("wallach6", amb, h,
                      notes="6-dim flag; kernel Z3; N(H)/H = S3")


def _build_wallach12() -> HomogeneousSpace:
    amb = build_algebra("sp", 3)
    h = sum((_sp_slot_quaternions(3, k) for k in range(3)), [])
    return make_space("wallach12", amb, h,
                      notes="12-dim flag; kernel Z2; N(H)/H = S3")


def _build_aloffwallach_su3(p: int, q: int) -> HomogeneousSpace:
    _check_pq("aloffwallach-su3", p, q, 1)
    amb = build_algebra("su", 3)
    gen = _idiag(p, q, -(p + q))
    return make_space("aloffwallach-su3", amb, [gen], params={"p": p, "q": q},
                      torus_matrix=gen,
                      notes="7-dim; kernel Z3 iff p = q mod 3; "
                            "N(H)/H = S1 for p > q, SO(3) for p = q")


def _build_aloffwallach_u3(p: int, q: int) -> HomogeneousSpace:
    _check_pq("aloffwallach-u3", p, q, 1)
    amb = build_algebra("u", 3)
    gen = _idiag(p, q, -(p + q))
    return make_space("aloffwallach-u3", amb, [gen, _idiag(1, 0, 0)],
                      params={"p": p, "q": q}, torus_matrix=gen,
                      notes=f"7-dim; kernel Z_{p + 2 * q}; N(H)/H = S1")


def _build_stiefel() -> HomogeneousSpace:
    amb = build_algebra("sp", 2)
    gen = _sp_idiag(1, 1)
    return make_space("stiefel", amb, [gen], torus_matrix=gen,
                      notes="9-dim frame manifold, the (1,1) circle quotient; "
                            "every invariant metric has a nonpositively curved plane")


def _build_sp2circle(p: int, q: int) -> HomogeneousSpace:
    _check_pq("sp2circle", p, q, 0)
    amb = build_algebra("sp", 2)
    gen = _sp_idiag(p, q)
    return make_space("sp2circle", amb, [gen], params={"p": p, "q": q},
                      torus_matrix=gen,
                      notes="9-dim circle quotient; no invariant positively "
                            "curved metric")


def _build_su3circle(p: int, q: int) -> HomogeneousSpace:
    _check_pq("su3circle", p, q, 0)
    amb = build_algebra("su", 3)
    gen = _idiag(p, q, -(p + q))
    return make_space("su3circle", amb, [gen], params={"p": p, "q": q},
                      torus_matrix=gen,
                      notes="7-dim circle quotient with q = 0 allowed; the (1,0) "
                            "case carries no positively curved invariant metric")


def _build_s3s3circle(p: int, q: int) -> HomogeneousSpace:
    _check_pq("s3s3circle", p, q, 1)
    amb = direct_sum(build_algebra("su", 2), build_algebra("su", 2))
    gen = _block_diag(_idiag(p, -p), _idiag(q, -q))
    return make_space("s3s3circle", amb, [gen], params={"p": p, "q": q},
                      torus_matrix=gen,
                      notes="5-dim circle quotient of a product of 3-spheres; "
                            "flat planes exist for every invariant metric")


def _build_sp3mix() -> HomogeneousSpace:
    amb = build_algebra("sp", 3)
    h = _sp_slot_quaternions(3, 0)
    for a, b in zip(_sp_slot_quaternions(3, 1), _sp_slot_quaternions(3, 2)):
        h.append(a + b)
    return make_space("sp3mix", amb, h,
                      notes="15-dim; h couples the last two quaternionic slots "
                            "diagonally; no invariant positively curved metric")


_CATALOG: dict[str, dict] = {
    "sphere-so": {"build": _build_sphere_so, "args": ("n",), "positive": True},
    "sphere-su": {"build": _build_sphere_su, "args": ("n",), "positive": True},
    "sphere-u": {"build": _build_sphere_u, "args": ("n",), "positive": True},
    "sphere-sp": {"build": _build_sphere_sp, "args": ("n",), "positive": True},
    "sphere-spsp1": {"build": _build_sphere_spsp1, "args": ("n",), "positive": True},
    "sphere-spu1": {"build": _build_sphere_spu1, "args": ("n",), "positive": True},
    "cpn": {"build": _build_cpn, "args": ("n",), "positive": True},
    "hpn": {"build": _build_hpn, "args": ("n",), "positive": True},
    "cp2n1": {"build": _build_cp2n1, "args": ("n",), "positive": True},
    "berger13": {"build": _build_berger13, "args": (), "positive": True},
    "berger7": {"build": _build_berger7, "args": (), "positive": True},
    "w11": {"build": _build_w11, "args": (), "positive": True},
    "wallach6": {"build": _build_wallach6, "args": (), "positive": True},
    "wallach12": {"build": _build_wallach12, "args": (), "positive": True},
    "aloffwallach-su3": {"build": _build_aloffwallach_su3, "args": ("p", "q"),
                         "positive": True},
    "aloffwallach-u3": {"build": _build_aloffwallach_u3, "args": ("p", "q"),
                        "positive": True},
    "stiefel": {"build": _build_stiefel, "args": (), "positive": False},
    "sp2circle": {"build": _build_sp2circle, "args": ("p", "q"), "positive": False},
    "su3circle": {"build": _build_su3circle, "args": ("p", "q"), "positive": False},
    "s3s3circle": {"build": _build_s3s3circle, "args": ("p", "q"), "positive": False},
    "sp3mix": {"build": _build_sp3mix, "args": (), "positive": False},
}

# parameters used by `catalog_entries` when listing parameterized spaces
_LISTING_PARAMS = {
    "sphere-so": {"n": 4}, "sphere-su": {"n": 2}, "sphere-u": {"n": 2},
    "sphere-sp": {"n": 1}, "sphere-spsp1": {"n": 1}, "sphere-spu1": {"n": 1},
    "cpn": {"n": 2}, "hpn": {"n": 2}, "cp2n1": {"n": 1},
    "aloffwallach-su3": {"p": 1, "q": 1}, "aloffwallach-u3": {"p": 1, "q": 1},
    "sp2circle": {"p": 3, "q": 1}, "su3circle": {"p": 1, "q": 0},
    "s3s3circle": {"p": 2, "q": 1},
}


def catalog_labels() -> list[str]:
    return list(_CATALOG)


def listing_params(label: str) -> dict[str, int]:
    """Default parameters used when listing or batch-building the catalog."""
    return dict(_LISTING_PARAMS.get(label, {}))


def catalog_build(label: str, **params: int) -> HomogeneousSpace:
    """Build a catalog space; raises CatalogError on bad labels or parameters."""
    if label not in _CATALOG:
        raise CatalogError(f"unknown catalog label {label!r}; "
                           f"known: {', '.join(_CATALOG)}")
    entry = _CATALOG[label]
    needed = entry["args"]
    missing = [a for a in needed if a not in params]
    extra = [a for a in params if a not in needed]
    if missing or extra:
        raise CatalogError(
            f"{label}: expected parameters {needed or '()'}, got {tuple(params)}")
    for k, v in params.items():
        if not isinstance(v, (int, np.integer)):
            raise CatalogError(f"{label}: parameter {k} must be an integer, got {v!r}")
    return entry["build"](**params)


def catalog_entries() -> list[dict]:
    """Listing rows: label, parameter names, dims at the listing defaults, notes."""
    rows = []
    for label, entry in _CATALOG.items():
        params = _LISTING_PARAMS.get(label, {})
        space = entry["build"](**params)
        rows.append({
            "label": label,
            "parameters": list(entry["args"]),
            "expects_positive": entry["positive"],
            "example_params": params,
            "dim_k": space.ambient.dim,
            "dim_h": space.dim_h,
            "dim_p": space.dim_p,
            "notes": space.notes,
        })
    return rows
