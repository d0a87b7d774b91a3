"""Compact matrix Lie algebras with orthonormal bases and structure constants.

Conventions used throughout the package:

* The inner product is Q(x, y) = -Re tr(xy) on the matrix realization.  For
  the families built here it is positive definite and Ad-invariant.
* Every algebra carries a Q-orthonormal basis: that of a two-pass
  Gram-Schmidt on a documented seed basis in a fixed order, where only the
  diagonal seeds need projecting.  Elements are plain 1-D float64
  coordinate vectors with respect to that basis.
* Structure constants C[i, j, k] = Q([e_i, e_j], e_k) are totally
  antisymmetric because the basis is orthonormal and Q is Ad-invariant.
* `bracket` is the one bracket primitive.  It broadcasts over leading axes
  and costs two matrix products against C flattened to (dim, dim * dim),
  whatever the batch shape; `ad_operator` is the first of them, transposed.

Families: so(n) real antisymmetric, su(n)/u(n) anti-Hermitian (traceless for
su), sp(n) realized complexly as u(2n) intersected with the stabilizer of the
standard symplectic form J = [[0, I], [-I, 0]]; a quaternionic matrix a + b j
embeds as [[a, b], [-conj(b), conj(a)]].
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .numerics import nullspace, rng_from


@dataclass(frozen=True)
class MatrixRealization:
    """Concrete matrices behind an abstract coordinate basis."""
    matrix_size: int
    basis_matrices: np.ndarray  # (dim, m, m) complex128
    field_tag: str


@dataclass(frozen=True)
class LieAlgebra:
    name: str
    dim: int
    structure_constants: np.ndarray  # (dim, dim, dim) float64
    realization: MatrixRealization


def symplectic_form(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def quaternion_to_complex(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Embed a + b j, or a stack of them, into complex 2n x 2n form."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[-1]
    out = np.zeros(a.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = a
    out[..., :n, n:] = b
    out[..., n:, :n] = -np.conj(b)
    out[..., n:, n:] = np.conj(a)
    return out


def _write_pairs(seeds: np.ndarray, start: int, values) -> np.ndarray:
    """From row `start` on, write one seed per (v, w) in `values` for each
    pair i < j in lexicographic order: v at (i, j) and w at (j, i)."""
    k = np.arange(seeds.shape[-1])
    i, j = np.nonzero(k[:, None] < k)
    rows = start + len(values) * np.arange(len(i))
    for t, (v, w) in enumerate(values):
        seeds[rows + t, i, j], seeds[rows + t, j, i] = v, w
    return seeds


def _seed_so(n: int) -> np.ndarray:
    return _write_pairs(np.zeros((n * (n - 1) // 2, n, n), dtype=complex), 0, [(1, -1)])


def _seed_su(n: int) -> np.ndarray:
    k = np.arange(n - 1)
    seeds = np.zeros((n * n - 1, n, n), dtype=complex)
    seeds[k, k, k], seeds[k, k + 1, k + 1] = 1j, -1j
    return _write_pairs(seeds, n - 1, [(1, -1), (1j, 1j)])


def _seed_u(n: int) -> np.ndarray:
    return np.concatenate([_seed_su(n), 1j * np.eye(n)[None]])


def _seed_sp(n: int) -> np.ndarray:
    k = np.arange(n)
    # a-part: anti-Hermitian, u(n) shaped, with i E_kk as its diagonal seeds
    a = np.zeros((n * n, n, n), dtype=complex)
    a[k, k, k] = 1j
    _write_pairs(a, n, [(1, -1), (1j, 1j)])
    # b-part: complex symmetric, E_kk and i E_kk for each k, then the pairs
    b = np.zeros((n * (n + 1), n, n), dtype=complex)
    b[2 * k, k, k], b[2 * k + 1, k, k] = 1, 1j
    _write_pairs(b, 2 * n, [(1, 1), (1j, 1j)])
    return np.concatenate([quaternion_to_complex(a, np.zeros_like(a)),
                           quaternion_to_complex(np.zeros_like(b), b)])


_FAMILIES = {"so": _seed_so, "su": _seed_su, "u": _seed_u, "sp": _seed_sp}


def _orthonormalize_matrices(seeds: np.ndarray) -> np.ndarray:
    """The result of a two-pass Gram-Schmidt on the seeds in order, for Q.

    A seed with an off-diagonal entry is exactly Q-orthogonal to every other
    seed, so Gram-Schmidt only divides it by its norm √Q(s, s), which is
    exact for the integer entries of the seeds.  The diagonal seeds (the
    Cartan seeds and u(n)'s center) run the two passes among themselves, in
    order, on their diagonals: Q(x, y) of diagonal matrices is -Re Σ x_aa y_aa,
    the trace of xy term by term.  The seeds are independent; none is dropped.
    """
    def q(x, y):
        return -(x * y).sum().real

    basis = seeds / np.sqrt(-np.einsum("kab,kba->k", seeds, seeds).real)[:, None, None]
    diagonals = np.diagonal(seeds, axis1=1, axis2=2)
    done: list[np.ndarray] = []
    for k in np.flatnonzero(np.count_nonzero(seeds, axis=(1, 2))
                            == np.count_nonzero(diagonals, axis=1)):
        w = diagonals[k]
        for _ in range(2):
            for u in done:
                w = w - q(w, u) * u
        done.append(w / np.sqrt(q(w, w)))
        basis[k] = np.diag(done[-1])
    return basis


def _trace_pairing(basis: np.ndarray) -> np.ndarray:
    """(m², dim) matrix T with X.ravel() @ T = (tr(X e_k))_k."""
    d, m = basis.shape[0], basis.shape[-1]
    return basis.transpose(0, 2, 1).reshape(d, m * m).T


def _structure_constants(basis: np.ndarray) -> np.ndarray:
    """C[i, j, k] = Q([e_i, e_j], e_k) from the basis matrices."""
    d, m = basis.shape[0], basis.shape[-1]
    # every basis matrix has at most one nonzero entry per row, so each entry
    # of a product e_i e_j is a single term, and one GEMM gives them exactly
    prod = (basis.reshape(d * m, m) @ basis.transpose(1, 0, 2).reshape(m, d * m)
            ).reshape(d, m, d, m).transpose(0, 2, 1, 3)
    comm = prod - prod.transpose(1, 0, 2, 3)
    c = -np.real(comm.reshape(d * d, m * m) @ _trace_pairing(basis)).reshape(d, d, d)
    c[np.abs(c) < 1e-14] = 0.0
    return c


def build_algebra(family: str, n: int) -> LieAlgebra:
    """Build so(n), su(n), u(n) or sp(n) with an orthonormal basis.

    Seed order is fixed: so(n) pairs (i<j) lexicographically; su(n) traceless
    diagonals first, then for each pair the real and imaginary off-diagonal
    seeds; u(n) appends the center; sp(n) lists the a-block (i E_kk for each
    k, then the pairs as in su(n)), then the b-block (E_kk and i E_kk for
    each k, then each pair's real and imaginary symmetric seeds).  The basis
    is, entry for entry, the dense two-pass Gram-Schmidt's on these seeds.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    basis = _orthonormalize_matrices(_FAMILIES[family](n))
    return LieAlgebra(
        name=f"{family}({n})",
        dim=basis.shape[0],
        structure_constants=_structure_constants(basis),
        realization=MatrixRealization(basis.shape[-1], basis, family),
    )


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Block-diagonal sum; coordinates of `a` come first."""
    ma, mb = a.realization.matrix_size, b.realization.matrix_size
    m = ma + mb
    basis = np.zeros((a.dim + b.dim, m, m), dtype=complex)
    basis[:a.dim, :ma, :ma] = a.realization.basis_matrices
    basis[a.dim:, ma:, ma:] = b.realization.basis_matrices
    c = np.zeros((a.dim + b.dim,) * 3)
    c[:a.dim, :a.dim, :a.dim] = a.structure_constants
    c[a.dim:, a.dim:, a.dim:] = b.structure_constants
    return LieAlgebra(
        name=f"{a.name}+{b.name}",
        dim=a.dim + b.dim,
        structure_constants=c,
        realization=MatrixRealization(m, basis, "sum"),
    )


def algebra_from_name(name: str) -> LieAlgebra:
    """Rebuild an algebra from its name, e.g. 'sp(2)' or 'su(3)+so(3)'.

    Construction is deterministic, so the result matches the original
    bit for bit.
    """
    alg = None
    for token in name.split("+"):
        m = re.fullmatch(r"(so|su|u|sp)\((\d+)\)", token)
        if m is None:
            raise ValueError(f"cannot parse algebra name {name!r}")
        factor = build_algebra(m.group(1), int(m.group(2)))
        alg = factor if alg is None else direct_sum(alg, factor)
    return alg


def _ad_rows(alg: LieAlgebra, x: np.ndarray) -> np.ndarray:
    """ad_x transposed (row j is [x, e_j]), over the leading axes of x.

    One matrix product of x with the structure constants flattened to
    (dim, dim * dim).
    """
    d = alg.dim
    x = np.asarray(x, dtype=float)
    flat = x @ alg.structure_constants.reshape(d, d * d)
    return flat.reshape(x.shape[:-1] + (d, d))


def bracket(alg: LieAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] in coordinates; broadcasts over the leading axes of x and y."""
    y = np.asarray(y, dtype=float)
    return (y[..., None, :] @ _ad_rows(alg, x))[..., 0, :]


def ad_operator(alg: LieAlgebra, x: np.ndarray) -> np.ndarray:
    """Matrix of ad_x = [x, .] in coordinates: ad @ y == bracket(x, y).

    Broadcasts over the leading axes of x, giving a (..., dim, dim) stack.
    """
    return np.swapaxes(_ad_rows(alg, x), -1, -2)


def matrix_of(alg: LieAlgebra, x: np.ndarray) -> np.ndarray:
    return np.tensordot(np.asarray(x, dtype=float), alg.realization.basis_matrices,
                        axes=(0, 0))


def coords_of(alg: LieAlgebra, m: np.ndarray) -> np.ndarray:
    return -np.real(np.einsum("ab,iba->i", np.asarray(m, dtype=complex),
                              alg.realization.basis_matrices))


def rank(alg: LieAlgebra, basis: np.ndarray | None = None) -> int:
    """Dimension of the kernel of ad_x for generic x, minimized over eight
    draws from rng_from(0); of the subalgebra spanned by the orthonormal rows
    of `basis`, if given.

    All draws take one batched ad_x and one stacked SVD; a singular value
    counts when it exceeds 1e-8 times the larger of its draw's top one and 1.
    """
    dim = alg.dim if basis is None else basis.shape[0]
    if dim == 0:
        return 0
    x = rng_from(0).standard_normal((8, dim))
    ad = (ad_operator(alg, x) if basis is None
          else basis @ ad_operator(alg, x @ basis) @ basis.T)
    s = np.linalg.svd(ad, compute_uv=False)
    ranks = np.sum(s > 1e-8 * np.maximum(s[:, :1], 1.0), axis=1)
    return dim - int(ranks.max())


@dataclass(frozen=True)
class GroupElement:
    """A group element acting on the algebra through conjugation."""
    matrix: np.ndarray          # (m, m) complex
    ad: np.ndarray              # (dim, dim) real, Ad in the orthonormal basis


def group_element(alg: LieAlgebra, mat: np.ndarray) -> GroupElement:
    """Build Ad of `mat`; fails if conjugation leaves the algebra."""
    mat = np.asarray(mat, dtype=complex)
    m = alg.realization.matrix_size
    if mat.shape != (m, m):
        raise ValueError(f"matrix must be {m}x{m} for {alg.name}, got {mat.shape}")
    basis = alg.realization.basis_matrices
    conj = mat @ basis @ np.linalg.inv(mat)
    ad = -np.real(conj.reshape(alg.dim, m * m) @ _trace_pairing(basis)).T
    resid = np.linalg.norm(conj - np.tensordot(ad.T, basis, axes=(1, 0)), axis=(1, 2))
    bad = np.flatnonzero(resid > 1e-8)
    if bad.size:
        raise ValueError(
            f"conjugation does not preserve {alg.name}: residual {resid[bad[0]]:.3e} "
            f"on basis element {bad[0]}")
    if alg.dim:
        ortho = np.linalg.norm(ad.T @ ad - np.eye(alg.dim))
        if ortho > 1e-8:
            raise ValueError(f"Ad of the given matrix is not orthogonal: {ortho:.3e}")
    return GroupElement(matrix=mat, ad=ad)


def centralizer_subalgebra(alg: LieAlgebra, g: GroupElement) -> np.ndarray:
    """Orthonormal basis (rows) of the fixed space of Ad_g."""
    if alg.dim == 0:
        return np.zeros((0, 0))
    return nullspace(g.ad - np.eye(alg.dim), rtol=1e-9)


def jacobi_residual(alg: LieAlgebra) -> float:
    """Max-norm of the Jacobi identity over the full basis tensor."""
    c = alg.structure_constants
    if alg.dim == 0:
        return 0.0
    t = np.einsum("ijm,mkl->ijkl", c, c)
    total = t + np.einsum("jkm,mil->ijkl", c, c) + np.einsum("kim,mjl->ijkl", c, c)
    return float(np.max(np.abs(total)))


def validate_algebra(alg: LieAlgebra) -> dict[str, float]:
    """Check the algebra invariants; raises RuntimeError on failure."""
    c = alg.structure_constants
    b = alg.realization.basis_matrices
    res: dict[str, float] = {}
    if alg.dim == 0:
        return res
    gram = -np.real(np.einsum("iab,jba->ij", b, b))
    res["orthonormality"] = float(np.max(np.abs(gram - np.eye(alg.dim))))
    res["antisymmetry"] = float(np.max(np.abs(c + c.transpose(1, 0, 2))))
    res["total_antisymmetry"] = float(np.max(np.abs(c + c.transpose(0, 2, 1))))
    res["jacobi"] = jacobi_residual(alg)
    anti_herm = float(max(np.max(np.abs(m + m.conj().T)) for m in b))
    res["anti_hermitian"] = anti_herm
    # bracket closure against the matrix commutators
    prod = np.einsum("iab,jbc->ijac", b, b)
    comm = prod - prod.transpose(1, 0, 2, 3)
    recon = np.einsum("ijk,kab->ijab", c, b)
    res["closure"] = float(np.max(np.abs(comm - recon)))
    if alg.realization.field_tag == "sp":
        j = symplectic_form(alg.realization.matrix_size // 2)
        res["symplectic"] = float(max(np.max(np.abs(m.T @ j + j @ m)) for m in b))
    bad = {k: v for k, v in res.items()
           if v > (1e-12 if k == "jacobi" else 1e-10)}
    if bad:
        raise RuntimeError(f"algebra {alg.name} failed validation: {bad}")
    return res
