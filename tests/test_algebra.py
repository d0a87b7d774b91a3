"""Tests for the compact matrix algebra constructions."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import homcurv.algebra as algebra_mod

from homcurv import (
    bracket,
    ad_operator,
    build_algebra,
    centralizer_subalgebra,
    coords_of,
    direct_sum,
    group_element,
    matrix_of,
    rank,
    validate_algebra,
)

from homcurv.numerics import rng_from
from homcurv.spaces import catalog_build, catalog_labels, listing_params

SQ2 = np.sqrt(2.0)


def test_family_dimensions():
    assert build_algebra("so", 3).dim == 3
    assert build_algebra("so", 5).dim == 10
    assert build_algebra("so", 7).dim == 21
    assert build_algebra("su", 2).dim == 3
    assert build_algebra("su", 3).dim == 8
    assert build_algebra("su", 5).dim == 24
    assert build_algebra("u", 1).dim == 1
    assert build_algebra("u", 3).dim == 9
    assert build_algebra("sp", 1).dim == 3
    assert build_algebra("sp", 2).dim == 10
    assert build_algebra("sp", 3).dim == 21


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        build_algebra("gl", 3)
    with pytest.raises(ValueError):
        build_algebra("so", 0)


def test_basis_is_orthonormal():
    for fam, n in [("so", 5), ("su", 3), ("u", 3), ("sp", 2)]:
        alg = build_algebra(fam, n)
        mats = alg.realization.basis_matrices
        gram = np.real(-np.einsum("iab,jba->ij", mats, mats))
        assert np.max(np.abs(gram - np.eye(alg.dim))) < 1e-12


def test_so3_structure_constants():
    # frozen: with the ordered seed basis of so(3), C[0,1,2] = -1/sqrt(2)
    c = build_algebra("so", 3).structure_constants
    assert abs(c[0, 1, 2] + 1 / SQ2) < 1e-14
    assert abs(c[1, 2, 0] + 1 / SQ2) < 1e-14
    assert abs(c[0, 2, 1] - 1 / SQ2) < 1e-14


def test_su2_matches_sp1():
    # both are the quaternion algebra: C[0,1,2] = +sqrt(2) in each
    c_su = build_algebra("su", 2).structure_constants
    c_sp = build_algebra("sp", 1).structure_constants
    assert abs(c_su[0, 1, 2] - SQ2) < 1e-14
    assert np.max(np.abs(c_su - c_sp)) < 1e-14


def test_structure_constants_totally_antisymmetric():
    for fam, n in [("so", 5), ("su", 4), ("sp", 2)]:
        c = build_algebra(fam, n).structure_constants
        assert np.max(np.abs(c + np.swapaxes(c, 0, 1))) < 1e-13
        assert np.max(np.abs(c + np.swapaxes(c, 1, 2))) < 1e-13


def test_validate_residuals():
    for fam, n in [("so", 7), ("su", 5), ("sp", 3), ("u", 3)]:
        report = validate_algebra(build_algebra(fam, n))
        assert report["jacobi"] < 1e-12
        assert report["orthonormality"] < 1e-10
        assert report["closure"] < 1e-10


def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(20240901)
    for fam, n in [("so", 4), ("su", 3), ("sp", 2), ("u", 2)]:
        alg = build_algebra(fam, n)
        for _ in range(5):
            x = rng.standard_normal(alg.dim)
            y = rng.standard_normal(alg.dim)
            lhs = matrix_of(alg, bracket(alg, x, y))
            mx, my = matrix_of(alg, x), matrix_of(alg, y)
            assert np.max(np.abs(lhs - (mx @ my - my @ mx))) < 1e-10


@functools.cache
def _algebra(family, n):
    return build_algebra(family, n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(algebra=st.sampled_from([("so", 4), ("su", 3), ("sp", 2), ("u", 2),
                                ("so", 7), ("sp", 3)]),
       batch=st.lists(st.integers(1, 4), min_size=0, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_batched_bracket_matches_pairs_and_commutators(algebra, batch, seed):
    alg = _algebra(*algebra)
    x, y = np.random.default_rng(seed).standard_normal((2, *batch, alg.dim))
    out = bracket(alg, x, y)
    assert out.shape == x.shape
    for idx in np.ndindex(*batch):
        pair = bracket(alg, x[idx], y[idx])
        assert np.max(np.abs(out[idx] - pair)) <= 1e-12
        mx, my = matrix_of(alg, x[idx]), matrix_of(alg, y[idx])
        assert np.max(np.abs(matrix_of(alg, pair) - (mx @ my - my @ mx))) <= 1e-12


def test_bracket_broadcasts_across_batch_axes():
    alg = build_algebra("su", 3)
    x, y = np.random.default_rng(5).standard_normal((2, 4, alg.dim))
    table = bracket(alg, x[:, None], y[None])            # all 16 pairs
    assert table.shape == (4, 4, alg.dim)
    for i in range(4):
        for j in range(4):
            assert np.allclose(table[i, j], bracket(alg, x[i], y[j]), atol=1e-13)
    ads = ad_operator(alg, x)
    assert ads.shape == (4, alg.dim, alg.dim)
    assert np.allclose(ads[2], ad_operator(alg, x[2]), atol=0)


def test_ad_operator_consistent_with_bracket():
    rng = np.random.default_rng(7)
    alg = build_algebra("su", 3)
    x = rng.standard_normal(alg.dim)
    y = rng.standard_normal(alg.dim)
    assert np.allclose(ad_operator(alg, x) @ y, bracket(alg, x, y), atol=1e-12)
    # ad_x is skew for the invariant inner product
    ad = ad_operator(alg, x)
    assert np.max(np.abs(ad + ad.T)) < 1e-12


def test_coords_roundtrip():
    rng = np.random.default_rng(11)
    for fam, n in [("so", 5), ("sp", 2), ("u", 3)]:
        alg = build_algebra(fam, n)
        v = rng.standard_normal(alg.dim)
        assert np.allclose(coords_of(alg, matrix_of(alg, v)), v, atol=1e-12)


def test_q_invariance_random_triples():
    rng = np.random.default_rng(99)
    alg = build_algebra("sp", 2)
    for _ in range(20):
        x, y, z = rng.standard_normal((3, alg.dim))
        lhs = bracket(alg, x, y) @ z
        rhs = -(y @ bracket(alg, x, z))
        assert abs(lhs - rhs) < 1e-10


def test_rank_values():
    assert rank(build_algebra("su", 3)) == 2
    assert rank(build_algebra("so", 7)) == 3
    assert rank(build_algebra("sp", 3)) == 3
    assert rank(build_algebra("u", 2)) == 2


def _rank_by_draw(alg, basis=None, draws=8, seed=0):
    """Oracle: one draw, one ad_x and one SVD at a time."""
    dim = alg.dim if basis is None else basis.shape[0]
    best, rng = dim, rng_from(seed)
    for _ in range(draws):
        x = rng.standard_normal(dim)
        ad = (ad_operator(alg, x) if basis is None
              else basis @ ad_operator(alg, x @ basis) @ basis.T)
        s = np.linalg.svd(ad, compute_uv=False)
        best = min(best, dim - int(np.sum(s > 1e-8 * max(s[0], 1.0))))
    return best


@pytest.mark.parametrize("label", catalog_labels())
def test_batched_rank_matches_the_per_draw_rank(label):
    space = catalog_build(label, **listing_params(label))
    for basis in (None, space.h_basis):
        assert rank(space.ambient, basis=basis) == _rank_by_draw(space.ambient, basis)


def test_direct_sum():
    alg = direct_sum(build_algebra("su", 3), build_algebra("so", 3))
    assert alg.dim == 11
    assert rank(alg) == 3
    validate_algebra(alg)
    # cross-factor brackets vanish
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.standard_normal(8), np.zeros(3)])
    y = np.concatenate([np.zeros(8), rng.standard_normal(3)])
    assert np.max(np.abs(bracket(alg, x, y))) < 1e-13


def test_build_is_deterministic():
    a = build_algebra("sp", 3)
    b = build_algebra("sp", 3)
    assert np.array_equal(a.structure_constants, b.structure_constants)
    assert np.array_equal(a.realization.basis_matrices, b.realization.basis_matrices)


def test_group_element_and_centralizer_su5():
    alg = build_algebra("su", 5)
    g = group_element(alg, np.diag([-1, -1, -1, -1, 1]).astype(complex))
    # Ad is orthogonal
    assert np.max(np.abs(g.ad.T @ g.ad - np.eye(alg.dim))) < 1e-10
    fixed = centralizer_subalgebra(alg, g)
    assert fixed.shape[0] == 16


def test_group_element_and_centralizer_sp2():
    alg = build_algebra("sp", 2)
    g = group_element(alg, np.diag([-1, 1, -1, 1]).astype(complex))
    fixed = centralizer_subalgebra(alg, g)
    assert fixed.shape[0] == 6


def test_group_element_rejects_bad_matrix():
    alg = build_algebra("su", 3)
    with pytest.raises(ValueError):
        group_element(alg, np.diag([2.0, 1.0, 1.0]).astype(complex))


# The dense Gram-Schmidt and einsum structure constants that built every
# algebra before the sparse versions; space documents reload only if the
# bases and structure constants stay equal to what these produce.

def _dense_orthonormalize(seeds):
    out = []
    for s in seeds:
        w = s.astype(complex)
        for _ in range(2):
            for u in out:
                w = w - float(-np.real(np.trace(w @ u))) * u
        nrm = np.sqrt(float(-np.real(np.trace(w @ w))))
        if nrm > 1e-12:
            out.append(w / nrm)
    return np.array(out)


def _einsum_structure_constants(basis):
    prod = np.einsum("iab,jbc->ijac", basis, basis)
    comm = prod - prod.transpose(1, 0, 2, 3)
    c = -np.real(np.einsum("ijab,kba->ijk", comm, basis))
    c[np.abs(c) < 1e-14] = 0.0
    return c


FAMILY_GRID = ([("so", n) for n in range(2, 10)] + [("su", n) for n in range(2, 8)]
               + [("u", n) for n in range(1, 6)] + [("sp", n) for n in range(1, 5)])


@pytest.mark.parametrize("family,n", FAMILY_GRID)
def test_sparse_gram_schmidt_matches_dense_loop(family, n):
    alg = build_algebra(family, n)
    basis = _dense_orthonormalize(algebra_mod._FAMILIES[family](n))
    assert alg.realization.matrix_size == (2 * n if family == "sp" else n)
    assert alg.realization.field_tag == family
    # equal entry for entry; only the sign of some zero entries may differ
    assert np.array_equal(alg.realization.basis_matrices, basis)
    assert np.array_equal(alg.structure_constants, _einsum_structure_constants(basis))


def _loop_ad(alg, mat):
    inv = np.linalg.inv(mat)
    return np.array([coords_of(alg, mat @ b @ inv)
                     for b in alg.realization.basis_matrices]).T


@pytest.mark.parametrize("family,n", [("so", 5), ("su", 4), ("u", 3), ("sp", 2)])
def test_group_element_matches_loop_over_basis(family, n):
    alg = build_algebra(family, n)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(alg.dim)
    # exp of an algebra element, through its eigendecomposition
    vals, vecs = np.linalg.eig(matrix_of(alg, x))
    mat = vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)
    g = group_element(alg, mat)
    assert np.max(np.abs(g.ad - _loop_ad(alg, mat))) < 1e-12


def test_group_element_names_first_bad_basis_element():
    alg = build_algebra("su", 3)
    # conjugating by diag(1, 2, 1) scales the (0, 1) entries apart; the first
    # seed touching them is the third basis element
    with pytest.raises(ValueError, match="on basis element 2$"):
        group_element(alg, np.diag([1.0, 2.0, 1.0]).astype(complex))
