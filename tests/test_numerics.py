"""Tests for the shared linear-algebra helpers."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homcurv import catalog_build
from homcurv.isotypic import symmetric_commutant_basis
from homcurv.numerics import ClusterError, cluster_values, kernel_and_gap, nullspace

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _full_svd_kernel_dimension(mat, rtol=1e-10):
    """Kernel dimension by the full SVD, with nullspace's rank cut."""
    s = np.linalg.svd(mat, full_matrices=True, compute_uv=False)
    return mat.shape[1] - int(np.sum(s > rtol * max(s[0], 1.0)))


@PROPERTY_SETTINGS
@given(rows=st.integers(1, 40), cols=st.integers(1, 40),
       rank=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_nullspace_is_an_orthonormal_kernel_basis(rows, cols, rank, seed):
    rank = min(rank, rows, cols)
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    kernel = nullspace(mat)
    assert kernel.shape == (_full_svd_kernel_dimension(mat), cols)
    assert np.allclose(kernel @ kernel.T, np.eye(len(kernel)), atol=1e-12)
    scale = max(1.0, float(np.linalg.norm(mat)))
    assert np.max(np.abs(mat @ kernel.T), initial=0.0) <= 1e-10 * scale
    # the gap is the smallest singular value outside the kernel
    same, gap = kernel_and_gap(mat)
    assert np.array_equal(same, kernel)
    s = np.linalg.svd(mat, compute_uv=False)
    kept = s[s > 1e-10 * max(s[0], 1.0)]
    assert np.isclose(gap, kept[-1] if len(kept) else np.inf, rtol=1e-12)


def test_commutant_basis_takes_the_thin_svd(monkeypatch):
    # berger13 hands nullspace a (1859, 91) matrix; its full SVD would build
    # a 1859 x 1859 matrix of left singular vectors that nothing reads
    flags = []
    real = np.linalg.svd

    def recording(a, full_matrices=True, *args, **kwargs):
        flags.append(full_matrices)
        return real(a, full_matrices, *args, **kwargs)

    space = catalog_build("berger13")
    monkeypatch.setattr(np.linalg, "svd", recording)
    symmetric_commutant_basis(space)
    assert flags and not any(flags)


def _plain_svd_kernel_and_gap(mat, rtol=1e-10):
    """kernel_and_gap as one np.linalg.svd call on the matrix itself."""
    _, s, vt = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    rank = int(np.sum(s > rtol * max(s[0], 1.0)))
    return vt[rank:], (float(s[rank - 1]) if rank else np.inf)


def _assert_same_as_plain_svd(mat):
    kernel, gap = kernel_and_gap(mat)
    plain_kernel, plain_gap = _plain_svd_kernel_and_gap(mat)
    assert kernel.shape == plain_kernel.shape
    assert np.array_equal(kernel, plain_kernel)
    assert gap == plain_gap


def test_kernel_matches_plain_svd_on_every_commutant_matrix(monkeypatch):
    # tall matrices are factored QR first; the SVD of R must give the same
    # bits as the SVD of the matrix, or every sampled metric moves
    import homcurv.isotypic
    from homcurv.spaces import catalog_labels, listing_params
    seen = []

    def recording(mat, rtol=1e-10):
        seen.append(mat)
        return nullspace(mat, rtol)

    monkeypatch.setattr(homcurv.isotypic, "nullspace", recording)
    for label in catalog_labels():
        symmetric_commutant_basis(catalog_build(label, **listing_params(label)))
    assert len(seen) == 21
    assert any(m.shape[0] >= m.shape[1] * 11 // 6 for m in seen)
    for mat in seen:
        _assert_same_as_plain_svd(mat)


@pytest.mark.parametrize("rows,cols,rank", [
    (60, 20, 12),     # well past the crossover
    (22, 12, 7),      # at the crossover, 12 * 11 // 6 = 22
    (21, 12, 7),      # one row short of it: the plain SVD
    (40, 25, 25),     # full column rank
])
def test_kernel_matches_plain_svd_on_tall_matrices(rows, cols, rank):
    rng = np.random.default_rng(rows * cols)
    _assert_same_as_plain_svd(rng.standard_normal((rows, rank))
                              @ rng.standard_normal((rank, cols)))


def test_an_empty_guard_band_splits_every_resolved_gap():
    values = np.array([2.0, 1e-7, 0.0, 2.0 + 1e-9])
    with pytest.raises(ClusterError, match="guard band"):
        cluster_values(values)
    clusters = cluster_values(values, guard=1.0)
    assert [c.tolist() for c in clusters] == [[2], [1], [0, 3]]
    # outside the band both read the same
    clear = np.array([0.0, 1e-5, 1e-9])
    assert ([c.tolist() for c in cluster_values(clear)]
            == [c.tolist() for c in cluster_values(clear, guard=1.0)]
            == [[0, 2], [1]])
