"""Tests for the shared linear-algebra helpers."""
import numpy as np
from hypothesis import given, settings, strategies as st

from homcurv import catalog_build
from homcurv.isotypic import symmetric_commutant_basis
from homcurv.numerics import kernel_and_gap, nullspace

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

