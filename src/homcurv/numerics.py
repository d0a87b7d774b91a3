"""Small linear-algebra helpers shared across the package.

Vectors are 1-D float64 arrays; stacks of vectors are 2-D arrays with one
vector per row.  All routines are deterministic.
"""
from __future__ import annotations

import numpy as np

DRAW_SCHEME = 3    # of the plane searches' starts, recorded in their documents


def rng_from(*parts: int) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of non-negative integers.

    SeedSequence drops trailing zero words, so rng_from(s) is rng_from(s, 0);
    the plane searches add a last word to stay apart from both: certify
    draws from rng_from(seed, 2) and a witness block from rng_from(*key, 1).
    """
    if min(parts, default=0) < 0:
        raise ValueError(f"seed parts must be non-negative, got {parts}")
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def orthonormalize_rows(rows: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on the rows, in order, dropping a row whose residual is
    at most 1e-10 times the larger of its norm and 1.

    Row order is preserved so that constructions relying on a documented
    basis order stay reproducible.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    out: list[np.ndarray] = []
    for v in rows:
        w = v.copy()
        for u in out:
            w -= (w @ u) * u
        # second pass guards against loss of orthogonality for near-dependent input
        for u in out:
            w -= (w @ u) * u
        n = np.linalg.norm(w)
        if n > 1e-10 * max(1.0, np.linalg.norm(v)):
            out.append(w / n)
    if not out:
        return np.zeros((0, rows.shape[1]))
    return np.array(out)


def nullspace(mat: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the kernel, one vector per row."""
    return kernel_and_gap(mat, rtol)[0]


def kernel_and_gap(mat: np.ndarray,
                   rtol: float = 1e-10) -> tuple[np.ndarray, float]:
    """`nullspace` plus the smallest singular value kept out of the kernel.

    The gap bounds |mat @ v| / |v| from below for every v orthogonal to the
    kernel; it is inf when the kernel is the whole space.  Left singular
    vectors are never used.  A matrix with at least as many rows as columns
    takes the thin SVD, which holds every right singular vector, and one with
    at least 11/6 times as many (LAPACK dgesdd's own crossover) is factored
    QR first, so that only R takes it: dgesdd takes the same steps, but the
    rows x columns left factor is never formed.
    """
    mat = np.atleast_2d(mat)
    if mat.size == 0:
        return np.eye(mat.shape[1]), np.inf
    if mat.shape[0] >= mat.shape[1] * 11 // 6:
        mat = np.linalg.qr(mat, mode="r")
    _, s, vt = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    cut = rtol * max(s[0], 1.0)
    rank = int(np.sum(s > cut))
    return vt[rank:], (float(s[rank - 1]) if rank else np.inf)


def symmetric_basis(n: int) -> np.ndarray:
    """Frobenius-orthonormal basis of symmetric n x n matrices, shape (m, n, n):
    the diagonal units, then (E_ij + E_ji)/√2 for i < j lexicographically."""
    k = np.arange(n)
    i, j = np.nonzero(k[:, None] < k)
    mats = np.zeros((n + len(i), n, n))
    mats[k, k, k] = 1.0
    rows = n + np.arange(len(i))
    mats[rows, i, j] = mats[rows, j, i] = 1.0 / np.sqrt(2.0)
    return mats


class ClusterError(RuntimeError):
    """Raised when a value list cannot be clustered unambiguously."""


def cluster_values(values: np.ndarray,
                   guard: float = 100.0) -> list[np.ndarray]:
    """Group sorted scalar values into clusters separated by clear gaps.

    Returns index arrays into `values`, cluster by cluster in ascending order.
    With scale = max(1, max |value|), a gap below 1e-8 scale joins a cluster
    and one of at least `guard` times that splits; a gap between the two is
    ambiguous and raises ClusterError instead of silently deciding.  With
    guard = 1 there is no such band, and every other gap splits.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    order = np.argsort(values)
    gaps = np.diff(values[order])
    lo = 1e-8 * max(1.0, float(np.max(np.abs(values))))
    hi = guard * lo
    band = gaps[(gaps >= lo) & (gaps < hi)]
    if band.size:
        raise ClusterError(
            f"ambiguous cluster boundary: gap {band[0]:.3e} lies in the guard "
            f"band [{lo:.3e}, {hi:.3e})")
    return np.split(order, np.flatnonzero(gaps >= lo) + 1)

