"""Invariant metrics on the complement p.

A metric is a symmetric positive definite matrix on p-coordinates commuting
with every isotropy action.  Constructors cover the normal metric, diagonal
rescalings of isotypic components, seeded random draws from the interior of
the cone, and pullback along the Ad matrix of a normalizing group element.
"""
from __future__ import annotations

import json

import numpy as np

from .isotypic import (
    IsotypicDecomposition,
    decompose,
    symmetric_commutant_basis,
)
from .numerics import rng_from
from .spaces import HomogeneousSpace, restriction


def normal_metric(space: HomogeneousSpace) -> np.ndarray:
    """The bi-invariant-induced metric: identity in p-coordinates."""
    return np.eye(space.dim_p)


def diagonal_metric(decomposition: IsotypicDecomposition,
                    scales) -> np.ndarray:
    """Metric scaling the i-th isotypic component by scales[i]."""
    scales = np.asarray(scales, dtype=float)
    if scales.shape != (len(decomposition.components),):
        raise ValueError(
            f"need one scale per component "
            f"({len(decomposition.components)}), got {scales.shape}")
    if not np.all(np.isfinite(scales) & (scales > 0)):
        raise ValueError("metric scales must be positive and finite")
    g = np.zeros((decomposition.dim_p, decomposition.dim_p))
    for t, comp in zip(scales, decomposition.components):
        g += t * comp.basis.T @ comp.basis
    return g


def metric_sampler(space: HomogeneousSpace):
    """`draw(seed)`: seeded random metrics from the interior of the invariant cone.

    A draw is a standard normal combination of the symmetric commutant basis,
    shifted so the smallest eigenvalue is at least 0.1.  The basis is built
    once, here, so a loop over seeds builds it once per space.
    """
    comm = symmetric_commutant_basis(space)
    eye = np.eye(space.dim_p)

    def draw(seed: int) -> np.ndarray:
        g = np.einsum("c,cij->ij", rng_from(seed).standard_normal(len(comm)),
                      comm)
        lam = np.linalg.eigvalsh(g)[0]
        return g + (abs(lam) + 0.1) * eye

    return draw


def sample_metric(space: HomogeneousSpace, seed: int = 0) -> np.ndarray:
    """One draw of `metric_sampler(space)`."""
    return metric_sampler(space)(seed)


def sample_seed(spec: str) -> int:
    """SEED of a `sample:SEED` spec; ValueError for any other spec."""
    if not spec.startswith("sample:"):
        raise ValueError(f"{spec!r} is not a sample:SEED metric spec")
    if not spec[7:].isdecimal():
        raise ValueError(f"bad sample metric spec {spec!r}")
    return int(spec[7:])


def metric_from_spec(space: HomogeneousSpace, spec: str) -> np.ndarray:
    """The metric named by `normal`, `diag:T0,T1,...`, `sample:SEED` or `file:PATH`.

    Diagonal scales follow the component order of `decompose(space)`;
    a file's "matrix" field (a metric document's) is validated on reading.
    Raises ValueError for a malformed or unknown spec or an invalid file.
    """
    if spec == "normal":
        return normal_metric(space)
    if spec.startswith("diag:"):
        try:
            scales = [float(t) for t in spec[5:].split(",")]
        except ValueError:
            raise ValueError(f"bad diagonal metric spec {spec!r}") from None
        return diagonal_metric(decompose(space), scales)
    if spec.startswith("sample:"):
        return sample_metric(space, sample_seed(spec))
    if spec.startswith("file:"):
        path = spec[5:]
        try:
            with open(path) as fh:
                metric = np.asarray(json.load(fh)["matrix"], dtype=float)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"cannot read metric from {path}: {exc}") from None
        try:
            validate_metric(space, metric)
        except ValueError as exc:
            raise ValueError(f"metric in {path} is invalid: {exc}") from None
        return metric
    raise ValueError(f"unknown metric spec {spec!r}; use normal, "
                     f"diag:T0,T1,..., sample:SEED or file:PATH")


def conjugate_metric(space: HomogeneousSpace, metric: np.ndarray,
                     ad: np.ndarray) -> np.ndarray:
    """Pullback of the metric along the Ad matrix `ad` of a normalizing element."""
    a = restriction(ad, space.p_basis, "group element does not preserve p; "
                    "it must normalize the isotropy subgroup")
    return a @ metric @ a.T


def equivariance_residual(space: HomogeneousSpace, metric: np.ndarray) -> float:
    """Largest commutator norm of the metric with an isotropy action."""
    acts = space.isotropy_actions
    return float(np.max(np.abs(metric @ acts - acts @ metric), initial=0.0))


def validate_metric(space: HomogeneousSpace, metric: np.ndarray) -> dict:
    """Residual report; raises ValueError unless the matrix is finite, symmetric,
    positive definite and commutes with every isotropy action, the residuals
    bounded by 1e-9·‖G‖₂ so that G and λG pass or fail together."""
    metric = np.asarray(metric, dtype=float)
    if metric.shape != (space.dim_p, space.dim_p):
        raise ValueError(f"metric shape {metric.shape} does not match "
                         f"dim p = {space.dim_p}")
    if not np.isfinite(metric).all():
        raise ValueError("metric has non-finite entries")
    sym = float(np.max(np.abs(metric - metric.T)))
    eigs = np.linalg.eigvalsh((metric + metric.T) / 2)
    bound = 1e-9 * max(-eigs[0], eigs[-1])
    if sym > bound:
        raise ValueError(f"metric is not symmetric (residual {sym:.3e})")
    if eigs[0] <= 0:
        raise ValueError(f"metric is not positive definite "
                         f"(smallest eigenvalue {eigs[0]:.3e})")
    equiv = equivariance_residual(space, metric)
    if equiv > bound:
        raise ValueError(f"metric does not commute with the isotropy action "
                         f"(residual {equiv:.3e})")
    return {"symmetry": sym, "equivariance": equiv,
            "min_eigenvalue": float(eigs[0]), "max_eigenvalue": float(eigs[-1]),
            "condition_number": float(eigs[-1] / eigs[0])}
