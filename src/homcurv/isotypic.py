"""Isotypic decomposition of the isotropy action on the complement p.

The decomposition is computed numerically: a random symmetric element of the
commutant of the isotropy action is diagonalized, its eigenspaces give the
irreducible summands, and summands carrying equivalent representations are
merged into isotypic components.  A consistency check against the commutant
dimension guards the whole pipeline against accidental eigenvalue collisions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import bracket
from .numerics import ClusterError, cluster_values, nullspace, rng_from, symmetric_basis
from .spaces import HomogeneousSpace

_END_DIM_TO_TYPE = {1: "real", 2: "complex", 4: "quaternionic"}


@dataclass(frozen=True)
class IsotypicComponent:
    basis: np.ndarray                 # (dim, dim_p) orthonormal rows in p-coordinates
    summands: tuple[np.ndarray, ...]  # one orthonormal row block per irreducible copy
    multiplicity: int
    division_type: str                # "real" | "complex" | "quaternionic"
    weight: int | None                # nonnegative integer when a torus generator exists

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def summand_dim(self) -> int:
        return self.summands[0].shape[0]

    def commutant_contribution(self) -> int:
        m = self.multiplicity
        return {"real": m * (m + 1) // 2,
                "complex": m * m,
                "quaternionic": m * (2 * m - 1)}[self.division_type]


@dataclass(frozen=True)
class IsotypicDecomposition:
    label: str
    dim_p: int
    components: tuple[IsotypicComponent, ...]
    commutant_dim: int

    def dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(c.multiplicity for c in self.components)

    def weights(self) -> tuple[int | None, ...]:
        return tuple(c.weight for c in self.components)


def symmetric_commutant_basis(space: HomogeneousSpace) -> np.ndarray:
    """Frobenius-orthonormal basis (stack of matrices) of the symmetric
    matrices on p commuting with every isotropy action."""
    n = space.dim_p
    sym = symmetric_basis(n)
    if not space.dim_h:
        return sym
    # commutator of every action with every symmetric basis element,
    # flattened to one row per basis element: (n_sym, n_acts*n*n)
    a = space.isotropy_actions[:, None]
    mat = (a @ sym - sym @ a).swapaxes(0, 1).reshape(len(sym), -1)
    coeffs = nullspace(mat.T)                # rows: coefficient vectors
    return np.einsum("ck,kij->cij", coeffs, sym)


def _hom_dimension(acts_i: np.ndarray, acts_j: np.ndarray) -> int:
    """Dimension of the space of intertwiners T with A_j T = T A_i for all
    v, given the (dim h, d_i, d_i) and (dim h, d_j, d_j) stacks of actions."""
    di, dj = acts_i.shape[-1], acts_j.shape[-1]
    blocks = (np.kron(acts_j, np.eye(di))
              - np.kron(np.eye(dj), acts_i.swapaxes(1, 2)))
    return nullspace(blocks.reshape(-1, di * dj)).shape[0]


def _h_is_abelian(space: HomogeneousSpace) -> bool:
    hb = space.h_basis
    if hb.shape[0] < 2:
        return True
    br = bracket(space.ambient, hb[:, None], hb[None])
    return float(np.max(np.abs(br))) < 1e-10


def _component_weight(space: HomogeneousSpace, basis_p: np.ndarray) -> int:
    # the generator lies in h: its action is its combination of the stack
    act = np.tensordot(space.h_basis @ space.torus_generator, space.isotropy_actions, 1)
    restr = basis_p @ act @ basis_p.T
    imag = np.abs(np.linalg.eigvals(restr).imag)
    wi = int(round(np.max(imag)))
    if abs(np.max(imag) - wi) > 1e-6:
        raise RuntimeError(f"non-integer torus weight {np.max(imag)!r} on a component")
    if np.any(np.abs(imag - wi) > 1e-6):
        raise RuntimeError("mixed torus weights inside one component")
    return wi


def decompose(space: HomogeneousSpace) -> IsotypicDecomposition:
    """Split p into isotypic components of the isotropy action.

    The separating element is the combination of the symmetric commutant
    basis with coefficients drawn from rng_from(0).  Raises ClusterError when
    its eigenvalue gaps are ambiguous, an eigenspace is not invariant, or the
    components fail the commutant-dimension cross-check.
    """
    n = space.dim_p
    acts = space.isotropy_actions
    comm = symmetric_commutant_basis(space)
    draw = np.einsum("c,cij->ij", rng_from(0).standard_normal(len(comm)), comm)
    vals, vecs = np.linalg.eigh(draw)
    clusters = cluster_values(vals)

    summands = []
    for idx in clusters:
        summands.append(vecs[:, idx].T.copy())
    # invariance of each eigenspace under every isotropy action
    for u in summands:
        img = acts @ u.T
        leak = np.linalg.norm(img - u.T @ (u @ img), axis=(1, 2))
        if np.any(leak > 1e-8):
            raise ClusterError(
                f"an eigenspace of the separating element is not invariant "
                f"under the isotropy action (leak {leak.max():.3e})")

    restricted = [u @ acts @ u.T for u in summands]
    dims = [u.shape[0] for u in summands]
    m = len(summands)
    classes: list[list[int]] = []
    for i in range(m):
        placed = False
        for cls in classes:
            j = cls[0]
            if dims[i] != dims[j]:
                continue
            if _hom_dimension(restricted[i], restricted[j]) > 0:
                cls.append(i)
                placed = True
                break
        if not placed:
            classes.append([i])

    use_weights = space.torus_generator is not None and _h_is_abelian(space)
    components = []
    for cls in classes:
        j = cls[0]
        end_dim = _hom_dimension(restricted[j], restricted[j])
        if end_dim not in _END_DIM_TO_TYPE:
            raise ClusterError(
                f"summand endomorphism dimension {end_dim} is not 1, 2 or 4")
        basis = np.vstack([summands[i] for i in cls])
        weight = _component_weight(space, basis) if use_weights else None
        components.append(IsotypicComponent(
            basis=basis,
            summands=tuple(summands[i] for i in cls),
            multiplicity=len(cls),
            division_type=_END_DIM_TO_TYPE[end_dim],
            weight=weight,
        ))

    total = sum(c.commutant_contribution() for c in components)
    if total != len(comm):
        raise ClusterError(
            f"commutant dimension check failed: the components account for "
            f"{total} of the {len(comm)} commutant dimensions")

    def sort_key(c: IsotypicComponent):
        diag = tuple(np.round(np.einsum("ki,ki->i", c.basis, c.basis), 6))
        return (c.weight if c.weight is not None else -1, c.dim, diag)

    components.sort(key=sort_key)
    return IsotypicDecomposition(
        label=space.label,
        dim_p=n,
        components=tuple(components),
        commutant_dim=len(comm),
    )
