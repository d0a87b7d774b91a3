"""Tests for the isotypic decomposition of isotropy actions."""
import numpy as np
import pytest

import homcurv.isotypic
from homcurv import catalog_build
from homcurv.isotypic import decompose, symmetric_commutant_basis
from homcurv.numerics import rng_from

# label, params -> dims, multiplicities, division types, weights, commutant dim
EXPECTED = {
    ("sp2circle", (3, 1)): ((1, 4, 2, 2), (1, 2, 1, 1),
                            ("real", "complex", "complex", "complex"),
                            (0, 2, 4, 6), 7),
    ("sp2circle", (5, 3)): ((1, 2, 2, 2, 2), (1, 1, 1, 1, 1),
                            ("real", "complex", "complex", "complex", "complex"),
                            (0, 2, 6, 8, 10), 5),
    ("stiefel", ()): ((3, 6), (3, 3), ("real", "complex"), (0, 2), 15),
    ("wallach6", ()): ((2, 2, 2), (1, 1, 1),
                       ("complex", "complex", "complex"),
                       (None, None, None), 3),
    ("berger7", ()): ((7,), (1,), ("real",), (None,), 1),
    ("s3s3circle", (2, 1)): ((1, 2, 2), (1, 1, 1),
                             ("real", "complex", "complex"), (0, 2, 4), 3),
    ("su3circle", (1, 0)): ((1, 4, 2), (1, 2, 1),
                            ("real", "complex", "complex"), (0, 1, 2), 6),
    ("wallach12", ()): ((4, 4, 4), (1, 1, 1), ("real", "real", "real"),
                        (None, None, None), 3),
    ("berger13", ()): ((5, 8), (1, 1), ("real", "complex"), (None, None), 2),
    ("w11", ()): ((3, 4), (1, 1), ("real", "complex"), (None, None), 2),
    ("sp3mix", ()): ((1, 6, 8), (1, 2, 2), ("real", "real", "real"),
                     (None, None, None), 7),
}


def _space(label, params):
    names = {"sp2circle": ("p", "q"), "s3s3circle": ("p", "q"),
             "su3circle": ("p", "q")}
    kw = dict(zip(names.get(label, ()), params))
    return catalog_build(label, **kw)


@pytest.mark.parametrize("key", sorted(EXPECTED, key=str))
def test_catalog_decompositions(key):
    label, params = key
    dims, mults, types, weights, comm = EXPECTED[key]
    dec = decompose(_space(label, params))
    assert dec.dims() == dims
    assert dec.multiplicities() == mults
    assert tuple(c.division_type for c in dec.components) == types
    assert dec.weights() == weights
    assert dec.commutant_dim == comm


def test_quaternionic_type_detected():
    # the 4-dim standard summand of the 5-sphere has quaternion endomorphisms
    dec = decompose(catalog_build("sphere-su", n=2))
    assert dec.dims() == (1, 4)
    assert tuple(c.division_type for c in dec.components) == ("real", "quaternionic")
    assert dec.commutant_dim == 2


def test_irreducible_sphere():
    dec = decompose(catalog_build("sphere-so", n=4))
    assert dec.dims() == (4,)
    assert dec.multiplicities() == (1,)
    assert dec.commutant_dim == 1


def test_trivial_isotropy():
    dec = decompose(catalog_build("sphere-so", n=1))
    assert dec.dims() == (1,)
    assert dec.commutant_dim == 1


def test_component_bases_orthonormal_and_complete():
    space = catalog_build("sp2circle", p=3, q=1)
    dec = decompose(space)
    stack = np.vstack([c.basis for c in dec.components])
    assert stack.shape == (space.dim_p, space.dim_p)
    assert np.max(np.abs(stack @ stack.T - np.eye(space.dim_p))) < 1e-10


def test_summands_partition_components():
    dec = decompose(catalog_build("stiefel"))
    for comp in dec.components:
        assert len(comp.summands) == comp.multiplicity
        assert sum(s.shape[0] for s in comp.summands) == comp.dim
        assert comp.summand_dim * comp.multiplicity == comp.dim


def test_commutant_basis_commutes_and_is_orthonormal():
    space = catalog_build("stiefel")
    comm = symmetric_commutant_basis(space)
    assert len(comm) == 15
    gram = np.einsum("aij,bij->ab", comm, comm)
    assert np.max(np.abs(gram - np.eye(len(comm)))) < 1e-10
    for b in comm:
        assert np.max(np.abs(b - b.T)) < 1e-12
        for a in space.isotropy_actions:
            assert np.max(np.abs(a @ b - b @ a)) < 1e-10


def test_decomposition_seed_independent(monkeypatch):
    # the separating element is one fixed draw; another draw gives the same
    # decomposition
    space = catalog_build("sp2circle", p=3, q=1)
    d0 = decompose(space)
    keys = []
    monkeypatch.setattr(homcurv.isotypic, "rng_from",
                        lambda *key: keys.append(key) or rng_from(12345))
    d1 = decompose(space)
    assert keys == [(0,)]
    assert d0.dims() == d1.dims()
    assert d0.weights() == d1.weights()
    assert ([c.division_type for c in d0.components]
            == [c.division_type for c in d1.components])
    # merged component spans agree even though summand splits may differ
    for c0, c1 in zip(d0.components, d1.components):
        p0 = c0.basis.T @ c0.basis
        p1 = c1.basis.T @ c1.basis
        assert np.max(np.abs(p0 - p1)) < 1e-8


def _einsum_commutant_basis(space):
    """The commutant basis with one pair of einsum commutators per action."""
    from homcurv.numerics import nullspace, symmetric_basis
    sym = symmetric_basis(space.dim_p)
    acts = space.isotropy_actions
    if not len(acts):
        return sym
    rows = [(np.einsum("ij,kjl->kil", a, sym)
             - np.einsum("kij,jl->kil", sym, a)).reshape(len(sym), -1)
            for a in acts]
    coeffs = nullspace(np.hstack(rows).T)
    return np.einsum("ck,kij->cij", coeffs, sym)


def test_batched_commutators_keep_bases_and_samples_bit_identical(monkeypatch):
    import homcurv.metrics
    from homcurv.metrics import sample_metric
    from homcurv.spaces import catalog_labels, listing_params
    spaces = [catalog_build(label, **listing_params(label))
              for label in catalog_labels()]
    assert len(spaces) == 21
    batched = {s.label: symmetric_commutant_basis(s) for s in spaces}
    einsum = {s.label: _einsum_commutant_basis(s) for s in spaces}
    for space in spaces:
        assert np.array_equal(batched[space.label], einsum[space.label]), \
            space.label
    # sample_metric reads nothing else of the space's commutant basis
    samples = []
    for bases in (batched, einsum):
        monkeypatch.setattr(homcurv.metrics, "symmetric_commutant_basis",
                            lambda space, bases=bases: bases[space.label])
        samples.append([sample_metric(space, seed=s).tobytes()
                        for space in spaces for s in range(30)])
    assert samples[0] == samples[1]
