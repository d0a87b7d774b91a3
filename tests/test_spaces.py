"""Tests for the homogeneous-space catalog."""
import dataclasses
import math

import numpy as np
import pytest

from homcurv import (
    CatalogError,
    ad_operator,
    bracket,
    build_algebra,
    catalog_build,
    catalog_entries,
    catalog_labels,
    fixed_subalgebra_in_h,
    group_element,
    make_space,
    restriction,
)
from homcurv.spaces import listing_params

# label -> (example params, dim k, dim h, dim p)
EXPECTED_DIMS = {
    "sphere-so": ({"n": 4}, 10, 6, 4),
    "sphere-su": ({"n": 2}, 8, 3, 5),
    "sphere-u": ({"n": 2}, 9, 4, 5),
    "sphere-sp": ({"n": 1}, 10, 3, 7),
    "sphere-spsp1": ({"n": 1}, 13, 6, 7),
    "sphere-spu1": ({"n": 1}, 11, 4, 7),
    "cpn": ({"n": 2}, 8, 4, 4),
    "hpn": ({"n": 2}, 21, 13, 8),
    "cp2n1": ({"n": 1}, 10, 4, 6),
    "berger13": ({}, 24, 11, 13),
    "berger7": ({}, 10, 3, 7),
    "w11": ({}, 11, 4, 7),
    "wallach6": ({}, 8, 2, 6),
    "wallach12": ({}, 21, 9, 12),
    "aloffwallach-su3": ({"p": 1, "q": 1}, 8, 1, 7),
    "aloffwallach-u3": ({"p": 1, "q": 1}, 9, 2, 7),
    "stiefel": ({}, 10, 1, 9),
    "sp2circle": ({"p": 3, "q": 1}, 10, 1, 9),
    "su3circle": ({"p": 1, "q": 0}, 8, 1, 7),
    "s3s3circle": ({"p": 2, "q": 1}, 6, 1, 5),
    "sp3mix": ({}, 21, 6, 15),
}

# label -> least n
LEAST_N = {"sphere-so": 1, "sphere-su": 1, "sphere-u": 0, "sphere-sp": 0,
           "sphere-spsp1": 1, "sphere-spu1": 1, "cpn": 1, "hpn": 1, "cp2n1": 1}


def test_catalog_covers_expected_labels():
    assert set(catalog_labels()) == set(EXPECTED_DIMS)


@pytest.mark.parametrize("label", sorted(EXPECTED_DIMS))
def test_catalog_dimensions(label):
    params, dim_k, dim_h, dim_p = EXPECTED_DIMS[label]
    space = catalog_build(label, **params)
    assert space.ambient.dim == dim_k
    assert space.dim_h == dim_h
    assert space.dim_p == dim_p


@pytest.mark.parametrize("label", sorted(EXPECTED_DIMS))
def test_bases_orthonormal_and_complementary(label):
    params = EXPECTED_DIMS[label][0]
    space = catalog_build(label, **params)
    full = np.vstack([space.h_basis, space.p_basis])
    assert np.max(np.abs(full @ full.T - np.eye(space.ambient.dim))) < 1e-10


def test_catalog_entries_listing():
    rows = catalog_entries()
    assert len(rows) == len(EXPECTED_DIMS)
    by_label = {r["label"]: r for r in rows}
    assert by_label["stiefel"]["dim_p"] == 9
    assert by_label["berger13"]["dim_p"] == 13
    assert not by_label["sp2circle"]["expects_positive"]
    assert by_label["berger7"]["expects_positive"]


def test_unknown_label_rejected():
    with pytest.raises(CatalogError):
        catalog_build("lens")


def test_parameter_validation():
    with pytest.raises(CatalogError):
        catalog_build("sp2circle", p=2, q=4)        # p < q
    with pytest.raises(CatalogError):
        catalog_build("sp2circle", p=4, q=2)        # gcd 2
    with pytest.raises(CatalogError):
        catalog_build("s3s3circle", p=1, q=0)       # q must be >= 1 here
    with pytest.raises(CatalogError):
        catalog_build("aloffwallach-su3", p=2, q=4)
    with pytest.raises(CatalogError):
        catalog_build("sphere-so")                  # missing n
    with pytest.raises(CatalogError):
        catalog_build("berger7", n=2)               # no parameters accepted
    with pytest.raises(CatalogError):
        catalog_build("sp2circle", p=1.5, q=1)
    # q = 0 is allowed for the one-parameter circle in su(3)
    assert catalog_build("su3circle", p=1, q=0).dim_p == 7

    # each n entry builds from its least n on, with dim p >= 1 there, and
    # rejects anything smaller, naming the label
    assert {r["label"] for r in catalog_entries() if r["parameters"] == ["n"]} == set(LEAST_N)
    for label, least in LEAST_N.items():
        assert catalog_build(label, n=least).dim_p >= 1
        for n in (least - 1, -1):
            with pytest.raises(CatalogError, match=f"^{label}: need n >= {least}, got {n}$"):
                catalog_build(label, n=n)


@pytest.mark.parametrize("a_label,a_params,b_label,b_params", [
    ("stiefel", {}, "sp2circle", {"p": 1, "q": 1}),
    *[("su3circle", {"p": p, "q": q}, "aloffwallach-su3", {"p": p, "q": q})
      for p in range(1, 6) for q in range(1, p + 1) if math.gcd(p, q) == 1],
])
def test_shared_constructions_are_identical(a_label, a_params, b_label, b_params):
    # one construction under two labels, each with its own notes
    a, b = catalog_build(a_label, **a_params), catalog_build(b_label, **b_params)
    assert a.ambient.name == b.ambient.name
    for field in ("h_basis", "p_basis", "torus_generator"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.notes != b.notes


def test_sphere_so_small_n():
    space = catalog_build("sphere-so", n=1)
    assert space.dim_h == 0
    assert space.dim_p == 1


def test_projection_helpers():
    rng = np.random.default_rng(17)
    space = catalog_build("wallach6")
    v = rng.standard_normal(space.ambient.dim)
    ph = space.h_basis.T @ (space.h_basis @ v)
    pp = space.p_basis.T @ (space.p_basis @ v)
    assert np.allclose(ph + pp, v, atol=1e-12)
    assert np.allclose(space.p_embed(space.p_coords(v)), pp, atol=1e-12)
    assert abs(ph @ pp) < 1e-12


def test_isotropy_actions_skew_and_commute_for_torus():
    space = catalog_build("wallach6")
    acts = space.isotropy_actions
    assert len(acts) == 2
    for a in acts:
        assert a.shape == (6, 6)
        assert np.max(np.abs(a + a.T)) < 1e-10
    # h is abelian so the two actions commute
    comm = acts[0] @ acts[1] - acts[1] @ acts[0]
    assert np.max(np.abs(comm)) < 1e-10


def test_isotropy_actions_represent_bracket():
    space = catalog_build("berger7")
    acts = space.isotropy_actions
    hb = space.h_basis
    alg = space.ambient
    for i in range(3):
        for j in range(3):
            w = bracket(alg, hb[i], hb[j])
            target = sum(c * a for c, a in zip(hb @ w, acts))
            got = acts[i] @ acts[j] - acts[j] @ acts[i]
            assert np.max(np.abs(got - target)) < 1e-10


def test_torus_generator_lies_in_h():
    for label, params in [("berger7", {}), ("stiefel", {}),
                          ("sp2circle", {"p": 3, "q": 1}),
                          ("aloffwallach-su3", {"p": 1, "q": 1}),
                          ("s3s3circle", {"p": 2, "q": 1})]:
        space = catalog_build(label, **params)
        tg = space.torus_generator
        assert tg is not None
        assert np.allclose(space.h_basis.T @ (space.h_basis @ tg), tg, atol=1e-10)


def test_make_space_rejects_foreign_seed():
    alg = build_algebra("su", 3)
    bad = np.diag([1.0, 0, 0]).astype(complex)   # not anti-hermitian
    with pytest.raises(CatalogError):
        make_space("bad", alg, [bad])


def test_make_space_rejects_non_closed_span():
    alg = build_algebra("so", 5)
    e12 = np.zeros((5, 5), dtype=complex)
    e12[0, 1], e12[1, 0] = 1, -1
    e23 = np.zeros((5, 5), dtype=complex)
    e23[1, 2], e23[2, 1] = 1, -1
    with pytest.raises(CatalogError):
        make_space("open", alg, [e12, e23])


@pytest.mark.parametrize("field", ["h_basis", "p_basis", "torus_generator"])
def test_space_built_in_code_with_non_finite_bases_is_rejected(field):
    space = catalog_build("berger7")
    bad = getattr(space, field).copy()
    bad.flat[0] = np.nan
    with pytest.raises(CatalogError, match=f"{field} has a non-finite entry"):
        dataclasses.replace(space, **{field: bad})


def test_leak_that_is_not_a_number_fails_validation():
    # finite bases whose brackets overflow leave a NaN leak, which must not
    # compare as small
    space = catalog_build("berger7")
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(CatalogError, match="not closed"):
        dataclasses.replace(space, h_basis=1e200 * space.h_basis)


def _non_skew_ambient(space):
    # adds a symmetric map of p to ad of the first h vector: h stays a
    # subalgebra and p stays invariant, but h no longer acts by skew maps
    sym = np.random.default_rng(0).standard_normal((space.dim_p,) * 2)
    sym = space.p_basis.T @ (sym + sym.T) @ space.p_basis
    consts = space.ambient.structure_constants + 1e-6 * np.einsum(
        "i,jk->ijk", space.h_basis[0], sym)
    return dataclasses.replace(space.ambient, structure_constants=consts)


@pytest.mark.parametrize("corrupt,message", [
    (lambda s: {"p_basis": 2 * s.p_basis}, "not orthonormal"),
    (lambda s: {"torus_generator": s.torus_generator + s.p_basis[0]},
     "torus_generator does not lie in h"),
    (lambda s: {"ambient": _non_skew_ambient(s)}, "skew maps"),
])
def test_space_built_in_code_with_invalid_bases_is_rejected(corrupt, message):
    space = catalog_build("berger7")
    with pytest.raises(CatalogError, match=message):
        dataclasses.replace(space, **corrupt(space))


def _builds():
    """Each n-family at n = 1-4 (its listing n among them), and every other
    entry at its listing parameters."""
    for label in catalog_labels():
        if list(listing_params(label)) == ["n"]:
            yield from ((label, {"n": n}) for n in range(1, 5))
        else:
            yield label, listing_params(label)


@pytest.mark.parametrize("label,params", list(_builds()))
def test_isotropy_actions_are_the_per_vector_products_bit_for_bit(label, params):
    # a batched ad_operator changes the last bits, and with them every
    # sample:K metric draw
    space = catalog_build(label, **params)
    p = space.p_basis
    reference = np.zeros((space.dim_h, space.dim_p, space.dim_p))
    for i, v in enumerate(space.h_basis):
        reference[i] = p @ (ad_operator(space.ambient, v) @ p.T)
    assert np.array_equal(space.isotropy_actions, reference)


def test_isotropy_actions_are_read_only_and_rebuilt_by_replace():
    space = catalog_build("berger7")
    acts = space.isotropy_actions
    with pytest.raises(ValueError, match="read-only"):
        acts[0, 0, 1] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        space.isotropy_actions = acts.copy()
    # a rotated p basis gives the rotated actions, not the stored ones
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((7, 7)))
    rotated = dataclasses.replace(space, p_basis=q.T @ space.p_basis)
    assert not rotated.isotropy_actions.flags.writeable
    assert np.allclose(rotated.isotropy_actions, q.T @ acts @ q, atol=1e-12)
    assert not np.allclose(rotated.isotropy_actions, acts, atol=1e-3)


def test_h_is_abelian_is_read_from_the_closure_bracket():
    for label in catalog_labels():
        space = catalog_build(label, **listing_params(label))
        hb = space.h_basis
        br = bracket(space.ambient, hb[:, None], hb[None])
        assert space.h_is_abelian is bool(np.max(np.abs(br), initial=0.0) < 1e-10)
    assert catalog_build("sphere-so", n=1).h_is_abelian      # dim h = 0
    berger = catalog_build("berger7")
    assert not berger.h_is_abelian
    with pytest.raises(dataclasses.FrozenInstanceError):
        berger.h_is_abelian = True


def test_make_space_rejects_non_finite_seed():
    alg = build_algebra("so", 5)
    e12 = np.zeros((5, 5), dtype=complex)
    e12[0, 1] = e12[1, 0] = np.nan
    with pytest.raises(CatalogError, match="does not lie in"):
        make_space("nan", alg, [e12])


def test_fixed_subalgebra_weyl_elements():
    space = catalog_build("wallach6")
    alg = space.ambient
    # 3-cycle permutation: no fixed torus directions
    cyc = np.zeros((3, 3), dtype=complex)
    cyc[1, 0] = cyc[2, 1] = cyc[0, 2] = 1
    g = group_element(alg, cyc)
    assert fixed_subalgebra_in_h(space, g).shape[0] == 0
    # transposition (det fixed up by a sign): one fixed direction
    swp = np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1]], dtype=complex)
    g2 = group_element(alg, swp)
    assert fixed_subalgebra_in_h(space, g2).shape[0] == 1


def test_fixed_subalgebra_rejects_non_normalizing():
    space = catalog_build("wallach6")
    c = 1 / np.sqrt(2.0)
    rot = np.array([[c, -c, 0], [c, c, 0], [0, 0, 1]], dtype=complex)
    g = group_element(space.ambient, rot)
    with pytest.raises(ValueError):
        fixed_subalgebra_in_h(space, g)


def test_restriction_names_what_leaks():
    space = catalog_build("wallach6")
    c = 1 / np.sqrt(2.0)
    rot = np.array([[c, -c, 0], [c, c, 0], [0, 0, 1]], dtype=complex)
    with pytest.raises(ValueError, match=r"^p is left \(leak \d\.\d{3}e[+-]\d+\)$"):
        restriction(group_element(space.ambient, rot), space.p_basis, "p is left")
    # a normalizing element restricts to an orthogonal map of p
    cyc = np.zeros((3, 3), dtype=complex)
    cyc[1, 0] = cyc[2, 1] = cyc[0, 2] = 1
    a = restriction(group_element(space.ambient, cyc), space.p_basis, "p is left")
    assert np.allclose(a.T @ a, np.eye(space.dim_p), atol=1e-12)
