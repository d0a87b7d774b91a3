"""Tests for invariant metric constructors."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homcurv import catalog_build, group_element
from homcurv.algebra import quaternion_to_complex
from homcurv.curvature import Curvature
from homcurv.isotypic import decompose
from homcurv.metrics import (
    conjugate_metric,
    diagonal_metric,
    equivariance_residual,
    metric_from_spec,
    metric_sampler,
    normal_metric,
    sample_metric,
    validate_metric,
)
from homcurv.serialize import atomic_write_json, metric_document


def test_normal_metric():
    space = catalog_build("berger7")
    g = normal_metric(space)
    assert np.array_equal(g, np.eye(7))
    validate_metric(space, g)


def test_diagonal_metric_eigenvalues():
    space = catalog_build("wallach6")
    dec = decompose(space)
    g = diagonal_metric(dec, [1.0, 2.0, 3.0])
    validate_metric(space, g)
    assert np.allclose(np.sort(np.linalg.eigvalsh(g)),
                       [1, 1, 2, 2, 3, 3], atol=1e-12)


def test_diagonal_metric_rejects_bad_scales():
    dec = decompose(catalog_build("wallach6"))
    with pytest.raises(ValueError):
        diagonal_metric(dec, [1.0, 2.0])
    with pytest.raises(ValueError):
        diagonal_metric(dec, [1.0, -2.0, 3.0])


def test_sample_metric_seeded():
    space = catalog_build("sp2circle", p=3, q=1)
    g1 = sample_metric(space, seed=7)
    g2 = sample_metric(space, seed=7)
    g3 = sample_metric(space, seed=8)
    assert np.array_equal(g1, g2)
    assert not np.allclose(g1, g3)
    validate_metric(space, g1)
    assert np.linalg.eigvalsh(g1)[0] >= 0.1 - 1e-12


def test_sampler_draws_are_the_sampled_metrics_bit_for_bit():
    from homcurv.isotypic import symmetric_commutant_basis
    from homcurv.numerics import rng_from
    from homcurv.spaces import catalog_labels, listing_params
    for label in catalog_labels():
        space = catalog_build(label, **listing_params(label))
        comm = symmetric_commutant_basis(space)
        draw = metric_sampler(space)
        for seed in range(30):
            # a standard normal combination of the commutant basis, shifted
            # so the smallest eigenvalue is at least 0.1
            g = np.einsum("c,cij->ij",
                          rng_from(seed).standard_normal(len(comm)), comm)
            g = g + (abs(np.linalg.eigvalsh(g)[0]) + 0.1) * np.eye(space.dim_p)
            assert draw(seed).tobytes() == g.tobytes(), (label, seed)
            assert sample_metric(space, seed).tobytes() == g.tobytes()


# eigvalsh(sample_metric(space, 0)) as built by the dense Gram-Schmidt and a
# direct SVD of the commutant matrix; a rotated commutant basis moves them
SAMPLE0_SPECTRA = {
    "berger13": [0.1] * 5 + [0.177274252097596] * 8,
    "sp3mix": ([0.1] + [0.6732138126387] * 3 + [1.058663921244121] * 3
               + [1.313024711691883] * 4 + [1.484606260695711] * 4),
    "wallach12": [0.1] * 4 + [0.2213460038573207] * 4 + [0.469088807307988] * 4,
    "w11": [0.1] * 3 + [0.2388394149091572] * 4,
}


@pytest.mark.parametrize("label", sorted(SAMPLE0_SPECTRA))
def test_sample_metric_spectrum_is_pinned(label):
    from homcurv.spaces import listing_params
    space = catalog_build(label, **listing_params(label))
    vals = np.linalg.eigvalsh(sample_metric(space, 0))
    assert np.allclose(vals, SAMPLE0_SPECTRA[label], rtol=0, atol=1e-12)


def test_validate_metric_reports_the_condition_number():
    space = catalog_build("wallach6")
    dec = decompose(space)
    report = validate_metric(space, diagonal_metric(dec, [1.0, 4.0, 0.5]))
    assert report["min_eigenvalue"] == pytest.approx(0.5)
    assert report["max_eigenvalue"] == pytest.approx(4.0)
    assert report["condition_number"] == pytest.approx(8.0)
    assert validate_metric(space, normal_metric(space))["condition_number"] == 1.0


def test_sample_metric_spans_cone():
    # 50 seeded draws all valid, across two spaces
    for label, kw in [("stiefel", {}), ("s3s3circle", {"p": 2, "q": 1})]:
        space = catalog_build(label, **kw)
        for seed in range(50):
            validate_metric(space, sample_metric(space, seed=seed))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_validate_rejects_non_finite_entries(bad):
    space = catalog_build("berger7")
    g = np.eye(7)
    g[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        validate_metric(space, g)


@pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e8, 1e12])
def test_the_metric_test_is_relative_to_the_scale(scale):
    # G and λG pass or fail together, in validate_metric and in Curvature,
    # which runs it
    for label in ("berger7", "stiefel", "sp3mix"):
        space = catalog_build(label)
        for seed in range(5):
            g = scale * sample_metric(space, seed=seed)
            validate_metric(space, g)
            Curvature(space, g)
    space = catalog_build("berger7")
    for check in (validate_metric, Curvature):
        with pytest.raises(ValueError, match="does not commute"):
            check(space, scale * np.diag(np.arange(1.0, 8.0)))


def test_equivariance_residual_flags_generic_symmetric():
    space = catalog_build("sp2circle", p=3, q=1)
    rng = np.random.default_rng(3)
    s = rng.standard_normal((9, 9))
    s = s + s.T + 10 * np.eye(9)
    assert equivariance_residual(space, s) > 1e-3
    with pytest.raises(ValueError):
        validate_metric(space, s)


def test_validate_rejects_indefinite():
    space = catalog_build("wallach6")
    dec = decompose(space)
    g = diagonal_metric(dec, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        validate_metric(space, g - 1.5 * np.eye(6))


def test_conjugate_metric_by_weyl_element():
    space = catalog_build("wallach6")
    dec = decompose(space)
    g = diagonal_metric(dec, [1.0, 2.0, 3.0])
    swp = np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1]], dtype=complex)
    w = group_element(space.ambient, swp)
    gc = conjugate_metric(space, g, w)
    validate_metric(space, gc)
    # a transposition permutes two root-space scales
    assert np.allclose(np.sort(np.linalg.eigvalsh(gc)),
                       [1, 1, 2, 2, 3, 3], atol=1e-10)
    assert not np.allclose(gc, g)
    # conjugating twice restores the metric
    assert np.allclose(conjugate_metric(space, gc, w), g, atol=1e-10)


def test_conjugate_metric_fixes_normal():
    space = catalog_build("wallach6")
    cyc = np.zeros((3, 3), dtype=complex)
    cyc[1, 0] = cyc[2, 1] = cyc[0, 2] = 1
    g = conjugate_metric(space, normal_metric(space),
                         group_element(space.ambient, cyc))
    assert np.allclose(g, np.eye(6), atol=1e-12)


def test_conjugate_metric_rejects_non_normalizing():
    space = catalog_build("wallach6")
    c = 1 / np.sqrt(2.0)
    rot = np.array([[c, -c, 0], [c, c, 0], [0, 0, 1]], dtype=complex)
    g = group_element(space.ambient, rot)
    with pytest.raises(ValueError):
        conjugate_metric(space, normal_metric(space), g)


def test_metric_from_spec_matches_the_constructors(tmp_path):
    space = catalog_build("wallach6")
    assert np.array_equal(metric_from_spec(space, "normal"), normal_metric(space))
    assert np.array_equal(metric_from_spec(space, "sample:4"),
                          sample_metric(space, seed=4))
    assert np.array_equal(metric_from_spec(space, "diag:1,2,0.5"),
                          diagonal_metric(decompose(space), (1.0, 2.0, 0.5)))
    g = sample_metric(space, seed=4)
    path = tmp_path / "g.json"
    atomic_write_json(str(path), metric_document(
        space, g, validate_metric(space, g), provenance="sample:4"))
    assert np.array_equal(metric_from_spec(space, f"file:{path}"), g)


@pytest.mark.parametrize("spec,message", [
    ("diag:1,x,2", "bad diagonal metric spec"),
    ("diag:1,2", "one scale per component"),
    ("diag:1,-2,3", "positive"),
    ("diag:1,nan,2", "finite"),
    ("diag:1,inf,2", "finite"),
    ("sample:two", "bad sample metric spec"),
    ("sample:-1", "bad sample metric spec"),
    ("file:g.json", "cannot read metric from g.json"),
    ("file:{tmp}/scaled.json", "metric in .*scaled.json is invalid"),
    ("round", "unknown metric spec"),
])
def test_metric_from_spec_rejects_bad_specs(spec, message, tmp_path):
    # positive definite, but no isotropy action commutes with it
    scaled = np.diag(np.arange(1.0, 7.0)).tolist()
    (tmp_path / "scaled.json").write_text(json.dumps({"matrix": scaled}))
    with pytest.raises(ValueError, match=message):
        metric_from_spec(catalog_build("wallach6"), spec.format(tmp=tmp_path))


def _normalizing_elements():
    """(label, params, matrix) of elements normalizing the isotropy subgroup."""
    swp = np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1]], dtype=complex)
    cyc = np.zeros((3, 3), dtype=complex)
    cyc[1, 0] = cyc[2, 1] = cyc[0, 2] = 1
    phase = np.exp(0.7j)
    return [
        ("wallach6", {}, swp),
        ("wallach6", {}, cyc),
        ("sp2circle", {"p": 3, "q": 1},
         quaternion_to_complex(np.zeros((2, 2)), np.eye(2))),
        ("sp2circle", {"p": 3, "q": 1},
         np.diag([phase, phase, phase.conjugate(), phase.conjugate()])),
    ]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.integers(0, 3), metric_seed=st.integers(0, 10_000),
       plane_seed=st.integers(0, 2**32 - 1))
def test_pullback_by_a_normalizer_keeps_sectional_curvature(case, metric_seed,
                                                            plane_seed):
    # Ad_g is an automorphism preserving h, so with A its action on p the
    # pulled-back metric A G Aᵀ sees the plane (x, y) as G sees (Aᵀx, Aᵀy)
    label, params, mat = _normalizing_elements()[case]
    space = catalog_build(label, **params)
    g = sample_metric(space, seed=metric_seed)
    elem = group_element(space.ambient, mat)
    a = space.p_basis @ elem @ space.p_basis.T
    x, y = np.random.default_rng(plane_seed).standard_normal((2, space.dim_p))
    pulled = Curvature(space, conjugate_metric(space, g, elem)).sectional(x, y)
    ref = Curvature(space, g).sectional(a.T @ x, a.T @ y)
    assert abs(pulled - ref) <= 1e-10 * abs(ref)
