"""Tests for the sectional curvature evaluator."""
import functools
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from homcurv import bracket, catalog_build, coords_of
from homcurv.curvature import NOISE_BAND, Curvature, b_plus, pair_tables
from homcurv.curvature import four_term_numerator as batched_numerator
from homcurv.isotypic import decompose
from homcurv.metrics import (
    diagonal_metric,
    metric_from_spec,
    normal_metric,
    sample_metric,
)
from homcurv.spaces import catalog_labels, listing_params

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def four_term_numerator(space, metric, x, y):
    """Per-plane oracle: the four bracket terms of the curvature numerator."""
    p, gi = space.p_basis, np.linalg.inv(metric)

    def br(a, b):
        return bracket(space.ambient, a, b)

    def g(a):                                   # metric as an ambient operator on p
        return p.T @ (metric @ (p @ a))

    def g_inv(a):
        return p.T @ (gi @ (p @ a))

    xa, ya = p.T @ x, p.T @ y
    gx, gy = g(xa), g(ya)
    c = br(xa, ya)
    b_minus = 0.5 * (br(xa, gy) + br(gx, ya))
    b_pl = 0.5 * (br(xa, gy) - br(gx, ya))
    return float(b_minus @ c - 0.75 * c @ g(c) + b_pl @ g_inv(b_pl)
                 - br(xa, gx) @ g_inv(br(ya, gy)))


@functools.cache
def _sampled(label):
    space = catalog_build(label, **listing_params(label))
    return space, Curvature(space, sample_metric(space, seed=3))


def _plane(dim, seed):
    return np.random.default_rng(seed).standard_normal((2, dim))


@pytest.mark.parametrize("label", catalog_labels())
def test_operator_matches_four_term_oracle(label):
    space = catalog_build(label, **listing_params(label))
    rng = np.random.default_rng(404)
    for metric in (normal_metric(space), sample_metric(space, seed=3)):
        cv = Curvature(space, metric)
        xs, ys = rng.standard_normal((2, 10, space.dim_p))
        batch = batched_numerator(space, metric, np.linalg.inv(metric), xs, ys)
        assert batch.shape == (10,)
        for x, y, got in zip(xs, ys, batch):
            ref = four_term_numerator(space, metric, x, y)
            assert abs(cv.numerator(x, y) - ref) <= 1e-12 * max(1.0, abs(ref))
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))



def tensor_operator(space, metric, basis):
    """Oracle: R̂ from the full tensor R[a, b, c, d] over all n⁴ index tuples,
    with the three bracket sets taken pair by pair, restricted to a < b, c < d."""
    n, p, gi = space.dim_p, space.p_basis, np.linalg.inv(metric)
    e, ge = basis @ p, basis @ metric.T @ p
    br, br_g, g_br = (bracket(space.ambient, u[:, None], v[None]).reshape(n * n, -1)
                      for u, v in ((e, e), (e, ge), (ge, e)))
    br_p, bp, br_g_p = br @ p.T, 0.5 * (br_g - g_br) @ p.T, br_g @ p.T
    mixed = (0.5 * (br_g + g_br) @ br.T - 0.75 * br_p @ metric @ br_p.T
             + bp @ gi @ bp.T)
    split = br_g_p @ gi @ br_g_p.T
    s = mixed.reshape(n, n, n, n).transpose(0, 2, 1, 3) - split.reshape(n, n, n, n)
    s = 0.5 * (s + s.transpose(1, 0, 2, 3))
    s = 0.5 * (s + s.transpose(0, 1, 3, 2))
    r = (2.0 / 3.0) * (np.einsum("acdb->abcd", s) - np.einsum("adcb->abcd", s))
    i, j = np.triu_indices(n, 1)
    op = r[i, j][:, i, j]
    return 0.5 * (op + op.T)


@pytest.mark.parametrize("label", catalog_labels())
def test_operator_matches_the_tensor_assembly(label):
    space = catalog_build(label, **listing_params(label))
    for metric in (normal_metric(space), sample_metric(space, seed=3)):
        cv = Curvature(space, metric)
        ref = tensor_operator(space, metric, cv.basis)
        assert np.abs(cv.operator - ref).max() <= 1e-13 * np.linalg.norm(ref)


def test_plane_forms_of_one_dimension_share_read_only_pair_tables():
    space = catalog_build("berger7")
    berger = Curvature(space, normal_metric(space))
    w11 = _sampled("w11")[1]
    i, j, wedge = pair_tables(7)
    assert berger._wedge_map is w11._wedge_map is wedge
    assert len(i) == len(j) == wedge.shape[1] == 21 and np.all(i < j)
    for table in (i, j, wedge):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


@pytest.mark.parametrize("label", ["berger7", "stiefel", "sp3mix"])
def test_jacobi_operator_is_the_numerator_in_y(label):
    space, cv = _sampled(label)
    xs, ys = np.random.default_rng(17).standard_normal((2, 10, space.dim_p))
    # J_x acts on the coordinates x′ = Lᵀx of G = LLᵀ; numerator takes p's
    xn, yn = xs @ cv.factor, ys @ cv.factor
    jac = cv.jacobi_operator(xn)
    assert jac.shape == (10, space.dim_p, space.dim_p)
    ref = cv.numerator(xs, ys)
    got = np.einsum("ri,rij,rj->r", yn, jac, yn)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    # x ∧ x = 0, so x is in the kernel of its own Jacobi operator
    scale = np.linalg.norm(jac, axis=(1, 2)) * np.linalg.norm(xn, axis=1)
    assert np.all(np.linalg.norm(np.einsum("rij,rj->ri", jac, xn), axis=1)
                  <= 1e-12 * scale)
    # one x without a batch axis gives one matrix
    np.testing.assert_allclose(cv.jacobi_operator(xn[3]), jac[3],
                               rtol=1e-12, atol=1e-12 * np.abs(jac[3]).max())
    # an empty batch gives no matrices
    assert cv.jacobi_operator(xn[:0]).shape == (0, space.dim_p, space.dim_p)


@pytest.mark.parametrize("label,spec,moving", [
    # berger7 is isotropy irreducible: every axis has a partner at the
    # minimum, and the lowest value through an axis is constant
    ("berger7", "sample:3", False),
    ("w11", "normal", True),
    ("sp3mix", "sample:2", True),
])
def test_lowest_plane_gradient_is_the_derivative_on_the_sphere(label, spec,
                                                               moving):
    # f(c), the lowest plane value through the axis c / |c|, against central
    # differences along the great circles through unit axes
    space = catalog_build(label, **listing_params(label))
    cv = Curvature(space, metric_from_spec(space, spec))
    rng = np.random.default_rng(23)
    c, d = rng.standard_normal((2, 6, space.dim_p))
    c /= np.linalg.norm(c, axis=1)[:, None]
    d -= np.vecdot(d, c)[:, None] * c
    d /= np.linalg.norm(d, axis=1)[:, None]
    _, f, grad, _ = cv.lowest_planes(c)
    scale = np.linalg.norm(cv.operator)
    # f does not change along the axis, so its gradient is tangent
    assert np.all(np.abs(np.vecdot(grad, c)) <= 1e-12 * scale)
    h = 1e-5
    slope = (cv.lowest_planes(c + h * d)[1]
             - cv.lowest_planes(c - h * d)[1]) / (2 * h)
    np.testing.assert_allclose(slope, np.vecdot(grad, d), rtol=0,
                               atol=1e-6 * scale)
    assert (np.abs(np.vecdot(grad, d)).max() > 1e-3 * scale) == moving


@pytest.mark.parametrize("label,metric", [
    ("berger7", lambda s: 0.5 * normal_metric(s)),
    ("berger7", lambda s: sample_metric(s, seed=3)),
    ("wallach6", lambda s: diagonal_metric(decompose(s), (1.0, 1.0, 0.5))),
    ("aloffwallach-su3", lambda s: diagonal_metric(decompose(s), (0.3, 1.0))),
    ("stiefel", lambda s: sample_metric(s, seed=0)),
    ("sp3mix", lambda s: 1e3 * sample_metric(s, seed=2)),
])
def test_sectional_is_a_rayleigh_quotient_of_the_operator(label, metric):
    # the operator acts on G-orthonormal coordinates, where the Gram
    # determinant of a plane is |x′ ∧ y′|²; the operator on p-coordinates
    # would fail this: for berger7 at 0.5 · normal its largest eigenvalue is
    # 1.325, and these planes reach 2.81
    space = catalog_build(label, **listing_params(label))
    cv = Curvature(space, metric(space))
    lo, hi = np.linalg.eigvalsh(cv.operator)[[0, -1]]
    x, y = np.random.default_rng(8).standard_normal((2, 200, space.dim_p))
    sec = cv.sectional(x, y)
    tol = 1e-12 * max(abs(lo), abs(hi))
    assert np.all(sec >= lo - tol) and np.all(sec <= hi + tol)


@PROPERTY_SETTINGS
@given(label=st.sampled_from(catalog_labels()), seed=st.integers(0, 2**32 - 1),
       a=st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4))
def test_sectional_ignores_plane_basis(label, seed, a):
    space, cv = _sampled(label)
    (p, q), (r, s) = a[:2], a[2:]
    det = p * s - q * r
    assume(abs(det) >= 0.1 * max(1.0, max(abs(t) for t in a)) ** 2)
    x, y = _plane(space.dim_p, seed)
    ref = cv.sectional(x, y)
    val = cv.sectional(p * x + q * y, r * x + s * y)
    assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))


@PROPERTY_SETTINGS
@given(label=st.sampled_from(catalog_labels()), seed=st.integers(0, 2**32 - 1),
       lam=st.floats(1e-3, 1e3))
def test_scaling_metric_scales_sectional_inversely(label, seed, lam):
    space, cv = _sampled(label)
    scaled = Curvature(space, lam * cv.gm)
    x, y = _plane(space.dim_p, seed)
    ref = cv.sectional(x, y) / lam
    assert abs(scaled.sectional(x, y) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_round_sphere_is_half():
    space = catalog_build("sphere-so", n=4)
    cv = Curvature(space, normal_metric(space))
    rng = np.random.default_rng(101)
    for _ in range(200):
        x, y = rng.standard_normal((2, 4))
        assert abs(cv.sectional(x, y) - 0.5) < 1e-8


def test_identity_metric_reduction():
    # numerator at G = Id equals |c_h|^2 + |c_p|^2 / 4
    rng = np.random.default_rng(55)
    for label, kw in [("berger7", {}), ("wallach6", {}),
                      ("sp2circle", {"p": 3, "q": 1})]:
        space = catalog_build(label, **kw)
        cv = Curvature(space, normal_metric(space))
        for _ in range(30):
            x, y = rng.standard_normal((2, space.dim_p))
            c = bracket(space.ambient, space.p_embed(x), space.p_embed(y))
            cp = space.p_basis.T @ (space.p_basis @ c)
            ch = c - cp
            ref = ch @ ch + 0.25 * cp @ cp
            assert abs(cv.numerator(x, y) - ref) < 1e-10


def test_b_plus_lies_in_p_and_is_symmetric():
    rng = np.random.default_rng(23)
    for label, kw in [("stiefel", {}), ("wallach6", {}),
                      ("s3s3circle", {"p": 2, "q": 1})]:
        space = catalog_build(label, **kw)
        g = sample_metric(space, seed=2)
        for _ in range(20):
            x, y = rng.standard_normal((2, space.dim_p))
            v = b_plus(space, g, x, y)
            assert np.linalg.norm(v - space.p_basis.T @ (space.p_basis @ v)) < 1e-9
            assert np.allclose(v, b_plus(space, g, y, x), atol=1e-10)


def test_b_plus_vanishes_for_normal_metric():
    space = catalog_build("wallach6")
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((2, 6))
    assert np.max(np.abs(b_plus(space, normal_metric(space), x, y))) < 1e-12


def test_numerator_symmetry_and_scaling():
    space = catalog_build("sp2circle", p=3, q=1)
    cv = Curvature(space, sample_metric(space, seed=9))
    rng = np.random.default_rng(71)
    x, y = rng.standard_normal((2, 9))
    f = cv.numerator(x, y)
    assert abs(cv.numerator(y, x) - f) < 1e-10
    assert abs(cv.numerator(2 * x, 3 * y) - 36 * f) < 1e-8


def test_sectional_depends_only_on_plane():
    space = catalog_build("sp2circle", p=3, q=1)
    cv = Curvature(space, sample_metric(space, seed=9))
    rng = np.random.default_rng(72)
    x, y = rng.standard_normal((2, 9))
    s = cv.sectional(x, y)
    assert abs(cv.sectional(x, y + 0.3 * x) - s) < 1e-9
    assert abs(cv.sectional(-2.0 * x, y - x) - s) < 1e-9
    assert abs(cv.sectional(y, x) - s) < 1e-9


def _flag_flat_plane(space):
    # circulant rotation and its symmetric partner commute and avoid h
    perm = np.zeros((3, 3), dtype=complex)
    perm[1, 0] = perm[2, 1] = perm[0, 2] = 1
    x_amb = coords_of(space.ambient, perm - perm.T)
    w_amb = coords_of(space.ambient, 1j * (perm + perm.T))
    return x_amb, space.p_coords(x_amb), space.p_coords(w_amb)


def test_flat_plane_in_flag_normal_metric():
    space = catalog_build("wallach6")
    x_amb, x, w = _flag_flat_plane(space)
    assert np.linalg.norm(space.h_basis @ x_amb) < 1e-12
    cv = Curvature(space, normal_metric(space))
    assert abs(cv.sectional(x, w)) < 1e-12


@functools.cache
def _flag_normal():
    space = catalog_build("wallach6")
    return space, Curvature(space, normal_metric(space))


@PROPERTY_SETTINGS
@given(label=st.sampled_from(catalog_labels() + ["flag-near-flat",
                                                 "flag-near-flat-2d"]),
       seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6))
@example(label="flag-near-flat", seed=0, rows=5)
@example(label="flag-near-flat-2d", seed=0, rows=4)
def test_batch_matches_per_plane(label, seed, rows):
    rng = np.random.default_rng(seed)
    if label.startswith("flag-near-flat"):
        # planes 1e-6 from the flag manifold's flat plane, inside the noise
        # band, mixed with random planes; "-2d" lays them out as rows x 3
        space, cv = _flag_normal()
        _, x0, w0 = _flag_flat_plane(space)
        lead = (rows, 3) if label.endswith("2d") else (rows,)
        x, y = rng.standard_normal((2, *lead, space.dim_p))
        near = rng.random(lead) < 0.5
        near.flat[0] = True
        x[near] = x0 + 1e-6 * rng.standard_normal((near.sum(), space.dim_p))
        y[near] = w0 + 1e-6 * rng.standard_normal((near.sum(), space.dim_p))
        wedge2 = (x * x).sum(-1) * (y * y).sum(-1) - (x * y).sum(-1) ** 2
        band = NOISE_BAND * np.linalg.norm(cv.operator) * wedge2
        num = cv.numerator(x, y)
        assert num.shape == lead
        assert np.all(np.abs(num[near]) <= band[near])
        for k in zip(*np.nonzero(near)):
            ref = four_term_numerator(space, cv.gm, x[k], y[k])
            assert abs(num[k] - ref) <= 1e-8 * abs(ref)
    else:
        space, cv = _sampled(label)
        x, y = rng.standard_normal((2, rows, space.dim_p))
    sec, gx, gy = cv.sectional_gradient(x, y)
    assert np.array_equal(cv.sectional(x, y), sec)
    for k in np.ndindex(sec.shape):
        ref, rx, ry = cv.sectional_gradient(x[k], y[k])
        assert abs(sec[k] - ref) <= 1e-12 * abs(ref)
        scale = max(1.0, np.max(np.abs(rx)), np.max(np.abs(ry)))
        assert np.max(np.abs(gx[k] - rx)) <= 1e-12 * scale
        assert np.max(np.abs(gy[k] - ry)) <= 1e-12 * scale
        assert cv.numerator(x[k], y[k]) == pytest.approx(
            cv.numerator(x, y)[k], rel=1e-12, abs=0.0)


def test_values_near_flat_plane_keep_relative_accuracy():
    # wᵀMw alone has an absolute rounding floor near 1e-16 |M|; planes this
    # close to flat have numerators near 1e-12 and must not drown in it
    space = catalog_build("wallach6")
    _, x, w = _flag_flat_plane(space)
    rng = np.random.default_rng(31)
    for metric in (normal_metric(space), np.eye(6) * 2.5):
        cv = Curvature(space, metric)
        for _ in range(5):
            dx, dw = 1e-6 * rng.standard_normal((2, 6))
            ref = four_term_numerator(space, metric, x + dx, w + dw)
            assert abs(cv.numerator(x + dx, w + dw) - ref) <= 1e-8 * abs(ref)
            sec = cv.sectional_gradient(x + dx, w + dw)[0]
            assert abs(sec * cv.gram(x + dx, w + dw) - ref) <= 1e-8 * abs(ref)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    h = 1e-6
    for label, kw in [("wallach6", {}), ("sp2circle", {"p": 3, "q": 1})]:
        space = catalog_build(label, **kw)
        n = space.dim_p
        cv = Curvature(space, sample_metric(space, seed=4))
        for _ in range(3):
            x, y = rng.standard_normal((2, n))
            sec, sx, sy = cv.sectional_gradient(x, y)
            for k in range(n):
                e = np.zeros(n)
                e[k] = h
                ref = (cv.sectional(x + e, y) - cv.sectional(x - e, y)) / (2 * h)
                assert abs(sx[k] - ref) <= 1e-5 * max(1.0, abs(ref))
                ref = (cv.sectional(x, y + e) - cv.sectional(x, y - e)) / (2 * h)
                assert abs(sy[k] - ref) <= 1e-5 * max(1.0, abs(ref))


def test_rejects_degenerate_plane():
    space = catalog_build("wallach6")
    cv = Curvature(space, normal_metric(space))
    x = np.ones(6)
    with pytest.raises(ValueError):
        cv.sectional(x, 2 * x)


def test_tiny_plane_vectors_are_not_degenerate():
    # the dependence test is relative to |x|_G |y|_G, not an absolute cut-off
    space = catalog_build("berger7")
    cv = Curvature(space, normal_metric(space))
    x, y = _plane(7, 8)
    sec, sx, sy = cv.sectional_gradient(x, y)
    tiny = 1e-4
    assert abs(cv.sectional(tiny * x, tiny * y) - sec) < 1e-12
    tsec, tx, ty = cv.sectional_gradient(tiny * x, tiny * y)
    assert abs(tsec - sec) < 1e-12
    assert np.allclose(tiny * tx, sx, rtol=1e-10, atol=1e-12)
    assert np.allclose(tiny * ty, sy, rtol=1e-10, atol=1e-12)


def test_rejects_invalid_metric():
    space = catalog_build("berger7")
    with pytest.raises(ValueError, match="positive definite"):
        Curvature(space, np.diag([-1.0] + [1.0] * 6))
    asym = np.eye(7)
    asym[0, 1] = 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        Curvature(space, asym)


def test_rejects_wrong_metric_shape():
    space = catalog_build("wallach6")
    with pytest.raises(ValueError):
        Curvature(space, np.eye(5))


@pytest.mark.parametrize("scale, message", [
    (1e200, "Gram determinant of the plane vectors overflows; scale them down"),
    (1e-200, "Gram determinant of the plane vectors underflows; scale them up"),
    (np.nan, "plane vectors have non-finite entries"),
])
@pytest.mark.parametrize("planes", [None, 3])
def test_sectional_rejects_planes_out_of_scale_without_warnings(
        scale, message, planes):
    # the dependence test would misreport such planes: an overflowed Gram
    # determinant is not finite, and an underflowed bound rejects
    # independent vectors
    space = catalog_build("berger7")
    cv = Curvature(space, np.eye(space.dim_p))
    shape = (2, space.dim_p) if planes is None else (2, planes, space.dim_p)
    x, y = np.random.default_rng(11).standard_normal(shape)
    assert np.all(cv.sectional(x, y) > 0)
    if planes is None:
        x, y = scale * x, scale * y
    else:
        x[1], y[1] = scale * x[1], scale * y[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (cv.sectional, cv.sectional_gradient):
            with pytest.raises(ValueError, match=message):
                evaluate(x, y)
