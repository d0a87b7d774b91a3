"""Tests for the obstruction witnesses."""
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg

import homcurv.curvature as curvature
import homcurv.obstructions as obs
from homcurv import bracket, build_algebra, catalog_build, make_space
from homcurv.curvature import Curvature
from homcurv.metrics import normal_metric, sample_metric, validate_metric
from homcurv.numerics import ClusterError, cluster_values
from homcurv.obstructions import (
    ACCEPT,
    REJECT,
    commuting_witness,
    min_eigenvalue_witness,
    rank_parity_check,
    symmetrize_sp2_31,
)


def test_commuting_witness_on_product_quotient():
    space = catalog_build("s3s3circle", p=2, q=1)
    for seed in range(5):
        g = sample_metric(space, seed=seed)
        w = commuting_witness(space, g, seed=seed)
        assert w.found
        assert w.kind == "commuting"
        assert w.objective < 1e-9
        # witness vectors are metric eigenvectors
        for v in (w.x, w.y):
            lam = v @ g @ v
            assert np.linalg.norm(g @ v - lam * v) < 1e-6
        # and span a plane with vanishing numerator
        assert abs(w.numerator) < 1e-8


def test_commuting_witness_absent_on_positive_space():
    space = catalog_build("berger7")
    w = commuting_witness(space, normal_metric(space))
    assert not w.found
    assert w.objective > 1e-6
    assert "32" in w.message


def test_min_eigenvalue_witness_on_stiefel():
    space = catalog_build("stiefel")
    for seed in range(5):
        g = sample_metric(space, seed=seed)
        w = min_eigenvalue_witness(space, g, seed=seed)
        assert w.found
        assert w.kind == "min-eigenvalue"
        assert w.numerator <= 1e-10
        # x sits in the bottom eigenspace
        lam = np.linalg.eigvalsh(g)[0]
        assert np.linalg.norm(g @ w.x - lam * w.x) < 1e-6
        # y is the inverse-metric image of a commuting partner
        z = g @ w.y
        from homcurv import bracket
        c = bracket(space.ambient, space.p_embed(w.x), space.p_embed(z))
        assert np.linalg.norm(c) / np.linalg.norm(z) < 1e-5


def test_two_dimensional_bottom_eigenspace_needs_no_search(monkeypatch):
    # every vector of stiefel's bottom eigenspace has a commuting partner,
    # which the exact decision of a basis vector's (v, v^⊥) block finds
    # without the plane search
    import homcurv.obstructions as obs
    space = catalog_build("stiefel")
    g = sample_metric(space, seed=3)
    assert obs._metric_eigenspaces(g)[0][1].shape[0] == 2

    def no_search(*args):
        raise AssertionError("plane search ran")

    monkeypatch.setattr(obs, "_search_planes", no_search)
    w = min_eigenvalue_witness(space, g, seed=3)
    assert w.found and w.numerator <= 1e-10
    assert w.objective < 1e-16


@pytest.mark.parametrize("shape", ["orthogonal", "same", "all of p"])
def test_search_partner_is_the_lowest_plane_in_each_block_shape(shape):
    # the witness blocks put the partner in a span orthogonal to the axis's,
    # in the axis's own span, or in all of p; in each the partner is the
    # lowest plane of the commutator form through the axis with y in that
    # span, and the gradient is the derivative along the axis's sphere
    space = catalog_build("sp3mix")
    form, n = obs._commutator_form(space), space.dim_p
    rng = np.random.default_rng(31)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0].T
    bx = q[:4]
    by = {"orthogonal": q[4:9], "same": bx, "all of p": np.eye(n)}[shape]
    c, d = rng.standard_normal((2, 5, 4))
    axes, vals, grad, ys = form.lowest_planes(c, bx, by)
    for coef, val, y in zip(axes, vals, ys):
        x = coef @ bx
        assert np.linalg.norm(y - (y @ by.T) @ by) <= 1e-12
        assert abs(y @ y - 1.0) <= 1e-12 and abs(x @ y) <= 1e-12
        assert val == pytest.approx(_flat_ratio(space, x, y), rel=1e-10)
        # the lowest eigenvalue of J_x on span by ∩ x⊥
        rest = scipy.linalg.orth((by - np.outer(by @ x, x)).T).T
        lowest = np.linalg.eigvalsh(rest @ form.jacobi_operator(x) @ rest.T)[0]
        assert abs(val - lowest) <= 1e-12 * max(1.0, abs(lowest))
    d -= np.vecdot(d, axes)[:, None] * axes
    h = 1e-5
    slope = (form.lowest_planes(axes + h * d, bx, by)[1]
             - form.lowest_planes(axes - h * d, bx, by)[1]) / (2 * h)
    np.testing.assert_allclose(slope, np.vecdot(grad, d), rtol=0, atol=1e-6)


def test_min_eigenvalue_witness_absent_on_positive_space():
    space = catalog_build("berger7")
    w = min_eigenvalue_witness(space, normal_metric(space), starts=16)
    assert not w.found
    assert w.objective > 1e-6


@pytest.mark.parametrize("witness, name, count", [
    (commuting_witness, "starts", 0),
    (min_eigenvalue_witness, "starts", -3),
])
def test_witnesses_reject_counts_below_one(witness, name, count):
    # berger7's normal metric has one 7-dimensional eigenspace to search
    space = catalog_build("berger7")
    with pytest.raises(ValueError, match=f"at least 1 start .*got {count}$"):
        witness(space, normal_metric(space), **{name: count})


def test_one_dimensional_bottom_eigenspace_proves_absence(monkeypatch):
    # sphere-su n=2 at sample:0: E_0 is a line and ad_v has σ₂ ≈ 1.2 on v^⊥;
    # sphere-so n=1 and sphere-u n=0 have dim p = 1, so v^⊥ is empty and
    # holds no partner
    from homcurv.metrics import metric_from_spec
    monkeypatch.setattr(obs, "_search_planes", _no_search)
    for label, params, spec in [("sphere-su", {"n": 2}, "sample:0"),
                                ("sphere-so", {"n": 1}, "normal"),
                                ("sphere-u", {"n": 0}, "normal")]:
        space = catalog_build(label, **params)
        g = metric_from_spec(space, spec)
        assert obs._metric_eigenspaces(g)[0][1].shape[0] == 1
        w = min_eigenvalue_witness(space, g)
        assert not w.found and w.decided == "exact"
        assert w.objective >= REJECT


def test_undecided_basis_vector_block_is_searched(monkeypatch):
    from homcurv.metrics import metric_from_spec
    space = catalog_build("sphere-su", n=2)
    g = metric_from_spec(space, "sample:0")
    monkeypatch.setattr(obs, "_decide_block", lambda *args: (None, None))
    searched = []
    real = obs._search_planes

    def record(space_, bx, by, coeffs):
        searched.append((bx.shape, by.shape, coeffs.shape))
        return real(space_, bx, by, coeffs)

    monkeypatch.setattr(obs, "_search_planes", record)
    w = min_eigenvalue_witness(space, g, starts=4)
    n = space.dim_p
    # the axis is v itself, so one start's partner eigenproblem is the search
    assert searched == [((1, n), (n - 1, n), (1, 1))]
    assert not w.found and w.decided == "search"


def test_overlapping_block_is_searched_not_decided():
    # CP¹ is a round 2-sphere: E_0 = p, and the kernel of the bracket on
    # E_0 ⊗ p holds the degenerate pairs x ⊗ x, which must not be decided
    # as a witness
    import warnings
    space = catalog_build("cpn", n=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = min_eigenvalue_witness(space, normal_metric(space), starts=8)
    assert not w.found and w.decided == "search"


def test_witnesses_build_no_curvature_operator(monkeypatch):
    # a found witness plane's numerator comes from its four bracket terms
    def no_operator(*args):
        raise AssertionError("curvature operator built")

    monkeypatch.setattr(curvature, "curvature_operator", no_operator)
    space = catalog_build("berger7")
    g = normal_metric(space)
    assert not commuting_witness(space, g, starts=2).found
    assert not min_eigenvalue_witness(space, g, starts=2).found
    space = catalog_build("stiefel")
    g = sample_metric(space, seed=3)
    assert min_eigenvalue_witness(space, g, seed=3).found
    assert commuting_witness(catalog_build("wallach6"), np.eye(6)).found


def test_witness_numerator_matches_curvature():
    space = catalog_build("stiefel")
    g = sample_metric(space, seed=3)
    w = min_eigenvalue_witness(space, g, seed=3)
    assert w.found
    cv = Curvature(space, g)
    assert abs(cv.numerator(w.x, w.y) - w.numerator) < 1e-12


def test_rank_parity_catalog_consistent():
    for label, kw in [("berger7", {}), ("wallach6", {}), ("stiefel", {}),
                      ("sp2circle", {"p": 3, "q": 1}), ("sp3mix", {}),
                      ("sphere-so", {"n": 4})]:
        rp = rank_parity_check(catalog_build(label, **kw))
        assert rp.parity_consistent, label


def test_rank_parity_values():
    rp = rank_parity_check(catalog_build("berger7"))
    assert (rp.rank_ambient, rp.rank_isotropy, rp.difference) == (2, 1, 1)
    rp = rank_parity_check(catalog_build("wallach6"))
    assert (rp.rank_ambient, rp.rank_isotropy, rp.difference) == (2, 2, 0)


def test_rank_parity_flags_large_difference():
    alg = build_algebra("so", 6)
    m = np.zeros((6, 6), dtype=complex)
    m[0, 1], m[1, 0] = 1, -1
    space = make_space("so6-so2", alg, [m])
    rp = rank_parity_check(space)
    assert rp.difference == 2
    assert not rp.parity_consistent


def test_symmetrize_sp2_31():
    space = catalog_build("sp2circle", p=3, q=1)
    for seed in range(5):
        g = sample_metric(space, seed=seed)
        s = symmetrize_sp2_31(space, g)
        assert s.residual < 1e-8
        assert abs(s.det_involution + 1.0) < 1e-10
        validate_metric(space, s.metric)
        # spectrum is preserved by conjugation
        assert np.allclose(np.linalg.eigvalsh(s.metric),
                           np.linalg.eigvalsh(g), atol=1e-9)


def test_symmetrize_fixes_normal_metric():
    space = catalog_build("sp2circle", p=3, q=1)
    s = symmetrize_sp2_31(space, normal_metric(space))
    assert np.allclose(s.metric, np.eye(9), atol=1e-10)
    assert s.residual < 1e-12


def test_symmetrize_rejects_other_spaces():
    with pytest.raises(ValueError):
        symmetrize_sp2_31(catalog_build("stiefel"),
                          normal_metric(catalog_build("stiefel")))
    space = catalog_build("sp2circle", p=5, q=3)
    with pytest.raises(ValueError):
        symmetrize_sp2_31(space, normal_metric(space))


@pytest.mark.parametrize("label,params", [
    ("wallach6", {}), ("aloffwallach-u3", {"p": 1, "q": 1}), ("stiefel", {}),
    ("su3circle", {"p": 1, "q": 0})])
@pytest.mark.parametrize("scale", [1e-15, 1e-11, 1e-8, 1e8])
def test_witness_verdicts_do_not_depend_on_the_scale_of_g(label, params, scale):
    space = catalog_build(label, **params)
    for seed in (0, 1):
        g = sample_metric(space, seed=seed)
        for witness in (commuting_witness, min_eigenvalue_witness):
            ref, w = witness(space, g), witness(space, scale * g)
            assert (w.found, w.decided) == (ref.found, ref.decided), (seed, witness)


def test_symmetrize_phase_does_not_depend_on_the_scale_of_g():
    space = catalog_build("sp2circle", p=3, q=1)
    for seed in range(3):
        g = sample_metric(space, seed=seed)
        psi = symmetrize_sp2_31(space, g).psi
        assert -np.pi / 2 < psi <= np.pi / 2
        for scale in (1e-15, 1e8):
            s = symmetrize_sp2_31(space, scale * g)
            assert abs(s.psi - psi) <= 1e-12, (seed, scale)
            assert s.residual <= 1e-14 * scale


NO_SCIPY_OPTIMIZE = textwrap.dedent("""
    import sys
    import homcurv.cli, homcurv.acceptance
    assert "scipy.optimize" not in sys.modules, "loaded on import"
    from homcurv import catalog_build
    from homcurv.metrics import normal_metric, sample_metric
    from homcurv.obstructions import commuting_witness, min_eigenvalue_witness
    space = catalog_build("s3s3circle", p=2, q=1)
    w = commuting_witness(space, sample_metric(space, seed=0))
    assert w.found and w.objective < 1e-9 and w.decided == "exact", w.message
    assert "scipy.optimize" not in sys.modules, "loaded by an exact decision"
    # one 7-dimensional eigenspace: too large to decide exactly
    space = catalog_build("berger7")
    w = commuting_witness(space, normal_metric(space), starts=1)
    assert w.decided == "search", w.message
    assert "scipy.optimize" not in sys.modules, "loaded by a searched block"
    # the 7-dimensional bottom eigenspace has no basis vector with a partner
    w = min_eigenvalue_witness(space, normal_metric(space), starts=2)
    assert w.decided == "search", w.message
    assert "scipy.optimize" not in sys.modules, "loaded by the fallback"
""")


def test_no_witness_loads_scipy_optimize():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_OPTIMIZE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


# exact decisions of the commuting-eigenvector witness ------------------------

def _flat_ratio(space, x, y):
    c = bracket(space.ambient, space.p_embed(x), space.p_embed(y))
    return (c @ c) / ((x @ x) * (y @ y) - (x @ y) ** 2)


@pytest.mark.parametrize("label,params", [
    ("sp2circle", {"p": 3, "q": 1}), ("s3s3circle", {"p": 2, "q": 1}),
    ("stiefel", {})])
def test_exact_decisions_agree_with_the_search(monkeypatch, label, params):
    # the plane search over every block is the oracle
    space = catalog_build(label, **params)
    exact = []
    for seed in range(50):
        g = sample_metric(space, seed=seed)
        w = commuting_witness(space, g, starts=4)
        assert w.decided == "exact", (seed, w.message)
        if w.found:
            assert _flat_ratio(space, w.x, w.y) < ACCEPT
            assert abs(Curvature(space, g).sectional(w.x, w.y)) < 1e-9
        else:
            assert "proved empty" in w.message and w.objective >= REJECT
        exact.append(w.found)
    monkeypatch.setattr(obs, "_exact_block", lambda *args: None)
    search = [commuting_witness(space, sample_metric(space, seed=seed),
                                starts=4).found for seed in range(50)]
    assert exact == search


def _no_search(*args):
    raise AssertionError("plane search ran")


def test_documented_samples_need_no_search(monkeypatch):
    monkeypatch.setattr(obs, "_search_planes", _no_search)
    space = catalog_build("sp2circle", p=3, q=1)
    w = commuting_witness(space, sample_metric(space, seed=1))
    assert not w.found and w.decided == "exact"
    assert "proved empty" in w.message
    space = catalog_build("s3s3circle", p=2, q=1)
    w = commuting_witness(space, sample_metric(space, seed=0))
    assert w.found and w.decided == "exact"


def _unit(rows):
    return np.array(rows, dtype=float) / np.sqrt(2.0)


def test_decide_block_cases():
    det, pf = obs._DET_2X2, obs._PFAFFIAN_4
    # no kernel: proved empty with the smallest singular value as the bound
    w, bound = obs._decide_block(np.diag([3.0, 2.0, 1.0, 0.5]), det)
    assert w is None and bound == pytest.approx(0.25)
    # one side of dimension 1: any kernel element is a pair
    block = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    w, bound = obs._decide_block(block, None)
    assert bound is None and np.linalg.norm(block @ w) < 1e-12
    # complex multiplication on 2 x 2 coefficients: the kernel {aI + bJ}
    # holds no rank-one matrix, and |zw|^2 = 1 on unit z, w
    mult = np.array([[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0]])
    w, bound = obs._decide_block(mult, det)
    assert w is None and REJECT <= bound <= 1.0
    # a one-row block: the kernel is indefinite for det
    w, bound = obs._decide_block(np.array([[1.0, 0.0, 0.0, 0.0]]), det)
    assert bound is None
    assert abs(np.linalg.det(w.reshape(2, 2))) < 1e-12 * (w @ w)
    assert abs(w[0]) < 1e-12
    # singular: the kernel is spanned by one rank-one matrix
    w, bound = obs._decide_block(np.eye(4)[1:], det)
    assert bound is None and np.allclose(np.abs(w), [1.0, 0.0, 0.0, 0.0])
    # Λ²R⁴: the self-dual e01 + e23 is not decomposable, e01 is
    self_dual = _unit([1, 0, 0, 0, 0, 1])
    block = np.vstack([np.eye(6)[1:5], _unit([1, 0, 0, 0, 0, -1])])
    w, bound = obs._decide_block(block, pf)
    assert w is None and REJECT <= bound <= 0.5
    assert np.linalg.norm(block @ self_dual) < 1e-12
    w, bound = obs._decide_block(np.eye(6)[1:], pf)
    assert bound is None and np.allclose(np.abs(w), np.eye(6)[0])
    # Λ²R² (one coefficient) and Λ²R³: every 2-vector is decomposable
    w, bound = obs._decide_block(np.zeros((1, 1)), None)
    assert bound is None and abs(w[0]) == 1.0
    w, bound = obs._decide_block(np.array([[1.0, 0.0, 0.0]]), None)
    assert bound is None and abs(w[0]) < 1e-12 and np.linalg.norm(w) > 0


def test_decide_block_guard_band_goes_to_the_search():
    det = obs._DET_2X2
    # a singular value between ACCEPT and REJECT proves nothing
    w, bound = obs._decide_block(np.array([[np.sqrt(1e-7)]]), None)
    assert w is None and bound is None
    # a nearly rank-one kernel element: no proof, and the candidate it
    # returns is left to the bracket re-check
    eps = 1e-4
    near = np.array([1.0, 0.0, 0.0, eps]) / np.hypot(1.0, eps)
    block = np.vstack([np.eye(4)[1:3], [-eps, 0.0, 0.0, 1.0]])
    w, bound = obs._decide_block(block, det)
    assert bound is None and abs(abs(w @ near) - 1.0) < 1e-12


def _metric_with_eigenspaces(space, blocks, seed=0):
    """A metric whose eigenspaces are spans of the given vector blocks, with
    eigenvalues 1, 2, ... in block order; the rest of p gets larger, distinct
    eigenvalues."""
    vecs = np.vstack([np.atleast_2d(b) for b in blocks])
    rest = np.random.default_rng(seed).standard_normal(
        (space.dim_p - vecs.shape[0], space.dim_p))
    q, _ = np.linalg.qr(np.vstack([vecs, rest]).T)
    values = [k + 1.0 for k, b in enumerate(blocks) for _ in np.atleast_2d(b)]
    values += [len(blocks) + 1.0 + k for k in range(rest.shape[0])]
    return q @ np.diag(values) @ q.T


def _commuting_frame(space):
    """A commuting pair x, y and two more orthonormal vectors a, b of p."""
    w = commuting_witness(space, sample_metric(space, seed=0))
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(np.vstack([w.x, w.y,
                                   rng.standard_normal((2, space.dim_p))]).T)
    return q.T


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_exact_pair_inside_one_eigenspace(monkeypatch, dim):
    monkeypatch.setattr(obs, "_search_planes", _no_search)
    space = catalog_build("s3s3circle", p=2, q=1)
    frame = _commuting_frame(space)
    g = _metric_with_eigenspaces(space, [frame[:dim]])
    w = commuting_witness(space, g)
    assert w.found and w.decided == "exact"
    assert w.message.endswith("(0, 0)")
    assert _flat_ratio(space, w.x, w.y) < ACCEPT
    # g has prescribed eigenspaces and is not invariant, so Curvature refuses
    # it; the four bracket terms are the numerator that it would evaluate here
    num = curvature.four_term_numerator(space, g, np.linalg.inv(g), w.x, w.y)
    assert abs(num) < 1e-12


def test_exact_pair_from_a_singular_det_form(monkeypatch):
    # E_0 = span(x, a), E_1 = span(y, b) with [x, y] = 0: the kernel of the
    # 2 x 2 block is the one rank-one element x ⊗ y
    monkeypatch.setattr(obs, "_search_planes", _no_search)
    space = catalog_build("s3s3circle", p=2, q=1)
    x, y, a, b = _commuting_frame(space)
    g = _metric_with_eigenspaces(space, [np.array([x, a]), np.array([y, b])])
    w = commuting_witness(space, g)
    assert w.found and w.decided == "exact"
    assert w.message.endswith("(0, 1)")
    assert abs(abs(w.x @ x) - 1.0) < 1e-9 and abs(abs(w.y @ y) - 1.0) < 1e-9


@pytest.mark.parametrize("label,metric", [
    ("wallach6", "diag:1,2,3"), ("cpn", "normal"), ("sphere-so", "normal")])
def test_proved_absence_agrees_with_the_search(monkeypatch, label, metric):
    from homcurv.metrics import metric_from_spec
    from homcurv.spaces import listing_params
    space = catalog_build(label, **listing_params(label))
    g = metric_from_spec(space, metric)
    w = commuting_witness(space, g)
    assert not w.found and w.decided == "exact" and w.objective >= REJECT
    monkeypatch.setattr(obs, "_exact_block", lambda *args: None)
    assert not commuting_witness(space, g, starts=4).found


def test_guard_band_block_is_searched(monkeypatch):
    # x and a tilted partner whose squared bracket sits between ACCEPT and
    # REJECT: the 1 x 1 block proves nothing either way
    space = catalog_build("s3s3circle", p=2, q=1)
    x, y, a, _ = _commuting_frame(space)
    tilt = np.sqrt(1e-7) / np.sqrt(_flat_ratio(space, x, a))
    y_t = (y + tilt * a) / np.hypot(1.0, tilt)
    assert ACCEPT < _flat_ratio(space, x, y_t) < REJECT
    g = _metric_with_eigenspaces(space, [x, y_t])
    searched = []
    real = obs._search_planes

    def record(space_, bx, by, coeffs):
        searched.append((bx, by))
        return real(space_, bx, by, coeffs)

    monkeypatch.setattr(obs, "_search_planes", record)
    with pytest.warns(UserWarning, match="ambiguous"):
        w = commuting_witness(space, g)
    assert not w.found and w.decided == "search"
    bx, by = searched[0]
    assert abs(abs(bx[0] @ x) - 1.0) < 1e-9
    assert abs(abs(by[0] @ y_t) - 1.0) < 1e-9


def test_witnesses_decide_a_near_coincident_eigenvalue_gap():
    # this draw has eigenvalues 3.41231396 and 3.41231587 (x2): a gap of
    # 1.9e-6, inside the guard band where decompose's clustering refuses to
    # decide, but one that eigh resolves, so the witnesses split there
    space = catalog_build("sp2circle", p=3, q=1)
    g = sample_metric(space, seed=2709016)
    with pytest.raises(ClusterError, match="gap 1.914e-06"):
        cluster_values(np.linalg.eigvalsh(g))
    w = commuting_witness(space, g)
    assert not w.found and w.decided == "search"
    assert "13 of 14 pairs proved empty" in w.message
    w = min_eigenvalue_witness(space, g)
    assert w.found and w.decided == "exact"
    assert Curvature(space, g).sectional(w.x, w.y) < -0.1
