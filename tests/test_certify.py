"""Tests for the multistart positivity search."""
import warnings

import numpy as np
import pytest
import scipy.linalg

import homcurv.certify as certify_mod
import homcurv.obstructions as obs
from homcurv import catalog_build
from homcurv.certify import GRAD_TOL, ZERO_TOL, certify
from homcurv.curvature import NOISE_BAND, Curvature
from homcurv.isotypic import decompose
from homcurv.metrics import diagonal_metric, normal_metric, sample_metric
from homcurv.numerics import DRAW_SCHEME, rng_from


def test_positive_space_stays_positive():
    space = catalog_build("berger7")
    r = certify(space, normal_metric(space), starts=16)
    assert r.verdict == "positive"
    # descent bottoms out at the known minimum of the normal metric
    assert abs(r.min_sectional - 0.05) < 1e-4
    assert r.converged_starts > 0
    assert len(r.start_minima) == 16


def test_flat_plane_found_in_flag_normal_metric():
    space = catalog_build("wallach6")
    r = certify(space, normal_metric(space), starts=16)
    assert r.verdict == "nonpositive-witness"
    assert abs(r.min_sectional) <= 1e-9


def test_descents_onto_flat_planes_converge():
    # the gradient reaches grad_tol only if values near the flat plane keep
    # their relative accuracy
    for label in ("wallach6", "stiefel"):
        space = catalog_build(label)
        r = certify(space, normal_metric(space), starts=8)
        assert r.verdict == "nonpositive-witness"
        assert r.converged_starts == 8


def test_unequal_scales_restore_positivity():
    space = catalog_build("wallach6")
    g = diagonal_metric(decompose(space), (1.0, 1.0, 0.5))
    r = certify(space, g, starts=16)
    assert r.verdict == "positive"
    assert abs(r.min_sectional - 0.0625) < 1e-4


def test_negative_planes_found():
    space = catalog_build("s3s3circle", p=2, q=1)
    r = certify(space, sample_metric(space, seed=1), starts=8)
    assert r.verdict == "nonpositive-witness"
    assert r.min_sectional < -1e-3


def test_report_plane_achieves_minimum():
    space = catalog_build("s3s3circle", p=2, q=1)
    g = sample_metric(space, seed=1)
    r = certify(space, g, starts=8)
    cv = Curvature(space, g)
    val = cv.sectional(np.array(r.plane_x), np.array(r.plane_y))
    assert abs(val - r.min_sectional) < 1e-9


def test_reports_are_deterministic_and_ignore_wall_time():
    space = catalog_build("s3s3circle", p=2, q=1)
    g = sample_metric(space, seed=2)
    r1 = certify(space, g, seed=5, starts=8)
    r2 = certify(space, g, seed=5, starts=8)
    assert r1 == r2            # wall_time differs but is excluded
    assert r1.wall_time != r2.wall_time or r1.wall_time >= 0
    r3 = certify(space, g, seed=6, starts=8)
    assert r3.start_minima != r1.start_minima or r3 == r1


def test_disclaimer_present():
    space = catalog_build("sphere-so", n=4)
    r = certify(space, normal_metric(space), starts=4)
    assert r.verdict == "positive"
    assert abs(r.min_sectional - 0.5) < 1e-8
    assert "not a certificate" in r.disclaimer


@pytest.mark.parametrize("bad", [{"max_iters": -1}, {"starts": 0}])
def test_rejects_parameters_that_void_the_verdict(bad):
    # no evaluation, or no comparison with the threshold, would back it
    space = catalog_build("berger7")
    with pytest.raises(ValueError, match="max_iters >= 0"):
        certify(space, normal_metric(space), **{"starts": 2, **bad})


def test_a_metric_that_no_isotropy_action_commutes_with_is_rejected():
    # diag(1, ..., 7) is symmetric and positive definite but not invariant:
    # a verdict on it would not be about an invariant metric of berger7
    space = catalog_build("berger7")
    with pytest.raises(ValueError, match="does not commute"):
        certify(space, np.diag(np.arange(1.0, 8.0)), starts=2)


def test_a_space_without_planes_is_rejected():
    # dim p = 1: there is no plane, so no verdict and no minimum to report
    space = catalog_build("sphere-so", n=1)
    with pytest.raises(ValueError, match="sphere-so n=1 has dim p = 1"):
        certify(space, normal_metric(space), starts=2)


@pytest.mark.parametrize("label,params,metric", [
    ("stiefel", {}, lambda s: sample_metric(s, seed=0)),
    ("aloffwallach-su3", {"p": 1, "q": 1},
     lambda s: diagonal_metric(decompose(s), (0.3, 1.0))),
])
def test_partner_is_the_lowest_plane_through_the_drawn_axis(label, params,
                                                             metric):
    space = catalog_build(label, **params)
    cv = Curvature(space, metric(space))
    n = space.dim_p
    rng = np.random.default_rng(11)
    # axes in the coordinates x′ = Lᵀx of G = LLᵀ, where the metric is Id;
    # cv.basis = L⁻¹ maps them back to p-coordinates
    draws = rng.standard_normal((6, n))
    draws[4] = 0.0
    draws[5, 0] = np.nan
    axes, secs, _, partners = cv.lowest_planes(draws)
    # the drawn axes stay, made unit, and zero or non-finite axes fail
    np.testing.assert_allclose(
        axes[:4], draws[:4] / np.linalg.norm(draws[:4], axis=1)[:, None],
        rtol=0, atol=1e-15)
    assert np.all(secs[4:] == np.inf)
    for x, y, sec in zip(axes[:4], partners[:4], secs[:4]):
        assert abs(x @ y) <= 1e-12 and abs(y @ y - 1.0) <= 1e-12
        best = cv.sectional(x @ cv.basis, y @ cv.basis)
        assert abs(best - sec) <= 1e-12 * max(1.0, abs(sec))
        # the lowest eigenvalue of J_x on the complement of x
        q = scipy.linalg.null_space(x[None])
        lowest = scipy.linalg.eigh(q.T @ cv.jacobi_operator(x) @ q,
                                   eigvals_only=True)[0]
        assert abs(best - lowest) <= 1e-12 * max(1.0, abs(lowest))
        others = rng.standard_normal((50, n))
        others -= np.outer(others @ x, x)
        assert np.all(cv.sectional(x @ cv.basis, others @ cv.basis)
                      >= best - 1e-12 * max(1.0, abs(best)))


@pytest.mark.parametrize("label,params,metric,minimum", [
    ("berger7", {}, normal_metric, 0.05),
    ("wallach6", {}, lambda s: diagonal_metric(decompose(s), (1.0, 1.0, 0.5)),
     0.0625),
    ("aloffwallach-su3", {"p": 1, "q": 1},
     lambda s: diagonal_metric(decompose(s), (0.3, 1.0)), 0.0375),
    ("cpn", {"n": 2}, normal_metric, 0.5),
    ("hpn", {"n": 2}, normal_metric, 0.25),
])
def test_partner_planes_start_at_the_minimum(label, params, metric, minimum):
    # on these metrics every axis has a partner plane at the global minimum,
    # so the lowest value through an axis is constant and no start needs a
    # single line search
    space = catalog_build(label, **params)
    r = certify(space, metric(space), starts=16, max_iters=0)
    assert r.stop_reasons == ("converged",) * 16
    assert r.verdict == "positive"
    assert abs(r.min_sectional - minimum) <= 1e-12


class _SetDraws:
    """Stands in for certify's generator: the drawn (starts, n) block of
    axes with the rows in `rows` replaced by the given values."""

    def __init__(self, rng, rows):
        self.rng, self.rows = rng, rows

    def standard_normal(self, size):
        draws = self.rng.standard_normal(size)
        for i, axis in self.rows.items():
            draws[i] = axis
        return draws


def _set_draws(monkeypatch, rows):
    """Make certify draw the given axes, or a zero or NaN to fail a start,
    at the starts in `rows`."""
    monkeypatch.setattr(certify_mod, "rng_from",
                        lambda *key: _SetDraws(rng_from(*key), rows))


def test_certify_draws_every_start_from_one_generator(monkeypatch):
    keys, blocks = [], []

    class Recorded:
        def __init__(self, *key):
            keys.append(key)
            self.rng = rng_from(*key)

        def standard_normal(self, size):
            blocks.append(self.rng.standard_normal(size))
            return blocks[-1]

    monkeypatch.setattr(certify_mod, "rng_from", Recorded)
    space = catalog_build("berger7")
    for starts in (16, 4):
        r = certify(space, normal_metric(space), seed=5, starts=starts)
        assert r.draw_scheme == DRAW_SCHEME == 3
    # one axis per start, from certify's own key
    assert keys == [(5, 2), (5, 2)] and blocks[0].shape == (16, 7)
    # fewer starts draw a prefix of more
    np.testing.assert_array_equal(blocks[1], blocks[0][:4])
    # SeedSequence drops trailing zero words, so a key (5, 0) would draw the
    # stream of sample_metric(space, 5)
    assert not np.array_equal(rng_from(*keys[0]).standard_normal(8),
                              rng_from(5).standard_normal(8))


def test_certify_and_the_witness_blocks_draw_from_their_own_keys(
        monkeypatch):
    # berger7's normal metric has one 7-dimensional eigenspace, so the
    # min-eigenvalue witness searches its (E_0, p) block, keyed (seed,) like
    # certify; the trailing words 1 and 2 keep the two streams apart
    certify_keys, block_keys, blocks = [], [], []

    def certify_rng(*key):
        certify_keys.append(key)
        return rng_from(*key)

    class BlockRng:
        def __init__(self, *key):
            block_keys.append(key)
            self.rng = rng_from(*key)

        def standard_normal(self, size):
            blocks.append(self.rng.standard_normal(size))
            return blocks[-1]

    monkeypatch.setattr(certify_mod, "rng_from", certify_rng)
    monkeypatch.setattr(obs, "rng_from", BlockRng)
    space = catalog_build("berger7")
    g = normal_metric(space)
    certify(space, g, seed=4, starts=2)
    for draws in (8, 4):
        assert not obs.min_eigenvalue_witness(space, g, seed=4,
                                              starts=draws).found
    assert certify_keys == [(4, 2)] and block_keys == [(4, 1), (4, 1)]
    # one axis per start on E_0, and fewer starts draw a prefix of more
    assert [b.shape for b in blocks] == [(8, 7), (4, 7)]
    np.testing.assert_array_equal(blocks[1], blocks[0][:4])
    assert not np.array_equal(rng_from(4, 2).standard_normal((4, 7)),
                              blocks[1])


def test_every_stop_reason_is_reachable(monkeypatch):
    # w11's drawn axes are not at its minimum, so its starts still descend
    w11 = catalog_build("w11")
    g = normal_metric(w11)
    wallach6 = catalog_build("wallach6")
    # the gradient vanishes on the flat planes of the flag manifold; every
    # start gets there only if values near them keep their relative accuracy
    r = certify(wallach6, normal_metric(wallach6), starts=8)
    assert set(r.stop_reasons) == {"converged"}
    assert all(0.0 <= m <= 1e-18 for m in r.start_minima), r.start_minima
    r = certify(w11, g, starts=4, max_iters=1)
    assert r.stop_reasons == ("max-iters",) * 4
    assert r.converged_starts == 0 and r.verdict == "inconclusive"

    _set_draws(monkeypatch, {1: 0.0})
    r = certify(w11, g, starts=4)
    assert r.stop_reasons[1] == "failed" and r.start_minima[1] is None
    assert "failed" not in r.stop_reasons[:1] + r.stop_reasons[2:]

    # an Armijo test that no trial passes fails every line search
    monkeypatch.setattr(certify_mod, "ARMIJO", np.inf)
    r = certify(w11, g, starts=4)
    assert r.stop_reasons == ("line-search", "failed", "line-search", "line-search")
    assert all(np.isfinite(r.start_minima[i]) for i in (0, 2, 3))


def test_starts_that_stop_in_different_rounds_keep_their_own_results(
        monkeypatch):
    # start 1 fails at its zero axis, the even starts converge in round 0 at
    # coordinate axes, which are critical points of the lowest value through
    # an axis (0.1, above the minimum), start 3's second line search is made
    # to fail, and starts 5 and 7 descend from their drawn axes to the last
    # rounds; each start must report the value of its own plane, wherever its
    # row sat in the shrinking batch
    space = catalog_build("w11")
    n = space.dim_p
    _set_draws(monkeypatch, {1: 0.0, **{i: np.eye(n)[i] for i in (0, 2, 4, 6)}})
    search, descend, batches, runs = (certify_mod._line_search,
                                      certify_mod._descend, [], [])

    def failing_second_search(*args):
        accepted, trial = search(*args)
        batches.append(len(accepted))
        if len(batches) == 2:
            accepted[0] = False              # the first running row, start 3
        return accepted, trial

    def recorded(evaluate, coeffs, *args):
        runs.append((evaluate, coeffs, args, descend(evaluate, coeffs, *args)))
        return runs[-1][3]

    monkeypatch.setattr(certify_mod, "_line_search", failing_second_search)
    monkeypatch.setattr(certify_mod, "_descend", recorded)
    g = normal_metric(space)
    r = certify(space, g, starts=8, max_iters=5)
    assert r.stop_reasons[:5] == ("converged", "failed", "converged",
                                  "line-search", "converged")
    assert r.stop_reasons[6] == "converged" and r.start_minima[1] is None
    assert set(r.stop_reasons[5::2]) <= {"converged", "max-iters"}
    assert batches[:3] == [3, 3, 2]
    [(evaluate, coeffs, args, (secs, axes, partners, _))] = runs
    cv = Curvature(space, g)
    for i in (0, 2, 3, 4, 5, 6, 7):
        assert r.start_minima[i] == secs[i]
        again = cv.sectional(axes[i] @ cv.basis, partners[i] @ cv.basis)
        assert abs(again - secs[i]) <= 1e-12 * max(1.0, abs(again)), i
    # start 3 stopped above the minimum 1/610, and the round-0 starts report
    # their own drawn axes at 0.1
    assert r.start_minima[3] > 1 / 610 + 1e-6
    for i in (0, 2, 4, 6):
        np.testing.assert_allclose(axes[i], np.eye(n)[i], rtol=0, atol=1e-15)
        assert abs(secs[i] - 0.1) <= 1e-12
    # starts 5 and 7 descended alone reach the same value and plane, so no
    # row took over another's
    for i in (5, 7):
        sec, axis, partner, _ = descend(evaluate, coeffs[i:i + 1], *args)
        assert abs(sec[0] - secs[i]) <= 1e-9
        planes = [np.outer(x, x) + np.outer(y, y)
                  for x, y in ((axis[0], partner[0]), (axes[i], partners[i]))]
        np.testing.assert_allclose(*planes, rtol=0, atol=1e-6)


def test_positive_needs_a_quorum_of_finished_starts(monkeypatch):
    # a start that ran out of iterations has not reached a critical point, so
    # it does not count; w11's starts need more than one step from their
    # drawn axes
    w11 = catalog_build("w11")
    r = certify(w11, normal_metric(w11), starts=16, max_iters=1)
    assert r.stop_reasons == ("max-iters",) * 16
    assert r.min_sectional > r.zero_threshold
    assert r.verdict == "inconclusive"
    space = catalog_build("berger7")
    g = normal_metric(space)
    _set_draws(monkeypatch, {0: 0.0, 1: np.nan})
    r = certify(space, g, starts=4)
    assert r.verdict == "positive"
    assert abs(r.min_sectional - 0.05) < 1e-9
    _set_draws(monkeypatch, {0: 0.0, 1: np.nan, 2: 0.0})
    r = certify(space, g, starts=4)
    assert r.stop_reasons.count("failed") == 3
    assert r.verdict == "inconclusive"
    # no drawn axis is usable, and no start reports a value
    _set_draws(monkeypatch, {0: 0.0, 1: np.nan, 2: 0.0, 3: np.nan})
    r = certify(space, g, starts=4)
    assert r.stop_reasons == ("failed",) * 4
    assert r.verdict == "inconclusive" and np.isnan(r.min_sectional)


@pytest.mark.parametrize("t", [0.3, 0.6])
def test_aloff_wallach_w10_flat_plane_is_found(t):
    # su3circle (1, 0) is the Aloff-Wallach space W₁,₀: every invariant metric
    # has a flat plane.  Shrinking s(u(2) ⊕ u(1)) ∩ p, the first three
    # p-coordinates, puts it in an ill-conditioned valley whose descents
    # creep toward the zero threshold; they must not stop above it
    space = catalog_build("su3circle", p=1, q=0)
    g = np.diag([t] * 3 + [1.0] * 4)
    r = certify(space, g, starts=64)
    assert r.verdict == "nonpositive-witness"
    again = Curvature(space, g).sectional(np.array(r.plane_x),
                                          np.array(r.plane_y))
    assert again <= r.zero_threshold


def test_aloff_wallach_w10_grid_reaches_a_flat_plane_everywhere():
    # the W₁,₀ shrink at t = 0.3, 0.6 and 0.9, seeds 0-9: 16 starts find a
    # flat plane on every pair
    space = catalog_build("su3circle", p=1, q=0)
    verdicts = [certify(space, np.diag([t] * 3 + [1.0] * 4), seed=seed,
                        starts=16).verdict
                for t in (0.3, 0.6, 0.9) for seed in range(10)]
    assert verdicts == ["nonpositive-witness"] * 30


def test_aloff_wallach_w10_is_never_positive():
    # a start that reaches no flat plane runs out of iterations rather than
    # stopping on its value, so a seed without a witness reads inconclusive,
    # never positive
    space = catalog_build("su3circle", p=1, q=0)
    g = np.diag([0.9] * 3 + [1.0] * 4)
    verdicts = {certify(space, g, seed=seed, starts=16).verdict
                for seed in range(5)}
    assert "positive" not in verdicts, verdicts


@pytest.mark.parametrize("label,metric", [
    ("berger7", normal_metric),
    ("wallach6", lambda s: diagonal_metric(decompose(s), (1.0, 1.0, 0.5))),
    ("stiefel", lambda s: sample_metric(s, seed=0)),
])
@pytest.mark.parametrize("lam", [1e-8, 1e-3, 1e3, 1e8])
def test_scaled_metric_scales_the_minimum(label, metric, lam):
    space = catalog_build(label)
    g = metric(space)
    ref = certify(space, g, starts=16)
    r = certify(space, lam * g, starts=16)
    assert r.verdict == ref.verdict
    # the stop test, the first step and the Barzilai-Borwein clamp read the
    # gradient and the step in the metric's scale
    assert r.stop_reasons == ref.stop_reasons
    assert abs(r.min_sectional - ref.min_sectional / lam) <= \
        1e-9 * abs(ref.min_sectional / lam)


@pytest.mark.parametrize("label,lam,verdict", [
    ("berger7", 1e8, "positive"),       # minimum 5e-10, below an absolute 1e-9
    ("berger7", 1e-8, "positive"),
    ("wallach6", 1e8, "nonpositive-witness"),
    ("wallach6", 1e-8, "nonpositive-witness"),
])
def test_zero_threshold_scales_with_the_metric(label, lam, verdict):
    space = catalog_build(label)
    r = certify(space, lam * normal_metric(space), starts=8)
    assert r.zero_threshold == pytest.approx(1e-9 / lam, rel=1e-12)
    assert r.verdict == verdict


def test_zero_threshold_reads_the_largest_metric_eigenvalue():
    # wallach6 at diag(2, 1, 1/2): the largest eigenvalue, not a mean or the
    # smallest, sets the threshold
    space = catalog_build("wallach6")
    g = diagonal_metric(decompose(space), (2.0, 1.0, 0.5))
    r = certify(space, g, starts=8)
    assert r.zero_tol == ZERO_TOL and r.grad_tol == GRAD_TOL
    assert r.zero_threshold == pytest.approx(
        ZERO_TOL / np.linalg.eigvalsh(g)[-1], rel=1e-12)


def test_tiny_metric_scale_keeps_the_frames():
    # the degenerate-frame test compares G-norms with each other, so a metric
    # scaled by 1e-26 (G-norms near 1e-13) still descends to the minimum
    space = catalog_build("berger7")
    lam = 1e-26
    r = certify(space, lam * normal_metric(space), starts=4)
    assert "failed" not in r.stop_reasons
    assert r.verdict == "positive"
    assert abs(r.min_sectional - 0.05 / lam) <= 1e-9 * (0.05 / lam)


def _record_evaluations(monkeypatch, record):
    """Make every axis evaluation call record(c, result) once per call."""
    method = Curvature.lowest_planes

    def recorded(self, c, bx=None, by=None):
        out = method(self, c, bx, by)
        record(c, out)
        return out

    monkeypatch.setattr(Curvature, "lowest_planes", recorded)


def _record_line_searches(monkeypatch, record):
    """Make every line search call record(accepted, values) once per call."""
    search = certify_mod._line_search

    def recorded(*args):
        accepted, trial = search(*args)
        record(accepted, trial[1])
        return accepted, trial

    monkeypatch.setattr(certify_mod, "_line_search", recorded)


def test_positive_search_stays_within_an_evaluation_budget(monkeypatch):
    # every axis of berger7's normal metric has its partner at the minimum,
    # so the lowest value through an axis is constant: the 64 starts stop at
    # their one batched evaluation
    rows = []
    _record_evaluations(monkeypatch, lambda c, out: rows.append(len(c)))
    space = catalog_build("berger7")
    r = certify(space, normal_metric(space), starts=64, max_iters=500)
    assert r.verdict == "positive"
    assert rows == [64]


def test_most_steps_pass_the_nonmonotone_armijo_test(monkeypatch):
    # every evaluation after the start axes' is one line-search trial;
    # against the current value instead of the recent maximum this takes
    # more trials per round
    calls = {"evaluations": 0, "rounds": 0}
    _record_evaluations(monkeypatch, lambda c, out: calls.update(
        evaluations=calls["evaluations"] + 1))
    _record_line_searches(monkeypatch, lambda accepted, values: calls.update(
        rounds=calls["rounds"] + 1))
    # w11's starts still descend from their drawn axes
    space = catalog_build("w11")
    r = certify(space, normal_metric(space), starts=16, max_iters=60)
    assert r.verdict == "positive"
    assert calls["rounds"] > 0
    assert calls["evaluations"] - 1 <= 1.2 * calls["rounds"], calls


def test_each_start_reports_its_lowest_value(monkeypatch):
    # a nonmonotone descent can end above the lowest value it reached
    reached = []
    _record_evaluations(monkeypatch, lambda c, out: (
        None if reached else reached.append(out[1])))
    _record_line_searches(monkeypatch, lambda accepted, values: (
        reached.append(values[accepted])))
    space = catalog_build("stiefel")
    g = sample_metric(space, seed=0)
    cv = Curvature(space, g)
    rose = 0
    for seed in range(12):
        reached.clear()
        r = certify(space, g, seed=seed, starts=1, max_iters=60)
        values = np.concatenate(reached)
        assert r.start_minima[0] == r.min_sectional == values.min()
        again = cv.sectional(np.array(r.plane_x), np.array(r.plane_y))
        assert abs(again - r.min_sectional) <= 1e-12
        rose += values[-1] > values.min()
    assert rose > 0


def test_dependent_trial_planes_are_rejected_not_raised():
    # a partner is orthogonal to its axis, so no evaluated plane is
    # dependent; what is left to reject is an axis that is zero or not
    # finite, which evaluates to inf without raising or warning
    space = catalog_build("berger7")
    cv = Curvature(space, sample_metric(space, seed=3))
    c = np.random.default_rng(3).standard_normal((4, 7))
    c[1], c[3, 2] = 0.0, np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        axes, vals, _, partners = cv.lowest_planes(c)
    assert vals[1] == vals[3] == np.inf
    for i in (0, 2):
        x, y = axes[i] @ cv.basis, partners[i] @ cv.basis
        # the frame is G-orthonormal, so its Gram determinant is 1
        assert cv.gram(x, y) == pytest.approx(1.0, abs=1e-12)
        assert vals[i] == pytest.approx(cv.sectional(x, y), rel=1e-12)


def test_frame_evaluation_matches_sectional_gradient():
    # the axis evaluation skips the Gram terms; at its G-orthonormal planes
    # its value and gradient must agree with the quotient rule's value and x
    # gradient on the axis coefficients, also on planes inside NOISE_BAND,
    # with the partner in all of p, in the axis's own span or orthogonal to it
    space = catalog_build("wallach6")
    g = normal_metric(space)
    cv = Curvature(space, g)
    flat = certify(space, g, starts=1)
    rng = np.random.default_rng(5)
    flat_xy = np.array([flat.plane_x, flat.plane_y]) @ cv.factor
    q = np.linalg.qr(np.vstack([flat_xy, rng.standard_normal((4, 6))]).T)[0].T
    bx = q[:3]
    coeffs = rng.standard_normal((8, 3))
    coeffs[::2] = bx @ flat_xy[0] + 1e-6 * rng.standard_normal((4, 3))
    band = NOISE_BAND * np.linalg.norm(cv.operator)
    for by, near_flat in ((None, True), (bx, True), (q[3:], False)):
        c, sec, grad, y = cv.lowest_planes(coeffs, bx, by)
        x = c @ bx
        assert np.all(np.abs(sec[::2]) <= band) == near_flat
        ref, rx, _ = cv.sectional_gradient(x @ cv.basis, y @ cv.basis)
        np.testing.assert_allclose(sec, ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad, rx @ cv.basis.T @ bx.T,
                                   rtol=1e-9, atol=1e-12)


def test_failed_start_frames_raise_no_warning(monkeypatch):
    # zero and non-finite axes retire before their first step
    _set_draws(monkeypatch, {0: 0.0, 2: np.nan})
    space = catalog_build("berger7")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = certify(space, normal_metric(space), starts=4)
    assert r.stop_reasons[0] == r.stop_reasons[2] == "failed"
