"""Tests for the multistart positivity search."""
import warnings

import numpy as np
import pytest
import scipy.linalg

import homcurv.certify as certify_mod
from homcurv import catalog_build
from homcurv.certify import certify
from homcurv.curvature import NOISE_BAND, Curvature
from homcurv.isotypic import decompose
from homcurv.metrics import diagonal_metric, normal_metric, sample_metric


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


def test_zero_tol_threshold():
    space = catalog_build("berger7")
    r = certify(space, normal_metric(space), starts=8, zero_tol=0.1)
    # the found minimum 0.05 now counts as a nonpositive witness
    assert r.verdict == "nonpositive-witness"


def test_disclaimer_present():
    space = catalog_build("sphere-so", n=4)
    r = certify(space, normal_metric(space), starts=4)
    assert r.verdict == "positive"
    assert abs(r.min_sectional - 0.5) < 1e-8
    assert "not a certificate" in r.disclaimer


@pytest.mark.parametrize("bad", [{"max_iters": -1}, {"starts": 0},
                                 {"grad_tol": np.nan}, {"zero_tol": np.inf}])
def test_rejects_parameters_that_void_the_verdict(bad):
    # no evaluation, or no comparison with the threshold, would back it
    space = catalog_build("berger7")
    with pytest.raises(ValueError, match="max_iters >= 0"):
        certify(space, normal_metric(space), **{"starts": 2, **bad})


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
    # frames in the coordinates x′ = Lᵀx of G = LLᵀ, where the metric is Id;
    # cv.basis = L⁻¹ maps them back to p-coordinates
    draws = rng.standard_normal((6, 2 * n))
    draws[4, n:] = 3.0 * draws[4, :n]          # dependent
    draws[5, 0] = np.nan
    frames = certify_mod._partner_frames(cv, draws)
    # the drawn axes stay, and rows that must fail pass through as drawn
    assert np.array_equal(frames[:, :n], draws[:, :n], equal_nan=True)
    assert np.array_equal(frames[4:], draws[4:], equal_nan=True)
    for x, y in zip(frames[:4, :n], frames[:4, n:]):
        x = x / np.linalg.norm(x)
        assert abs(x @ y) <= 1e-12 * np.linalg.norm(y)
        best = cv.sectional(x @ cv.basis, y @ cv.basis)
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
    # and it is a critical point, so no start needs a single line search
    space = catalog_build(label, **params)
    r = certify(space, metric(space), starts=16, max_iters=0)
    assert r.stop_reasons == ("converged",) * 16
    assert r.verdict == "positive"
    assert abs(r.min_sectional - minimum) <= 1e-12


class _DegenerateDraws:
    """Stands in for a start's generator: its x and y draws coincide."""

    def __init__(self, seed, start):
        self.rng = np.random.default_rng([seed, start])

    def standard_normal(self, size):
        half = self.rng.standard_normal(size // 2)
        return np.concatenate([half, half])


def _degenerate_starts(monkeypatch, which):
    """Make the starts in `which` draw degenerate frames."""
    real = certify_mod.rng_from
    monkeypatch.setattr(certify_mod, "rng_from", lambda seed, s: (
        _DegenerateDraws(seed, s) if s in which else real(seed, s)))


def test_every_stop_reason_is_reachable(monkeypatch):
    # w11's drawn axes are not at its minimum, so its starts still descend
    w11 = catalog_build("w11")
    g = normal_metric(w11)
    wallach6 = catalog_build("wallach6")
    # the gradient vanishes on the flat planes of the flag manifold; every
    # start gets there only if values near them keep their relative accuracy
    r = certify(wallach6, normal_metric(wallach6), starts=8)
    assert set(r.stop_reasons) <= {"converged", "stalled"}
    assert all(0.0 <= m <= 1e-18 for m in r.start_minima), r.start_minima
    # at w11's minimum the gradient keeps a rounding floor above grad_tol
    assert "stalled" in certify(w11, g, starts=16).stop_reasons
    r = certify(w11, g, starts=4, max_iters=1)
    assert r.stop_reasons == ("max-iters",) * 4
    assert r.converged_starts == 0 and r.verdict == "positive"

    _degenerate_starts(monkeypatch, {1})
    r = certify(w11, g, starts=4)
    assert r.stop_reasons[1] == "failed" and r.start_minima[1] is None
    assert "failed" not in r.stop_reasons[:1] + r.stop_reasons[2:]

    # an Armijo test that no trial passes fails every line search
    monkeypatch.setattr(certify_mod, "ARMIJO", np.inf)
    r = certify(w11, g, starts=4)
    assert r.stop_reasons == ("line-search", "failed", "line-search", "line-search")
    assert all(np.isfinite(r.start_minima[i]) for i in (0, 2, 3))


def test_positive_needs_a_quorum_of_finished_starts(monkeypatch):
    space = catalog_build("berger7")
    g = normal_metric(space)
    _degenerate_starts(monkeypatch, {0, 1})
    r = certify(space, g, starts=4)
    assert r.verdict == "positive"
    assert abs(r.min_sectional - 0.05) < 1e-9
    _degenerate_starts(monkeypatch, {0, 1, 2})
    r = certify(space, g, starts=4)
    assert r.stop_reasons.count("failed") == 3
    assert r.verdict == "inconclusive"
    _degenerate_starts(monkeypatch, {0, 1, 2, 3})
    r = certify(space, g, starts=4)
    assert r.verdict == "inconclusive" and np.isnan(r.min_sectional)


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
    # berger7 at 0.5 * normal has minimum 0.1; the threshold is 0.06 / 0.5
    space = catalog_build("berger7")
    g = 0.5 * normal_metric(space)
    r = certify(space, g, starts=8, zero_tol=0.06)
    assert r.zero_tol == 0.06 and r.zero_threshold == pytest.approx(0.12)
    assert r.verdict == "nonpositive-witness"
    assert certify(space, g, starts=8, zero_tol=0.04).verdict == "positive"


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
    """Make every frame evaluation call record(x, result) once per call."""
    method = Curvature.orthonormal_gradient

    def recorded(self, x, y):
        out = method(self, x, y)
        record(x, out)
        return out

    monkeypatch.setattr(Curvature, "orthonormal_gradient", recorded)


def _record_line_searches(monkeypatch, record):
    """Make every line search call record(accepted, values) once per call."""
    search = certify_mod._line_search

    def recorded(*args):
        out = search(*args)
        record(out[0], out[2])
        return out

    monkeypatch.setattr(certify_mod, "_line_search", recorded)


def test_positive_search_stays_within_an_evaluation_budget(monkeypatch):
    # without the stall stop these 64 starts took about 142,000 plane
    # evaluations, most of them backtracking at the minimum; with it and one
    # evaluation per trial they took about 900, and from the partner planes
    # of their drawn axes they evaluate only the 64 start frames
    rows = []
    _record_evaluations(monkeypatch, lambda x, out: rows.append(len(x)))
    space = catalog_build("berger7")
    r = certify(space, normal_metric(space), starts=64, max_iters=500)
    assert r.verdict == "positive"
    assert sum(rows) <= 2500, sum(rows)


def test_most_steps_pass_the_nonmonotone_armijo_test(monkeypatch):
    # every evaluation after the start frames' is one line-search trial;
    # against the current value instead of the recent maximum this takes
    # about 2.4 trials per round
    calls = {"evaluations": 0, "rounds": 0}
    _record_evaluations(monkeypatch, lambda x, out: calls.update(
        evaluations=calls["evaluations"] + 1))
    _record_line_searches(monkeypatch, lambda accepted, values: calls.update(
        rounds=calls["rounds"] + 1))
    # w11's starts still descend from their partner planes
    space = catalog_build("w11")
    r = certify(space, normal_metric(space), starts=16, max_iters=60)
    assert r.verdict == "positive"
    assert calls["rounds"] > 0
    assert calls["evaluations"] - 1 <= 1.2 * calls["rounds"], calls


def test_each_start_reports_its_lowest_value(monkeypatch):
    # a nonmonotone descent can end above the lowest value it reached
    reached = []
    _record_evaluations(monkeypatch, lambda x, out: (
        None if reached else reached.append(out[0])))
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
    space = catalog_build("berger7")
    cv = Curvature(space, normal_metric(space))
    x, y = np.random.default_rng(3).standard_normal((2, 3, 7))
    y[1] = -2.0 * x[1]
    # the descent evaluates frames in the coordinates x′ = Lᵀx of G = LLᵀ
    xn, yn = x @ cv.factor, y @ cv.factor
    dependent = certify_mod._orthonormalize(xn, yn)[-1]
    assert dependent.tolist() == [False, True, False]
    _, vals, _ = certify_mod._evaluate(cv, np.concatenate([xn, yn], axis=1))
    assert vals[1] == np.inf
    for i in (0, 2):
        assert vals[i] == pytest.approx(cv.sectional(x[i], y[i]), rel=1e-12)


def test_frame_evaluation_matches_sectional_gradient():
    # the frame evaluation skips the Gram terms; at G-orthonormal frames it
    # must agree with the quotient rule, also on planes inside NOISE_BAND
    space = catalog_build("wallach6")
    g = normal_metric(space)
    cv = Curvature(space, g)
    flat = certify(space, g, starts=1)
    rng = np.random.default_rng(5)
    frames = rng.standard_normal((8, 12))
    frames[::2] = (np.concatenate([flat.plane_x, flat.plane_y])
                   + 1e-6 * rng.standard_normal((4, 12)))
    q = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    within = (q @ q.T, np.eye(6))
    v, sec, grad = certify_mod._evaluate(cv, frames, within)
    x, y = v[:, :6], v[:, 6:]
    wedge2 = np.vecdot(x, x) * np.vecdot(y, y) - np.vecdot(x, y) ** 2
    band = NOISE_BAND * np.linalg.norm(cv.operator) * wedge2
    assert np.all(np.abs(cv.numerator(x, y)[::2]) <= band[::2])
    ref, rx, ry = cv.sectional_gradient(x, y)
    np.testing.assert_allclose(sec, ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grad, np.concatenate(
        [rx @ within[0], ry @ within[1]], axis=1), rtol=1e-12, atol=1e-12)


def test_failed_start_frames_raise_no_warning(monkeypatch):
    # dependent start frames retire before the stall test compares values
    _degenerate_starts(monkeypatch, {0, 2})
    space = catalog_build("berger7")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = certify(space, normal_metric(space), starts=4)
    assert r.stop_reasons[0] == r.stop_reasons[2] == "failed"
