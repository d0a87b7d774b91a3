"""Tests for the multistart positivity search."""
import numpy as np

from homcurv import catalog_build
from homcurv.certify import certify
from homcurv.curvature import Curvature
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
