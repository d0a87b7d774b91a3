"""Tests for the obstruction witnesses."""
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from homcurv import build_algebra, catalog_build, make_space
from homcurv.curvature import Curvature
from homcurv.metrics import normal_metric, sample_metric, validate_metric
from homcurv.obstructions import (
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
    # which the kernel test on a basis vector finds without the BFGS search
    import homcurv.obstructions as obs
    space = catalog_build("stiefel")
    g = sample_metric(space, seed=3)
    assert obs._metric_eigenspaces(g)[0][1].shape[0] == 2

    def no_search(*args):
        raise AssertionError("quasi-Newton search ran")

    monkeypatch.setattr(obs, "_minimize_pair", no_search)
    w = min_eigenvalue_witness(space, g, seed=3)
    assert w.found and w.numerator <= 1e-10
    assert w.objective < 1e-16


def test_min_eigenvalue_witness_absent_on_positive_space():
    space = catalog_build("berger7")
    w = min_eigenvalue_witness(space, normal_metric(space), draws=16)
    assert not w.found
    assert w.objective > 1e-6


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


LAZY_SCIPY = textwrap.dedent("""
    import sys
    import homcurv.cli, homcurv.acceptance
    assert "scipy.optimize" not in sys.modules, "loaded on import"
    from homcurv import catalog_build
    from homcurv.metrics import sample_metric
    from homcurv.obstructions import commuting_witness
    space = catalog_build("s3s3circle", p=2, q=1)
    w = commuting_witness(space, sample_metric(space, seed=0))
    assert w.found and w.objective < 1e-9, w.message
    assert "scipy.optimize" in sys.modules
""")


def test_scipy_optimize_loads_on_the_first_search_only():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", LAZY_SCIPY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
