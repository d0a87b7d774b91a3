"""Both witnesses over the whole catalog.

Every catalog space at its listing parameters, with the normal metric and
sampled metrics 0-4, goes through `commuting_witness` and
`min_eigenvalue_witness` at their default starts: 252 calls, 150 of which
search at least one eigenspace block.  Found/not-found is pinned to the
values of the former per-start quasi-Newton search, and every found witness
is re-checked with a commutator of matrices.
"""
import numpy as np
import pytest

from homcurv.algebra import coords_of, matrix_of
from homcurv.curvature import Curvature
from homcurv.metrics import metric_from_spec
from homcurv.obstructions import (
    ACCEPT,
    NONPOS_TOL,
    commuting_witness,
    min_eigenvalue_witness,
)
from homcurv.spaces import catalog_build, catalog_labels, listing_params

SPECS = ("normal", "sample:0", "sample:1", "sample:2", "sample:3", "sample:4")
# per label: commuting and min-eigenvalue witness, "F" (found) or "." per
# metric in SPECS order
FOUND = {
    "sphere-so": ("......", "......"),
    "sphere-su": ("......", "......"),
    "sphere-u": ("......", "......"),
    "sphere-sp": ("......", "......"),
    "sphere-spsp1": ("......", "......"),
    "sphere-spu1": ("......", "......"),
    "cpn": ("......", "......"),
    "hpn": ("......", "......"),
    "cp2n1": ("......", "......"),
    "berger13": ("......", "......"),
    "berger7": ("......", "......"),
    "w11": ("......", "......"),
    "wallach6": ("F.....", "F....."),
    "wallach12": ("F.....", "F....."),
    "aloffwallach-su3": ("F.....", "F....."),
    "aloffwallach-u3": ("F.....", "F....."),
    "stiefel": ("F.....", "FFFFFF"),
    "sp2circle": ("F.....", "FFFFFF"),
    "su3circle": ("FFFFFF", "F....."),
    "s3s3circle": ("FFFFFF", "F.FFF."),
    "sp3mix": ("FFFFFF", "F....."),
}


def _matrix_ratio(space, x, y):
    """|[x, y]|² / Gram, with the bracket taken as a matrix commutator."""
    alg = space.ambient
    mx, my = (matrix_of(alg, space.p_embed(v)) for v in (x, y))
    c = coords_of(alg, mx @ my - my @ mx)
    return (c @ c) / ((x @ x) * (y @ y) - (x @ y) ** 2)


def test_grid_covers_the_catalog():
    assert list(FOUND) == catalog_labels()


@pytest.mark.parametrize("label", list(FOUND))
def test_witness_grid(label):
    space = catalog_build(label, **listing_params(label))
    for spec, *want in zip(SPECS, *FOUND[label]):
        g = metric_from_spec(space, spec)
        cv = Curvature(space, g)
        got = [commuting_witness(space, g), min_eigenvalue_witness(space, g)]
        assert ["F" if w.found else "." for w in got] == want, spec
        for w in got:
            if not w.found:
                continue
            # the min-eigenvalue plane is (x, G⁻¹z) with [x, z] = 0
            partner = g @ w.y if w.kind == "min-eigenvalue" else w.y
            assert _matrix_ratio(space, w.x, partner) < ACCEPT, (spec, w.kind)
            assert cv.numerator(w.x, w.y) <= NONPOS_TOL, (spec, w.kind)
