"""Why the quaternionic Stiefel fixture never carries positive curvature.

For Sp(2)/(diagonal Sp(1)) every invariant metric admits a plane of
nonpositive curvature.  The mechanism: take an eigenvector x of the
metric for its smallest eigenvalue, find z in the complement commuting
with x, and evaluate the plane spanned by x and G^{-1} z.  The script
runs this construction on a handful of sampled metrics and confirms
the witness against the independent multistart search.
"""
import numpy as np

from homcurv import catalog_build
from homcurv.certify import certify
from homcurv.curvature import Curvature
from homcurv.metrics import metric_sampler
from homcurv.obstructions import min_eigenvalue_witness


def main():
    space = catalog_build("stiefel")
    print(f"{space.label}: dim p = {space.dim_p}")
    sample = metric_sampler(space)
    for seed in range(5):
        g = sample(seed)
        evals = np.linalg.eigvalsh(g)
        w = min_eigenvalue_witness(space, g, seed=0)
        value = Curvature(space, g).sectional(w.x, w.y)
        r = certify(space, g, seed=0, starts=16)
        print(f"seed {seed}: spectrum [{evals[0]:.3f}..{evals[-1]:.3f}]  "
              f"witness plane value {value:+.3e}  search verdict {r.verdict}")


if __name__ == "__main__":
    main()
