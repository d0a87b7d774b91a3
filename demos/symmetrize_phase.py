"""A hidden symmetry of the (3,1) circle quotient of Sp(2).

The element a = diag(j, j) normalizes the circle subgroup, acts on the
complement with determinant -1, and can be combined with a torus phase b
so that conjugation by ab fixes any given invariant metric.  The script
computes the phase for a few sampled metrics and checks the conjugated
metric really commutes with the induced action.
"""
from homcurv import catalog_build
from homcurv.metrics import metric_sampler
from homcurv.obstructions import symmetrize_sp2_31


def main():
    space = catalog_build("sp2circle", p=3, q=1)
    print(f"{space.label} (3,1): dim p = {space.dim_p}")
    sample = metric_sampler(space)
    for seed in range(5):
        g = sample(seed)
        sym = symmetrize_sp2_31(space, g)
        print(f"seed {seed}: det(action on p) = {sym.det_involution:+.6f}, "
              f"phase = {sym.psi:+.6f}, commutation residual = "
              f"{sym.residual:.2e}")


if __name__ == "__main__":
    main()
