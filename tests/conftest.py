"""Test-session setup.

BLAS is pinned to one thread before numpy is first imported: the products in
this package are small, and on a loaded machine a multi-threaded BLAS makes
them up to a hundred times slower.  Values already set in the environment win.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
